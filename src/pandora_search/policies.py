"""Search policies, the execution-trace model and the policy-execution tree.

A policy is a deterministic map from the current information state (which
boxes are still uninspected, which values have been observed) to an action:
inspect a box, select an opened box, select a box without opening it, or
halt with nothing.  Randomized policies are modeled as mixtures at the
harness level, never inside a policy object.

Tie conventions inside Weitzman-style execution: stopping is *weak* (stop and
select the best opened box as soon as its value is >= every remaining
reservation value), among equal reservation values the lower index is
inspected first, and among equal observed values the box inspected earliest
is selected (SearchState.best_open).  Weak stopping preserves non-exposure,
which only constrains values strictly above sigma.

PolicyTree is the one engine that executes policies, on the instance's
integer form (core.IntegerForm): one depth-first traversal builds each reached
node once, splits the weight it carries at each inspecting node (integer
probabilities for exact evaluation, sampled outcomes for the simulator) and
counts terminal nodes against PATH_LIMIT (PathLimitError).  A node holds its
information state as integers (Node), and every policy's decide gets the
node: the built-in policies read its integers and run only on an instance
equal to their own, while a CallbackPolicy's function gets node.state, a
SearchState built only when read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, FrozenSet, Iterator, Optional, Tuple, Union

from .core import Instance, Num, SizeGuardError
from . import reservation

PATH_LIMIT = 10_000_000


class IllegalActionError(RuntimeError):
    """A policy emitted an action that is not legal in its current state."""


class PathLimitError(SizeGuardError):
    """Exact enumeration exceeded the configured number of sample paths."""


# --- actions ---------------------------------------------------------------

@dataclass(frozen=True)
class Inspect:
    box: int


@dataclass(frozen=True)
class SelectOpen:
    box: int


@dataclass(frozen=True)
class SelectClosed:
    box: int


@dataclass(frozen=True)
class Halt:
    pass


Action = Union[Inspect, SelectOpen, SelectClosed, Halt]
TerminalAction = Union[SelectOpen, SelectClosed, Halt]


@dataclass(frozen=True)
class SearchState:
    """Information available to a policy: observations so far, boxes left."""

    observed: Tuple[Tuple[int, Num], ...]  # (box, value) in inspection order
    uninspected: FrozenSet[int]

    def best_open(self) -> Optional[Tuple[int, Num]]:
        """Earliest-inspected opened box achieving the maximum observed value:
        among equal values the first one observed wins, whatever its index."""
        best = None
        for i, v in self.observed:
            if best is None or v > best[1]:
                best = (i, v)
        return best


def _holds(bits: int, box) -> bool:
    """Whether box is one of the positions of the set bits of bits, as `in`
    on the set of those positions would say for any box."""
    if type(box) is int and box >= 0:
        return bits >> box & 1 == 1
    return box in {i for i in range(bits.bit_length()) if bits >> i & 1}


@dataclass(frozen=True)
class Trace:
    """One complete execution path of a policy.

    The utility field is the *expected* utility of the path: the value of a
    closed-selected box enters as its distribution mean, since the realized
    draw is unobserved and integrates out.
    """

    steps: Tuple[Tuple[int, Num], ...]  # inspections as (box, realized value)
    final: TerminalAction
    probability: Num
    utility: Num


# --- the execution tree ----------------------------------------------------

class Node:
    """One information state reached by a policy, as integers: mask, the
    uninspected boxes as a bitmask; rank, the grid rank of the best observed
    value (-1 while nothing is observed); best, that value's box, the
    earliest inspected on ties (None while nothing is observed); and cost,
    the inspection cost paid to reach it times the integer form's scale
    (core.IntegerForm.scale).  action is the policy's (checked) action there;
    the node is terminal when it is not an Inspect.

    state is the same information as a SearchState, built on first read
    from the parent's state and value, the value observed on the way here."""

    __slots__ = ("parent", "value", "mask", "rank", "best", "cost", "action", "_state")

    def __init__(self, parent: Optional["Node"], value: Optional[Num], mask: int, rank: int,
                 best: Optional[int], cost: int):
        self.parent = parent
        self.value = value
        self.mask = mask
        self.rank = rank
        self.best = best
        self.cost = cost
        self._state: Optional[SearchState] = None

    @property
    def state(self) -> SearchState:
        if self._state is None:
            # Build the missing states from the nearest ancestor that has one
            # (the root always does), without recursion: a path can be long.
            missing = []
            node = self
            while node._state is None:
                missing.append(node)
                node = node.parent
            state = node._state
            for node in reversed(missing):
                i = node.parent.action.box
                state = node._state = SearchState(state.observed + ((i, node.value),), state.uninspected - {i})
        return self._state


class PolicyTree:
    """The execution tree of a deterministic policy on an instance, expanded
    lazily: the policy's decide and the legality monitor run once per node,
    when the node is built, and an illegal action raises IllegalActionError
    there.  decide gets the node itself.  A policy bound to an instance (its
    instance is set) runs only on an equal one: ValueError otherwise.

    Probabilities, values and costs come from the instance's integer form;
    a node's weight is its probability times scale = prod d_i (the form's
    weight)."""

    def __init__(self, inst: Instance, pol: Policy):
        if pol.instance is not None and pol.instance is not inst and pol.instance != inst:
            raise ValueError("the policy was built for another instance")
        self.instance = inst
        self.policy = pol
        self.form = form = inst.form
        self._grid, self._boxes, self._costs = form.grid, form.boxes, form.costs  # read at every node
        self.scale = form.weight
        self._full = (1 << inst.n) - 1  # the mask of every box
        self._decide = pol.decide
        root = Node(None, None, self._full, -1, None, 0)
        root._state = SearchState(observed=(), uninspected=frozenset(range(inst.n)))
        self.root = self._settle(root)

    def _settle(self, node: Node) -> Node:
        """Decide node's action and check it on node's mask, with the
        messages of a check on its state."""
        action = self._decide(node)
        if isinstance(action, (Inspect, SelectClosed)):
            if not _holds(node.mask, action.box):
                raise IllegalActionError(f"{action} targets an inspected/unknown box")
        elif isinstance(action, SelectOpen):
            if not _holds(self._full ^ node.mask, action.box):
                raise IllegalActionError(f"{action} targets a box that was never opened")
        elif not isinstance(action, Halt):
            raise IllegalActionError(f"not an action: {action!r}")
        node.action = action
        return node

    def _expand(self, node: Node, k: int) -> Node:
        i = node.action.box
        seen = self._boxes[i][1][k][0]
        if seen > node.rank:
            rank, best = seen, i
        else:
            rank, best = node.rank, node.best
        return self._settle(Node(node, self._grid[seen], node.mask ^ (1 << i), rank, best,
                                 node.cost + self._costs[i]))

    def traverse(self, weight: Any, split: Callable) -> Iterator[Tuple[Node, Any]]:
        """Every reached node with the weight it carries, depth first from the
        root, which carries weight.  At a node inspecting box i, the children
        are the (support index, child weight) pairs of split(i, weight), a
        reversible collection, in its order; each is built when reached and
        not kept.  Raises PathLimitError past PATH_LIMIT terminal nodes."""
        paths = 0
        stack = [(None, 0, weight)]
        while stack:
            parent, k, weight = stack.pop()
            node = self.root if parent is None else self._expand(parent, k)
            if isinstance(node.action, Inspect):
                for k, w in reversed(split(node.action.box, weight)):
                    stack.append((node, k, w))
            else:
                paths += 1
                if paths > PATH_LIMIT:
                    raise PathLimitError(f"path enumeration exceeded limit of {PATH_LIMIT}")
            yield node, weight

    def walk(self) -> Iterator[Tuple[Node, int]]:
        """Every node with its weight (probability times scale), depth first
        with children in support order.  A child's weight is its parent's
        // d_i * (p * d_i), so the walk only multiplies integers."""
        def split(i, weight):
            d, pairs = self._boxes[i]
            child_weight = weight // d
            return [(k, child_weight * pd) for k, (_, pd) in enumerate(pairs)]

        return self.traverse(self.scale, split)

    def payoff(self, node: Node) -> Num:
        """Expected utility at a terminal node: the selected box's value (its
        mean when selected closed) minus the inspection costs paid."""
        action = node.action
        if isinstance(action, SelectOpen):
            value = dict(node.state.observed)[action.box]
        elif isinstance(action, SelectClosed):
            value = self.instance.boxes[action.box].dist.expectation()
        else:
            value = 0
        return value - Fraction(node.cost, self.form.scale)


# --- concrete policies -----------------------------------------------------

class Policy:
    """decide maps a node of the tree that runs the policy (Node) to an
    action; CallbackPolicy hands its function node.state instead.  A policy
    whose instance is set, as every built-in one's is, runs only on an
    instance equal to it (PolicyTree raises ValueError otherwise)."""

    instance: Optional[Instance] = None

    def decide(self, node: Node) -> Action:
        raise NotImplementedError


class CommittingPolicy(Policy):
    """The optimal committing policy with a given reservation set S.

    Simulates Weitzman's policy on the modified instance where every box in S
    becomes a zero-cost point mass at its mean, so its sigma is E[v];
    "inspecting" such a box is realized as selecting it closed.  Inspection
    follows decreasing (modified) reservation value, and the policy stops and
    selects the best opened box once its value is >= every remaining sigma.

    decide reads the node's integers: the next box of the order is the first
    whose bit is set in mask, and the stop test best >= sigma_i is rank >=
    the grid rank of the first value >= sigma_i.  Every action is one built
    with the policy.
    """

    def __init__(self, inst: Instance, reservation_set):
        self.reservation_set = frozenset(reservation_set)
        if not self.reservation_set <= set(range(inst.n)):
            raise ValueError("reservation set contains unknown box indices")
        self.sigmas = tuple(
            box.dist.expectation() if i in self.reservation_set else reservation.reservation_value(box)
            for i, box in enumerate(inst.boxes))
        self.order = sorted(range(inst.n), key=lambda i: (-self.sigmas[i], i))
        self.instance = inst
        self._stop_ranks = [bisect_left(inst.form.grid, s) for s in self.sigmas]
        # A box of S is "inspected" by selecting it closed: simulation sees
        # E[v] = sigma there and stops at once.
        self._next = [SelectClosed(i) if i in self.reservation_set else Inspect(i) for i in range(inst.n)]
        self._stop = [SelectOpen(i) for i in range(inst.n)]

    def decide(self, node: Node) -> Action:
        mask = node.mask
        for nxt in self.order:
            if mask >> nxt & 1:
                if node.rank < self._stop_ranks[nxt]:
                    return self._next[nxt]
                break
        return self._stop[node.best]


class WeitzmanPolicy(CommittingPolicy):
    """Weitzman's index policy: the committing policy with S empty, which
    never selects a closed box (Policy A baseline)."""

    def __init__(self, inst: Instance):
        super().__init__(inst, ())


class CallbackPolicy(Policy):
    """Wraps an untrusted decision function on SearchStates: fn gets each
    node's state.  It runs on any instance; legality is enforced by the
    tree's monitor, which fails fast on an illegal action."""

    def __init__(self, fn: Callable[[SearchState], Action]):
        self.fn = fn

    def decide(self, node: Node) -> Action:
        return self.fn(node.state)
