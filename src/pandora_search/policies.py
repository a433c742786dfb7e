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
integer form (core.IntegerForm), which also holds the sigma and E[v], as
integers on its scale, that CommittingPolicy and a closed selection's payoff
read: one depth-first traversal builds each reached node once, splits the
weight it carries at each inspecting node (integer probabilities or sampled
outcomes) and counts terminal nodes against PATH_LIMIT (PathLimitError).  A node holds its state
as integers and its own observations (Node), and every policy's decide gets
the node: the built-in policies read its integers and run only on an
instance equal to their own, while a CallbackPolicy's function gets
node.state, built from the node's observations when read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Any, Callable, FrozenSet, Iterator, Optional, Tuple, Union

from .core import Instance, Num, SizeGuardError

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
    """Whether box is a nonnegative integer (operator.index: an int, a bool
    or a numpy integer, not a float) at one of the positions of the set bits
    of bits."""
    try:
        box = index(box)
    except TypeError:
        return False
    return box >= 0 and bits >> box & 1 == 1


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
    (core.IntegerForm.scale).  observed is its (box, value) pairs in
    inspection order: its parent's plus the one seen on the way here.
    action is the policy's (checked) action there; the node is terminal when
    it is not an Inspect.  state is the same information as a SearchState,
    built from observed and mask when read."""

    __slots__ = ("observed", "mask", "rank", "best", "cost", "action")

    def __init__(self, observed: Tuple[Tuple[int, Num], ...], mask: int, rank: int, best: Optional[int],
                 cost: int):
        self.observed = observed
        self.mask = mask
        self.rank = rank
        self.best = best
        self.cost = cost

    @property
    def state(self) -> SearchState:
        mask = self.mask
        return SearchState(self.observed, frozenset(i for i in range(mask.bit_length()) if mask >> i & 1))


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
        self.policy = pol
        self.form = form = inst.form
        self._grid, self._boxes, self._costs = form.grid, form.boxes, form.costs  # read at every node
        self.scale = form.weight
        self._full = (1 << inst.n) - 1  # the mask of every box
        self._decide = pol.decide
        self.root = self._settle(Node((), self._full, -1, None, 0))

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
        return self._settle(Node(node.observed + ((i, self._grid[seen]),), node.mask ^ (1 << i), rank, best,
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

    def opened_rank(self, node: Node) -> int:
        """The grid rank of the value of the box that node's SelectOpen
        selects: node.rank for the carried best box, which it nearly always
        is; another box's rank is looked up from its observed value, by that
        value times the form's scale."""
        if node.best == node.action.box:
            return node.rank
        value = dict(node.observed)[node.action.box]
        return bisect_left(self.form.values, value.numerator * (self.form.scale // value.denominator))

    def payoff(self, node: Node) -> Num:
        """Expected utility at a terminal node: the selected box's value (its
        mean when selected closed) minus the inspection costs paid, as one
        Fraction over the form's scale."""
        action = node.action
        if isinstance(action, SelectOpen):
            value = self.form.values[self.opened_rank(node)]
        elif isinstance(action, SelectClosed):
            value = self.form.means[action.box]
        else:
            value = 0
        return Fraction(value - node.cost, self.form.scale)


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
    the grid rank of the first value >= sigma_i.  The order and those ranks
    come from integers on the form's scale L, each box's cap sigma_i L (its
    mean E[v_i] L for a box of S) bisected on the form's values, so building
    the policy does no Fraction arithmetic.  Every action is one built with
    the policy.
    """

    def __init__(self, inst: Instance, reservation_set):
        self.reservation_set = frozenset(reservation_set)
        if not self.reservation_set <= set(range(inst.n)):
            raise ValueError("reservation set contains unknown box indices")
        form = inst.form
        self.sigmas = tuple(form.expected_values[i] if i in self.reservation_set else form.sigmas[i]
                            for i in range(inst.n))
        caps = [form.means[i] if i in self.reservation_set else form.caps[i] for i in range(inst.n)]
        self.order = sorted(range(inst.n), key=lambda i: (-caps[i], i))
        self.instance = inst
        self._stop_ranks = [bisect_left(form.values, cap) for cap in caps]
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
