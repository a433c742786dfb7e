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
counts terminal nodes against PATH_LIMIT (PathLimitError).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


_SCAN = object()


@dataclass(frozen=True)
class SearchState:
    """Information available to a policy: observations so far, boxes left.

    best is the (box, value) that best_open returns.  The execution tree
    carries it from parent to child; a state built without it finds it by a
    scan of observed."""

    observed: Tuple[Tuple[int, Num], ...]  # (box, value) in inspection order
    uninspected: FrozenSet[int]
    best: Optional[Tuple[int, Num]] = field(default=_SCAN, compare=False, repr=False)

    def __post_init__(self):
        if self.best is _SCAN:
            best = None
            for i, v in self.observed:
                if best is None or v > best[1]:
                    best = (i, v)
            object.__setattr__(self, "best", best)

    def best_open(self) -> Optional[Tuple[int, Num]]:
        """Earliest-inspected opened box achieving the maximum observed value:
        among equal values the first one observed wins, whatever its index."""
        return self.best


def check_legal(state: SearchState, action: Action) -> None:
    if isinstance(action, (Inspect, SelectClosed)):
        if action.box not in state.uninspected:
            raise IllegalActionError(f"{action} targets an inspected/unknown box")
    elif isinstance(action, SelectOpen):
        if action.box not in dict(state.observed):
            raise IllegalActionError(f"{action} targets a box that was never opened")
    elif not isinstance(action, Halt):
        raise IllegalActionError(f"not an action: {action!r}")


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
    """One information state reached by a policy: the observed sequence of
    (box, support index) pairs, held as the SearchState it produces, with the
    policy's (checked) action there, the inspection cost paid to reach it
    times the integer form's scale (core.IntegerForm.scale), and the grid
    rank of the best observed value (-1 while nothing is observed).  A node
    is terminal when its action is not an Inspect."""

    __slots__ = ("state", "action", "cost", "rank")

    def __init__(self, state: SearchState, action: Action, cost: int, rank: int):
        self.state = state
        self.action = action
        self.cost = cost
        self.rank = rank


class PolicyTree:
    """The execution tree of a deterministic policy on an instance, expanded
    lazily: the policy's decide and the legality monitor run once per node,
    when the node is built, and an illegal action raises IllegalActionError
    there.

    Probabilities, values and costs come from the instance's integer form;
    a node's weight is its probability times scale = prod d_i (the form's
    weight)."""

    def __init__(self, inst: Instance, pol: Policy):
        self.instance = inst
        self.policy = pol
        self.form = form = inst.form
        self._grid, self._boxes, self._costs = form.grid, form.boxes, form.costs  # read at every node
        self.scale = form.weight
        self.root = self._node(SearchState(observed=(), uninspected=frozenset(range(inst.n)), best=None), 0, -1)

    def _node(self, state: SearchState, cost: int, rank: int) -> Node:
        action = self.policy.decide(state)
        check_legal(state, action)
        return Node(state, action, cost, rank)

    def _expand(self, node: Node, k: int) -> Node:
        i = node.action.box
        rank = self._boxes[i][1][k][0]
        v = self._grid[rank]
        state = node.state
        if rank > node.rank:
            best = (i, v)
        else:
            best, rank = state.best, node.rank
        child = SearchState(state.observed + ((i, v),), state.uninspected - {i}, best)
        return self._node(child, node.cost + self._costs[i], rank)

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
    def decide(self, state: SearchState) -> Action:
        raise NotImplementedError


class CommittingPolicy(Policy):
    """The optimal committing policy with a given reservation set S.

    Simulates Weitzman's policy on the modified instance where every box in S
    becomes a zero-cost point mass at its mean, so its sigma is E[v];
    "inspecting" such a box is realized as selecting it closed.  Inspection
    follows decreasing (modified) reservation value, and the policy stops and
    selects the best opened box once its value is >= every remaining sigma.
    """

    def __init__(self, inst: Instance, reservation_set):
        self.reservation_set = frozenset(reservation_set)
        if not self.reservation_set <= set(range(inst.n)):
            raise ValueError("reservation set contains unknown box indices")
        self.sigmas = tuple(
            box.dist.expectation() if i in self.reservation_set else reservation.reservation_value(box)
            for i, box in enumerate(inst.boxes))
        self.order = sorted(range(inst.n), key=lambda i: (-self.sigmas[i], i))
        self._sigmas = [(s.numerator, s.denominator) for s in self.sigmas]

    def decide(self, state: SearchState) -> Action:
        # A loop: next() over a generator is slower than building the list.
        for nxt in self.order:
            if nxt in state.uninspected:
                break
        else:
            nxt = None
        best = state.best_open()
        if best is not None:
            if nxt is None:
                return SelectOpen(best[0])
            # best >= sigma as one integer cross-multiplication: ints and
            # Fractions both have a positive denominator.
            num, den = self._sigmas[nxt]
            if best[1].numerator * den >= num * best[1].denominator:
                return SelectOpen(best[0])
        if nxt in self.reservation_set:
            # Simulation "inspects" the point mass, sees E[v] = sigma, and
            # stops immediately; realized here as a closed selection.
            return SelectClosed(nxt)
        return Inspect(nxt)


class WeitzmanPolicy(CommittingPolicy):
    """Weitzman's index policy: the committing policy with S empty, which
    never selects a closed box (Policy A baseline)."""

    def __init__(self, inst: Instance):
        super().__init__(inst, ())


class CallbackPolicy(Policy):
    """Wraps an untrusted decision function; legality is enforced by the
    evaluator's monitor, which fails fast on an illegal action."""

    def __init__(self, fn: Callable[[SearchState], Action]):
        self.fn = fn

    def decide(self, state: SearchState) -> Action:
        return self.fn(state)
