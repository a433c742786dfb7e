"""Exact optimal adaptive policies by dynamic programming.

States are (uninspected set, best observed value); independence of box values
plus the fact that an open selection always takes the maximum make this
compression sufficient (the test suite cross-checks it against exhaustive
full-history policy trees at tiny scale).

Variants:
  * "nonobligatory": actions are select-best-open / halt, select any closed
    box, or inspect.
  * "required": selection requires prior inspection; no closed selection and
    no halting, so the value equals E[max_i kappa_i].

Deterministic tie-breaking: stopping (halt or select best open) beats a
closed selection beats an inspection; within a class the lowest box index
wins.

The recursion runs on the instance's integer form (core.IntegerForm), so
every candidate compare is an integer compare: a state is one int id, of U
as a bitmask (one of 2^n) and the grid rank of the best observed value (one
of G + 1, -1 while nothing is observed).  The memo is checked where the
inspect loop reads a successor, so a state already solved costs no call.
The public table keeps the (frozenset, value) keys: each mask's frozenset is
built once, and each state's value becomes a Fraction once, when its table
entry is stored.  The solution also keeps each state's action by its id, so
DecisionTablePolicy decides on a policies.PolicyTree node from its (mask,
rank) alone; it runs only on an instance equal to the solved one.

Size guard: solve_dp raises SizeGuardError before any state is solved when
the state bound 2^n (G + 1), G the size of the value grid, exceeds
MAX_DP_STATES.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Tuple

from .core import Instance, Num, SizeGuardError
from .policies import Action, Halt, Inspect, Node, Policy, SelectClosed, SelectOpen

NONOBLIGATORY = "nonobligatory"
REQUIRED = "required"

MAX_DP_STATES = 1 << 22

# Abstract action: ("halt"|"select_open"|"select_closed"|"inspect", box or None)
AbstractAction = Tuple[str, Optional[int]]
DPState = Tuple[FrozenSet[int], Optional[Num]]


@dataclass(frozen=True)
class DPSolution:
    value: Num
    table: Dict[DPState, Tuple[AbstractAction, Num]]
    # Each solved state's action by state id, on the solved instance's
    # integer form: codes[id] indexes moves, and 0 marks a state not solved.
    codes: bytearray = field(compare=False, repr=False)
    moves: Tuple[Optional[AbstractAction], ...] = field(compare=False, repr=False)
    instance: Instance = field(compare=False, repr=False)


def solve_dp(inst: Instance, variant: str = NONOBLIGATORY) -> DPSolution:
    if variant not in (NONOBLIGATORY, REQUIRED):
        raise ValueError(f"unknown variant {variant!r}")

    n = inst.n
    nonobligatory = variant == NONOBLIGATORY
    form = inst.form
    grid, ranked = form.grid, form.boxes  # ranked[i]: (d_i, (rank, p * d_i) pairs)
    width = len(grid) + 1  # state id: mask * width + best + 1
    bound = (1 << n) * width
    if bound > MAX_DP_STATES:
        raise SizeGuardError(f"DP state bound 2^{n} * {width} = {bound} exceeds {MAX_DP_STATES}")
    scale, grid_scaled, mean_scaled, cost_scaled = form.scale, form.values, form.means, form.costs

    table: Dict[DPState, Tuple[AbstractAction, Num]] = {}
    memo: Dict[int, int] = {}
    # An action's code: 1 halt, 2 select open, 3 + j select j closed,
    # 3 + n + i inspect i.  Past MAX_DP_STATES no state is solved, so n <= 21
    # and every code fits in a byte.
    moves = (None, ("halt", None), ("select_open", None), *(("select_closed", j) for j in range(n)),
             *(("inspect", i) for i in range(n)))
    codes = bytearray(bound)
    sets: Dict[int, Tuple[FrozenSet[int], Tuple[int, ...]]] = {}  # mask -> (set, members)

    def value(mask: int, best: int, weight: int) -> int:
        """Value of the state not yet in memo, times scale * weight, where
        weight is the product of d_i over the uninspected boxes."""
        entry = sets.get(mask)
        if entry is None:
            members = tuple(i for i in range(n) if mask >> i & 1)
            entry = sets[mask] = (frozenset(members), members)
        uninspected, members = entry
        top: Optional[int] = None
        code = 0
        if best >= 0:
            top, code = grid_scaled[best] * weight, 2
        elif nonobligatory:
            top, code = 0, 1
        if nonobligatory:
            for j in members:
                closed = mean_scaled[j] * weight
                if closed > top:
                    top, code = closed, 3 + j
        for i in members:
            rest = mask ^ (1 << i)
            base = rest * width + 1
            cont = -cost_scaled[i] * weight
            d, branches = ranked[i]
            for v, w in branches:
                nb = v if v > best else best
                sub = memo.get(base + nb)
                if sub is None:
                    sub = value(rest, nb, weight // d)
                cont += w * sub
            if top is None or cont > top:
                top, code = cont, 3 + n + i
        if not code:
            raise AssertionError("no legal action: empty state with nothing observed")
        state = mask * width + best + 1
        memo[state] = top
        codes[state] = code
        table[(uninspected, grid[best] if best >= 0 else None)] = (moves[code], Fraction(top, scale * weight))
        return top

    value((1 << n) - 1, -1, form.weight)
    return DPSolution(value=table[(frozenset(range(n)), None)][1], table=table, codes=codes, moves=moves,
                      instance=inst)


class DecisionTablePolicy(Policy):
    """Policy read off a solved table: the one reader of its action strings.
    decide reads the action by the node's state id, mask * width + rank + 1.
    It runs only on an instance equal to the solved one, where every node
    the tree reaches is a solved state: solve_dp solves every child of each
    inspection it records."""

    def __init__(self, sol: DPSolution):
        self.instance = sol.instance
        self._codes, self._moves, self._width = sol.codes, sol.moves, len(sol.instance.form.grid) + 1

    def decide(self, node: Node) -> Action:
        return _action(self._moves[self._codes[node.mask * self._width + node.rank + 1]], node.best)


def _action(move: AbstractAction, best: Optional[int]) -> Action:
    """The policy action of a table action, best the best opened box."""
    kind, box = move
    if kind == "inspect":
        return Inspect(box)
    if kind == "select_closed":
        return SelectClosed(box)
    return SelectOpen(best) if kind == "select_open" else Halt()


def dp_policy(sol: DPSolution) -> DecisionTablePolicy:
    """Executable policy reading actions off the solved table; its exact
    evaluation equals sol.value."""
    return DecisionTablePolicy(sol)
