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
The memo and the action codes are the one record per state (DPSolution);
the public table, keyed by (frozenset, value), is built from them on first
read, and the root's value is the one Fraction a solve builds.
DecisionTablePolicy decides on a policies.PolicyTree node from its (mask,
rank) alone; it runs only on an instance equal to the solved one.

Size guard: solve_dp raises SizeGuardError before any state is solved when
the state bound 2^n (G + 1), G the size of the value grid, exceeds
MAX_DP_STATES.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
    """A solved DP on the instance's integer form.  values holds each solved
    state's value by state id (mask * (G + 1) + rank + 1), in solve order, as
    an integer on the scale L * prod_{i in U} d_i (core.IntegerForm); codes
    holds its action code by id, 0 for a state not solved: 1 halt, 2 select
    open, 3 + j select j closed, 3 + n + i inspect i.  table is built from
    them on first read."""

    value: Num
    values: Dict[int, int] = field(repr=False)
    codes: bytearray = field(compare=False, repr=False)
    instance: Instance = field(compare=False, repr=False)

    @cached_property
    def table(self) -> Dict[DPState, Tuple[AbstractAction, Num]]:
        """{(uninspected set, best observed value or None): (action, value)}
        for every solved state, in solve order."""
        n, form = self.instance.n, self.instance.form
        grid, width, codes = form.grid, len(form.grid) + 1, self.codes
        moves = (None, ("halt", None), ("select_open", None), *(("select_closed", j) for j in range(n)),
                 *(("inspect", i) for i in range(n)))
        # By mask: its set and its value scale, L * prod_{i in U} d_i
        sets = [(frozenset(), form.scale)]
        for i, (d, _) in enumerate(form.boxes):
            sets += [(members | {i}, scale * d) for members, scale in sets]
        table: Dict[DPState, Tuple[AbstractAction, Num]] = {}
        for state, top in self.values.items():
            mask, rank = divmod(state, width)
            uninspected, scale = sets[mask]
            best = grid[rank - 1] if rank else None
            table[(uninspected, best)] = (moves[codes[state]], Fraction(top, scale))
        return table


def solve_dp(inst: Instance, variant: str = NONOBLIGATORY) -> DPSolution:
    if variant not in (NONOBLIGATORY, REQUIRED):
        raise ValueError(f"unknown variant {variant!r}")

    n = inst.n
    nonobligatory = variant == NONOBLIGATORY
    form = inst.form
    ranked = form.boxes  # ranked[i]: (d_i, (rank, p * d_i) pairs)
    width = len(form.grid) + 1  # state id: mask * width + best + 1
    bound = (1 << n) * width
    if bound > MAX_DP_STATES:
        raise SizeGuardError(f"DP state bound 2^{n} * {width} = {bound} exceeds {MAX_DP_STATES}")
    grid_scaled, mean_scaled, cost_scaled = form.values, form.means, form.costs

    memo: Dict[int, int] = {}
    # Past MAX_DP_STATES no state is solved, so n <= 21 and every action
    # code fits in a byte.
    codes = bytearray(bound)

    def value(mask: int, best: int, weight: int) -> int:
        """Value of the state not yet in memo, times scale * weight, where
        weight is the product of d_i over the uninspected boxes."""
        members = [i for i in range(n) if mask >> i & 1]
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
        return top

    root = value((1 << n) - 1, -1, form.weight)
    return DPSolution(value=Fraction(root, form.scale * form.weight), values=memo, codes=codes, instance=inst)


class DecisionTablePolicy(Policy):
    """Policy read off a solved table: decide reads the action code by the
    node's state id, mask * width + rank + 1, and indexes the actions built
    with the policy (code 2, select open, takes the node's best box).  It
    runs only on an instance equal to the solved one, where every node the
    tree reaches is a solved state: solve_dp solves every child of each
    inspection it records."""

    def __init__(self, sol: DPSolution):
        n = sol.instance.n
        self.instance = sol.instance
        self._codes, self._width = sol.codes, len(sol.instance.form.grid) + 1
        self._actions = (None, Halt(), None, *map(SelectClosed, range(n)), *map(Inspect, range(n)))

    def decide(self, node: Node) -> Action:
        code = self._codes[node.mask * self._width + node.rank + 1]
        return SelectOpen(node.best) if code == 2 else self._actions[code]


def dp_policy(sol: DPSolution) -> DecisionTablePolicy:
    """Executable policy reading actions off the solved table; its exact
    evaluation equals sol.value."""
    return DecisionTablePolicy(sol)
