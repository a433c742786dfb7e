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

The recursion runs on integers.  Let d_i be the common denominator of box
i's probabilities and L the lcm of the denominators of every support value,
cost and mean.  The value of a state with uninspected set U is an integer
once multiplied by L * prod_{i in U} d_i, so inspecting i scores
-c_i L prod_U d + sum_v (p_v d_i) V(U - {i}, best'), every candidate compare
is an integer compare, and each state's value becomes a Fraction once, when
its table entry is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Dict, FrozenSet, Optional, Tuple

from .core import Instance, Num, SizeGuardError, require_rational
from .policies import DecisionTablePolicy

NONOBLIGATORY = "nonobligatory"
REQUIRED = "required"

DEFAULT_MAX_BOXES = 20

# Abstract action: ("halt"|"select_open"|"select_closed"|"inspect", box or None)
AbstractAction = Tuple[str, Optional[int]]
DPState = Tuple[FrozenSet[int], Optional[Num]]


@dataclass(frozen=True)
class DPSolution:
    value: Num
    table: Dict[DPState, Tuple[AbstractAction, Num]]
    variant: str
    instance: Instance


def solve_dp(inst: Instance, variant: str = NONOBLIGATORY, max_boxes: int = DEFAULT_MAX_BOXES) -> DPSolution:
    if variant not in (NONOBLIGATORY, REQUIRED):
        raise ValueError(f"unknown variant {variant!r}")
    if inst.n > max_boxes:
        raise SizeGuardError(f"instance has {inst.n} boxes, guard is {max_boxes}")
    require_rational(inst)

    boxes = inst.boxes
    nonobligatory = variant == NONOBLIGATORY
    values = {v for box in boxes for v in box.dist.values()}
    means = [box.dist.expectation() for box in boxes]
    costs = [box.cost for box in boxes]
    scale = lcm(*(x.denominator for x in [*values, *means, *costs]))

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    value_scaled = {v: scaled(v) for v in values}
    mean_scaled = [scaled(m) for m in means]
    cost_scaled = [scaled(c) for c in costs]
    dens = []
    branches = []  # per box: (value, p * d_i)
    for box in boxes:
        d = lcm(*(p.denominator for _, p in box.dist.support))
        dens.append(d)
        branches.append(tuple((v, p.numerator * (d // p.denominator)) for v, p in box.dist.support))

    table: Dict[DPState, Tuple[AbstractAction, Num]] = {}
    memo: Dict[DPState, int] = {}

    def value(uninspected: FrozenSet[int], best: Optional[Num], weight: int) -> int:
        """Value of the state times scale * weight, where weight is the
        product of d_i over the uninspected boxes."""
        key = (uninspected, best)
        hit = memo.get(key)
        if hit is not None:
            return hit
        members = sorted(uninspected)
        top: Optional[int] = None
        action: Optional[AbstractAction] = None
        if best is not None:
            top, action = value_scaled[best] * weight, ("select_open", None)
        elif nonobligatory:
            top, action = 0, ("halt", None)
        if nonobligatory:
            for j in members:
                closed = mean_scaled[j] * weight
                if closed > top:
                    top, action = closed, ("select_closed", j)
        for i in members:
            rest = uninspected - {i}
            sub = weight // dens[i]
            cont = -cost_scaled[i] * weight
            for v, w in branches[i]:
                cont += w * value(rest, v if best is None or v > best else best, sub)
            if top is None or cont > top:
                top, action = cont, ("inspect", i)
        if action is None:
            raise AssertionError("no legal action: empty state with nothing observed")
        memo[key] = top
        table[key] = (action, Fraction(top, scale * weight))
        return top

    root = (frozenset(range(inst.n)), None)
    value(*root, prod(dens))
    return DPSolution(value=table[root][1], table=table, variant=variant, instance=inst)


def dp_policy(sol: DPSolution) -> DecisionTablePolicy:
    """Executable policy reading actions off the solved table; its exact
    evaluation equals sol.value."""
    return DecisionTablePolicy(sol.instance, sol.table)
