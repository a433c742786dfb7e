"""Closed-form analysis of the two-box problem.

For two boxes the optimal adaptive policy falls into one of three
categories: it always selects an open box (equivalent to the Weitzman
index policy), it always selects a closed box, or it mixes: it inspects one
box first and selects the other closed exactly when the amortized value of
the first falls below a threshold t solving E[v_other] = E[max(t, kappa_other)].

In the mixed case, with y = P(kappa_first >= t) and kappa' the law of
kappa_first conditioned on kappa_first >= t, the paper's formula

    opt = y * E[max(kappa', kappa_other)] + (1 - y) * E[v_other]

is an upper bound on the dynamic program's value, not always equal to it:
on the pair random_instance(2, 4, 10, seed=95) it gives 1537/312 where the
DP gives 1501/312.  The best committing policy is certified to be within
1/(1 + y(1-y)) >= 4/5 of opt, hence of the DP value as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Box, DiscreteDist, Instance, Num, max_of_independents
from . import adaptive, reservation

ALWAYS_OPEN = "always-open"
ALWAYS_CLOSED = "always-closed"
MIXED = "mixed"


@dataclass(frozen=True)
class TwoBoxAnalysis:
    category: str
    opt_value: Num
    first_box: Optional[int] = None  # box inspected first (mixed only)
    t: Optional[Num] = None
    y: Optional[Num] = None
    kappa_prime: Optional[DiscreteDist] = None
    nonadapt_lb: Optional[Num] = None


def _require_two(inst: Instance) -> None:
    if inst.n != 2:
        raise ValueError(f"two-box analysis needs exactly 2 boxes, got {inst.n}")


def two_box_threshold(inst: Instance, first: int) -> Num:
    """The threshold t solving E[max(t, kappa_j)] = E[v_j], j the box not
    inspected first.

    Since max(t, k) = k + (t - k)^+ and E[v_j] - E[kappa_j] = c_j (the
    amortization identity), the equation reads E[(t - kappa_j)^+] = c_j.  In
    the mirror w = -kappa_j, s = -t it is E[(w - s)^+] = c_j, the reservation
    equation of a box holding -kappa_j at cost c_j; so
    t = -reservation_value(Box(-kappa_j, c_j)).  At c_j = 0 every
    t <= min kappa_j solves it, and reservation_value's top-of-support
    convention gives t = min kappa_j.  At c_j >= E[v_j], kappa_j is a point
    mass at sigma_j = E[v_j] - c_j and t = E[v_j]."""
    _require_two(inst)
    j = 1 - first
    kappa = reservation.profile(inst).kappa_dists[j]
    mirror = DiscreteDist((-v, p) for v, p in kappa.support)
    return -reservation.reservation_value(Box(mirror, inst.boxes[j].cost))


def analyze_two_box(inst: Instance) -> TwoBoxAnalysis:
    _require_two(inst)
    sol = adaptive.solve_dp(inst)
    prof = reservation.profile(inst)
    root_action = sol.table[(frozenset({0, 1}), None)][0]

    if root_action[0] in ("halt", "select_closed"):
        return TwoBoxAnalysis(category=ALWAYS_CLOSED, opt_value=sol.value)

    first = root_action[1]
    j = 1 - first
    closed_prob = 0
    for v, p in inst.boxes[first].dist.support:
        act = sol.table[(frozenset({j}), v)][0]
        if act[0] == "select_closed":
            closed_prob += p
    if closed_prob == 0:
        return TwoBoxAnalysis(category=ALWAYS_OPEN, opt_value=sol.value)

    t = two_box_threshold(inst, first)
    kappa_first = prof.kappa_dists[first]
    y = kappa_first.prob_at_least(t)
    if y == 0:
        # All amortized mass below the threshold: the closed box always wins.
        return TwoBoxAnalysis(category=ALWAYS_CLOSED, opt_value=sol.value)
    kappa_prime = kappa_first.conditioned_at_least(t)
    ev_j = prof.expected_values[j]
    e_max = max_of_independents([kappa_prime, prof.kappa_dists[j]]).expectation()
    opt = y * e_max + (1 - y) * ev_j
    analysis = TwoBoxAnalysis(
        category=MIXED,
        opt_value=opt,
        first_box=first,
        t=t,
        y=y,
        kappa_prime=kappa_prime,
        nonadapt_lb=max(ev_j, (1 - y) ** 2 * ev_j + y * e_max),
    )
    return analysis


def ratio_certificate(analysis: TwoBoxAnalysis):
    """(ratio, bound) with ratio = nonadapt_lb / opt >= bound = 1/(1+y(1-y)) >= 4/5."""
    if analysis.category != MIXED:
        raise ValueError(f"certificate only defined for mixed category, got {analysis.category}")
    ratio = analysis.nonadapt_lb / analysis.opt_value
    y = analysis.y
    bound = 1 / (1 + y * (1 - y))
    return ratio, bound


def tight_example(big_n: int) -> Instance:
    """Two-box family whose committing-vs-adaptive ratio 1/(5/4 - 1/(4N))
    decreases to 4/5: a free fair coin worth 0 or 1, and a long shot worth N
    with probability 1/N at inspection cost (N-1)/(2N)."""
    if big_n < 2:
        raise ValueError("need N >= 2")
    n = Fraction(big_n)
    box_a = Box(DiscreteDist([(0, Fraction(1, 2)), (1, Fraction(1, 2))]), 0)
    box_b = Box(DiscreteDist([(0, 1 - 1 / n), (n, 1 / n)]), (n - 1) / (2 * n))
    return Instance([box_a, box_b])
