"""Closed-form analysis of the two-box problem.

Let f be the box inspected first, j the other and t = two_box_threshold(inst,
f), so E[max(t, kappa_j)] = E[v_j].  After seeing v the best continuation is
max(v, E[v_j], E[max(v, v_j)] - c_j) = W(v) = E[max(v, t, kappa_j)], by
amortization (max(v, E[max(v, v_j)] - c_j) = E[max(v, kappa_j)]) and the
choice of t.  Inspecting f first is worth V_f = E[W(v_f)] - c_f, and the
optimum is the first strict maximum of 0, E[v_0], E[v_1], V_0, V_1: the DP's
tie rule (stop, then closed, then inspect, lowest index first).

If neither V_f wins, the optimum is always-closed.  Otherwise j is taken
closed after seeing v exactly when v < t or v == t < E[v_j].  t == E[v_j]
forces kappa_j <= t, and then a box f with min v_f >= t has V_f = E[v_f] - c_f
and cannot win; so the optimum is mixed exactly when min v_f <= t, and
always-open (Weitzman's index policy) otherwise.

In the mixed case, with y = P(kappa_f >= t) and kappa' the law of kappa_f
given kappa_f >= t, the paper's y E[max(kappa', kappa_j)] + (1 - y) E[v_j] is
E[W(kappa_f)].  W is convex with slope <= 1, so this formula_bound is >= V_f,
the opt_value, with equality when W has slope 1 above sigma_f, as it has when
sigma_f >= sigma_j (W(v) = v above max(t, sigma_j); y > 0 gives sigma_f >= t).
On random_instance(2, 4, 10, seed=95), where sigma_f < sigma_j, it is 1537/312
against the optimum 1501/312.  The best committing policy is worth at least
nonadapt_lb >= formula_bound / (1 + y(1-y)) >= 4/5 of the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Box, DiscreteDist, Instance, Num, max_of_independents
from . import reservation

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
    formula_bound: Optional[Num] = None  # the paper's closed form, >= opt_value


def _require_two(inst: Instance) -> None:
    if inst.n != 2:
        raise ValueError(f"two-box analysis needs exactly 2 boxes, got {inst.n}")


def two_box_threshold(inst: Instance, first: int) -> Num:
    """The threshold t solving E[max(t, kappa_j)] = E[v_j], j the box not
    inspected first.

    As max(t, k) = k + (t - k)^+ and E[v_j] - E[kappa_j] = c_j, this reads
    E[(t - kappa_j)^+] = c_j; in s = -t it is the reservation equation of a
    box holding -kappa_j at cost c_j, so t = -reservation_value(that box).
    At c_j = 0 the top-of-support convention gives t = min kappa_j; at
    c_j >= E[v_j], kappa_j is a point mass at E[v_j] - c_j and t = E[v_j]."""
    _require_two(inst)
    return _threshold(reservation.profile(inst).kappa_dists[1 - first], inst.boxes[1 - first].cost)


def _threshold(kappa_j: DiscreteDist, cost_j: Num) -> Num:
    mirror = DiscreteDist((-v, p) for v, p in kappa_j.support)
    return -reservation.reservation_value(Box(mirror, cost_j))


def analyze_two_box(inst: Instance) -> TwoBoxAnalysis:
    _require_two(inst)
    prof = reservation.profile(inst)
    opt, first, t = max(Fraction(0), *prof.expected_values), None, None
    for f in (0, 1):
        t_f = _threshold(prof.kappa_dists[1 - f], inst.boxes[1 - f].cost)
        laws = [inst.boxes[f].dist, DiscreteDist.point(t_f), prof.kappa_dists[1 - f]]
        value = max_of_independents(laws).expectation() - inst.boxes[f].cost
        if value > opt:
            opt, first, t = value, f, t_f
    if first is None:
        return TwoBoxAnalysis(category=ALWAYS_CLOSED, opt_value=opt)

    if inst.boxes[first].dist.min_value() > t:
        return TwoBoxAnalysis(category=ALWAYS_OPEN, opt_value=opt)

    j = 1 - first
    ev_j = prof.expected_values[j]
    kappa_first = prof.kappa_dists[first]
    y = kappa_first.prob_at_least(t)
    kappa_prime = kappa_first.conditioned_at_least(t)
    e_max = max_of_independents([kappa_prime, prof.kappa_dists[j]]).expectation()
    return TwoBoxAnalysis(
        category=MIXED,
        opt_value=opt,
        first_box=first,
        t=t,
        y=y,
        kappa_prime=kappa_prime,
        nonadapt_lb=max(ev_j, (1 - y) ** 2 * ev_j + y * e_max),
        formula_bound=y * e_max + (1 - y) * ev_j,
    )


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
