"""Optimization over committing policies.

The optimal committing policy always lies in the (n+1)-element candidate set
{empty reservation set, each singleton}; every candidate is scored by the
closed form E[max_i kappa~_i] rather than path enumeration.  All n+1
candidates share the kappa laws except one box, so one product row of the
CDFs on the merged grid, divided by each box's own row, scores them all in
O(n G) integer operations, G being the size of the merged kappa grid.  Each
box's E[v] comes from the instance's integer form (core.IntegerForm), and its
kappa CDF row from the form's integer values, scaled probabilities and cap
sigma L; no kappa law is built as a DiscreteDist.  The form's scale L covers
the sigmas, so the kappa grid lives on L itself: it is found, ranked and
compared among integers, and no Fraction is hashed or sorted.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod
from typing import FrozenSet, List, Tuple

from .core import Instance, IntegerForm, Num


@dataclass(frozen=True)
class CommittingSolution:
    best_set: FrozenSet[int]
    best_value: Num
    candidate_values: Tuple[Tuple[FrozenSet[int], Num], ...]
    baseline_policy_a: Num  # Weitzman value, E[max kappa]
    baseline_policy_b: Num  # best closed box, max_i E[v_i]
    upper_bound: Num  # E[max(max_i E[v_i], max_j kappa_j)], above every policy's value


def _kappa_cdfs(form: IntegerForm) -> Tuple[List[int], List[Tuple[int, List[int]]]]:
    """(points, rows): the merged grid of the kappa_j = min(v_j, sigma_j)
    values times the form's scale L, and each kappa CDF row on it as
    core.scaled_cdfs gives it for the kappa law, but built from the form's
    (rank, p * d_j) pairs and cap sigma_j L: the row is d_j P(v_j <= t) below
    sigma_j and d_j from sigma_j up, divided by gcd(d_j, row), so the
    denominator is the kappa law's, not the value law's."""
    laws = []
    for (d, pairs), cap in zip(form.boxes, form.caps):
        # sigma is at most the top value, so the mass collapsed onto it is positive
        law = [(form.values[r], w) for r, w in pairs if form.values[r] < cap]
        law.append((cap, d - sum(w for _, w in law)))
        laws.append((d, law))
    points = sorted({k for _, law in laws for k, _ in law})
    rank = {k: r for r, k in enumerate(points)}
    cdfs = []
    for d, law in laws:
        g = gcd(d, *(w for _, w in law))
        masses = [0] * len(points)
        for k, w in law:
            masses[rank[k]] = w // g
        cdfs.append((d // g, list(accumulate(masses))))
    return points, cdfs


def best_committing(inst: Instance) -> CommittingSolution:
    """Score the empty set and all singletons in one pass; ties break toward
    the empty set, then the lowest index.

    On the merged grid of the kappa supports, with F_j the CDF of kappa_j and
    e_i = E[v_i]: the empty set scores E[max_j kappa_j], and {i} scores
    E[max(e_i, Y_i)] = e_i + sum_t P(Y_i = t) (t - e_i)^+, where
    Y_i = max_{j != i} kappa_j has the CDF prod_j F_j / F_i: one product row
    divided by box i's own row.  The sums run in integers: each F_j scaled by
    its probability denominator, and grid values and e_i on the form's scale
    L (_kappa_cdfs and the form's means).  O(n G)
    products and quotients for a grid of G points; the only Fraction compares
    are the n that pick the best candidate.

    upper_bound is the paper's coupling bound E[max(max_i e_i, max_j kappa_j)]:
    every policy's u_phi lies below it pointwise, so
    best_value <= optimum <= upper_bound, and where the two meet best_value is
    the optimum.  It is one more E[max] on the product row.
    """
    form = inst.form
    points, cdfs = _kappa_cdfs(form)

    def expected_max(floor: int, r: int, tail: List[int], den: int) -> Fraction:
        """E[max(floor, Y)] / L for Y with CDF cdf / den on the grid,
        given r, the rank of the last grid point <= floor, and
        tail = cdf[r:]; floor is scaled and at least the grid minimum."""
        excess = 0
        prev = tail[0]
        for t, c in zip(points[r + 1:], tail[1:]):
            excess += (c - prev) * (t - floor)
            prev = c
        return Fraction(floor * den + excess, form.scale * den)

    # total = prod_j F_j, scaled by prod_j d_j
    total = [1] * len(points)
    for _, row in cdfs:
        total = [a * b for a, b in zip(total, row)]
    total_den = prod(d for d, _ in cdfs)
    values = [(frozenset(), expected_max(points[0], 0, total, total_den))]
    for i, (d, row) in enumerate(cdfs):
        # total // F_i is prod_{j != i} F_j wherever F_i > 0, and expected_max
        # reads it only from the last point <= e_i up, where
        # F_i >= P(kappa_i = min kappa_i) > 0, as min kappa_i <= E[kappa_i] <= e_i
        r = bisect_right(points, form.means[i]) - 1
        others = [a // b for a, b in zip(total[r:], row[r:])]
        values.append((frozenset({i}), expected_max(form.means[i], r, others, total_den // d)))

    # max_i e_i >= E[kappa_i] >= the grid minimum, as expected_max needs
    top = max(form.means)
    r = bisect_right(points, top) - 1
    upper_bound = expected_max(top, r, total[r:], total_den)
    best_set, best_value = values[0]
    for s, v in values[1:]:
        if v > best_value:
            best_set, best_value = s, v
    return CommittingSolution(
        best_set=best_set,
        best_value=best_value,
        candidate_values=tuple(values),
        baseline_policy_a=values[0][1],
        baseline_policy_b=Fraction(top, form.scale),
        upper_bound=upper_bound,
    )
