"""Reservation values, amortized (kappa) distributions and the modified
instance of a committing policy.

The reservation value sigma of a box is the unique solution of
E[(v - sigma)^+] = c.  The map sigma -> E[(v - sigma)^+] is piecewise linear,
continuous and nonincreasing, so we solve by scanning support pieces from the
top.  Two edge conventions:

* c = 0: every sigma >= max support solves the equation; sigma is the max
  support value, as the scan's first piece p v_max / p gives, so kappa = v.
* c >= E[v]: the solution lies in the linear region below the support minimum,
  sigma = E[v] - c, and may be negative.  No clamping is applied.

The scan runs on integers and builds one Fraction.  profile builds each box's
kappa law as a DiscreteDist, for `pandora profile`, twobox, reduction and the
closed-form oracle; committing.best_committing builds its kappa CDF rows from
sigma and the support without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .core import Box, DiscreteDist, Instance, Num, scaled


def reservation_value(box: Box) -> Num:
    """Solve E[(v - sigma)^+] = cost for sigma.

    The scan runs in integers: probabilities on their scale d, values and
    the cost together on theirs, L (core.scaled).  With tail = {values >= v_i},
    tail_p = d P(tail) and tail_s = d L E[v; tail], excess on [v_{i-1}, v_i)
    is (tail_s - s L tail_p) / (d L), so sigma = (tail_s - d L c) /
    (L tail_p), one Fraction built at the piece that holds it."""
    support = box.dist.support
    den, probs = scaled([p for _, p in support])
    scale, ints = scaled([*(v for v, _ in support), box.cost])
    cost = ints.pop() * den
    tail_p = 0
    tail_s = 0
    for i in range(len(ints) - 1, -1, -1):
        tail_p += probs[i]
        tail_s += probs[i] * ints[i]
        # sigma >= v_{i-1}, the piece's lower end (none below the support)
        if i == 0 or tail_s - cost >= ints[i - 1] * tail_p:
            return Fraction(tail_s - cost, tail_p * scale)
    raise AssertionError("unreachable: excess is unbounded below the support")


@dataclass(frozen=True)
class ReservationProfile:
    """Per-box sigma, the law of kappa = min(v, sigma), and E[v]."""

    sigmas: Tuple[Num, ...]
    kappa_dists: Tuple[DiscreteDist, ...]
    expected_values: Tuple[Num, ...]


def profile(inst: Instance) -> ReservationProfile:
    """Each box's sigma, kappa law (DiscreteDist.min_with) and E[v]."""
    sigmas = []
    kappas = []
    evs = []
    for box in inst.boxes:
        sigma = reservation_value(box)
        sigmas.append(sigma)
        kappas.append(box.dist.min_with(sigma))
        evs.append(box.dist.expectation())
    return ReservationProfile(tuple(sigmas), tuple(kappas), tuple(evs))


def modified_instance(inst: Instance, reservation_set) -> Instance:
    """Boxes in the reservation set become zero-cost point masses at E[v], so
    their sigma and kappa are E[v]; the committing policy with reservation
    set S is Weitzman's policy on this instance."""
    s = frozenset(reservation_set)
    return Instance(
        Box(DiscreteDist.point(box.dist.expectation()), 0) if i in s else box
        for i, box in enumerate(inst.boxes)
    )
