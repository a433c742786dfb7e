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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .core import Box, DiscreteDist, Instance, Num


def reservation_value(box: Box) -> Num:
    """Solve E[(v - sigma)^+] = cost for sigma."""
    c = box.cost
    support = box.dist.support
    tail_p = 0
    tail_s = 0
    # On [low, v_i) with tail = {values >= v_i}: excess(s) = tail_s - s * tail_p.
    for i in range(len(support) - 1, -1, -1):
        v, p = support[i]
        tail_p += p
        tail_s += p * v
        low = support[i - 1][0] if i > 0 else None
        sigma = (tail_s - c) / tail_p
        if low is None or sigma >= low:
            return sigma
    raise AssertionError("unreachable: excess is unbounded below the support")


@dataclass(frozen=True)
class ReservationProfile:
    """Per-box sigma, the law of kappa = min(v, sigma), and E[v]."""

    sigmas: Tuple[Num, ...]
    kappa_dists: Tuple[DiscreteDist, ...]
    expected_values: Tuple[Num, ...]


def profile(inst: Instance) -> ReservationProfile:
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
