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

The integer scan (core.reservation_scan) runs once per box in the integer
form (core.IntegerForm), which holds sigma and E[v] for every reader, and in
reservation_value on a lone box, as twobox's mirror box is.  profile builds
each box's kappa law as a DiscreteDist from the form's sigma, for `pandora
profile`, twobox and reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .core import Box, DiscreteDist, Instance, Num, reservation_scan, scaled


def reservation_value(box: Box) -> Num:
    """Solve E[(v - sigma)^+] = cost for sigma: core.reservation_scan on the
    box's own integers (core.scaled)."""
    support = box.dist.support
    den, probs = scaled([p for _, p in support])
    scale, ints = scaled([*(v for v, _ in support), box.cost])  # the cost last, past zip's end
    return reservation_scan(list(zip(ints, probs)), ints[-1] * den, scale)


@dataclass(frozen=True)
class ReservationProfile:
    """Per-box sigma, the law of kappa = min(v, sigma), and E[v]."""

    sigmas: Tuple[Num, ...]
    kappa_dists: Tuple[DiscreteDist, ...]
    expected_values: Tuple[Num, ...]


def profile(inst: Instance) -> ReservationProfile:
    """Each box's sigma and E[v], read from the instance's integer form, and
    its kappa law (DiscreteDist.min_with)."""
    form = inst.form
    kappas = tuple(box.dist.min_with(sigma) for box, sigma in zip(inst.boxes, form.sigmas))
    return ReservationProfile(form.sigmas, kappas, form.expected_values)


def modified_instance(inst: Instance, reservation_set) -> Instance:
    """Boxes in the reservation set become zero-cost point masses at E[v], so
    their sigma and kappa are E[v]; the committing policy with reservation
    set S is Weitzman's policy on this instance."""
    s = frozenset(reservation_set)
    return Instance(
        Box(DiscreteDist.point(inst.form.expected_values[i]), 0) if i in s else box
        for i, box in enumerate(inst.boxes)
    )
