"""Shared helpers: independent brute-force oracles and seeded batches."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from pandora_search import Box, DiscreteDist, Instance, random_instance, reservation


def tree_opt(inst: Instance, uninspected=None, observed=None, allow_closed=True):
    """Optimal value by exhaustive recursion over *full histories* (the
    observed-value map), with no state compression.  Independent oracle for
    the dynamic program."""
    if uninspected is None:
        uninspected = frozenset(range(inst.n))
        observed = {}
    cands = [max(observed.values())] if observed else ([Fraction(0)] if allow_closed else [])
    if allow_closed:
        for j in uninspected:
            cands.append(inst.boxes[j].dist.expectation())
    for i in uninspected:
        rest = uninspected - {i}
        val = -inst.boxes[i].cost
        for v, p in inst.boxes[i].dist.support:
            nxt = dict(observed)
            nxt[i] = v
            val += p * tree_opt(inst, rest, nxt, allow_closed)
        cands.append(val)
    if not cands:
        # required variant, nothing observed, nothing to inspect
        raise AssertionError("no legal action")
    return max(cands)


def random_batch(count: int, n_max: int, max_support: int, value_max: int = 10, seed0: int = 0):
    """Deterministic batch of instances with n cycling through 1..n_max."""
    out = []
    for k in range(count):
        n = (k % n_max) + 1
        out.append(random_instance(n, max_support, value_max, seed=seed0 + k))
    return out


def wide_instance(n, seed, supports=(5, 6), cost_scale=Fraction(1, 4), value_max=10):
    """n boxes whose supports have a number of points drawn from supports."""
    rng = random.Random(seed)
    boxes = []
    for _ in range(n):
        values = rng.sample(range(value_max + 1), rng.choice(supports))
        weights = [rng.randint(1, 6) for _ in values]
        dist = DiscreteDist((v, Fraction(w, sum(weights))) for v, w in zip(values, weights))
        boxes.append(Box(dist, dist.expectation() * cost_scale * Fraction(rng.randint(0, 8), 8)))
    return Instance(boxes)


def forbid_kappa_laws(monkeypatch):
    """Make reservation.profile and reservation.modified_instance raise, for
    code that needs only sigma and E[v] per box."""
    def forbidden(*args):
        raise AssertionError("built the kappa laws or the modified instance")

    monkeypatch.setattr(reservation, "profile", forbidden)
    monkeypatch.setattr(reservation, "modified_instance", forbidden)


def expected_excess(dist, sigma):
    """E[(X - sigma)^+], the left side of the reservation equation."""
    return sum((v - sigma) * p for v, p in dist.support if v > sigma)


def amortized_bound(result):
    """Both sides of the amortization inequality per box of an exactly
    evaluated policy: (lhs, rhs) with lhs = E[x_i v_i - I_i c_i] and
    rhs = E[x_i kappa~_i]; lhs <= rhs always, with equality for every box iff
    the policy is non-exposed."""
    return tuple(
        (value - cost, amortized)
        for value, cost, amortized in zip(
            result.selected_value, result.inspection_cost, result.selected_amortized)
    )


def independent_sets(prob):
    """Every independent probe set of an associated problem: per box i, probe
    neither variable, the kappa side 2i or the mean side 2i + 1."""
    for choice in product((None, 0, 1), repeat=prob.instance.n):
        yield frozenset(2 * i + j for i, j in enumerate(choice) if j is not None)
