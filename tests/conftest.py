"""Shared helpers: independent brute-force oracles and seeded batches."""

from __future__ import annotations

import functools
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import product
from math import prod

from hypothesis import strategies as st

from pandora_search import (Box, CallbackPolicy, CommittingPolicy, DiscreteDist, Halt, Inspect, Instance,
                            SelectClosed, SelectOpen, WeitzmanPolicy, random_instance, reservation, solve_dp,
                            tight_example)
from pandora_search.committing import CommittingSolution
from pandora_search.core import scaled, scaled_cdfs, value_grid
from pandora_search.simulator import CHUNK


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


def fraction_decide(pol, state):
    """CommittingPolicy's decision on a SearchState, with its stop test as a
    Fraction compare: best >= sigma of the next box in the policy's order."""
    remaining = [i for i in pol.order if i in state.uninspected]
    best = state.best_open()
    if best is not None and (not remaining or best[1] >= pol.sigmas[remaining[0]]):
        return SelectOpen(best[0])
    if not remaining:
        return Halt()
    return SelectClosed(remaining[0]) if remaining[0] in pol.reservation_set else Inspect(remaining[0])


@functools.lru_cache(maxsize=None)
def dp_table(inst):
    """The public table of the (nonobligatory) DP on inst."""
    return solve_dp(inst).table


def state_decide(pol, state):
    """pol's action on a hand-built SearchState, without the tree: a
    callback's function, fraction_decide for a committing policy, and for a
    (nonobligatory) DP policy the action its instance's public table holds
    at the state's (uninspected set, best observed value) key."""
    if isinstance(pol, CallbackPolicy):
        return pol.fn(state)
    if isinstance(pol, CommittingPolicy):
        return fraction_decide(pol, state)
    best = state.best_open()
    kind, box = dp_table(pol.instance)[(state.uninspected, None if best is None else best[1])][0]
    if kind == "inspect":
        return Inspect(box)
    if kind == "select_closed":
        return SelectClosed(box)
    return SelectOpen(best[0]) if kind == "select_open" else Halt()


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


def weighted_box(pairs, quarter_cost):
    total = sum(w for _, w in pairs)
    return Box(DiscreteDist((v, Fraction(w, total)) for v, w in pairs), Fraction(quarter_cost, 4))


# Nonnegative prizes on 0..10 with costs on a quarter grid up to 10: zero
# costs, costs above the mean (negative sigma) and point masses are common.
drawn_boxes = st.builds(
    weighted_box,
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 5)), min_size=1, max_size=3),
    st.integers(0, 40),
)


# sigma = 2, a support value: (4 - 2) / 4 = 1/2
SIGMA_ON_SUPPORT = Box(DiscreteDist([(0, Fraction(1, 2)), (2, Fraction(1, 4)), (4, Fraction(1, 4))]), Fraction(1, 2))


def fraction_reservation_value(box):
    """sigma by a Fraction scan of the support pieces from the top: on the
    first piece [v_{i-1}, v_i] holding it, sigma = (E[v; v >= v_i] - c) /
    P(v >= v_i)."""
    support = box.dist.support
    tail_p = 0
    tail_s = 0
    for i in range(len(support) - 1, -1, -1):
        v, p = support[i]
        tail_p += p
        tail_s += p * v
        sigma = (tail_s - box.cost) / tail_p
        if i == 0 or sigma >= support[i - 1][0]:
            return sigma


def fraction_expectation(dist):
    """E[X] as a sum of Fraction products."""
    return sum(v * p for v, p in dist.support)


def profile_best_committing(inst):
    """best_committing from the kappa laws as DiscreteDists (min_with of the
    Fraction sigma), core.scaled_cdfs on their merged grid, and the same
    prefix/suffix sweep: the reference for the integer rows."""
    kappas = [box.dist.min_with(fraction_reservation_value(box)) for box in inst.boxes]
    evs = [fraction_expectation(box.dist) for box in inst.boxes]
    grid = value_grid(kappas)
    cdfs = scaled_cdfs(kappas, grid)
    scale, ints = scaled(grid + evs)
    points, evs_scaled = ints[:len(grid)], ints[len(grid):]

    def expected_max(floor, cdf, den):
        k = bisect_right(points, floor)
        excess = 0
        prev = cdf[k - 1]
        for t, c in zip(points[k:], cdf[k:]):
            excess += (c - prev) * (t - floor)
            prev = c
        return Fraction(floor * den + excess, scale * den)

    suffix = [[1] * len(grid)]
    for _, row in reversed(cdfs):
        suffix.append([a * b for a, b in zip(row, suffix[-1])])
    suffix.reverse()
    total_den = prod(d for d, _ in cdfs)
    values = [(frozenset(), expected_max(points[0], suffix[0], total_den))]
    prefix = [1] * len(grid)
    for i, (d, row) in enumerate(cdfs):
        others = [a * b for a, b in zip(prefix, suffix[i + 1])]
        values.append((frozenset({i}), expected_max(evs_scaled[i], others, total_den // d)))
        prefix = [a * b for a, b in zip(prefix, row)]
    best_set, best_value = values[0]
    for s, v in values[1:]:
        if v > best_value:
            best_set, best_value = s, v
    return CommittingSolution(best_set, best_value, tuple(values), values[0][1], max(evs),
                              expected_max(max(evs_scaled), suffix[0], total_den))


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


def large_joint(seed=0, boxes=8):
    """Boxes with six support points on 0..20 each, 6^8 joint outcomes (past
    OUTCOME_TABLE_LIMIT), and costs E[v] * j/28 for shuffled j < boxes, low
    enough that policies inspect deep."""
    rng = random.Random(seed)
    out = []
    for j in rng.sample(range(boxes), boxes):
        values = sorted(rng.sample(range(21), 6))
        weights = [rng.randint(1, 6) for _ in values]
        dist = DiscreteDist((v, Fraction(w, sum(weights))) for v, w in zip(values, weights))
        out.append(Box(dist, dist.expectation() * Fraction(j, 28)))
    return Instance(out)


REFERENCE_CASES = ["tight-reserve-long-shot", "random-weitzman", "tiny-tail", "dyadic"]
REFERENCE_TRIALS = 2 * CHUNK + 17  # crosses two chunk boundaries
REFERENCE_SEED = 5

TINY = Fraction(1, 2**60)
# 1 - 2**-60 rounds to the float 1.0, so its raw-word cut would be 2**64.
TINY_TAIL = DiscreteDist([(0, 1 - TINY), (50, TINY)])
# Dyadic cumulative probabilities: a uniform can equal a cut exactly.
DYADIC = DiscreteDist([(1, Fraction(1, 2)), (2, Fraction(1, 4)), (6, Fraction(1, 4))])


def reference_case(case):
    if case == "tight-reserve-long-shot":
        inst = tight_example(10)
        return inst, CommittingPolicy(inst, {1})
    if case == "tiny-tail":
        inst = Instance([Box(TINY_TAIL, Fraction(1, 10)), Box(DYADIC, Fraction(1, 4))])
        return inst, WeitzmanPolicy(inst)
    if case == "dyadic":
        inst = Instance([Box(DYADIC, Fraction(1, 8)), Box(DYADIC, Fraction(1, 3)), Box(TINY_TAIL, 0)])
        return inst, WeitzmanPolicy(inst)
    inst = random_instance(3, 3, 9, seed=70)
    return inst, WeitzmanPolicy(inst)
