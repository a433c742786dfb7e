"""End-to-end acceptance gate.

Each test covers one numbered claim about the library as a whole and prints a
single ``criterion N: PASS/FAIL`` line (visible with ``pytest -s`` and in
failure output).  Criterion 7 checks the two-box closed-form optimum
(analyze_two_box's opt_value) against the DP on every mixed instance.
"""

import random
import time
from fractions import Fraction as F
from functools import lru_cache

from pandora_search import (
    CallbackPolicy,
    CommittingPolicy,
    Halt,
    Inspect,
    MIXED,
    REQUIRED,
    SelectClosed,
    SelectOpen,
    WeitzmanPolicy,
    analyze_two_box,
    best_committing,
    build_associated,
    dp_policy,
    evaluate_exact,
    evaluate_nonexposed_closed_form,
    multilinear_value,
    nonadaptive_value,
    phi_value_bound,
    psi_transform,
    random_instance,
    ratio_certificate,
    simulate,
    solve_dp,
    tight_example,
)
from pandora_search.cli import ONE_MINUS_INV_E_LB
from conftest import amortized_bound, independent_sets


def report(num, ok, detail=""):
    tail = f" — {detail}" if detail else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{tail}")


@lru_cache(maxsize=None)
def batch_medium():
    """200 instances, n <= 4, support <= 4."""
    return tuple(random_instance((k % 4) + 1, 4, 10, seed=k) for k in range(200))


@lru_cache(maxsize=None)
def batch_wide():
    """200 instances, n <= 5, support <= 3."""
    return tuple(random_instance((k % 5) + 1, 3, 10, seed=1000 + k) for k in range(200))


@lru_cache(maxsize=None)
def batch_large():
    """500 instances, n <= 4, support <= 3."""
    return tuple(random_instance((k % 4) + 1, 3, 10, seed=2000 + k) for k in range(500))


@lru_cache(maxsize=None)
def batch_pairs():
    """500 two-box instances, support <= 4."""
    return tuple(random_instance(2, 4, 10, seed=k) for k in range(500))


@lru_cache(maxsize=None)
def batch_small():
    """100 instances, n <= 3, support <= 3."""
    return tuple(random_instance((k % 3) + 1, 3, 10, seed=3000 + k) for k in range(100))


def test_criterion_01_tight_family():
    start = time.monotonic()
    ratios = []
    for big_n in (2, 10, 1000):
        inst = tight_example(big_n)
        dp = solve_dp(inst).value
        bc = best_committing(inst).best_value
        assert dp == F(5, 4) - F(1, 4 * big_n)
        assert bc == 1
        ratios.append(bc / dp)
        assert ratios[-1] == 1 / (F(5, 4) - F(1, 4 * big_n))
    assert ratios == sorted(ratios, reverse=True)
    assert abs(ratios[-1] - F(4, 5)) <= F(3, 10_000)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, True, f"ratios {[float(r) for r in ratios]}, {elapsed:.2f}s")


def test_criterion_02_required_variant_equals_closed_form():
    start = time.monotonic()
    for inst in batch_medium():
        got = solve_dp(inst, variant=REQUIRED).value
        want = evaluate_nonexposed_closed_form(inst, frozenset())
        assert got == want, inst
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(2, True, f"200 instances, exact equality, {elapsed:.1f}s")


def test_criterion_03_amortization_identity():
    for inst in batch_medium():
        policies = [WeitzmanPolicy(inst)]
        policies += [CommittingPolicy(inst, {i}) for i in range(inst.n)]
        for pol in policies:
            res = evaluate_exact(inst, pol)
            for lhs, rhs in amortized_bound(res):
                assert lhs == rhs, (inst, pol)
    # exposed policy: open the long shot, then walk away regardless
    inst = tight_example(10)
    pol = CallbackPolicy(lambda s: Inspect(1) if 1 in s.uninspected else Halt())
    lhs, rhs = amortized_bound(evaluate_exact(inst, pol))[1]
    assert lhs < rhs
    report(3, True, "per-box equality on 200 instances; strict gap when exposed")


def test_criterion_04_singletons_suffice():
    for inst in batch_wide():
        sol = best_committing(inst)
        full = max(
            evaluate_nonexposed_closed_form(inst, frozenset(
                i for i in range(inst.n) if mask >> i & 1
            ))
            for mask in range(1 << inst.n)
        )
        assert sol.best_value == full, inst
    report(4, True, "exhaustive subset max matches candidate max on 200 instances")


def test_criterion_05_one_minus_inv_e_floor():
    min_ratio = None
    for inst in batch_large():
        dp = solve_dp(inst).value
        bc = best_committing(inst).best_value
        assert bc >= ONE_MINUS_INV_E_LB * dp, inst
        if dp > 0:
            r = bc / dp
            min_ratio = r if min_ratio is None else min(min_ratio, r)
    report(5, True, f"500 instances, empirical min ratio {float(min_ratio):.6f}")


def test_criterion_06_two_box_certificate():
    for inst in batch_pairs():
        dp = solve_dp(inst).value
        bc = best_committing(inst).best_value
        assert 5 * bc >= 4 * dp, inst
        a = analyze_two_box(inst)
        if a.category != MIXED:
            continue
        ratio, bound = ratio_certificate(a)
        assert a.opt_value >= bc >= a.nonadapt_lb
        assert a.nonadapt_lb * (1 + a.y * (1 - a.y)) >= a.opt_value
        assert ratio >= bound >= F(4, 5)
    report(6, True, "500 two-box instances, 4/5 floor and certificate chain exact")


def test_criterion_07_two_box_formula_matches_dp():
    mismatches = []
    for k, inst in enumerate(batch_pairs()):
        a = analyze_two_box(inst)
        if a.category != MIXED:
            continue
        dp = solve_dp(inst).value
        if a.opt_value != dp:
            mismatches.append((k, a.opt_value, dp))
    ok = not mismatches
    detail = (
        "opt_value = DP on every mixed instance"
        if ok
        else f"{len(mismatches)} mixed instances with opt_value != DP, "
        f"first at seed {mismatches[0][0]}: "
        f"opt_value {mismatches[0][1]} vs DP {mismatches[0][2]}"
    )
    report(7, ok, detail)
    assert ok, detail


def _random_callback(inst, pol_seed):
    def decide(state):
        rng = random.Random(f"{pol_seed}|{len(state.observed)}|{sorted(state.uninspected)}")
        legal = [Halt()]
        for i in sorted(state.uninspected):
            legal.append(Inspect(i))
            legal.append(SelectClosed(i))
        if state.observed:
            legal.append(SelectOpen(state.best_open()[0]))
        return rng.choice(legal)

    return CallbackPolicy(decide)


def test_criterion_08_probing_inequalities():
    for inst in batch_small():
        prob = build_associated(inst)
        for b in independent_sets(prob):
            committed = evaluate_exact(inst, psi_transform(prob, b)).utility
            assert committed >= nonadaptive_value(prob, b), (inst, b)
        pols = [dp_policy(solve_dp(inst))]
        pols += [_random_callback(inst, s) for s in range(10)]
        for pol in pols:
            u_pi, u_phi = phi_value_bound(inst, pol)
            assert u_phi >= u_pi, inst
    report(8, True, "100 instances: probe-set domination and coupling bound exact")


def test_criterion_09_multilinear_extension():
    insts = [random_instance((k % 3) + 1, 3, 10, seed=4000 + k) for k in range(50)]
    for inst in insts:
        prob = build_associated(inst)
        m = prob.num_variables
        for mask in range(1 << m):
            chosen = frozenset(i for i in range(m) if mask >> i & 1)
            y = [1 if i in chosen else 0 for i in range(m)]
            if prob.is_independent(chosen):
                assert multilinear_value(prob, y) == nonadaptive_value(prob, chosen)
        base = [F(1, 2)] * m
        f_half = multilinear_value(prob, base)
        for i in range(m):
            lo = list(base); lo[i] = 0
            hi = list(base); hi[i] = 1
            mid = (multilinear_value(prob, lo) + multilinear_value(prob, hi)) / 2
            assert f_half == mid
    report(9, True, "50 instances: vertex values and per-coordinate affineness exact")


def test_criterion_10_monte_carlo_consistency():
    start = time.monotonic()
    inst = tight_example(10)
    policies = [
        ("index", WeitzmanPolicy(inst)),
        ("reserve-long-shot", CommittingPolicy(inst, {1})),
        ("dp", dp_policy(solve_dp(inst))),
    ]
    trials = 1_000_000
    summary = []
    for name, pol in policies:
        exact = float(evaluate_exact(inst, pol).utility)
        hits = 0
        for seed in range(100):
            rep = simulate(inst, pol, trials=trials, seed=seed)
            if abs(rep.mean_utility - exact) <= 5 * rep.std_error:
                hits += 1
        summary.append(f"{name} {hits}/100")
        assert hits >= 99, (name, hits)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(10, True, f"{'; '.join(summary)}; {elapsed:.1f}s")


def test_criterion_11_half_approximation():
    batches = [batch_medium(), batch_wide(), batch_large(), batch_pairs(), batch_small()]
    for batch in batches:
        for inst in batch:
            index_value = evaluate_nonexposed_closed_form(inst, frozenset())
            best_mean = max(b.dist.expectation() for b in inst.boxes)
            dp = solve_dp(inst).value
            assert 2 * max(index_value, best_mean) >= dp, inst
    report(11, True, "1500 instances, exact half-approximation")
