from fractions import Fraction as F
from functools import lru_cache

import pytest

from pandora_search import reservation
from pandora_search import (
    ALWAYS_CLOSED,
    ALWAYS_OPEN,
    MIXED,
    Box,
    DiscreteDist,
    Instance,
    analyze_two_box,
    profile,
    random_instance,
    ratio_certificate,
    solve_dp,
    tight_example,
    two_box_threshold,
)


def d(*pairs):
    return DiscreteDist(pairs)


class TestThreshold:
    def test_tight_example(self):
        # E[max(t, kappa_longshot)] = 1 solves to t = 1/2
        assert two_box_threshold(tight_example(10), first=0) == F(1, 2)

    def test_flat_region_convention(self):
        # the other box is free, so E[kappa] = E[v] and the equation is flat;
        # the convention picks the minimum support value
        inst = Instance([Box(d((0, F(1, 2)), (3, F(1, 2))), 1), Box(d((0, F(1, 2)), (1, F(1, 2))), 0)])
        assert two_box_threshold(inst, first=0) == 0

    def test_point_mass_other(self):
        inst = Instance([Box(d((0, F(1, 2)), (3, F(1, 2))), 1), Box(d((4, 1)), 2)])
        # kappa_j = point mass at 2, E[v_j] = 4: solution above the grid top
        assert two_box_threshold(inst, first=0) == 4

    def test_threshold_is_a_root(self):
        # cost scales 2 and 3 give boxes with c_j >= E[v_j], where kappa_j is
        # a point mass at sigma_j = E[v_j] - c_j and t = E[v_j]
        point_masses = 0
        for seed in range(60):
            for scale in (1, 2, 3):
                inst = random_instance(2, 4, 10, seed=seed, cost_scale_max=F(scale))
                prof = profile(inst)
                for first in (0, 1):
                    j = 1 - first
                    t = two_box_threshold(inst, first)
                    kappa = prof.kappa_dists[j]
                    got = sum(p * max(t, v) for v, p in kappa.support)
                    assert got == prof.expected_values[j], (seed, scale, first)
                    cost = inst.boxes[j].cost
                    if cost == 0:
                        assert t == kappa.min_value(), (seed, scale, first)
                    if cost >= prof.expected_values[j]:
                        assert len(kappa.support) == 1
                        point_masses += 1
        assert point_masses > 0

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            two_box_threshold(Instance([Box(d((1, 1)), 0)]), first=0)


class TestAnalyze:
    def test_builds_the_profile_once(self, monkeypatch):
        calls = []

        def counted(inst):
            calls.append(inst)
            return profile(inst)

        monkeypatch.setattr(reservation, "profile", counted)
        analyze_two_box(tight_example(10))
        assert len(calls) == 1

    def test_tight_example_is_mixed(self):
        a = analyze_two_box(tight_example(10))
        assert a.category == MIXED
        assert a.first_box == 0
        assert a.t == F(1, 2)
        assert a.y == F(1, 2)
        assert a.kappa_prime == d((1, 1))
        assert a.opt_value == F(49, 40)
        assert a.nonadapt_lb == 1

    def test_always_closed(self):
        # costs above the means: never inspect, grab the better mean
        inst = Instance([Box(d((0, F(1, 2)), (2, F(1, 2))), 3), Box(d((1, 1)), 5)])
        a = analyze_two_box(inst)
        assert a.category == ALWAYS_CLOSED
        assert a.opt_value == 1

    def test_always_open(self):
        # after the free first box, every branch either stops on what it saw
        # or inspects the second box; nothing is ever taken sight unseen
        inst = Instance([
            Box(d((1, F(1, 2)), (9, F(1, 2))), 0),
            Box(d((0, F(1, 2)), (8, F(1, 2))), F(1, 4)),
        ])
        a = analyze_two_box(inst)
        assert a.category == ALWAYS_OPEN
        assert a.opt_value == solve_dp(inst).value == F(53, 8)

    def test_value_at_the_threshold_takes_the_other_box_closed(self):
        # two free boxes, t = 6: after seeing 6 from box 0, taking box 1
        # closed (worth 7) ties inspecting it and the tie rule takes it
        # closed, so the pair is mixed although y = 1
        inst = Instance([Box(d((6, F(1, 5)), (9, F(4, 5))), 0), Box(d((6, F(1, 2)), (8, F(1, 2))), 0)])
        a = analyze_two_box(inst)
        assert (a.category, a.first_box, a.t, a.y) == (MIXED, 0, 6, 1)
        sol = solve_dp(inst)
        assert sol.table[(frozenset({1}), 6)][0] == ("select_closed", 1)
        assert a.opt_value == sol.value == F(43, 5)

    def test_threshold_classifies_the_stopping_rule(self):
        # after inspecting the first box, the table selects the other box
        # closed exactly when the amortized value falls strictly below t
        # (atoms exactly at t may go either way)
        for seed in range(200):
            inst = random_instance(2, 4, 10, seed=seed)
            a = analyze_two_box(inst)
            if a.category != MIXED:
                continue
            sol = solve_dp(inst)
            prof = profile(inst)
            sigma = prof.sigmas[a.first_box]
            j = 1 - a.first_box
            for v, _ in inst.boxes[a.first_box].dist.support:
                kappa = min(v, sigma)
                if kappa == a.t:
                    continue
                act = sol.table[(frozenset({j}), v)][0]
                if kappa < a.t:
                    assert act == ("select_closed", j), (seed, v)
                else:
                    assert act != ("select_closed", j), (seed, v)

    def test_formula_upper_bounds_dynamic_program(self):
        # regression: the mixed closed form can exceed the true adaptive
        # optimum (seed 95 is a known strict case); it must never undershoot
        strict = 0
        for seed in range(300):
            inst = random_instance(2, 4, 10, seed=seed)
            a = analyze_two_box(inst)
            dp = solve_dp(inst).value
            assert a.opt_value == dp, seed
            if a.category != MIXED:
                continue
            assert a.formula_bound >= dp, seed
            if a.formula_bound > dp:
                strict += 1
        assert strict >= 1  # seed 95 among them

    def test_seed_95_gap_values(self):
        inst = random_instance(2, 4, 10, seed=95)
        a = analyze_two_box(inst)
        assert solve_dp(inst).value == F(1501, 312)
        assert a.formula_bound == F(1537, 312)
        assert a.opt_value == solve_dp(inst).value


@lru_cache(maxsize=None)
def oracle_pairs():
    """(instance, analysis, DP solution) on random pairs at cost scales 1, 2
    and 3 and on the tight family; the DP serves only as the oracle."""
    insts = [
        random_instance(2, 4, 10, seed=seed, cost_scale_max=F(scale))
        for scale in (1, 2, 3)
        for seed in range(150)
    ] + [tight_example(n) for n in range(2, 31)]
    return tuple((inst, analyze_two_box(inst), solve_dp(inst)) for inst in insts)


class TestAgainstDP:
    def test_opt_value_is_the_dp_value_in_every_category(self):
        categories = set()
        negative_sigma = zero_cost = 0
        for inst, a, sol in oracle_pairs():
            assert a.opt_value == sol.value, inst
            categories.add(a.category)
            negative_sigma += any(s < 0 for s in profile(inst).sigmas)
            zero_cost += any(box.cost == 0 for box in inst.boxes)
        assert categories == {ALWAYS_CLOSED, ALWAYS_OPEN, MIXED}
        assert negative_sigma > 0 and zero_cost > 0

    def test_category_and_first_box_follow_the_dp_table(self):
        # always-closed exactly when the root halts or takes a box closed;
        # otherwise the root inspects a box, the pair is mixed exactly when
        # some value of that box leads the table to take the other closed,
        # and a mixed pair's first_box is that box
        for inst, a, sol in oracle_pairs():
            kind, box = sol.table[(frozenset({0, 1}), None)][0]
            assert (a.category == ALWAYS_CLOSED) == (kind in ("halt", "select_closed")), inst
            if a.category == ALWAYS_CLOSED:
                continue
            assert kind == "inspect"
            j = 1 - box
            closed = [
                sol.table[(frozenset({j}), v)][0] == ("select_closed", j)
                for v in inst.boxes[box].dist.values()
            ]
            assert (a.category == MIXED) == any(closed), inst
            if a.category == MIXED:
                assert a.first_box == box

    def test_formula_bounds_the_dp_and_is_exact_when_first_sigma_is_larger(self):
        exact_cases = 0
        for inst, a, sol in oracle_pairs():
            if a.category != MIXED:
                assert a.formula_bound is None
                continue
            assert a.formula_bound >= sol.value, inst
            sigmas = profile(inst).sigmas
            if sigmas[a.first_box] >= sigmas[1 - a.first_box]:
                assert a.formula_bound == sol.value, inst
                exact_cases += 1
        assert exact_cases > 0


class TestCertificate:
    def test_tight_example_ratio(self):
        a = analyze_two_box(tight_example(10))
        ratio, bound = ratio_certificate(a)
        assert ratio == F(40, 49)
        assert bound == F(4, 5)
        assert ratio >= bound

    def test_certificate_holds_on_random_mixed_instances(self):
        for seed in range(200):
            inst = random_instance(2, 4, 10, seed=seed)
            a = analyze_two_box(inst)
            if a.category != MIXED:
                continue
            ratio, bound = ratio_certificate(a)
            assert bound >= F(4, 5)
            assert ratio >= bound, seed

    def test_certificate_requires_mixed(self):
        inst = Instance([Box(d((0, F(1, 2)), (2, F(1, 2))), 3), Box(d((1, 1)), 5)])
        with pytest.raises(ValueError):
            ratio_certificate(analyze_two_box(inst))


class TestTightExample:
    def test_small_case_layout(self):
        inst = tight_example(2)
        assert inst.boxes[0].cost == 0
        assert inst.boxes[1].dist == d((0, F(1, 2)), (2, F(1, 2)))
        assert inst.boxes[1].cost == F(1, 4)

    def test_ratio_formula(self):
        for n in (2, 3, 10, 50, 1000):
            a = analyze_two_box(tight_example(n))
            ratio, _ = ratio_certificate(a)
            assert ratio == 1 / (F(5, 4) - F(1, 4 * n)), n
        assert ratio == F(4000, 4999)

    def test_ratio_decreases_toward_four_fifths(self):
        ratios = [ratio_certificate(analyze_two_box(tight_example(n)))[0] for n in range(2, 30)]
        assert ratios == sorted(ratios, reverse=True)
        assert all(r > F(4, 5) for r in ratios)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            tight_example(1)
