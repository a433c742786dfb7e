from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from pandora_search import (
    Box,
    CommittingPolicy,
    DiscreteDist,
    Instance,
    WeitzmanPolicy,
    best_committing,
    evaluate_exact,
    evaluate_nonexposed_closed_form,
    max_of_independents,
    modified_instance,
    profile,
    random_instance,
    reservation_value,
    solve_dp,
    tight_example,
)
from pandora_search.committing import _kappa_cdfs
from pandora_search.core import scaled_cdfs, value_grid
from conftest import SIGMA_ON_SUPPORT, drawn_boxes, forbid_kappa_laws, profile_best_committing, random_batch


def d(*pairs):
    return DiscreteDist(pairs)


class TestModifiedInstance:
    def test_reserved_box_becomes_free_point_mass(self):
        inst = tight_example(10)
        mod = modified_instance(inst, {1})
        assert mod.boxes[1].cost == 0
        assert mod.boxes[1].dist == d((1, 1))
        assert mod.boxes[0] == inst.boxes[0]

    def test_empty_set_is_identity(self):
        inst = random_instance(3, 3, 9, seed=1)
        assert modified_instance(inst, frozenset()) == inst

    def test_committing_sigmas_are_the_modified_instance_profile(self):
        # The modified instance is the oracle: a reserved box's sigma is its
        # mean, every other box keeps its own reservation value.
        cases = [random_instance(n, 3, 10, seed=k, cost_scale_max=F(c))
                 for n in range(1, 5) for c in (1, 2) for k in range(6)]
        cases += [tight_example(big_n) for big_n in (2, 10, 1000)]
        negative = False
        for inst in cases:
            for k in range(inst.n + 1):
                for s in combinations(range(inst.n), k):
                    expected = profile(modified_instance(inst, s)).sigmas
                    pol = CommittingPolicy(inst, s)
                    assert pol.sigmas == expected, (inst, s)
                    assert pol.order == sorted(range(inst.n), key=lambda i: (-expected[i], i))
                    negative = negative or min(expected) < 0
        assert negative

    @pytest.mark.parametrize("inst", [tight_example(10), random_instance(5, 4, 10, seed=3)])
    def test_committing_policies_build_no_modified_instance(self, inst, monkeypatch):
        expected = {s: profile(modified_instance(inst, s)).sigmas
                    for s in [(), (0,), (1,), (0, 1), tuple(range(inst.n))]}
        forbid_kappa_laws(monkeypatch)
        assert WeitzmanPolicy(inst).sigmas == expected[()]
        for s, sigmas in expected.items():
            assert CommittingPolicy(inst, s).sigmas == sigmas


class TestBestCommitting:
    def test_tight_example_all_candidates_tie(self):
        sol = best_committing(tight_example(10))
        # every candidate is worth exactly 1; ties resolve to the empty set
        assert sol.best_value == 1
        assert sol.best_set == frozenset()
        assert dict(sol.candidate_values) == {
            frozenset(): 1,
            frozenset({0}): 1,
            frozenset({1}): 1,
        }
        assert sol.baseline_policy_a == 1
        assert sol.baseline_policy_b == 1

    def test_single_box_prefers_reserving_when_cost_dominates(self):
        inst = Instance([Box(d((0, F(1, 2)), (10, F(1, 2))), 4)])
        sol = best_committing(inst)
        # inspecting nets E[kappa] = 1/2 * sigma = 1, reserving nets E[v] = 5
        assert sol.best_set == frozenset({0})
        assert sol.best_value == 5
        assert sol.baseline_policy_a == 1

    def test_matches_exhaustive_search_over_all_subsets(self):
        # oracle: score every one of the 2^n reservation sets by path
        # enumeration; the (n+1)-candidate search must find the same optimum
        for inst in random_batch(30, 3, 3, seed0=200):
            best = max(
                evaluate_exact(inst, CommittingPolicy(inst, set(s))).utility
                for r in range(inst.n + 1)
                for s in combinations(range(inst.n), r)
            )
            assert best_committing(inst).best_value == best, inst

    def test_candidate_list_shape(self):
        inst = random_instance(4, 3, 9, seed=6)
        sol = best_committing(inst)
        assert len(sol.candidate_values) == 5
        assert sol.candidate_values[0][0] == frozenset()

    def test_at_least_both_baselines(self):
        for inst in random_batch(20, 4, 3, seed0=300):
            sol = best_committing(inst)
            assert sol.best_value >= sol.baseline_policy_a
            assert sol.best_value >= sol.baseline_policy_b

    def test_half_of_adaptive_optimum(self):
        for inst in random_batch(20, 3, 3, seed0=400):
            sol = best_committing(inst)
            opt = solve_dp(inst).value
            assert 2 * sol.best_value >= opt, inst

    def test_permutation_invariance(self):
        inst = random_instance(3, 3, 9, seed=21)
        perm = [1, 2, 0]
        permuted = Instance([inst.boxes[p] for p in perm])
        assert best_committing(inst).best_value == best_committing(permuted).best_value


class TestAgainstClosedForm:
    """Each one-pass candidate score equals the closed form built from
    max_of_independents for that reservation set."""

    def instances(self):
        for n in range(1, 7):
            for s in range(1, 5):
                yield random_instance(n, s, 10, seed=20 * n + s)
                yield random_instance(n, s, 10, seed=20 * n + s, cost_scale_max=F(2))
        yield tight_example(10)

    def test_every_candidate_equals_closed_form(self):
        negative_sigma = 0
        for inst in self.instances():
            sol = best_committing(inst)
            assert [s for s, _ in sol.candidate_values] == (
                [frozenset()] + [frozenset({i}) for i in range(inst.n)])
            for s, v in sol.candidate_values:
                assert v == evaluate_nonexposed_closed_form(inst, s), (inst, s)
            negative_sigma += any(s < 0 for s in profile(inst).sigmas)
        assert negative_sigma > 0

    def test_single_box(self):
        inst = Instance([Box(d((0, F(1, 3)), (6, F(2, 3))), 1)])
        sol = best_committing(inst)
        assert dict(sol.candidate_values) == {
            frozenset(): evaluate_nonexposed_closed_form(inst, frozenset()),
            frozenset({0}): 4,
        }

    def test_two_hundred_boxes(self):
        sol = best_committing(random_instance(200, 4, 10, seed=7))
        assert len(sol.candidate_values) == 201

    def test_rejects_float_data_naming_the_box(self):
        # a float cost fails where the box is built, so best_committing
        # never receives it
        with pytest.raises(TypeError, match="float"):
            best_committing(Instance([Box(d((1, 1)), 0), Box(d((0, F(1, 2)), (2, F(1, 2))), 0.25)]))


class TestPairwiseDominance:
    def test_larger_sets_never_beat_all_candidates(self):
        # any reservation set with two or more boxes is dominated by dropping
        # all but its best member (or by the empty set)
        for inst in random_batch(25, 3, 3, seed0=500):
            sol = best_committing(inst)
            for r in range(2, inst.n + 1):
                for s in combinations(range(inst.n), r):
                    val = evaluate_nonexposed_closed_form(inst, frozenset(s))
                    assert val <= sol.best_value, (inst, s)


def coupling_oracle(inst):
    """E[max(max_i E[v_i], max_j kappa_j)] as one max_of_independents."""
    prof = profile(inst)
    point = DiscreteDist.point(max(prof.expected_values))
    return max_of_independents([*prof.kappa_dists, point]).expectation()


class TestCouplingBound:
    """best_value <= optimum <= upper_bound, the paper's coupling bound, with
    the optimum from the DP and the bound from an independent oracle; where
    best_value == upper_bound (certified) the DP value equals both."""

    def check(self, inst) -> bool:
        sol = best_committing(inst)
        assert sol.best_value <= solve_dp(inst).value <= sol.upper_bound, inst
        assert sol.upper_bound == coupling_oracle(inst), inst
        return sol.best_value == sol.upper_bound

    @settings(deadline=None)
    @given(st.lists(drawn_boxes, min_size=1, max_size=5).map(Instance))
    def test_drawn_instances(self, inst):
        self.check(inst)

    @pytest.mark.parametrize("cost_scale_max", [1, 2])
    def test_random_batch_up_to_six_boxes(self, cost_scale_max):
        insts = [random_instance(1 + k % 6, 3, 10, seed=k, cost_scale_max=F(cost_scale_max))
                 for k in range(200)]
        certified = [self.check(inst) for inst in insts]
        assert any(certified) and not all(certified)
        if cost_scale_max == 2:
            assert any(s < 0 for inst in insts for s in profile(inst).sigmas)

    def test_both_paths_occur_on_the_criterion_batch(self):
        certified = [self.check(inst) for inst in random_batch(500, 4, 3, seed0=2000)]
        assert 0 < sum(certified) < len(certified)

    @pytest.mark.parametrize("big_n", [2, 3, 10, 1000])
    def test_tight_example_is_never_certified(self, big_n):
        assert not self.check(tight_example(big_n))


def check_against_profile(inst):
    """The kappa rows are scaled_cdfs of the kappa laws, integer for integer;
    every CommittingSolution field == the profile-based reference's, and every
    value is a Fraction."""
    prof = profile(inst)
    grid = value_grid(prof.kappa_dists)
    points, rows = _kappa_cdfs(inst.form)
    assert ([F(p, inst.form.scale) for p in points], rows) == (grid, scaled_cdfs(prof.kappa_dists, grid)), inst
    # best_committing divides by box i's row from the last grid point <= E[v_i] up
    for (_, row), ev in zip(rows, inst.form.expected_values):
        assert all(row[max(r for r, t in enumerate(grid) if t <= ev):]), (inst, ev)
    sol, ref = best_committing(inst), profile_best_committing(inst)
    for field in fields(sol):
        assert getattr(sol, field.name) == getattr(ref, field.name), (inst, field.name)
    values = [sol.best_value, sol.baseline_policy_a, sol.baseline_policy_b, sol.upper_bound]
    values += [v for _, v in sol.candidate_values]
    assert all(type(v) is F for v in values), inst


class TestIntegerKappaRows:
    """best_committing builds each kappa CDF row from the box's support and
    sigma; the reference builds the kappa laws as DiscreteDists."""

    def test_criterion_batch(self):
        for inst in random_batch(500, 4, 3, seed0=2000):
            check_against_profile(inst)

    @settings(deadline=None)
    @given(st.lists(drawn_boxes, min_size=1, max_size=5).map(Instance))
    # a zero-cost box, a cost above the mean (sigma = -1) and a point mass
    @example(Instance([Box(d((0, F(1, 2)), (3, F(1, 2))), 0), Box(d((2, F(1, 3)), (5, F(2, 3))), 5)]))
    @example(Instance([Box(d((7, 1)), F(5, 4)), Box(d((1, F(1, 2)), (6, F(1, 2))), F(1, 4))]))
    def test_drawn_instances(self, inst):
        check_against_profile(inst)

    def test_sigma_on_a_support_value(self):
        assert reservation_value(SIGMA_ON_SUPPORT) == 2
        for inst in [Instance([SIGMA_ON_SUPPORT]), Instance([SIGMA_ON_SUPPORT, *tight_example(10).boxes]),
                     Instance([*random_instance(3, 4, 10, seed=5).boxes, SIGMA_ON_SUPPORT])]:
            check_against_profile(inst)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_wide_instances(self, n):
        check_against_profile(random_instance(n, 4, 10, seed=0))

    @pytest.mark.parametrize("inst", [tight_example(10), random_instance(5, 4, 10, seed=3)])
    def test_builds_no_profile_and_no_distribution(self, inst, monkeypatch):
        expected = profile_best_committing(inst)

        def forbidden(*args):
            raise AssertionError("built a DiscreteDist")

        forbid_kappa_laws(monkeypatch)
        monkeypatch.setattr(DiscreteDist, "__init__", forbidden)
        assert best_committing(inst) == expected

    def test_hashes_no_fraction_and_compares_only_the_scores(self, monkeypatch):
        """The kappa grid is found, ranked and compared among integers: no
        Fraction is hashed, and the only Fraction compares are the at most n
        that pick the best of the n + 1 scores."""
        insts = [*random_batch(500, 4, 3, seed0=2000), tight_example(10), random_instance(200, 4, 10, seed=0)]
        for inst in insts:
            inst.form  # built first: only best committing's own work is counted
        counts = {"hash": 0, "compare": 0}

        def count(name, kind):
            method = getattr(F, name)

            def counted(*args):
                counts[kind] += 1
                return method(*args)

            monkeypatch.setattr(F, name, counted)

        count("__hash__", "hash")
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            count(name, "compare")
        for inst in insts:
            before = counts["compare"]
            best_committing(inst)
            assert counts["compare"] - before <= inst.n, inst
        assert counts["hash"] == 0
