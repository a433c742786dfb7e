import random
from fractions import Fraction as F

import pytest

from pandora_search import (
    CallbackPolicy,
    CommittingPolicy,
    DiscreteDist,
    Halt,
    WeitzmanPolicy,
    best_committing,
    build_associated,
    dp_policy,
    evaluate_exact,
    max_of_independents,
    multilinear_value,
    nonadaptive_value,
    phi_value_bound,
    psi_transform,
    random_instance,
    solve_dp,
    tight_example,
)
from conftest import forbid_kappa_laws, independent_sets, random_batch


def d(*pairs):
    return DiscreteDist(pairs)


class TestBuildAssociated:
    def test_tight_example_variables(self):
        prob = build_associated(tight_example(10))
        assert prob.num_variables == 4
        assert prob.variables[0] == d((0, F(1, 2)), (1, F(1, 2)))
        assert prob.variables[1] == d((F(1, 2), 1))
        assert prob.variables[2] == d((0, F(9, 10)), (F(11, 2), F(1, 10)))
        assert prob.variables[3] == d((1, 1))

    def test_pair_indexing(self):
        prob = build_associated(tight_example(10))
        assert prob.pair(0) == (0, 1)
        assert prob.pair(1) == (2, 3)

    def test_independence_is_one_per_pair(self):
        prob = build_associated(tight_example(10))
        assert prob.is_independent(set())
        assert prob.is_independent({0, 3})
        assert not prob.is_independent({0, 1})
        assert not prob.is_independent({4})

    def test_independent_set_count(self):
        prob = build_associated(random_instance(3, 3, 9, seed=8))
        sets = list(independent_sets(prob))
        assert len(sets) == 3 ** 3
        assert len(set(sets)) == len(sets)
        assert all(prob.is_independent(s) for s in sets)


class TestNonadaptiveValue:
    def test_tight_example_probe_sets(self):
        prob = build_associated(tight_example(10))
        assert nonadaptive_value(prob, set()) == 0
        assert nonadaptive_value(prob, {0}) == F(1, 2)
        assert nonadaptive_value(prob, {0, 3}) == 1
        assert nonadaptive_value(prob, {1, 2}) == 1

    def test_rejects_dependent_sets(self):
        prob = build_associated(tight_example(10))
        with pytest.raises(ValueError):
            nonadaptive_value(prob, {2, 3})


class TestPsiTransform:
    def test_reservation_set_orientation(self):
        prob = build_associated(tight_example(10))
        # probing the kappa side of box 0 leaves box 1 reserved
        assert psi_transform(prob, {0, 3}).reservation_set == frozenset({1})
        assert psi_transform(prob, {0, 2}).reservation_set == frozenset()
        assert psi_transform(prob, set()).reservation_set == frozenset({0, 1})

    def test_rejects_dependent_sets(self):
        with pytest.raises(ValueError, match="not independent"):
            psi_transform(build_associated(tight_example(10)), {0, 1})

    def test_dominates_every_nonadaptive_probe_set(self):
        for inst in random_batch(20, 3, 3, seed0=1200):
            prob = build_associated(inst)
            best = best_committing(inst).best_value
            for b in independent_sets(prob):
                committed = evaluate_exact(inst, psi_transform(prob, b)).utility
                assert best >= committed >= nonadaptive_value(prob, b), (inst, b)


class TestPhiBound:
    def test_halt_maps_to_best_mean(self):
        inst = tight_example(10)
        u_pi, u_phi = phi_value_bound(inst, CallbackPolicy(lambda s: Halt()))
        assert u_pi == 0
        assert u_phi == 1  # everything reserved: max of the two means

    def test_index_policy_is_tight(self):
        inst = tight_example(10)
        u_pi, u_phi = phi_value_bound(inst, WeitzmanPolicy(inst))
        assert u_pi == u_phi == 1

    @pytest.mark.parametrize("inst", [tight_example(10), random_instance(5, 4, 10, seed=3)])
    def test_builds_no_kappa_laws(self, inst, monkeypatch):
        # sigma and E[v] per box are all the coupling reads.
        sets = [(), (0,), (1,), (0, 1)]
        expected = [phi_value_bound(inst, CommittingPolicy(inst, s)) for s in sets]
        forbid_kappa_laws(monkeypatch)
        assert phi_value_bound(inst, WeitzmanPolicy(inst)) == expected[0]
        assert [phi_value_bound(inst, CommittingPolicy(inst, s)) for s in sets] == expected

    def test_upper_bounds_arbitrary_policies(self):
        for inst in random_batch(20, 3, 3, seed0=1300):
            for pol in (WeitzmanPolicy(inst), dp_policy(solve_dp(inst))):
                u_pi, u_phi = phi_value_bound(inst, pol)
                assert u_phi >= u_pi, inst
                assert u_pi == evaluate_exact(inst, pol).utility

    def test_coupling_bound_caps_u_phi_on_the_criterion_batch(self):
        # u_pi <= u_phi <= E[max(max_i E[v_i], max_j kappa_j)] = upper_bound:
        # the bound best_committing certifies the optimum with
        for inst in random_batch(500, 4, 3, seed0=2000):
            ub = best_committing(inst).upper_bound
            policies = [dp_policy(solve_dp(inst)), WeitzmanPolicy(inst), CallbackPolicy(lambda s: Halt())]
            policies += [CommittingPolicy(inst, {i}) for i in range(inst.n)]
            for pol in policies:
                u_pi, u_phi = phi_value_bound(inst, pol)
                assert u_pi <= u_phi <= ub, (inst, pol)


def brute_multilinear(prob, y):
    """Oracle: sum over all 2^m subsets of variables."""
    m = prob.num_variables
    total = 0
    for mask in range(1 << m):
        chosen = [i for i in range(m) if mask >> i & 1]
        weight = 1
        for i in range(m):
            weight *= y[i] if i in chosen else 1 - y[i]
        if weight == 0:
            continue
        dists = [prob.variables[i] for i in chosen] + [d((0, 1))]
        total += weight * max_of_independents(dists).expectation()
    return total


class TestMultilinear:
    def test_tight_example_interior_point(self):
        prob = build_associated(tight_example(10))
        assert multilinear_value(prob, (1, 0, F(1, 2), F(1, 2))) == F(79, 80)

    def test_vertices_recover_set_values(self):
        prob = build_associated(random_instance(2, 3, 9, seed=30))
        for b in independent_sets(prob):
            y = [1 if i in b else 0 for i in range(prob.num_variables)]
            assert multilinear_value(prob, y) == nonadaptive_value(prob, b)

    def test_affine_in_each_coordinate(self):
        prob = build_associated(random_instance(2, 3, 9, seed=31))
        y = [F(1, 3), F(2, 3), F(1, 5), F(1, 2)]
        for i in range(4):
            lo = list(y); lo[i] = 0
            hi = list(y); hi[i] = 1
            lam = y[i]
            expect = lam * multilinear_value(prob, hi) + (1 - lam) * multilinear_value(prob, lo)
            assert multilinear_value(prob, y) == expect

    def test_matches_full_subset_oracle(self):
        prob = build_associated(random_instance(2, 3, 9, seed=32))
        for y in ([F(1, 2)] * 4, [F(1, 3), 1, 0, F(3, 4)], [0, 0, 0, 0]):
            assert multilinear_value(prob, y) == brute_multilinear(prob, y)

    def test_matches_full_subset_oracle_on_random_batch(self):
        # cost scale 2 gives negative sigma, hence negative kappa-side values
        rng = random.Random(34)
        negative = 0
        for k in range(48):
            n = 1 + k % 4
            scale = F(1 + k % 2)
            inst = random_instance(n, 3, 9, seed=1400 + k, cost_scale_max=scale)
            prob = build_associated(inst)
            negative += any(v < 0 for x in prob.variables for v in x.values())
            y = [rng.choice([0, 1, F(1, 2), F(rng.randint(1, 6), 7)]) for _ in range(2 * n)]
            assert multilinear_value(prob, y) == brute_multilinear(prob, y), (k, y)
        assert negative > 0

    def test_input_validation(self):
        prob = build_associated(tight_example(10))
        with pytest.raises(ValueError):
            multilinear_value(prob, [F(1, 2)] * 3)
        with pytest.raises(ValueError):
            multilinear_value(prob, [F(3, 2), 0, 0, 0])

    def test_twenty_two_variables_at_a_vertex(self):
        # 22 variables, 2^22 subsets: only a closed form reaches this size
        prob = build_associated(random_instance(11, 2, 9, seed=33))
        b = {0, 3, 4, 7, 9, 12, 17, 21}
        y = [1 if i in b else 0 for i in range(22)]
        assert multilinear_value(prob, y) == nonadaptive_value(prob, b)
        # the objective max(0, max of probed) is monotone in the probe set
        assert 0 <= multilinear_value(prob, [F(1, 2)] * 22) <= multilinear_value(prob, [1] * 22)
