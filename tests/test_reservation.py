from fractions import Fraction as F

from hypothesis import example, given

from pandora_search import (
    Box,
    CallbackPolicy,
    CommittingPolicy,
    DiscreteDist,
    Halt,
    Inspect,
    Instance,
    WeitzmanPolicy,
    evaluate_exact,
    profile,
    random_instance,
    reservation_value,
    tight_example,
)
from conftest import amortized_bound, drawn_boxes, expected_excess, fraction_reservation_value


def d(*pairs):
    return DiscreteDist(pairs)


class TestReservationValue:
    def test_longshot_box(self):
        # (1/10)(10 - sigma) = 9/20  =>  sigma = 11/2
        assert reservation_value(Box(d((0, F(9, 10)), (10, F(1, 10))), F(9, 20))) == F(11, 2)

    def test_zero_cost_gives_max_support(self):
        assert reservation_value(Box(d((0, F(1, 2)), (1, F(1, 2))), 0)) == 1

    def test_zero_cost_scan_gives_max_support_on_random_boxes(self):
        # No branch for c = 0: the scan's first piece is p v_max / p.
        for seed in range(40):
            for box in random_instance(3, 5, 12, seed=seed).boxes:
                sigma = reservation_value(Box(box.dist, 0))
                assert sigma == box.dist.support[-1][0]
                assert type(sigma) is F

    def test_point_mass(self):
        assert reservation_value(Box(d((4, 1)), 1)) == 3

    def test_cost_above_mean_gives_negative_sigma(self):
        box = Box(d((0, F(1, 2)), (2, F(1, 2))), 3)
        # linear region below min support: sigma = E[v] - c = 1 - 3
        assert reservation_value(box) == -2

    def test_root_property_on_random_boxes(self):
        for seed in range(60):
            inst = random_instance(1, 4, 10, seed=seed, cost_scale_max=F(3, 2))
            box = inst.boxes[0]
            sigma = reservation_value(box)
            assert expected_excess(box.dist, sigma) == box.cost
            if box.cost > 0:
                assert expected_excess(box.dist, sigma + F(1, 7)) < box.cost

    def test_monotone_in_cost(self):
        dist = d((0, F(1, 3)), (4, F(1, 3)), (9, F(1, 3)))
        sigmas = [reservation_value(Box(dist, c)) for c in (0, F(1, 2), 1, 2, 4, 6)]
        assert sigmas == sorted(sigmas, reverse=True)

    @given(drawn_boxes)
    # cost 0, cost above the mean (sigma = -1), and a point mass whose cost is its value
    @example(Box(d((0, F(1, 2)), (3, F(1, 2))), 0))
    @example(Box(d((2, F(1, 3)), (5, F(2, 3))), 5))
    @example(Box(d((7, 1)), 7))
    def test_integer_scan_equals_fraction_scan(self, box):
        sigma = reservation_value(box)
        assert sigma == fraction_reservation_value(box)
        assert type(sigma) is F

    def test_brute_force_grid_oracle(self):
        # scan candidate sigma on a fine grid and bracket the root
        for seed in (1, 5, 11):
            inst = random_instance(1, 4, 10, seed=seed)
            box = inst.boxes[0]
            sigma = reservation_value(box)
            if box.cost == 0:
                assert sigma == box.dist.support[-1][0]
                continue
            grid = [F(k, 16) for k in range(-16 * 12, 16 * 12)]
            below = [s for s in grid if expected_excess(box.dist, s) >= box.cost]
            assert max(below) <= sigma < max(below) + F(1, 16)


class TestProfile:
    def test_tight_example(self):
        prof = profile(tight_example(10))
        assert prof.sigmas == (1, F(11, 2))
        assert prof.kappa_dists[0] == d((0, F(1, 2)), (1, F(1, 2)))
        assert prof.kappa_dists[1] == d((0, F(9, 10)), (F(11, 2), F(1, 10)))
        assert prof.expected_values == (F(1, 2), 1)

    def test_single_free_box(self):
        prof = profile(Instance([Box(d((5, 1)), 0)]))
        assert prof.sigmas == (5,)
        assert prof.kappa_dists[0] == d((5, 1))

    def test_kappa_mean_bounded_by_mean(self):
        for seed in range(20):
            inst = random_instance(2, 4, 10, seed=seed, cost_scale_max=F(3, 2))
            prof = profile(inst)
            for i in range(inst.n):
                assert prof.kappa_dists[i].expectation() <= prof.expected_values[i]


class TestAmortizedBound:
    def test_weitzman_is_tight_per_box(self):
        inst = tight_example(10)
        res = evaluate_exact(inst, WeitzmanPolicy(inst))
        for lhs, rhs in amortized_bound(res):
            assert lhs == rhs

    def test_exposed_policy_is_strict(self):
        # inspect the long-shot box, then walk away: exposed whenever v > sigma
        inst = tight_example(10)
        pol = CallbackPolicy(lambda s: Inspect(1) if 1 in s.uninspected else Halt())
        res = evaluate_exact(inst, pol)
        lhs, rhs = amortized_bound(res)[1]
        assert lhs < rhs
        assert lhs == -F(9, 20) and rhs == 0

    def test_closed_selection_contributes_mean(self):
        inst = tight_example(10)
        pol = CommittingPolicy(inst, {1})
        res = evaluate_exact(inst, pol)
        prof = profile(inst)
        lhs, rhs = amortized_bound(res)[1]
        assert lhs == rhs == res.select_probs[1] * prof.expected_values[1]

    def test_inequality_holds_for_arbitrary_policies(self):
        import random

        inst = random_instance(3, 3, 8, seed=4)

        def scripted(state):
            rng = random.Random(str((len(state.observed), sorted(state.uninspected))))
            legal = [Inspect(i) for i in sorted(state.uninspected)]
            legal += [Halt()]
            return rng.choice(legal)

        res = evaluate_exact(inst, CallbackPolicy(scripted))
        for lhs, rhs in amortized_bound(res):
            assert lhs <= rhs
