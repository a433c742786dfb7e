from fractions import Fraction as F
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from pandora_search import (Box, DiscreteDist, Instance, adaptive, cli, committing, core, evaluator,
                            max_of_independents, policies, random_instance, reduction, reservation, simulator,
                            tight_example)
from pandora_search.core import InvalidDistributionError, as_num, scaled, value_grid
from conftest import (SIGMA_ON_SUPPORT, drawn_boxes, expected_excess, fraction_expectation,
                      fraction_reservation_value)


def d(*pairs):
    return DiscreteDist(pairs)


COIN = d((0, F(1, 2)), (1, F(1, 2)))
LONGSHOT = d((0, F(9, 10)), (10, F(1, 10)))


class TestDiscreteDist:
    def test_expectation_symmetric_two_point(self):
        assert COIN.expectation() == F(1, 2)

    def test_expectation_longshot(self):
        assert LONGSHOT.expectation() == 1

    def test_expectation_point_mass(self):
        assert d((5, 1)).expectation() == 5

    def test_cdf(self):
        assert COIN.cdf_at(0) == F(1, 2)
        assert COIN.cdf_at(1) == 1
        assert LONGSHOT.cdf_at(5) == F(9, 10)
        assert LONGSHOT.cdf_at(-1) == 0

    def test_min_with_collapses_upper_tail(self):
        assert LONGSHOT.min_with(F(11, 2)) == d((0, F(9, 10)), (F(11, 2), F(1, 10)))

    def test_min_with_above_max_is_identity(self):
        assert COIN.min_with(1) == COIN

    def test_min_with_below_min_is_point_mass(self):
        assert COIN.min_with(0) == d((0, 1))

    def test_normalization_merges_and_sorts(self):
        a = DiscreteDist([(2, F(1, 4)), (0, F(1, 2)), (2, F(1, 4))])
        assert a == DiscreteDist([(0, F(1, 2)), (2, F(1, 2))])

    def test_rejects_bad_probability_sum(self):
        with pytest.raises(InvalidDistributionError, match="^probabilities sum to 5/6, not 1$"):
            DiscreteDist([(0, F(1, 2)), (1, F(1, 3))])

    def test_rejects_negative_probability(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDist([(0, F(3, 2)), (1, F(-1, 2))])

    def test_rejects_empty_support(self):
        with pytest.raises(InvalidDistributionError, match="empty support"):
            DiscreteDist([])

    def test_conditioning_on_a_null_event_raises(self):
        with pytest.raises(InvalidDistributionError, match="null event"):
            d((0, 1)).conditioned_at_least(1)


class TestMaxOfIndependents:
    def test_tight_example_expectation(self):
        kappa_b = d((0, F(9, 10)), (F(11, 2), F(1, 10)))
        assert max_of_independents([COIN, kappa_b]).expectation() == 1

    def test_singleton(self):
        assert max_of_independents([d((3, 1))]) == d((3, 1))

    def test_rejects_no_distributions(self):
        with pytest.raises(ValueError, match="at least one"):
            max_of_independents([])

    def test_two_by_one(self):
        got = max_of_independents([d((0, F(1, 2)), (2, F(1, 2))), d((1, 1))])
        assert got == d((1, F(1, 2)), (2, F(1, 2)))

    def test_commutative(self):
        ds = [COIN, LONGSHOT, d((3, 1))]
        assert max_of_independents(ds) == max_of_independents(ds[::-1])

    def test_dominated_point_mass_is_absorbed(self):
        assert max_of_independents([COIN, d((-1, 1))]) == COIN
        assert max_of_independents([COIN, d((-1, 1)), (d((-1, 1)))]) == COIN


def test_max_of_independents_rejects_float_probabilities():
    # a float fails where the distribution is built, before any kernel sees it
    with pytest.raises(TypeError, match="float"):
        max_of_independents([COIN, DiscreteDist([(0, 0.5), (1, F(1, 2))])])


def brute_max(dists):
    """Oracle: direct enumeration of the joint distribution."""
    acc = {}
    for combo in product(*(dd.support for dd in dists)):
        v = max(c[0] for c in combo)
        p = F(1)
        for c in combo:
            p *= c[1]
        acc[v] = acc.get(v, 0) + p
    return DiscreteDist(acc.items())


small_dists = st.lists(
    st.tuples(st.integers(-5, 10), st.integers(1, 5)), min_size=1, max_size=4
).map(lambda pairs: DiscreteDist(
    (v, F(w, sum(p[1] for p in pairs))) for v, w in
    # merge duplicate values by keeping weights
    [(v, sum(w2 for v2, w2 in pairs if v2 == v)) for v in {p[0] for p in pairs}]
))


@given(st.lists(small_dists, min_size=1, max_size=3))
def test_max_of_independents_matches_enumeration(ds):
    assert max_of_independents(ds) == brute_max(ds)


@given(small_dists, st.integers(-6, 12))
def test_min_with_expectation_identity(dd, sigma):
    # E[min(v, s)] = E[v] - E[(v - s)^+]
    assert dd.min_with(sigma).expectation() == dd.expectation() - expected_excess(dd, sigma)


@given(small_dists, small_dists)
def test_rational_arithmetic_is_exact(a, b):
    x, y = a.expectation(), b.expectation()
    assert (x + y) - y == x


@given(st.one_of(small_dists, drawn_boxes.map(lambda box: box.dist)))
def test_expectation_equals_a_fraction_sum(dd):
    mean = dd.expectation()
    assert mean == fraction_expectation(dd)
    assert type(mean) is F


class TestAsNum:
    def test_fraction_comes_back_as_is(self):
        x = F(3, 7)
        assert as_num(x) is x

    def test_int_and_fraction_subclass_become_plain_fractions(self):
        class Sub(F):
            pass

        for x in (5, True, Sub(3, 7)):
            y = as_num(x)
            assert type(y) is F and y == x


class TestScaled:
    def test_mixed_denominators(self):
        assert scaled([F(1, 6), F(3, 4), 2, F(-5, 9), 0]) == (36, [6, 27, 72, -20, 0])

    def test_ints(self):
        assert scaled([3, 0, -7]) == (1, [3, 0, -7])
        assert scaled([]) == (1, [])


class TestInstance:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Instance([])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            Instance([Box(d((-1, F(1, 2)), (1, F(1, 2))), 0)])

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            Box(COIN, -1)

    def test_support_sizes(self):
        inst = Instance([Box(COIN, 0), Box(LONGSHOT, F(9, 20))])
        assert inst.n == 2
        assert inst.support_sizes() == (2, 2)


class TestIntegerForm:
    def test_grid_ranks_and_scaled_probabilities(self):
        for seed in range(20):
            inst = random_instance(1 + seed % 6, 4, 10, seed=seed, cost_scale_max=F(2))
            form = inst.form
            assert form.grid == sorted({v for box in inst.boxes for v in box.dist.values()})
            assert len(form.boxes) == inst.n
            for box, (den, pairs) in zip(inst.boxes, form.boxes):
                assert den == lcm(*(p.denominator for p in box.dist.probs()))
                assert [(form.grid[r], F(w, den)) for r, w in pairs] == list(box.dist.support)

    def test_equal_values_of_different_boxes_share_a_rank(self):
        form = Instance([Box(COIN, 0), Box(d((1, F(1, 3)), (5, F(2, 3))), 0)]).form
        assert form.grid == [0, 1, 5]
        assert form.boxes == ((2, ((0, 1), (1, 1))), (3, ((1, 1), (2, 2))))

    def test_value_grid_is_built_once_per_instance(self, monkeypatch):
        # The ratio row of tight_example(10) is not certified, so it reaches
        # solve_dp; the table policy is then evaluated and simulated.  The
        # grid is built with the integer form, or by value_grid elsewhere.
        inst = tight_example(10)
        dists = [box.dist for box in inst.boxes]
        builds = []
        build_form = core.IntegerForm.__init__

        def counting_form(form, of):
            if of == inst:
                builds.append(of)
            build_form(form, of)

        def counting(ds):
            ds = list(ds)
            if len(ds) == len(dists) and all(a is b for a, b in zip(ds, dists)):
                builds.append(ds)
            return value_grid(ds)

        monkeypatch.setattr(core.IntegerForm, "__init__", counting_form)
        for module in (core, adaptive, policies):
            if hasattr(module, "value_grid"):
                monkeypatch.setattr(module, "value_grid", counting)
        dp, bc, _ = cli._ratio_row(inst)
        assert bc < dp
        pol = adaptive.dp_policy(adaptive.solve_dp(inst))
        assert evaluator.evaluate_exact(inst, pol).utility == dp
        simulator.simulate(inst, pol, 1000, 0)
        assert len(builds) == 1

    def test_scaled_values_means_and_costs(self):
        cases = [random_instance(1 + seed % 6, 4, 10, seed=seed, cost_scale_max=F(2)) for seed in range(20)]
        for inst in cases + [tight_example(10)]:
            form = inst.form
            means = [box.dist.expectation() for box in inst.boxes]
            costs = [box.cost for box in inst.boxes]
            sigmas = [fraction_reservation_value(box) for box in inst.boxes]
            assert form.scale == lcm(*(x.denominator for x in [*form.grid, *means, *costs, *sigmas]))
            assert form.values == [v * form.scale for v in form.grid]
            assert form.means == [m * form.scale for m in means]
            assert form.costs == [c * form.scale for c in costs]
            assert form.caps == [s * form.scale for s in sigmas]
            assert all(type(x) is int for x in [*form.values, *form.means, *form.costs, *form.caps])
            assert form.weight == prod(den for den, _ in form.boxes)

    @pytest.mark.parametrize("inst", [tight_example(10), random_instance(5, 4, 10, seed=3)])
    def test_dp_and_tree_scale_nothing_once_the_form_is_built(self, inst, monkeypatch):
        inst.form
        calls = []

        def counting(xs):
            calls.append(xs)
            return scaled(xs)

        for module in (core, adaptive, committing, policies):
            if hasattr(module, "scaled"):
                monkeypatch.setattr(module, "scaled", counting)
        adaptive.solve_dp(inst)
        committing.best_committing(inst)
        tree = policies.PolicyTree(inst, policies.WeitzmanPolicy(inst))
        sum(tree.payoff(node) for node, _ in tree.walk() if not isinstance(node.action, policies.Inspect))
        assert calls == []

    def test_trees_of_one_instance_share_its_form(self):
        inst = random_instance(40, 6, 20, seed=0)
        first = policies.PolicyTree(inst, policies.WeitzmanPolicy(inst))
        second = policies.PolicyTree(inst, policies.CommittingPolicy(inst, {0}))
        assert first.form is second.form is inst.form

    def test_certified_ratio_row_builds_the_form_once_and_no_dp(self, monkeypatch):
        # Best committing reads sigma and E[v] from the form; a row it
        # certifies never reaches the DP.
        inst = random_instance(3, 4, 10, seed=7)
        sol = committing.best_committing(random_instance(3, 4, 10, seed=7))
        assert sol.best_value == sol.upper_bound
        builds = []
        build_form = core.IntegerForm.__init__

        def counting_form(form, of):
            builds.append(of)
            build_form(form, of)

        def forbidden(*args):
            raise AssertionError("solved the DP")

        monkeypatch.setattr(core.IntegerForm, "__init__", counting_form)
        monkeypatch.setattr(adaptive, "solve_dp", forbidden)
        assert cli._ratio_row(inst) == (sol.best_value, sol.best_value, 1)
        assert len(builds) == 1 and builds[0] is inst


class TestFormSigmaAndMean:
    """The form is the one owner of each box's sigma and E[v]: they equal the
    Fraction oracles of conftest, and its grid is value_grid's."""

    @staticmethod
    def check(inst):
        form = inst.form
        for box, sigma, mean in zip(inst.boxes, form.sigmas, form.expected_values):
            assert sigma == fraction_reservation_value(box) and type(sigma) is F, inst
            assert mean == fraction_expectation(box.dist) and type(mean) is F, inst
        assert form.grid == value_grid(box.dist for box in inst.boxes), inst
        assert all(type(v) is F for v in form.grid), inst
        ranks = {}
        for box, (_, pairs) in zip(inst.boxes, form.boxes):
            for v, (r, _) in zip(box.dist.values(), pairs):
                # equal values of different boxes share a rank
                assert ranks.setdefault(v, r) == r and form.grid[r] == v, inst
        return form

    @settings(deadline=None)
    @given(st.lists(drawn_boxes, min_size=1, max_size=5).map(Instance))
    def test_drawn_instances(self, inst):
        self.check(inst)

    def test_sigma_on_a_support_value(self):
        inst = Instance([SIGMA_ON_SUPPORT, *tight_example(10).boxes, SIGMA_ON_SUPPORT])
        assert self.check(inst).sigmas[0] == 2

    def test_fractional_values_on_different_denominators(self):
        inst = Instance([Box(d((F(1, 3), F(1, 2)), (F(5, 6), F(1, 2))), F(1, 7)),
                         Box(d((F(1, 2), F(1, 3)), (F(5, 6), F(2, 3))), F(2, 5)),
                         Box(d((0, F(3, 4)), (F(1, 3), F(1, 4))), 0)])
        form = self.check(inst)
        assert form.grid == [0, F(1, 3), F(1, 2), F(5, 6)]
        assert form.scale % 6 == 0 and form.values == [v * form.scale for v in form.grid]

    def test_readers_compute_neither(self, monkeypatch):
        # A fresh instance whose best committing set is not empty, so that a
        # box is selected closed; the scan runs once per box, in the form.
        inst = random_instance(4, 3, 10, seed=7)
        scans = []
        scan = core.reservation_scan

        def counting(*args):
            scans.append(args)
            return scan(*args)

        def forbidden(*args):
            raise AssertionError("computed sigma or E[v] outside the form")

        monkeypatch.setattr(core, "reservation_scan", counting)
        monkeypatch.setattr(core.DiscreteDist, "expectation", forbidden)
        monkeypatch.setattr(reservation, "reservation_value", forbidden)
        sol = committing.best_committing(inst)
        assert sol.best_set == {2}
        for pol in (policies.WeitzmanPolicy(inst), policies.CommittingPolicy(inst, sol.best_set)):
            evaluator.evaluate_exact(inst, pol)
            sum(tr.utility for tr in evaluator.iter_traces(inst, pol))
            reduction.phi_value_bound(inst, pol)
        evaluator.evaluate_nonexposed_closed_form(inst, {0})
        reservation.profile(inst)
        assert len(scans) == inst.n
