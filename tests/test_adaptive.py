import time
from fractions import Fraction as F

import pytest

from pandora_search import adaptive
from pandora_search import (
    Box,
    DiscreteDist,
    Instance,
    NONOBLIGATORY,
    REQUIRED,
    SizeGuardError,
    dp_policy,
    evaluate_exact,
    iter_traces,
    max_of_independents,
    profile,
    random_instance,
    simulate,
    solve_dp,
    tight_example,
)
from conftest import random_batch, tree_opt, wide_instance


def d(*pairs):
    return DiscreteDist(pairs)


def reference_dp(inst, variant=NONOBLIGATORY):
    """The Fraction recursion solve_dp replaced, kept as its oracle: same
    states, actions, tie rule (stop < closed < inspect, then lowest index)
    and table insertion order, with every candidate an exact Fraction."""
    boxes = inst.boxes
    table = {}

    def value(uninspected, best):
        key = (uninspected, best)
        hit = table.get(key)
        if hit is not None:
            return hit[1]
        candidates = []  # (value, rank, index, action)
        if best is not None:
            candidates.append((best, 0, -1, ("select_open", None)))
        elif variant == NONOBLIGATORY:
            candidates.append((0, 0, -1, ("halt", None)))
        if variant == NONOBLIGATORY:
            for j in sorted(uninspected):
                candidates.append((boxes[j].dist.expectation(), 1, j, ("select_closed", j)))
        for i in sorted(uninspected):
            rest = uninspected - {i}
            cont = -boxes[i].cost
            for v, p in boxes[i].dist.support:
                nb = v if best is None or v > best else best
                cont += p * value(rest, nb)
            candidates.append((cont, 2, i, ("inspect", i)))
        best_val = max(c[0] for c in candidates)
        chosen = min(c for c in candidates if c[0] == best_val)
        table[key] = (chosen[3], best_val)
        return best_val

    root = value(frozenset(range(inst.n)), None)
    return root, table


def tie_instance():
    """Observed values equal to box means: at ({3}, best=2) stopping, taking
    box 3 closed and inspecting it are all worth 2, and boxes 0, 2 and 3
    share the mean 2."""
    return Instance([
        Box(d((1, F(1, 2)), (3, F(1, 2))), 0),
        Box(d((2, F(1, 2)), (4, F(1, 2))), F(1, 4)),
        Box(d((0, F(1, 3)), (2, F(1, 3)), (4, F(1, 3))), F(1, 3)),
        Box(d((0, F(1, 2)), (4, F(1, 2))), 1),
    ])


def assert_matches_reference(inst, variant):
    root, table = reference_dp(inst, variant)
    sol = solve_dp(inst, variant=variant)
    assert sol.value == root, inst
    assert sol.table == table, inst
    assert list(sol.table.items()) == list(table.items()), inst
    return sol


def oracle_instances():
    for n in range(1, 7):
        for s in range(1, 5):
            yield random_instance(n, s, 10, seed=10 * n + s)
            yield random_instance(n, s, 10, seed=10 * n + s, cost_scale_max=F(2))
    for k in (2, 10, 1000):
        yield tight_example(k)


class TestSolveDP:
    def test_tight_example_value(self):
        assert solve_dp(tight_example(10)).value == F(49, 40)

    def test_tight_example_required_variant(self):
        assert solve_dp(tight_example(10), variant=REQUIRED).value == 1

    def test_root_action_on_tight_example(self):
        sol = solve_dp(tight_example(10))
        root = (frozenset({0, 1}), None)
        # both inspection orders achieve 49/40; the tie-break takes the lower index
        assert sol.table[root][0] == ("inspect", 0)

    def test_single_expensive_box_selected_closed(self):
        inst = Instance([Box(d((0, F(1, 2)), (10, F(1, 2))), 1)])
        sol = solve_dp(inst)
        assert sol.value == 5
        assert sol.table[(frozenset({0}), None)][0] == ("select_closed", 0)

    def test_worthless_instance_halts(self):
        inst = Instance([Box(d((0, 1)), 2)])
        sol = solve_dp(inst)
        assert sol.value == 0
        assert sol.table[(frozenset({0}), None)][0] == ("halt", None)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            solve_dp(tight_example(2), variant="sometimes")

    def test_rejects_float_data_naming_the_box(self):
        # a float value fails where the box's distribution is built, so
        # solve_dp never receives it
        with pytest.raises(TypeError, match="float"):
            solve_dp(Instance([Box(d((1, 1)), 0), Box(d((0.0, F(1, 2)), (2, F(1, 2))), 0)]))

    def test_size_guard(self):
        # 21 point masses at distinct values: a bound of 2^21 * 22 states,
        # refused before any state is solved.
        inst = Instance([Box(d((i, 1)), 0) for i in range(21)])
        start = time.perf_counter()
        with pytest.raises(SizeGuardError):
            solve_dp(inst)
        assert time.perf_counter() - start < 1

    def test_size_guard_at_the_state_bound(self, monkeypatch):
        inst = random_instance(3, 3, 10, seed=1)
        grid = {v for box in inst.boxes for v in box.dist.values()}
        bound = (1 << inst.n) * (len(grid) + 1)
        value = solve_dp(inst).value
        monkeypatch.setattr(adaptive, "MAX_DP_STATES", bound)
        assert solve_dp(inst).value == value
        monkeypatch.setattr(adaptive, "MAX_DP_STATES", bound - 1)
        with pytest.raises(SizeGuardError):
            solve_dp(inst)


class TestAgainstTreeOracle:
    def test_nonobligatory_matches_full_history_trees(self):
        for inst in random_batch(30, 2, 3, seed0=600):
            assert solve_dp(inst).value == tree_opt(inst), inst

    def test_required_matches_full_history_trees(self):
        for inst in random_batch(20, 2, 3, seed0=700):
            got = solve_dp(inst, variant=REQUIRED).value
            assert got == tree_opt(inst, allow_closed=False), inst


class TestAgainstFractionRecursion:
    @pytest.mark.parametrize("variant", [NONOBLIGATORY, REQUIRED])
    def test_tables_and_values_equal_the_reference(self, variant):
        negative_sigma = 0
        for inst in oracle_instances():
            assert_matches_reference(inst, variant)
            negative_sigma += any(s < 0 for s in profile(inst).sigmas)
        assert negative_sigma > 0

    @pytest.mark.parametrize("variant", [NONOBLIGATORY, REQUIRED])
    def test_shared_support_values(self, variant):
        same = Box(d((0, F(1, 4)), (2, F(1, 2)), (5, F(1, 4))), F(1, 2))
        instances = [Instance([same] * 4)]
        instances += [random_instance(n, 4, 3, seed=50 + n, cost_scale_max=F(1, 2)) for n in (3, 5, 6)]
        for inst in instances:
            points = sum(len(box.dist.support) for box in inst.boxes)
            assert len({v for box in inst.boxes for v in box.dist.values()}) < points
            assert_matches_reference(inst, variant)

    @pytest.mark.parametrize("variant", [NONOBLIGATORY, REQUIRED])
    def test_ties_between_observed_values_and_means(self, variant):
        inst = tie_instance()
        sol = assert_matches_reference(inst, variant)
        means = [box.dist.expectation() for box in inst.boxes]
        assert any(best is not None and best in {means[j] for j in u} for u, best in sol.table)
        if variant == NONOBLIGATORY:
            assert sol.table[(frozenset({3}), 2)] == (("select_open", None), 2)

    @pytest.mark.parametrize("variant", [NONOBLIGATORY, REQUIRED])
    def test_seven_boxes_with_wide_supports(self, variant):
        for seed in (1, 2):
            inst = wide_instance(7, seed)
            assert min(len(box.dist.support) for box in inst.boxes) >= 5
            assert_matches_reference(inst, variant)


class TestStructure:
    def test_required_value_is_expected_max_kappa(self):
        for inst in random_batch(20, 3, 3, seed0=800):
            prof = profile(inst)
            emax = max_of_independents(prof.kappa_dists).expectation()
            assert solve_dp(inst, variant=REQUIRED).value == emax

    def test_nonobligatory_dominates_required(self):
        for inst in random_batch(20, 3, 3, seed0=900):
            assert solve_dp(inst).value >= solve_dp(inst, variant=REQUIRED).value

    def test_negative_sigma_required_can_lose_money(self):
        inst = Instance([Box(d((0, F(1, 2)), (2, F(1, 2))), 3)])
        assert solve_dp(inst, variant=REQUIRED).value == -2
        assert solve_dp(inst).value == 1  # take it sight unseen instead


class TestDPPolicy:
    def test_policy_evaluation_recovers_dp_value(self):
        for inst in random_batch(20, 3, 3, seed0=1000):
            sol = solve_dp(inst)
            pol = dp_policy(sol)
            assert evaluate_exact(inst, pol).utility == sol.value, inst

    def test_policy_evaluation_on_eight_boxes_with_six_points(self):
        inst = wide_instance(8, 1, supports=(6,))
        sol = solve_dp(inst)
        res = evaluate_exact(inst, dp_policy(sol))
        assert res.utility == sol.value
        assert res.path_count > 100

    def test_required_policy_evaluation(self):
        for inst in random_batch(10, 3, 3, seed0=1100):
            sol = solve_dp(inst, variant=REQUIRED)
            assert evaluate_exact(inst, dp_policy(sol)).utility == sol.value

    def test_table_of_another_instance_fails_fast(self):
        pol = dp_policy(solve_dp(tight_example(10)))
        for other in (random_instance(2, 3, 10, seed=1), random_instance(3, 3, 10, seed=1)):
            for run in (evaluate_exact, lambda i, p: simulate(i, p, trials=10, seed=0),
                        lambda i, p: next(iter_traces(i, p))):
                with pytest.raises(ValueError, match="built for another instance"):
                    run(other, pol)
