from fractions import Fraction as F

import pytest

from pandora_search import (
    Box,
    CallbackPolicy,
    CommittingPolicy,
    DiscreteDist,
    Halt,
    IllegalActionError,
    Inspect,
    Instance,
    PathLimitError,
    SearchState,
    SelectClosed,
    SelectOpen,
    WeitzmanPolicy,
    dp_policy,
    evaluate_exact,
    evaluate_nonexposed_closed_form,
    iter_traces,
    phi_value_bound,
    profile,
    random_instance,
    simulate,
    solve_dp,
    tight_example,
)
from pandora_search import policies
from pandora_search.policies import PolicyTree
from conftest import forbid_kappa_laws, fraction_decide, random_batch, state_decide


def d(*pairs):
    return DiscreteDist(pairs)


class TestEvaluateExact:
    def test_weitzman_on_tight_example(self):
        inst = tight_example(10)
        res = evaluate_exact(inst, WeitzmanPolicy(inst))
        assert res.utility == 1
        # opens the long shot first; on a hit it stops without touching the coin
        assert res.inspect_probs == (F(9, 10), 1)
        assert res.utility == sum(res.selected_value) - sum(res.inspection_cost)

    def test_committing_long_shot_reserved(self):
        inst = tight_example(10)
        res = evaluate_exact(inst, CommittingPolicy(inst, {1}))
        assert res.utility == 1
        # inspects the coin, never the long shot
        assert res.inspect_probs == (1, 0)
        assert res.select_probs[1] == F(1, 2)

    def test_halt_policy_is_zero(self):
        inst = random_instance(3, 3, 9, seed=2)
        res = evaluate_exact(inst, CallbackPolicy(lambda s: Halt()))
        assert res.utility == 0
        assert res.path_count == 1

    def test_probability_bookkeeping(self):
        for inst in random_batch(12, 3, 3, seed0=40):
            res = evaluate_exact(inst, WeitzmanPolicy(inst))
            assert sum(res.select_probs) <= 1
            for p in res.inspect_probs + res.select_probs:
                assert 0 <= p <= 1

    @pytest.mark.parametrize("inst", [tight_example(10), random_instance(5, 4, 10, seed=3)])
    def test_builds_no_kappa_laws(self, inst, monkeypatch):
        # evaluate_exact reads sigma and E[v] only: no profile, no modified instance.
        sets = [(), (0,), (1,), (0, 1)]
        expected = [evaluate_exact(inst, CommittingPolicy(inst, s)) for s in sets]
        forbid_kappa_laws(monkeypatch)
        assert evaluate_exact(inst, WeitzmanPolicy(inst)) == expected[0]
        assert [evaluate_exact(inst, CommittingPolicy(inst, s)) for s in sets] == expected

    def test_path_limit_guard(self, monkeypatch):
        inst = random_instance(3, 3, 9, seed=3)
        monkeypatch.setattr(policies, "PATH_LIMIT", 1)
        with pytest.raises(PathLimitError):
            evaluate_exact(inst, WeitzmanPolicy(inst))

    def test_illegal_callback_fails_fast(self):
        inst = tight_example(10)
        # selecting open a box that was never inspected
        with pytest.raises(IllegalActionError):
            evaluate_exact(inst, CallbackPolicy(lambda s: SelectOpen(0)))
        # inspecting the same box twice
        with pytest.raises(IllegalActionError):
            evaluate_exact(inst, CallbackPolicy(lambda s: Inspect(0)))

    def test_callback_returning_a_non_action_fails_fast(self):
        with pytest.raises(IllegalActionError, match="not an action"):
            evaluate_exact(tight_example(10), CallbackPolicy(lambda s: "inspect"))


class TestClosedForm:
    def test_tight_example_values(self):
        inst = tight_example(10)
        assert evaluate_nonexposed_closed_form(inst, frozenset()) == 1
        assert evaluate_nonexposed_closed_form(inst, {0}) == 1
        assert evaluate_nonexposed_closed_form(inst, {1}) == 1

    def test_single_box(self):
        inst = Instance([Box(d((5, 1)), 1)])
        assert evaluate_nonexposed_closed_form(inst, frozenset()) == 4

    def test_matches_path_enumeration_for_every_set(self):
        for inst in random_batch(40, 3, 3, seed0=100):
            subsets = range(1 << inst.n)
            for mask in subsets:
                s = frozenset(i for i in range(inst.n) if mask >> i & 1)
                cf = evaluate_nonexposed_closed_form(inst, s)
                ex = evaluate_exact(inst, CommittingPolicy(inst, s)).utility
                assert cf == ex, (inst, s)

    def test_negative_sigma_instance(self):
        # cost above the mean: kappa is a negative point mass, no clamping
        inst = Instance([Box(d((0, F(1, 2)), (2, F(1, 2))), 3)])
        assert evaluate_nonexposed_closed_form(inst, frozenset()) == -2
        assert evaluate_exact(inst, WeitzmanPolicy(inst)).utility == -2


class TestTraces:
    def test_trace_probabilities_sum_to_one(self):
        inst = random_instance(3, 3, 7, seed=9)
        traces = list(iter_traces(inst, WeitzmanPolicy(inst)))
        assert sum(t.probability for t in traces) == 1

    def test_permuting_box_labels_preserves_value(self):
        inst = random_instance(3, 3, 9, seed=15)
        perm = [2, 0, 1]
        permuted = Instance([inst.boxes[p] for p in perm])
        assert (
            evaluate_exact(inst, WeitzmanPolicy(inst)).utility
            == evaluate_exact(permuted, WeitzmanPolicy(permuted)).utility
        )


def evaluate_per_path(inst, pol):
    """evaluate_exact as a sum over iter_traces, path by path and step by
    step: the reference for the per-node accumulation."""
    n = inst.n
    prof = profile(inst)
    utility, paths = 0, 0
    inspect_probs, select_probs = [0] * n, [0] * n
    selected_value, inspection_cost, selected_amortized = [0] * n, [0] * n, [0] * n
    for tr in iter_traces(inst, pol):
        paths += 1
        utility += tr.probability * tr.utility
        opened = dict(tr.steps)
        for i in opened:
            inspect_probs[i] += tr.probability
            inspection_cost[i] += tr.probability * inst.boxes[i].cost
        if isinstance(tr.final, Halt):
            continue
        i = tr.final.box
        select_probs[i] += tr.probability
        if isinstance(tr.final, SelectOpen):
            selected_value[i] += tr.probability * opened[i]
            selected_amortized[i] += tr.probability * min(opened[i], prof.sigmas[i])
        else:
            selected_value[i] += tr.probability * prof.expected_values[i]
            selected_amortized[i] += tr.probability * prof.expected_values[i]
    return (utility, tuple(inspect_probs), tuple(select_probs), tuple(selected_value),
            tuple(inspection_cost), tuple(selected_amortized), paths)


def scripted_policy(inst):
    """Inspects from the highest index down, stops on a value >= 5, takes the
    last box closed if nothing was opened, and halts on a best value below 2."""
    def decide(state):
        best = state.best_open()
        if best is not None and best[1] >= 5:
            return SelectOpen(best[0])
        remaining = sorted(state.uninspected)
        if not remaining:
            return SelectOpen(best[0]) if best[1] >= 2 else Halt()
        if best is None and len(remaining) == 1:
            return SelectClosed(remaining[0])
        return Inspect(remaining[-1])
    return CallbackPolicy(decide)


def first_opened_policy(inst):
    """Opens boxes in index order until two are open, then selects the first
    one opened, whether or not it holds the larger value."""
    def decide(state):
        if len(state.observed) < min(2, inst.n):
            return Inspect(min(state.uninspected))
        return SelectOpen(state.observed[0][0])
    return CallbackPolicy(decide)


def evaluate_fraction_reference(inst, pol):
    """evaluate_exact as a per-node Fraction accumulation: P(I_i) gathers the
    probability of every node that inspects box i and E[I_i c_i] = c_i P(I_i).
    The recursion runs the policy's state-level reference (state_decide) on
    hand-built states, not on PolicyTree, so it checks the tree's integer
    weights and the node integers the built-in policies decide on as well."""
    n = inst.n
    prof = profile(inst)
    inspect_probs, select_probs = [0] * n, [0] * n
    selected_value, selected_amortized = [0] * n, [0] * n
    paths = 0

    def visit(state, prob):
        nonlocal paths
        action = state_decide(pol, state)
        if isinstance(action, Inspect):
            i = action.box
            inspect_probs[i] += prob
            for v, p in inst.boxes[i].dist.support:
                visit(SearchState(state.observed + ((i, v),), state.uninspected - {i}), prob * p)
            return
        paths += 1
        if isinstance(action, Halt):
            return
        i = action.box
        select_probs[i] += prob
        if isinstance(action, SelectOpen):
            v = dict(state.observed)[i]
            selected_value[i] += prob * v
            selected_amortized[i] += prob * min(v, prof.sigmas[i])
        else:
            selected_value[i] += prob * prof.expected_values[i]
            selected_amortized[i] += prob * prof.expected_values[i]

    visit(SearchState((), frozenset(range(n))), F(1))
    inspection_cost = [box.cost * p for box, p in zip(inst.boxes, inspect_probs)]
    return (sum(selected_value) - sum(inspection_cost), tuple(inspect_probs), tuple(select_probs),
            tuple(selected_value), tuple(inspection_cost), tuple(selected_amortized), paths)


def reference_instances():
    for n in range(1, 7):
        for support in range(1, 5):
            for cost_scale in (1, 2):
                yield random_instance(n, support, 9, seed=10 * n + support, cost_scale_max=F(cost_scale))
    for big_n in (2, 10, 1000):
        yield tight_example(big_n)


class TestAgainstFractionReference:
    def test_every_field_matches(self):
        for inst in reference_instances():
            pols = [WeitzmanPolicy(inst), dp_policy(solve_dp(inst)), scripted_policy(inst),
                    first_opened_policy(inst)]
            pols += [CommittingPolicy(inst, {i}) for i in range(inst.n)]
            for pol in pols:
                res = evaluate_exact(inst, pol)
                got = (res.utility, res.inspect_probs, res.select_probs, res.selected_value,
                       res.inspection_cost, res.selected_amortized, res.path_count)
                assert got == evaluate_fraction_reference(inst, pol), (inst, pol)

    def test_trace_probabilities_are_weights_over_scale(self):
        for inst in reference_instances():
            pol = WeitzmanPolicy(inst)
            tree = PolicyTree(inst, pol)
            leaves = [(node, w) for node, w in tree.walk() if not isinstance(node.action, Inspect)]
            traces = list(iter_traces(inst, pol))
            assert [t.probability for t in traces] == [F(w, tree.scale) for _, w in leaves]
            assert sum(w for _, w in leaves) == tree.scale


class TestPerNodeAccumulation:
    def test_matches_per_path_sum(self):
        for inst in random_batch(12, 4, 3, seed0=300):
            pols = [WeitzmanPolicy(inst), dp_policy(solve_dp(inst)), scripted_policy(inst)]
            pols += [CommittingPolicy(inst, {i}) for i in range(inst.n)]
            for pol in pols:
                res = evaluate_exact(inst, pol)
                got = (res.utility, res.inspect_probs, res.select_probs, res.selected_value,
                       res.inspection_cost, res.selected_amortized, res.path_count)
                assert got == evaluate_per_path(inst, pol), (inst, pol)

    def test_path_limit_at_the_path_count(self, monkeypatch):
        for inst in random_batch(6, 4, 3, seed0=320):
            pol = WeitzmanPolicy(inst)
            paths = evaluate_exact(inst, pol).path_count
            monkeypatch.setattr(policies, "PATH_LIMIT", paths)
            assert evaluate_exact(inst, pol).path_count == paths
            monkeypatch.setattr(policies, "PATH_LIMIT", paths - 1)
            with pytest.raises(PathLimitError):
                evaluate_exact(inst, pol)
            monkeypatch.undo()


class TestPathGuard:
    def test_trace_walks_stop_past_the_path_count(self, monkeypatch):
        # iter_traces and phi_value_bound share evaluate_exact's guard.
        for inst in random_batch(6, 4, 3, seed0=340):
            for pol in (WeitzmanPolicy(inst), dp_policy(solve_dp(inst))):
                paths = evaluate_exact(inst, pol).path_count
                unguarded = phi_value_bound(inst, pol)
                monkeypatch.setattr(policies, "PATH_LIMIT", paths)
                assert len(list(iter_traces(inst, pol))) == paths
                assert phi_value_bound(inst, pol) == unguarded
                monkeypatch.setattr(policies, "PATH_LIMIT", paths - 1)
                with pytest.raises(PathLimitError):
                    list(iter_traces(inst, pol))
                with pytest.raises(PathLimitError):
                    phi_value_bound(inst, pol)
                monkeypatch.undo()


def scanned_best(observed):
    """The earliest-observed (box, value) with the largest value, by a scan."""
    top = max((v for _, v in observed), default=None)
    return next(((i, v) for i, v in observed if v == top), None)


class TestTieRule:
    def test_best_open_prefers_earliest_inspected(self):
        state = SearchState(observed=((3, 5), (1, 5)), uninspected=frozenset({0, 2}))
        assert state.best_open() == (3, 5)

    def test_carried_best_matches_a_fresh_scan(self):
        # shared support values make ties between boxes common
        tied = Instance([Box(d((1, F(1, 2)), (4, F(1, 2))), F(1, 9)),
                         Box(d((1, F(1, 3)), (4, F(2, 3))), F(1, 7)),
                         Box(d((4, F(1, 4)), (1, F(3, 4))), F(1, 5))])
        everything = CallbackPolicy(lambda s: Inspect(max(s.uninspected)) if s.uninspected
                                    else SelectOpen(s.best_open()[0]))
        cases = [(tied, everything), (tied, WeitzmanPolicy(tied))]
        cases += [(inst, WeitzmanPolicy(inst)) for inst in random_batch(8, 4, 3, seed0=500)]
        ties = 0
        for inst, pol in cases:
            for node, _ in PolicyTree(inst, pol).walk():
                observed = node.state.observed
                assert node.state.best_open() == scanned_best(observed), observed
                values = [v for _, v in observed]
                ties += len(values) > len(set(values))
        assert ties > 0

    def test_engine_selects_earliest_inspected_on_ties(self):
        # two boxes that always hold 5, inspected in the order 1, 0
        inst = Instance([Box(d((5, 1)), 0), Box(d((5, 1)), 0)])

        def decide(state):
            if 1 in state.uninspected:
                return Inspect(1)
            if 0 in state.uninspected:
                return Inspect(0)
            return SelectOpen(state.best_open()[0])

        pol = CallbackPolicy(decide)
        assert evaluate_exact(inst, pol).select_probs == (0, 1)
        assert simulate(inst, pol, trials=10, seed=0).select_freq == (0.0, 1.0)


def worst_opened_policy(inst):
    """Opens up to three boxes in index order, then selects the one holding
    the smallest value (the last inspected among ties), so it selects an
    opened box other than the best one whenever the values differ."""
    def decide(state):
        if state.uninspected and len(state.observed) < 3:
            return Inspect(min(state.uninspected))
        return SelectOpen(min(reversed(state.observed), key=lambda o: o[1])[0])
    return CallbackPolicy(decide)


class TestOpenSelectionKeys:
    def test_selecting_an_opened_box_other_than_the_best(self):
        not_best = 0
        for inst in reference_instances():
            pol = worst_opened_policy(inst)
            res = evaluate_exact(inst, pol)
            got = (res.utility, res.inspect_probs, res.select_probs, res.selected_value,
                   res.inspection_cost, res.selected_amortized, res.path_count)
            assert got == evaluate_fraction_reference(inst, pol), inst
            not_best += sum(t.final.box != scanned_best(t.steps)[0] for t in iter_traces(inst, pol))
        assert not_best > 0


class TestIntegerStopTest:
    def test_matches_a_fraction_compare_at_every_node(self):
        # sigma_1 = 3 (zero cost) and sigma_3 = 2 are values of the grid, so
        # best observed values tie them; sigma_0 = 2 as well, sigma_2 = 5/2
        inst = Instance([Box(d((0, F(1, 2)), (4, F(1, 2))), 1),
                         Box(d((2, F(1, 2)), (3, F(1, 2))), 0),
                         Box(d((1, F(1, 3)), (3, F(2, 3))), F(1, 3)),
                         Box(d((2, F(1, 2)), (4, F(1, 2))), 1)])
        assert profile(inst).sigmas == (2, 3, F(5, 2), 2)
        # every sigma is a box's largest value, which it takes with p = 1/4
        free = Instance([Box(d((v - 1, F(3, 4)), (v, F(1, 4))), 0) for v in (3, 3, 2, 2, 1)])
        ties = 0
        for inst in (inst, free):
            for s in [(), *((i,) for i in range(inst.n)), (0, 2)]:
                pol = CommittingPolicy(inst, s)
                for node, _ in PolicyTree(inst, pol).walk():
                    state = node.state
                    assert node.action == fraction_decide(pol, state), (s, state)
                    nxt = next((i for i in pol.order if i in state.uninspected), None)
                    ties += nxt is not None and state.observed != () and state.best_open()[1] == pol.sigmas[nxt]
        assert ties > 5


class TestNoFractionOnTheTree:
    def test_policies_evaluation_and_traces_do_no_fraction_operation(self, monkeypatch):
        """sigma and E[v] are integers on the form's scale L, so building the
        committing policies, evaluate_exact and iter_traces do no Fraction
        arithmetic, compare or hash: each result Fraction is built once from
        integers."""
        insts = [*random_batch(500, 4, 3, seed0=2000), random_instance(8, 6, 20, seed=1)]
        dp_policies = []
        for inst in insts:
            inst.form  # built first, with the DP policies: only the policies' and walks' own work is counted
            dp_policies.append(dp_policy(solve_dp(inst)))
        counts = {}

        def count(name):
            method = getattr(F, name)

            def counted(*args):
                counts[name] = counts.get(name, 0) + 1
                return method(*args)

            monkeypatch.setattr(F, name, counted)

        for name in ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__neg__", "__abs__",
                     "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__"):
            count(name)
        for inst, dp in zip(insts, dp_policies):
            pols = [WeitzmanPolicy(inst), *(CommittingPolicy(inst, {i}) for i in range(inst.n)), dp]
            assert counts == {}, inst
            for pol in pols:
                evaluate_exact(inst, pol)
                list(iter_traces(inst, pol))
            assert counts == {}, inst
