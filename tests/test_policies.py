"""The execution tree's integer nodes against the SearchStates they stand for.

Every node carries (mask, rank, best), and every policy's decide gets the
node: the built-in policies decide on its integers, a CallbackPolicy's
function on node.state.  These tests check, at every node, that the integers
say what node.state says and that the action is the one the policy's
state-level reference (conftest.state_decide) gives on the state; that
decide still runs once per node; that a built-in policy runs only on an
instance equal to its own; that the legality monitor on the mask raises
where a check on the state would; and that it hands the tree each box as a
Python int, whatever integer type the policy gave.
"""

import numpy as np
import pytest

from pandora_search import (
    CallbackPolicy,
    CommittingPolicy,
    Halt,
    IllegalActionError,
    Inspect,
    Instance,
    SearchState,
    SelectClosed,
    SelectOpen,
    WeitzmanPolicy,
    dp_policy,
    evaluate_exact,
    iter_traces,
    random_instance,
    simulate,
    solve_dp,
    tight_example,
)
from pandora_search.adaptive import DecisionTablePolicy
from pandora_search.policies import Node, PolicyTree
from conftest import fraction_decide, point_masses_and, random_batch, state_decide, wide_instance


def worst_opened(inst):
    """Opens up to three boxes in index order, then selects the opened box
    holding the smallest value (an open selection other than the best)."""
    def decide(state):
        if state.uninspected and len(state.observed) < 3:
            return Inspect(min(state.uninspected))
        return SelectOpen(min(reversed(state.observed), key=lambda o: o[1])[0])
    return CallbackPolicy(decide)


def all_policies(inst):
    """Weitzman, every singleton committing policy, the DP and callbacks."""
    weitzman = WeitzmanPolicy(inst)
    pols = [weitzman, dp_policy(solve_dp(inst))]
    pols += [CommittingPolicy(inst, {i}) for i in range(inst.n)]
    pols += [CallbackPolicy(lambda state: fraction_decide(weitzman, state)), worst_opened(inst)]
    return pols


def instances():
    yield from random_batch(500, 4, 3, seed0=2000)  # the criterion-5 batch
    yield tight_example(10)
    yield wide_instance(8, 1, supports=(6,))


def check_nodes(inst, pol):
    """Asserts, at every node of the walk, that (mask, rank, best) are what
    node.state gives and that the node's action is state_decide on that
    state.  Returns the number of nodes."""
    grid = inst.form.grid
    nodes = 0
    for node, _ in PolicyTree(inst, pol).walk():
        state = node.state
        best = state.best_open()
        assert node.mask == sum(1 << i for i in state.uninspected)
        assert node.observed == state.observed
        if best is None:
            assert (node.rank, node.best) == (-1, None)
        else:
            assert (node.rank, node.best) == (grid.index(best[1]), best[0])
        assert node.action == state_decide(pol, state), (state, node.action)
        nodes += 1
    return nodes


class TestNodeIntegers:
    def test_integers_and_actions_match_the_state_at_every_node(self):
        checked = 0
        for inst in instances():
            for pol in all_policies(inst):
                checked += check_nodes(inst, pol)
        assert checked > 30_000

    def test_tree_passes_every_policy_its_node(self):
        inst = tight_example(10)
        twin = Instance(inst.boxes)
        seen = []
        for pol in (WeitzmanPolicy(inst), WeitzmanPolicy(twin), dp_policy(solve_dp(twin))):
            seen.clear()
            decide = pol.decide
            pol.decide = lambda node, decide=decide: seen.append(type(node)) or decide(node)
            list(PolicyTree(inst, pol).walk())
            assert set(seen) == {Node}
        weitzman = WeitzmanPolicy(inst)
        callback = CallbackPolicy(lambda state: seen.append(type(state)) or fraction_decide(weitzman, state))
        seen.clear()
        decide = callback.decide
        callback.decide = lambda node: seen.append(type(node)) or decide(node)
        list(PolicyTree(inst, callback).walk())
        assert set(seen[::2]) == {Node} and set(seen[1::2]) == {SearchState}


class TestDecideCalls:
    def test_decide_runs_once_per_node(self, monkeypatch):
        # Built before decide is patched, so a callback around Weitzman's
        # decide holds the unpatched one.
        cases = [(inst, pol) for inst in (tight_example(10), wide_instance(8, 1, supports=(6,)),
                                          random_instance(4, 3, 10, seed=3))
                 for pol in all_policies(inst)]
        calls = []
        for cls in (CommittingPolicy, DecisionTablePolicy, CallbackPolicy):
            def counted(self, state, decide=cls.decide):
                calls.append(1)
                return decide(self, state)
            monkeypatch.setattr(cls, "decide", counted)
        for inst, pol in cases:
            calls.clear()
            nodes = sum(1 for _ in PolicyTree(inst, pol).walk())
            assert len(calls) == nodes, (inst, pol)


class TestForeignInstance:
    def test_built_in_policy_on_another_instance_fails_fast(self):
        # Same and different box counts: the tree refuses a policy of an
        # unequal instance before deciding anything.
        pairs = 0
        for k in range(12):
            built = random_instance(2 + k % 3, 3, 10, seed=3000 + k)
            run_on = random_instance(2 + k // 3 % 3, 3, 10, seed=4000 + k)
            assert built != run_on
            pols = [WeitzmanPolicy(built), dp_policy(solve_dp(built))]
            for pol in pols + [CommittingPolicy(built, {i}) for i in range(built.n)]:
                for run in (evaluate_exact, lambda i, p: simulate(i, p, trials=10, seed=0),
                            lambda i, p: next(iter_traces(i, p))):
                    with pytest.raises(ValueError, match="built for another instance"):
                        run(run_on, pol)
                pairs += 1
        assert pairs > 50

    def test_an_equal_instance_gives_the_same_result(self):
        inst = wide_instance(8, 1, supports=(6,))
        twin = Instance(inst.boxes)
        assert twin == inst and twin.form is not inst.form
        for pol in (WeitzmanPolicy(inst), CommittingPolicy(inst, {2}), dp_policy(solve_dp(inst))):
            assert evaluate_exact(twin, pol) == evaluate_exact(inst, pol)


def state_check(state, action):
    """The legality monitor on a SearchState, as an oracle."""
    if isinstance(action, (Inspect, SelectClosed)):
        if action.box not in state.uninspected:
            raise IllegalActionError(f"{action} targets an inspected/unknown box")
    elif isinstance(action, SelectOpen):
        if action.box not in dict(state.observed):
            raise IllegalActionError(f"{action} targets a box that was never opened")
    elif not isinstance(action, Halt):
        raise IllegalActionError(f"not an action: {action!r}")


class TestMonitorOnTheMask:
    CANDIDATES = [Inspect(0), Inspect(2), Inspect(3), Inspect(-1), Inspect(None), Inspect(True),
                  SelectClosed(0), SelectClosed(2), SelectClosed(7), SelectOpen(0), SelectOpen(2),
                  SelectOpen(-1), Halt(), "junk", None]

    def test_raises_where_a_state_check_would(self):
        inst = random_instance(3, 3, 10, seed=4)
        raised = 0
        for depth in range(inst.n + 1):
            for candidate in self.CANDIDATES:
                at = []

                def decide(state, depth=depth, candidate=candidate):
                    if len(state.observed) < depth:
                        return Inspect(min(state.uninspected))
                    if len(state.observed) == depth:
                        at.append(state)
                        return candidate
                    return Halt()

                try:
                    evaluate_exact(inst, CallbackPolicy(decide))
                    got = None
                except IllegalActionError as exc:
                    got = str(exc)
                try:
                    state_check(at[0], candidate)
                    want = None
                except IllegalActionError as exc:
                    want = str(exc)
                assert got == want, (depth, candidate)
                raised += got is not None
        assert raised > 20

    @pytest.mark.parametrize("action", [Inspect(1.0), SelectClosed(1.0), SelectOpen(1.0)])
    def test_a_box_that_is_not_an_int_is_illegal(self, action):
        # 1.0 == 1, so `in` on a set of boxes would take it for box 1; the
        # monitor reads a box as an int, and a float is none.
        inst = tight_example(10)

        def decide(state):
            # SelectOpen(1.0) comes after box 1 is opened
            return Inspect(1) if isinstance(action, SelectOpen) and not state.observed else action

        for run in (evaluate_exact, lambda i, p: simulate(i, p, trials=10, seed=0),
                    lambda i, p: list(iter_traces(i, p))):
            with pytest.raises(IllegalActionError):
                run(inst, CallbackPolicy(decide))


def three_kinds(inst, box):
    """A callback that inspects boxes from the highest index down, selects
    open the last one seen when its value is above its mean, and otherwise,
    once two are seen, selects box 0 closed; box(i) makes each action's
    box."""
    means = inst.form.expected_values

    def decide(state):
        if state.observed:
            i, v = state.observed[-1]
            if v > means[i]:
                return SelectOpen(box(i))
        if len(state.observed) < 2:
            return Inspect(box(max(state.uninspected)))
        return SelectClosed(box(min(state.uninspected)))
    return CallbackPolicy(decide)


class TestNumpyIntegerBoxes:
    """A callback may give its boxes as numpy integers; the tree keeps each
    as a Python int, so it runs like the same callback with int boxes."""

    @pytest.mark.parametrize("inst", [random_instance(3, 3, 10, seed=4), point_masses_and(70, (2,))],
                             ids=["3-boxes", "70-boxes"])
    def test_run_as_int_boxes(self, inst):
        numpy_boxes, int_boxes = three_kinds(inst, np.int64), three_kinds(inst, int)
        kinds = set()
        for node, _ in PolicyTree(inst, numpy_boxes).walk():
            assert type(node.mask) is int
            assert type(node.action.box) is int
            kinds.add(type(node.action))
        assert kinds == {Inspect, SelectOpen, SelectClosed}
        assert evaluate_exact(inst, numpy_boxes) == evaluate_exact(inst, int_boxes)
        traces = list(iter_traces(inst, numpy_boxes))
        assert traces == list(iter_traces(inst, int_boxes))
        assert all(type(trace.final.box) is int for trace in traces)
        assert simulate(inst, numpy_boxes, 2000, 0) == simulate(inst, int_boxes, 2000, 0)
