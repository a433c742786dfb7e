"""The execution tree's integer nodes against the SearchStates they stand for.

Every node carries (mask, rank, best) and the built-in policies decide on
those integers when the tree runs on their own instance.  These tests check,
at every node, that the integers say what node.state says and that the
integer action is the one decide gives on the state; that decide still runs
once per node; that a policy on another instance decides on states; and that
the legality monitor on the mask raises where a check on the state would.
"""

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
    random_instance,
    solve_dp,
    tight_example,
)
from pandora_search.adaptive import DecisionTablePolicy
from pandora_search.policies import PolicyTree
from conftest import random_batch, wide_instance


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
    pols += [CallbackPolicy(weitzman.decide), worst_opened(inst)]
    return pols


def instances():
    yield from random_batch(500, 4, 3, seed0=2000)  # the criterion-5 batch
    yield tight_example(10)
    yield wide_instance(8, 1, supports=(6,))


def check_nodes(inst, pol):
    """Asserts, at every node of the walk, that (mask, rank, best) are what
    node.state gives, its best_open found by a scan of the observed values,
    and that the node's action is decide on that state.  Returns the number
    of nodes."""
    grid = inst.form.grid
    nodes = 0
    for node, _ in PolicyTree(inst, pol).walk():
        state = SearchState(node.state.observed, node.state.uninspected)
        best = state.best_open()
        assert node.state.best_open() == best
        assert node.mask == sum(1 << i for i in state.uninspected)
        if best is None:
            assert (node.rank, node.best) == (-1, None)
        else:
            assert (node.rank, node.best) == (grid.index(best[1]), best[0])
        assert node.action == pol.decide(state), (state, node.action)
        nodes += 1
    return nodes


class TestNodeIntegers:
    def test_integers_and_actions_match_the_state_at_every_node(self):
        checked = 0
        for inst in instances():
            for pol in all_policies(inst):
                checked += check_nodes(inst, pol)
        assert checked > 30_000

    def test_tree_passes_nodes_only_to_a_policy_of_its_own_instance(self):
        inst = tight_example(10)
        seen = []
        own = WeitzmanPolicy(inst)
        foreign = WeitzmanPolicy(tight_example(10))
        for pol, kind in [(own, "Node"), (foreign, "SearchState"), (dp_policy(solve_dp(inst)), "Node"),
                          (CallbackPolicy(own.decide), "SearchState")]:
            seen.clear()
            decide = pol.decide
            pol.decide = lambda state, decide=decide: seen.append(type(state).__name__) or decide(state)
            list(PolicyTree(inst, pol).walk())
            assert set(seen) == {kind}


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
    def test_committing_policy_on_another_instance_decides_on_states(self):
        # Same and different box counts: on a state, boxes the instance
        # lacks are never uninspected, so the policy passes over them.
        pairs = 0
        for k in range(40):
            built = random_instance(2 + k % 3, 3, 10, seed=3000 + k)
            run_on = random_instance(2 + k // 3 % 3, 3, 10, seed=4000 + k)
            for s in [(), *((i,) for i in range(built.n))]:
                pol = CommittingPolicy(built, s)
                assert evaluate_exact(run_on, pol) == evaluate_exact(run_on, CallbackPolicy(pol.decide))
                pairs += 1
        assert pairs > 150

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
