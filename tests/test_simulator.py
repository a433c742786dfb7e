import collections
import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from pandora_search import (
    Box,
    CallbackPolicy,
    CommittingPolicy,
    DiscreteDist,
    Halt,
    Inspect,
    Instance,
    PathLimitError,
    SearchState,
    SelectOpen,
    WeitzmanPolicy,
    best_committing,
    dp_policy,
    evaluate_exact,
    random_instance,
    simulate,
    solve_dp,
    tight_example,
)
import pandora_search.simulator as sim
from pandora_search import policies
from pandora_search.simulator import run_once
from conftest import fraction_decide, state_decide

# simulate rounds the exact sample mean and variance once (TestExactReport);
# the per-trial reference's numpy float mean and std are the inexact side, so
# they may differ from it in the last bits.
REL_TOL = 1e-12


class TestRunOnce:
    def test_fixed_values_tight_example(self):
        inst = tight_example(10)
        u, inspected, chosen = run_once(inst, WeitzmanPolicy(inst), [1, 10])
        # long shot first: pays 9/20, sees 10, stops there
        assert u == 10 - F(9, 20)
        assert inspected == (0, 1)
        assert chosen == 1

    def test_closed_selection_uses_realized_draw(self):
        inst = tight_example(10)
        u, inspected, chosen = run_once(inst, CommittingPolicy(inst, {1}), [0, 10])
        # box 1 is reserved; the coin comes up 0 so the reserved box is taken
        # blind and its hidden draw (10) is what gets banked
        assert u == 10
        assert inspected == (1, 0)
        assert chosen == 1


class TestSimulate:
    def test_deterministic_given_seed(self):
        inst = tight_example(10)
        a = simulate(inst, WeitzmanPolicy(inst), trials=5000, seed=7)
        b = simulate(inst, WeitzmanPolicy(inst), trials=5000, seed=7)
        assert a == b
        c = simulate(inst, WeitzmanPolicy(inst), trials=5000, seed=8)
        assert c.mean_utility != a.mean_utility

    def test_halt_policy(self):
        inst = tight_example(10)
        rep = simulate(inst, CallbackPolicy(lambda s: Halt()), trials=100, seed=1)
        assert rep.mean_utility == 0.0
        assert rep.std_error == 0.0
        assert rep.select_freq == (0.0, 0.0)

    def test_single_trial_has_zero_stderr(self):
        inst = tight_example(10)
        rep = simulate(inst, WeitzmanPolicy(inst), trials=1, seed=3)
        assert rep.std_error == 0.0

    def test_agrees_with_exact_evaluation(self):
        for seed in range(5):
            inst = random_instance(3, 3, 9, seed=seed + 50)
            pol = WeitzmanPolicy(inst)
            exact = evaluate_exact(inst, pol)
            rep = simulate(inst, pol, trials=200_000, seed=seed)
            tol = max(5 * rep.std_error, 1e-9)
            assert abs(rep.mean_utility - float(exact.utility)) <= tol, seed
            for i in range(inst.n):
                assert abs(rep.inspect_freq[i] - float(exact.inspect_probs[i])) <= 0.01
                assert abs(rep.select_freq[i] - float(exact.select_probs[i])) <= 0.01

    def test_common_random_numbers_across_policies(self):
        # the values drawn for a box depend only on (seed, box), so two
        # policies that always inspect everything see identical realizations
        inst = random_instance(2, 3, 9, seed=60)
        w = simulate(inst, CommittingPolicy(inst, set()), trials=2000, seed=11)
        again = simulate(inst, CommittingPolicy(inst, set()), trials=2000, seed=11)
        assert w == again

    def test_outcome_table_and_trial_loop_agree(self, monkeypatch):
        inst = random_instance(3, 3, 9, seed=70)
        # box 2 (three values) reserved: closed selections with varying draws
        pols = [WeitzmanPolicy(inst), CommittingPolicy(inst, {2})]
        cases = [(pol, trials) for pol in pols for trials in (3000, 2 * sim.CHUNK + 17)]
        fast = [simulate(inst, pol, trials=trials, seed=4) for pol, trials in cases]
        monkeypatch.setattr(sim, "OUTCOME_TABLE_LIMIT", 0)
        slow = [simulate(inst, pol, trials=trials, seed=4) for pol, trials in cases]
        assert fast == slow

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulate(tight_example(10), WeitzmanPolicy(tight_example(10)), trials=0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_philox_key_range(self, seed):
        inst = tight_example(10)
        with pytest.raises(ValueError, match="seed"):
            simulate(inst, WeitzmanPolicy(inst), trials=10, seed=seed)


def large_joint(seed=0, boxes=8):
    """Boxes with six support points on 0..20 each, 6^8 joint outcomes (past
    OUTCOME_TABLE_LIMIT), and costs E[v] * j/28 for shuffled j < boxes, low
    enough that policies inspect deep."""
    rng = random.Random(seed)
    out = []
    for j in rng.sample(range(boxes), boxes):
        values = sorted(rng.sample(range(21), 6))
        weights = [rng.randint(1, 6) for _ in values]
        dist = DiscreteDist((v, F(w, sum(weights))) for v, w in zip(values, weights))
        out.append(Box(dist, dist.expectation() * F(j, 28)))
    return Instance(out)


def recording(inst, log):
    """Weitzman's policy on inst, appending each state it decides on and the
    action to log."""
    weitzman = WeitzmanPolicy(inst)

    def decide(state):
        action = fraction_decide(weitzman, state)
        log.append((state, action))
        return action

    return CallbackPolicy(decide)


class TestOneWalk:
    def test_simulate_decides_each_state_once(self):
        inst = large_joint()
        log = []
        # 2 000 trials are one chunk, so one traversal; each chunk has its own.
        simulate(inst, recording(inst, log), trials=2000, seed=0)
        states = [state for state, _ in log]
        assert len(states) > 300
        assert len(set(states)) == len(states)

    def test_path_guard_counts_the_leaves_simulate_reaches(self, monkeypatch):
        inst = large_joint()
        log = []
        pol = recording(inst, log)
        report = simulate(inst, pol, trials=2000, seed=0)
        leaves = sum(not isinstance(action, Inspect) for _, action in log)
        assert leaves > 200
        monkeypatch.setattr(policies, "PATH_LIMIT", leaves)
        assert simulate(inst, pol, trials=2000, seed=0) == report
        monkeypatch.setattr(policies, "PATH_LIMIT", leaves - 1)
        with pytest.raises(PathLimitError):
            simulate(inst, pol, trials=2000, seed=0)


REFERENCE_CASES = ["tight-reserve-long-shot", "random-weitzman", "tiny-tail", "dyadic"]
REFERENCE_TRIALS = 2 * sim.CHUNK + 17  # crosses two chunk boundaries
REFERENCE_SEED = 5

TINY = F(1, 2**60)
# 1 - 2**-60 rounds to the float 1.0, so its raw-word cut would be 2**64.
TINY_TAIL = DiscreteDist([(0, 1 - TINY), (50, TINY)])
# Dyadic cumulative probabilities: a uniform can equal a cut exactly.
DYADIC = DiscreteDist([(1, F(1, 2)), (2, F(1, 4)), (6, F(1, 4))])


def reference_case(case):
    if case == "tight-reserve-long-shot":
        inst = tight_example(10)
        return inst, CommittingPolicy(inst, {1})
    if case == "tiny-tail":
        inst = Instance([Box(TINY_TAIL, F(1, 10)), Box(DYADIC, F(1, 4))])
        return inst, WeitzmanPolicy(inst)
    if case == "dyadic":
        inst = Instance([Box(DYADIC, F(1, 8)), Box(DYADIC, F(1, 3)), Box(TINY_TAIL, 0)])
        return inst, WeitzmanPolicy(inst)
    inst = random_instance(3, 3, 9, seed=70)
    return inst, WeitzmanPolicy(inst)


@functools.lru_cache(maxsize=None)
def per_trial_reference(case):
    inst, pol = reference_case(case)
    return per_trial_loop(inst, pol, REFERENCE_TRIALS, REFERENCE_SEED, run_once)


def run_by_decide(inst, pol, values):
    """run_once without the execution tree: the policy's state-level
    reference (state_decide) decides on hand-built states until it stops
    inspecting."""
    state = SearchState((), frozenset(range(inst.n)))
    cost = 0
    action = state_decide(pol, state)
    while isinstance(action, Inspect):
        i = action.box
        cost += inst.boxes[i].cost
        state = SearchState(state.observed + ((i, values[i]),), state.uninspected - {i})
        action = state_decide(pol, state)
    inspected = tuple(int(i not in state.uninspected) for i in range(inst.n))
    if isinstance(action, Halt):
        return -cost, inspected, None
    value = dict(state.observed)[action.box] if isinstance(action, SelectOpen) else values[action.box]
    return value - cost, inspected, action.box


def per_trial_loop(inst, pol, trials, seed, run):
    """The simulator as a per-trial loop: each box's whole stream drawn from
    Philox(key=[seed, i]) by Generator.random at once, then run (run_once or
    run_by_decide) on every trial.  run is deterministic, so its result is
    kept per joint outcome."""
    idx = np.empty((trials, inst.n), dtype=np.int64)
    for i, box in enumerate(inst.boxes):
        u = np.random.Generator(np.random.Philox(key=[seed, i])).random(trials)
        cum = np.cumsum([float(p) for p in box.dist.probs()])
        idx[:, i] = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    supports = [b.dist.values() for b in inst.boxes]
    utils = np.empty(trials)
    inspected = np.zeros(inst.n, dtype=np.int64)
    selected = np.zeros(inst.n, dtype=np.int64)
    execute = functools.lru_cache(maxsize=None)(
        lambda ks: run(inst, pol, [supports[i][k] for i, k in enumerate(ks)]))
    for t, ks in enumerate(idx.tolist()):
        u, insp, chosen = execute(tuple(ks))
        utils[t] = float(u)
        inspected += insp
        if chosen is not None:
            selected[chosen] += 1
    return (
        float(utils.mean()),
        float(utils.std(ddof=1) / math.sqrt(trials)),
        tuple(float(c) / trials for c in inspected),
        tuple(float(c) / trials for c in selected),
    )


class TestAgainstPerTrialReference:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    @pytest.mark.parametrize("table_limit", [sim.OUTCOME_TABLE_LIMIT, 0], ids=["bincount", "row-unique"])
    def test_matches_per_trial_loop(self, case, table_limit, monkeypatch):
        monkeypatch.setattr(sim, "OUTCOME_TABLE_LIMIT", table_limit)
        inst, pol = reference_case(case)
        rep = simulate(inst, pol, trials=REFERENCE_TRIALS, seed=REFERENCE_SEED)
        mean, std_error, inspect_freq, select_freq = per_trial_reference(case)
        assert rep.trials == REFERENCE_TRIALS
        assert rep.inspect_freq == inspect_freq
        assert rep.select_freq == select_freq
        assert math.isclose(rep.mean_utility, mean, rel_tol=REL_TOL)
        assert math.isclose(rep.std_error, std_error, rel_tol=REL_TOL)


def exact_moments(inst, pol, trials, seed):
    """The exact sample mean and unbiased variance of the utility over the
    trials simulate(inst, pol, trials, seed) draws, as Fractions, without the
    execution tree: each box's indices drawn by Generator.random as
    per_trial_loop draws them, distinct joint outcomes counted by a 1-D
    np.unique of mixed-radix ids, and run_by_decide run once per outcome."""
    sizes = inst.support_sizes()
    ids = np.zeros(trials, dtype=np.int64)
    for i, box in enumerate(inst.boxes):
        u = np.random.Generator(np.random.Philox(key=[seed, i])).random(trials)
        cum = np.cumsum([float(p) for p in box.dist.probs()])
        ids = ids * sizes[i] + np.minimum(np.searchsorted(cum, u, side="right"), sizes[i] - 1)
    ids, counts = np.unique(ids, return_counts=True)
    supports = [b.dist.values() for b in inst.boxes]
    s1 = s2 = F(0)
    for ks, count in zip(np.stack(np.unravel_index(ids, sizes), axis=1).tolist(), counts.tolist()):
        u, _, _ = run_by_decide(inst, pol, [supports[i][k] for i, k in enumerate(ks)])
        s1 += count * u
        s2 += count * u * u
    mean = s1 / trials
    return mean, (s2 - trials * mean * mean) / (trials - 1)


def open_two_select_first(state):
    """Opens boxes 0 and 1, then selects box 0 whichever is larger."""
    return Inspect(len(state.observed)) if len(state.observed) < 2 else SelectOpen(0)


class TestExactReport:
    """The report's mean and standard error are the exact sample figures,
    each rounded once."""

    def assert_exact(self, inst, pol, trials, seed):
        rep = simulate(inst, pol, trials, seed)
        mean, var = exact_moments(inst, pol, trials, seed)
        assert rep.mean_utility == float(mean)
        assert rep.std_error == math.sqrt(var) / math.sqrt(trials)
        return rep, mean

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    @pytest.mark.parametrize("table_limit", [sim.OUTCOME_TABLE_LIMIT, 0], ids=["bincount", "row-unique"])
    def test_reference_cases(self, case, table_limit, monkeypatch):
        monkeypatch.setattr(sim, "OUTCOME_TABLE_LIMIT", table_limit)
        self.assert_exact(*reference_case(case), REFERENCE_TRIALS, REFERENCE_SEED)

    @pytest.mark.parametrize("name", ["weitzman", "dp"])
    def test_million_trials(self, name):
        inst = tight_example(10)
        pol = WeitzmanPolicy(inst) if name == "weitzman" else dp_policy(solve_dp(inst))
        _, mean = self.assert_exact(inst, pol, 10**6, 2055013756)
        if name == "weitzman":
            assert mean == F(199731, 200000)

    @pytest.mark.parametrize("trials", [2000, sim.CHUNK + 17])
    def test_closed_selections_past_the_outcome_table(self, trials):
        inst = large_joint()
        assert math.prod(inst.support_sizes()) > sim.OUTCOME_TABLE_LIMIT
        # Box 2 reserved: selected closed on about 3 trials in 10, at its draw.
        rep, _ = self.assert_exact(inst, CommittingPolicy(inst, {2}), trials, 0)
        assert rep.inspect_freq[2] == 0
        assert rep.select_freq[2] > 0.2

    def test_select_open_of_a_box_that_is_not_the_best(self):
        inst = random_instance(3, 3, 9, seed=70)
        rep, _ = self.assert_exact(inst, CallbackPolicy(open_two_select_first), REFERENCE_TRIALS, REFERENCE_SEED)
        assert rep.select_freq == (1.0, 0.0, 0.0)


def test_run_once_matches_run_by_decide_on_every_outcome():
    for case in REFERENCE_CASES:
        inst, pol = reference_case(case)
        for values in itertools.product(*(b.dist.values() for b in inst.boxes)):
            assert run_once(inst, pol, values) == run_by_decide(inst, pol, values)


def row_unique(chunks):
    """The fold as np.unique over each chunk's rows: (row, count) pairs in
    lexicographic row order, one list per chunk."""
    out = []
    for digits in chunks:
        rows, counts = np.unique(np.stack(digits, axis=1), axis=0, return_counts=True)
        out.append(list(zip(rows.tolist(), counts.tolist())))
    return out


def uniform(points):
    return DiscreteDist((v, F(1, points)) for v in range(points))


# Joints of 4, 255 (the widest uint8 ids), 256 (the first uint16 ids), 257
# (uint16 digits), 512 and OUTCOME_TABLE_LIMIT; (1, 256) multiplies by a radix
# of 256 after a 1-point box, which ids typed by the largest id (255) overflow.
TABLE_SIZES = [(2, 2), (3, 5, 17), (4,) * 4, (257,), (2,) * 9, (2,) * 14, (1, 256)]


class TestOutcomeTableFold:
    @pytest.mark.parametrize("sizes", TABLE_SIZES, ids=lambda sizes: "x".join(map(str, sizes)))
    def test_matches_row_unique_summed_over_chunks(self, sizes):
        inst = tight_example(10) if sizes == (2, 2) else Instance([Box(uniform(s), 0) for s in sizes])
        assert tuple(inst.support_sizes()) == sizes
        assert math.prod(sizes) <= sim.OUTCOME_TABLE_LIMIT
        (table,) = sim._outcome_counts(inst, REFERENCE_TRIALS, 0)
        totals = collections.Counter()
        for pairs in row_unique(sim._draw_chunks(inst, REFERENCE_TRIALS, 0)):
            for row, count in pairs:
                totals[tuple(row)] += count
        assert [(tuple(row), count) for row, count in table] == sorted(totals.items())


# 40 boxes of up to six support points: about 2**70 joint outcomes.
WIDE = random_instance(40, 6, 20, seed=0)


class TestLexsortFold:
    @pytest.mark.parametrize("sizes", [(2,) * 12, (6,) * 8, (1, 3, 2, 5, 4), (6,) * 40])
    def test_matches_row_unique_on_random_chunks(self, sizes, monkeypatch):
        rng = np.random.default_rng(len(sizes))
        chunks = [[rng.integers(0, s, m, dtype=np.uint8) for s in sizes] for m in (1, 2, 500, 5000)]
        inst = Instance([Box(DiscreteDist((v, F(1, s)) for v in range(s)), 0) for s in sizes])
        monkeypatch.setattr(sim, "OUTCOME_TABLE_LIMIT", 0)
        monkeypatch.setattr(sim, "_draw_chunks", lambda *args: iter(chunks))
        assert list(sim._outcome_counts(inst, 0, 0)) == row_unique(chunks)

    def test_matches_row_unique_past_an_int64_joint(self):
        assert math.prod(WIDE.support_sizes()) > 2**63
        trials = sim.CHUNK + 17
        assert list(sim._outcome_counts(WIDE, trials, 0)) == row_unique(sim._draw_chunks(WIDE, trials, 0))

    @pytest.mark.parametrize("trials", [2000, sim.CHUNK + 17])
    def test_simulate_past_an_int64_joint_matches_per_trial_loop(self, trials):
        # run_once builds a 40-box tree per trial; run_by_decide does not.
        pol = WeitzmanPolicy(WIDE)
        rep = simulate(WIDE, pol, trials=trials, seed=0)
        mean, std_error, inspect_freq, select_freq = per_trial_loop(WIDE, pol, trials, 0, run_by_decide)
        assert rep.inspect_freq == inspect_freq
        assert rep.select_freq == select_freq
        assert math.isclose(rep.mean_utility, mean, rel_tol=REL_TOL)
        assert math.isclose(rep.std_error, std_error, rel_tol=REL_TOL)


@pytest.mark.parametrize("dist", [TINY_TAIL, DYADIC, DiscreteDist([(0, F(1, 3)), (1, F(1, 7)), (2, F(11, 21))]),
                                  uniform(300)], ids=["tiny-tail", "dyadic", "thirds", "uniform-300"])
def test_raw_cuts_agree_with_generator_random_at_each_cut(dist):
    """Words on either side of every float cumulative probability c get the
    support index that Generator.random()'s u = (r >> 11) * 2**-53 gets."""
    cum = np.cumsum([float(p) for p in dist.probs()])[:-1]
    cuts = sim._raw_cuts(dist)
    words = {0, 2**64 - 1}
    for c in cum:
        k = min(math.ceil(c * 2.0**53), 2**53 - 1)
        words |= {(k - 1) << 11, (k << 11) - 1, k << 11, (k << 11) + 2047}
    words = sorted(words)
    u = np.array([(r >> 11) * 2.0**-53 for r in words])
    expected = np.searchsorted(cum, u, side="right")
    assert sim._support_index(np.array(words, dtype=np.uint64), cuts).tolist() == expected.tolist()
    if dist is TINY_TAIL:
        assert cuts == []


# simulate(tight_example(10), pol, 10**6, 2055013756), bit for bit: the seed is
# the first small-joint seed of perfbench's seed-0 monte-carlo plan.  The mean
# and the standard error are the exact sample figures rounded once, as
# exact_moments confirms (TestExactReport.test_million_trials).
MILLION_TRIAL_REPORTS = {
    "weitzman": "SimReport(trials=1000000, seed=2055013756, mean_utility=0.998655, "
                "std_error=0.0028873105180317942, inspect_freq=(0.90015, 1.0), select_freq=(0.450155, 0.549845))",
    "dp": "SimReport(trials=1000000, seed=2055013756, mean_utility=1.2235821, "
          "std_error=0.0028607849156568766, inspect_freq=(1.0, 0.500162), select_freq=(0.450155, 0.549845))",
}
MILLION_TRIAL_REPORTS["best-committing"] = MILLION_TRIAL_REPORTS["weitzman"]  # its best set is empty


@pytest.mark.parametrize("name", ["weitzman", "best-committing", "dp"])
def test_million_trials_match_pinned_report(name):
    inst = tight_example(10)
    pol = {
        "weitzman": lambda: WeitzmanPolicy(inst),
        "best-committing": lambda: CommittingPolicy(inst, best_committing(inst).best_set),
        "dp": lambda: dp_policy(solve_dp(inst)),
    }[name]()
    assert repr(simulate(inst, pol, 10**6, 2055013756)) == MILLION_TRIAL_REPORTS[name]


def test_memory_does_not_grow_with_trials():
    inst = tight_example(10)
    pol = WeitzmanPolicy(inst)
    tracemalloc.start()
    try:
        simulate(inst, pol, trials=2_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_memory_does_not_grow_with_trials_past_the_outcome_table():
    # Costs of 9/10 of each box's mean: Weitzman's policy stops after one or
    # two inspections, so the leaves stay few while most trials draw a joint
    # outcome (of 6^8) that no earlier chunk drew.
    inst = Instance([Box(b.dist, b.dist.expectation() * F(9, 10)) for b in large_joint().boxes])
    peaks = []
    for trials in (2 * sim.CHUNK, 10 * sim.CHUNK):
        tracemalloc.start()
        try:
            simulate(inst, WeitzmanPolicy(inst), trials=trials, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**20, peaks
