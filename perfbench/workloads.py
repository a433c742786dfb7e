"""The four benchmark workloads.

Each workload turns a seed into a plan (which generator seeds and sizes to
use; untimed), builds its inputs from the plan with the
library's own generators (the timed set-up), and returns a fixed list of
jobs.  A job is one request: a timed unit of library work whose output is
then checked, untimed, against independent oracle relations and, for the
default seed, against the exact values stored in golden.json.

The library is reached through module attributes only (``adaptive.solve_dp``,
never a name imported into this file), so that the tracer's patches of those
attributes see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from pandora_search import adaptive, cli, committing, core, evaluator, generators, policies
from pandora_search import reservation, simulator, twobox

# Rational lower bound on 1 - 1/e = 0.63212055882...
ONE_MINUS_INV_E_LB = Fraction(6321205588, 10**10)

# A simulated mean must lie within this many standard errors of the exact value.
SIM_SIGMAS = 5


@dataclass
class Job:
    key: str                           # stable id; golden.json is keyed by it
    kind: str                          # job class, for per-class figures
    run: Callable[[], object]          # the timed call; returns its output
    check: Callable[[object], List[str]]  # oracle problems found in an output
    exact: Callable[[object], str]     # canonical exact values for the golden gate
    timed: bool = True                 # False: an oracle run, made once before timing


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    # String seeds hash with SHA-512, so streams are stable across processes.
    return random.Random(f"{workload}:{seed}:{part}")


def _mean(dist) -> Fraction:
    """E[v] computed here, independently of DiscreteDist.expectation."""
    return sum((v * p for v, p in dist.support), Fraction(0))


# --- ratio-batch -----------------------------------------------------------

class RatioBatch:
    """Many small instances through ``pandora ratio --json``, in-process."""

    name = "ratio-batch"

    def plan(self, seed: int, size: dict):
        """Stratified: per n, a pool of size["pool"] times the instances
        needed, sorted by work (unpruned DP edges plus committing CDF work),
        and every size["pool"]-th instance taken from it.  The batch keeps the shape of
        the random family, while its total work varies little with the seed."""
        rng = _rng(self.name, seed)
        count, pool = size["instances"], size["pool"]
        picked = {}
        for n in range(2, 7):
            ks = [rng.randrange(1 << 30) for _ in range(pool * -(-count // 5))]
            by_work = sorted(ks, key=lambda k: (ratio_work(generators.random_instance(n, 4, 10, seed=k)), k))
            picked[n] = by_work[pool // 2::pool]
            rng.shuffle(picked[n])
        return [(2 + i % 5, picked[2 + i % 5][i // 5]) for i in range(count)]

    def build(self, plan, workdir: str) -> List[Job]:
        jobs = []
        for i, (n, k) in enumerate(plan):
            path = os.path.join(workdir, f"ratio-{i:04d}.json")
            cli.write_instance(generators.random_instance(n, 4, 10, seed=k), path)
            jobs.append(Job(
                key=f"{i:04d}-n{n}-k{k}",
                kind="ratio",
                run=lambda path=path: _run_cli(["ratio", path, "--json"]),
                check=lambda out, n=n: _check_ratio(out, n),
                exact=lambda out: " ".join(json.loads(out[1])[k] for k in ("dp", "best_committing", "ratio")),
            ))
        return jobs


def ratio_work(inst) -> int:
    """Unpruned DP edges plus committing CDF evaluations, from the input."""
    return dp_state_space(inst)[1] + committing_work(inst)


def _run_cli(argv) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_ratio(out, n: int) -> List[str]:
    code, text = out
    if code != 0:
        return [f"pandora ratio exited with {code}"]
    doc = json.loads(text)
    dp, bc, ratio = (Fraction(doc[k]) for k in ("dp", "best_committing", "ratio"))
    problems = []
    if bc > dp:
        problems.append(f"best committing {bc} exceeds the adaptive optimum {dp}")
    if dp != 0 and ratio != bc / dp:
        problems.append(f"ratio {ratio} is not {bc}/{dp}")
    if bc < ONE_MINUS_INV_E_LB * dp or doc["floor_1_minus_1_over_e"] != "PASS":
        problems.append("1 - 1/e floor violated")
    if n == 2 and (5 * bc < 4 * dp or doc.get("floor_4_5") != "PASS"):
        problems.append("4/5 floor violated on a two-box instance")
    return problems


# --- dp-deep ---------------------------------------------------------------

def dp_state_space(inst) -> Tuple[int, int]:
    """(states, edges) of the unpruned (uninspected set, best observed value)
    DP, counted from the input alone.  For an inspected set I the best
    observed value is None (I empty) or a support value v of some j in I with
    v >= the largest support minimum among the other boxes of I.  Edges are
    the inspection branches, summed over states of the uninspected boxes'
    support sizes: the work of one full solve."""
    n = inst.n
    supports = [[v for v, _ in b.dist.support] for b in inst.boxes]
    bit = {v: 1 << i for i, v in enumerate(sorted({v for s in supports for v in s}))}
    at_least = {v: ~(b - 1) for v, b in bit.items()}  # bits of the values >= v
    masks = [sum(bit[v] for v in s) for s in supports]
    total = sum(len(s) for s in supports)
    # Per inspected set, built from the set without its lowest box: union of
    # support masks, inspected support size, the two largest (minimum, box).
    union, inspected = [0] * (1 << n), [0] * (1 << n)
    first, second = [None] * (1 << n), [None] * (1 << n)
    states, edges = 1, total
    for s in range(1, 1 << n):
        low = s & -s
        j, rest = low.bit_length() - 1, s ^ low
        union[s] = union[rest] | masks[j]
        inspected[s] = inspected[rest] + len(supports[j])
        top, nxt, mine = first[rest], second[rest], (supports[j][0], j)
        if top is None or mine[0] > top[0]:
            top, nxt = mine, top
        elif nxt is None or mine[0] > nxt[0]:
            nxt = mine
        first[s], second[s] = top, nxt
        reach = union[s] & at_least[top[0]]
        reach |= masks[top[1]] & (at_least[nxt[0]] if nxt is not None else -1)
        count = bin(reach).count("1")
        states += count
        edges += count * (total - inspected[s])
    return states, edges


def committing_work(inst) -> int:
    """CDF evaluations of a best_committing search, counted from the input:
    for each of the n+1 candidate reservation sets, the merged grid size
    times the summed support sizes of the amortized (kappa) laws."""
    kappas = []
    for b in inst.boxes:
        sigma = reservation.reservation_value(b)
        kappas.append({min(v, sigma) for v, _ in b.dist.support})
    means = [_mean(b.dist) for b in inst.boxes]
    sizes = sum(len(k) for k in kappas)
    work = len(set().union(*kappas)) * sizes
    for i in range(inst.n):
        grid = set().union(*(k for j, k in enumerate(kappas) if j != i), {means[i]})
        work += len(grid) * (sizes - len(kappas[i]) + 1)
    return work


def index_policy_paths(inst, sigmas, reserved=frozenset()) -> int:
    """Execution paths of an index policy (inspect by decreasing sigma, stop
    once the best opened value is >= the next sigma; reaching a reserved box
    selects it closed), counted from the input: the size of its exact
    evaluation."""
    order = sorted(range(inst.n), key=lambda i: (-sigmas[i], i))
    memo = {}

    def paths(k, best):
        if k == len(order) or (best is not None and best >= sigmas[order[k]]):
            return 1
        if order[k] in reserved:
            return 1
        if (k, best) not in memo:
            memo[k, best] = sum(paths(k + 1, v if best is None or v > best else best)
                                for v, _ in inst.boxes[order[k]].dist.support)
        return memo[k, best]

    return paths(0, None)


def weitzman_paths(inst) -> int:
    """Paths of the Weitzman policy, from the input."""
    return index_policy_paths(inst, [reservation.reservation_value(b) for b in inst.boxes])


def policy_paths(inst) -> int:
    """Paths of the Weitzman policy plus twice those of the best committing
    policy (the DP policy nearly always has the committing policy's paths):
    the path enumeration of one pass on this instance."""
    sigmas = [reservation.reservation_value(b) for b in inst.boxes]
    reserved = committing.best_committing(inst).best_set
    modified = [_mean(b.dist) if i in reserved else sigmas[i] for i, b in enumerate(inst.boxes)]
    return index_policy_paths(inst, sigmas) + 2 * index_policy_paths(inst, modified, reserved)


def _banded(rng, size, make, measures):
    """(n, k) for each n in size["ns"]: the first generator seed k of the
    stream whose instance make(n, k) has every measure inside its band.
    size["bands"][n] holds one (lo, hi) per measure; measures are taken in
    order and stop at the first one out of its band."""
    picked = []
    for n in size["ns"]:
        bands = size["bands"].get(n, [(0, math.inf)] * len(measures))
        while True:
            k = rng.randrange(1 << 30)
            inst = make(n, k)
            if all(lo <= measure(inst) <= hi for measure, (lo, hi) in zip(measures, bands)):
                picked.append((n, k))
                break
    return picked


class DpDeep:
    """Exact adaptive solves at the largest n the DP handles in about a second.

    Instances are random_instance(n, 3, 10, seed=k) for the first k of the
    seed's stream whose DP edge count (dp_state_space) lies in a fixed band
    for that n.  The unbanded family spans a 4x range of solve times at one
    n; the band keeps the work per run about equal across seeds."""

    name = "dp-deep"

    def plan(self, seed: int, size: dict):
        picked = _banded(_rng(self.name, seed), size,
                         lambda n, k: generators.random_instance(n, 3, 10, seed=k),
                         [lambda inst: dp_state_space(inst)[1]])
        return picked, size["required_n"]

    def build(self, plan, workdir: str) -> List[Job]:
        picked, required_n = plan
        jobs = []
        for i, (n, k) in enumerate(picked):
            inst = generators.random_instance(n, 3, 10, seed=k)
            # Oracles are computed on first use, inside the untimed check.
            oracle = functools.cache(
                lambda inst=inst: evaluator.evaluate_nonexposed_closed_form(inst, frozenset()))
            variants = [adaptive.NONOBLIGATORY] + ([adaptive.REQUIRED] if n == required_n else [])
            for variant in variants:
                jobs.append(Job(
                    key=f"{i}-n{n}-k{k}-{variant}",
                    kind=f"dp-{variant}",
                    run=lambda inst=inst, variant=variant: adaptive.solve_dp(inst, variant).value,
                    check=lambda value, inst=inst, variant=variant, oracle=oracle: _check_dp(
                        value, inst, variant, oracle()),
                    exact=str,
                    timed=variant == adaptive.NONOBLIGATORY,
                ))
        return jobs


def _check_dp(value, inst, variant: str, closed_form) -> List[str]:
    if variant == adaptive.REQUIRED:
        if value != closed_form:
            return [f"REQUIRED DP {value} != closed form E[max kappa] {closed_form}"]
        return []
    floor = max([closed_form, Fraction(0)] + [_mean(b.dist) for b in inst.boxes])
    if value < floor:
        return [f"nonobligatory DP {value} below a feasible policy's value {floor}"]
    return []


# --- committing-wide -------------------------------------------------------

class CommittingWide:
    """best_committing on wide instances; the DP is never called."""

    name = "committing-wide"

    def plan(self, seed: int, size: dict):
        return _banded(_rng(self.name, seed), size,
                       lambda n, k: generators.random_instance(n, 4, 10, seed=k), [committing_work])

    def build(self, plan, workdir: str) -> List[Job]:
        jobs = []
        for i, (n, k) in enumerate(plan):
            inst = generators.random_instance(n, 4, 10, seed=k)
            jobs.append(Job(
                key=f"{i}-n{n}-k{k}",
                kind="committing",
                run=lambda inst=inst: committing.best_committing(inst),
                check=lambda sol, inst=inst: _check_committing(sol, inst),
                exact=_committing_exact,
            ))
        return jobs


def _check_committing(sol, inst) -> List[str]:
    problems = []
    cands = sol.candidate_values
    expected_sets = [frozenset()] + [frozenset({i}) for i in range(inst.n)]
    if [s for s, _ in cands] != expected_sets:
        problems.append("candidates are not the empty set and every singleton, in order")
    values = [v for _, v in cands]
    top = max(values)
    if sol.best_value != top:
        problems.append(f"best value {sol.best_value} is not the candidates' maximum {top}")
    if sol.best_set != cands[values.index(top)][0]:
        problems.append("best set is not the first candidate attaining the maximum")
    if sol.baseline_policy_a != values[0]:
        problems.append("baseline A is not the empty-set candidate's value")
    if sol.baseline_policy_b != max(_mean(b.dist) for b in inst.boxes):
        problems.append("baseline B is not max E[v]")
    if sol.best_value < max(sol.baseline_policy_a, sol.baseline_policy_b):
        problems.append("best value below a baseline")
    return problems


def _committing_exact(sol) -> str:
    cands = ";".join(f"{sorted(s)}={v}" for s, v in sol.candidate_values)
    return f"{sorted(sol.best_set)} {sol.best_value} {cands}"


# --- monte-carlo -----------------------------------------------------------

def large_joint_instance(rng: random.Random, boxes: int):
    """Boxes with exactly six support points on 0..20 and costs E[v] * j/28
    for a shuffled j in 0..boxes-1, so every cost is at most E[v]/4 and the
    spread of costs, which sets how deep a policy inspects, is the same for
    every seed."""
    multipliers = [Fraction(j, 28) for j in range(boxes)]
    rng.shuffle(multipliers)
    out = []
    for m in multipliers:
        values = sorted(rng.sample(range(21), 6))
        weights = [rng.randint(1, 6) for _ in values]
        dist = core.DiscreteDist((v, Fraction(w, sum(weights))) for v, w in zip(values, weights))
        out.append(core.Box(dist, _mean(dist) * m))
    return core.Instance(out)


class MonteCarlo:
    """evaluate_exact then simulate, for three policies on a small-joint and
    on large-joint instances.  The small joint (4 outcomes) takes the
    simulator's outcome table; the large joint (6^8 outcomes) its per-trial
    loop."""

    name = "monte-carlo"

    def plan(self, seed: int, size: dict):
        rng = _rng(self.name, seed)
        sim_seeds = [rng.randrange(1 << 31) for _ in range(size["small_seeds"])]
        large = _banded(rng, size, lambda n, k: large_joint_instance(_rng(self.name, k, "large"), n),
                        [weitzman_paths, policy_paths])
        return sim_seeds, large, size

    def build(self, plan, workdir: str) -> List[Job]:
        sim_seeds, large, size = plan
        jobs = []
        small = twobox.tight_example(10)
        for pname, pol, dp_value in self._policies(small):
            for s in sim_seeds:
                jobs.append(_sim_job(f"small-{pname}-s{s}", "small", small, pol, pname,
                                     dp_value, size["small_trials"], s))
        for i, (n, k) in enumerate(large):
            inst = large_joint_instance(_rng(self.name, k, "large"), n)
            for pname, pol, dp_value in self._policies(inst):
                jobs.append(_sim_job(f"large{i}-k{k}-{pname}", "large", inst, pol, pname,
                                     dp_value, size["large_trials"], k))
        return jobs

    @staticmethod
    def _policies(inst):
        best_set = committing.best_committing(inst).best_set
        sol = adaptive.solve_dp(inst)
        return [
            ("weitzman", policies.WeitzmanPolicy(inst), None),
            ("committing", policies.CommittingPolicy(inst, best_set), None),
            ("dp", adaptive.dp_policy(sol), sol.value),
        ]


def _sim_job(key, kind, inst, pol, pname, dp_value, trials, sim_seed) -> Job:
    def run():
        t0 = time.perf_counter()
        result = evaluator.evaluate_exact(inst, pol)
        t1 = time.perf_counter()
        report = simulator.simulate(inst, pol, trials, sim_seed)
        t2 = time.perf_counter()
        return {"utility": result.utility, "paths": result.path_count, "mean": report.mean_utility,
                "se": report.std_error, "trials": report.trials, "eval_s": t1 - t0, "sim_s": t2 - t1}

    if pname == "dp":
        oracle = lambda: dp_value  # noqa: E731
    else:
        rset = frozenset() if pname == "weitzman" else pol.reservation_set
        oracle = functools.cache(lambda: evaluator.evaluate_nonexposed_closed_form(inst, rset))
    return Job(key=key, kind=kind, run=run,
               check=lambda out: _check_sim(out, oracle()),
               exact=lambda out: str(out["utility"]))


def _check_sim(out, oracle) -> List[str]:
    problems = []
    if out["utility"] != oracle:
        problems.append(f"exact utility {out['utility']} != independent value {oracle}")
    exact = float(out["utility"])
    slack = SIM_SIGMAS * out["se"] + 1e-9 * (1 + abs(exact))
    if abs(out["mean"] - exact) > slack:
        problems.append(f"simulated mean {out['mean']} is more than {SIM_SIGMAS} s.e. from {exact}")
    return problems


WORKLOADS: Dict[str, object] = {w.name: w for w in (RatioBatch(), DpDeep(), CommittingWide(), MonteCarlo())}

# Sizes.  "full" is what a run measures; "smoke" runs every job type at
# minimal size for the self-check.
SIZES = {
    "full": {
        "ratio-batch": {"instances": 200, "pool": 8, "warmup": 20},
        "dp-deep": {"ns": [11, 11, 11, 11, 12, 12], "required_n": 11,
                    "bands": {11: [(45_000, 55_000)], 12: [(100_000, 120_000)]}, "warmup": 0},
        "committing-wide": {"ns": [40, 40, 40, 40, 40, 80, 80],
                            "bands": {40: [(88_000, 101_000)], 80: [(600_000, 670_000)]}, "warmup": 1},
        "monte-carlo": {"small_seeds": 6, "small_trials": 1_000_000, "ns": [8, 8, 8],
                        "bands": {8: [(1_900, 2_100), (2_100, 2_400)]}, "large_trials": 2_000, "warmup": 1},
    },
    "smoke": {
        "ratio-batch": {"instances": 5, "pool": 1, "warmup": 1},
        "dp-deep": {"ns": [4, 5], "required_n": 4, "bands": {}, "warmup": 0},
        "committing-wide": {"ns": [5, 6], "bands": {}, "warmup": 1},
        "monte-carlo": {"small_seeds": 1, "small_trials": 2_000, "ns": [6], "bands": {},
                        "large_trials": 200, "warmup": 1},
    },
}
