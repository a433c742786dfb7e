#!/usr/bin/env python3
"""pandora-search benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-golden

Run from the repository root.  The library is imported from ./src.  One
process, one client, closed loop: each job starts when the previous one has
been checked.  Workloads, metrics and the layer map are described in
perfbench/README.md.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import os
import sys
import time

START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 5

sys.path.insert(0, SRC)
try:
    import pandora_search  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import pandora_search from {SRC}: {exc}")
if not os.path.abspath(pandora_search.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: pandora_search was imported from {pandora_search.__file__}, not {SRC}")

import numpy  # noqa: E402

import spans as tracing  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

IMPORTED = time.perf_counter()

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "jobs_per_s": "1/s",
    "job_ms.p50": "ms", "job_ms.p95": "ms",
}

# Per-workload figures, printed with their units but not in the result line.
DETAIL_UNITS = {
    "error_rate": "fraction",
    "ratio.instances_per_s": "1/s", "ratio.latency_ms.p50": "ms", "ratio.latency_ms.p95": "ms",
    "dp.solve_s.p50": "s", "dp.solve_s.max": "s",
    "committing.solve_s.p50": "s", "committing.solve_s.max": "s",
    "sim.trials_per_s.small_joint": "trials/s", "sim.trials_per_s.large_joint": "trials/s",
    "eval.exact_s": "s",
}


class Tally:
    """Attempts, failures and the problems behind them."""

    def __init__(self, golden):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.golden = golden
        self.exact = {}

    def execute(self, job, tracer=None):
        """Run one job; return (seconds, output), seconds None on failure."""
        self.attempted += 1
        if tracer is not None:
            tracer.job = job.key
        try:
            t0 = time.perf_counter()
            out = job.run()
            elapsed = time.perf_counter() - t0
            problems = job.check(out)
            exact = job.exact(out)
        except Exception as exc:  # a failed request is counted, not fatal
            return self._fail(job, [f"{type(exc).__name__}: {exc}"])
        self.exact[job.key] = exact
        if self.golden is not None and self.golden.get(job.key) != exact:
            problems = problems + ["exact output differs from golden.json"]
        if problems:
            return self._fail(job, problems)
        return elapsed, out

    def _fail(self, job, problems):
        self.failed += 1
        self.problems.extend(f"{job.key}: {p}" for p in problems)
        return None, None


def run_passes(jobs, seconds, tally, tracer=None):
    """Whole passes over the job list, at least one, while the next pass is
    expected to end by `seconds`.  Each pass holds (job, seconds or None,
    output) records.  Passes take the process's CPUs in turn: other tenants
    slow one CPU at a time, so a job's fastest pass comes from the quieter."""
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    start = time.perf_counter()
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            gc.collect()
            if tracer is not None:
                tracer.reset()
            records = [(job,) + tally.execute(job, tracer) for job in jobs]
            passes.append({"records": records, "trace": tracer.snapshot() if tracer else None,
                           "spans": list(tracer.spans) if tracer and not passes else None})
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                return passes
    finally:
        os.sched_setaffinity(0, cpus)


def best_records(passes):
    """One (job, seconds, output) per job: its fastest pass.  On a shared
    host, interference from other tenants only ever adds time (up to 2x, for
    stretches of seconds to a minute), so each job's minimum over the run's
    passes is the figure least disturbed by it.  A job that failed in any
    pass has seconds None."""
    best = []
    for recs in zip(*(p["records"] for p in passes)):
        if any(s is None for _, s, _ in recs):
            best.append((recs[0][0], None, None))
        else:
            best.append(min(recs, key=lambda r: r[1]))
    return best


def best_wall(passes):
    """One pass over the job list, each job at its fastest."""
    return sum(s for _, s, _ in best_records(passes) if s is not None)


def percentile(values, q):
    """Linear interpolation between closest ranks; a failure (None) sorts
    last as an infinite latency, and an infinite result is None."""
    xs = sorted(float("inf") if v is None else v for v in values)
    pos = (len(xs) - 1) * q
    lo, hi = int(pos), min(int(pos) + 1, len(xs) - 1)
    if xs[hi] == float("inf"):
        return None
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(name, passes, builds, tally):
    records = best_records(passes)
    wall = sum(s for _, s, _ in records if s is not None)
    lat = [None if s is None else s * 1e3 for _, s, _ in records]
    ok = sum(1 for v in lat if v is not None)
    metrics = {
        "setup_s": ((IMPORTED - START) + statistics.median(builds), SETUP_REPEATS),
        "wall_s": (wall, len(passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "jobs_per_s": (ok / wall if ok else 0.0, len(lat)),
        "job_ms.p50": (percentile(lat, 0.50), len(lat)),
        "job_ms.p95": (percentile(lat, 0.95), len(lat)),
    }
    detail = {"error_rate": (tally.failed / tally.attempted, tally.attempted)}
    if name == "ratio-batch":
        detail["ratio.instances_per_s"] = metrics["jobs_per_s"]
        detail["ratio.latency_ms.p50"] = metrics["job_ms.p50"]
        detail["ratio.latency_ms.p95"] = metrics["job_ms.p95"]
    elif name in ("dp-deep", "committing-wide"):
        prefix = "dp" if name == "dp-deep" else "committing"
        xs = [s for _, s, _ in records]
        worst = None if None in xs else max(xs)
        detail[f"{prefix}.solve_s.p50"] = (percentile(xs, 0.5), len(xs))
        detail[f"{prefix}.solve_s.max"] = (worst, len(xs))
    else:
        # Per job, the outputs of all its passes; jobs that ever failed are left out.
        outs = [(recs[0][0], [out for _, _, out in recs])
                for recs in zip(*(p["records"] for p in passes))
                if all(s is not None for _, s, _ in recs)]
        for kind in ("small", "large"):
            rates = [max(out["trials"] / out["sim_s"] for out in job_outs)
                     for job, job_outs in outs if job.kind == kind]
            detail[f"sim.trials_per_s.{kind}_joint"] = (
                statistics.median(rates) if rates else None, len(rates))
        exact = [min(out["eval_s"] for out in job_outs) for _, job_outs in outs]
        detail["eval.exact_s"] = (sum(exact), len(exact))
    return metrics, detail


def run_workload(name, seed, seconds, traced, size_name="full", golden=None):
    workload, size = WORKLOADS[name], SIZES[size_name][name]
    plan = workload.plan(seed, size)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    tally = Tally(golden)
    try:
        builds = []
        tracer = tracing.Tracer() if traced else None
        if traced:
            with tracer:
                jobs = workload.build(plan, workdir)
            setup_trace, setup_spans = tracer.snapshot(), list(tracer.spans)
        else:
            for _ in range(SETUP_REPEATS):
                gc.collect()
                t0 = time.perf_counter()
                jobs = workload.build(plan, workdir)
                builds.append(time.perf_counter() - t0)
        timed = [job for job in jobs if job.timed]
        for job in [job for job in jobs if not job.timed] + timed[:size["warmup"]]:
            tally.execute(job)
        jobs = timed
        if not traced:
            passes = run_passes(jobs, seconds, tally)
            metrics, detail = end_to_end(name, passes, builds, tally)
        else:
            plain = run_passes(jobs, seconds / 2, tally)
            with tracer:
                passes = run_passes(jobs, seconds / 2, tally, tracer)
            metrics = tracing.layer_metrics(setup_trace, [p["trace"] for p in passes])
            counts = [(p["trace"]["calls"], p["trace"]["count"]) for p in passes]
            if any(c != counts[0] for c in counts):
                tally.problems.append("span counts differ between traced passes")
                tally.failed += 1
            metrics["trace.overhead_s"] = best_wall(passes) - best_wall(plain)
            metrics = {k: (v, 1) for k, v in metrics.items()}
            detail = {"error_rate": (tally.failed / tally.attempted, tally.attempted)}
            tracer.spans = setup_spans + passes[0]["spans"]
            tracer.write(os.path.join(WORK, f"trace-{name}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"metrics": metrics, "detail": detail, "tally": tally}


def unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name in DETAIL_UNITS:
        return DETAIL_UNITS[name]
    return tracing.unit_of(name)


def report_lines(name, result):
    lines = [f"workload {name}"]
    for section in ("metrics", "detail"):
        for key, (value, samples) in result[section].items():
            shown = "failed" if value is None else f"{value:.6g}"
            lines.append(f"  {key} = {shown} {unit(key)} (n={samples})")
    for problem in result["tally"].problems[:20]:
        lines.append(f"  problem: {problem}")
    return lines


def environment():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__}


def smoke() -> int:
    """Every workload at minimal size: untraced once, traced twice."""
    failures = []
    detail_names = set(DETAIL_UNITS)
    printed = set()
    layer_names = None
    for name in WORKLOADS:
        plain = run_workload(name, DEFAULT_SEED, 0, False, "smoke")
        text = "\n".join(report_lines(name, plain))
        print(text)
        traced = [run_workload(name, DEFAULT_SEED, 0, True, "smoke") for _ in range(2)]
        print("\n".join(report_lines(name, traced[0])))
        for key in END_TO_END:
            if f"  {key} = " not in text or f" {END_TO_END[key]} (n=" not in text:
                failures.append(f"{name}: {key} not printed with its unit")
        printed |= {k for k in plain["detail"] if plain["detail"][k][0] is not None}
        if plain["detail"]["error_rate"][0] != 0 or any(t["detail"]["error_rate"][0] for t in traced):
            failures.append(f"{name}: nonzero error rate")
        counts = [{k: v for k, (v, _) in t["metrics"].items() if not k.endswith("_s")} for t in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            failures.append(f"{name}: traced counts differ between runs: {diff}")
        names = set(traced[0]["metrics"])
        if layer_names is not None and names != layer_names:
            failures.append(f"{name}: per-layer names differ from other workloads")
        layer_names = names
    if printed != detail_names:
        failures.append(f"per-workload metrics never printed: {sorted(detail_names - printed)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if {m["name"] for m in declared["per_layer"]} != layer_names:
        failures.append("per-layer names differ from BENCHMARK.json")
    if {m["name"] for m in declared["end_to_end"]} != set(END_TO_END):
        failures.append("end-to-end names differ from BENCHMARK.json")
    for f in failures:
        print(f"smoke: FAIL {f}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 0 if not failures else 1


def write_golden() -> int:
    """Record the exact outputs of every workload at the default seed."""
    golden = {}
    for name in WORKLOADS:
        result = run_workload(name, DEFAULT_SEED, 0, False)
        if result["tally"].failed:
            print("\n".join(report_lines(name, result)))
            return 1
        golden[name] = result["tally"].exact
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="self-check at minimal size")
    p.add_argument("--write-golden", action="store_true",
                   help="record the default seed's exact outputs in golden.json")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        p.error("--workload is required")
    golden = None
    if args.seed == DEFAULT_SEED:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh).get(args.workload, {})
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), golden=golden)
    print(f"env {json.dumps(environment())}")
    print("\n".join(report_lines(args.workload, result)))
    tally = result["tally"]
    metrics = {k: {"value": v, "unit": unit(k)} for k, (v, _) in result["metrics"].items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
