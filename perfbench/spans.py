"""Spans and counters around the library's public functions, installed from
the benchmark by patching module and class attributes (nothing in src/
changes).

A span records name, start, end, parent span and job id; spans stay in
memory and are written out when the run ends.  Hot leaf methods
(``DiscreteDist.__init__``, ``expectation``, ``cdf_at``) are counted but get
no span, since one span per call would cost more than the call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from pandora_search import adaptive, cli, committing, core, evaluator, generators, policies
from pandora_search import reservation, simulator

# (module, function name, span name).  BEFORE/AFTER below add the counters
# a span carries, computed outside its timed interval.
SPANNED = [
    (adaptive, "solve_dp", "adaptive.solve_dp"),
    (core, "max_of_independents", "core.max_of_independents"),
    (reservation, "profile", "reservation.profile"),
    (committing, "best_committing", "committing.best_committing"),
    (evaluator, "evaluate_nonexposed_closed_form", "evaluator.evaluate_nonexposed_closed_form"),
    (evaluator, "evaluate_exact", "evaluator.evaluate_exact"),
    (simulator, "simulate", "simulator.simulate"),
    (simulator, "run_once", "simulator.run_once"),
    (cli, "main", "cli.main"),
    (generators, "random_instance", "generators.random_instance"),
]

COUNTED = [
    ("__init__", "core.DiscreteDist.init"),
    ("expectation", "core.DiscreteDist.expectation"),
    ("cdf_at", "core.DiscreteDist.cdf_at"),
]


def _after_solve_dp(tracer, args, kwargs, sol):
    tracer.count["adaptive.solve_dp.states"] += len(sol.table)
    bits = max((getattr(v, "denominator", 1).bit_length() for _, v in sol.table.values()), default=0)
    tracer.maximum["adaptive.solve_dp.max_den_bits"] = max(
        tracer.maximum["adaptive.solve_dp.max_den_bits"], bits)


def _before_max(tracer, args, kwargs):
    dists = args[0] if args else kwargs["dists"]
    tracer.count["core.max_of_independents.grid_points"] += len({v for d in dists for v in d.values()})


def _add(counter: str, measure: Callable) -> Callable:
    def after(tracer, args, kwargs, result):
        tracer.count[counter] += measure(result)
    return after


AFTER = {
    "adaptive.solve_dp": _after_solve_dp,
    "committing.best_committing": _add("committing.best_committing.candidates",
                                       lambda sol: len(sol.candidate_values)),
    "evaluator.evaluate_exact": _add("evaluator.evaluate_exact.paths", lambda res: res.path_count),
    "simulator.simulate": _add("simulator.simulate.trials", lambda rep: rep.trials),
}
BEFORE = {"core.max_of_independents": _before_max}


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: List[tuple] = []   # (name, start, end, parent index, job id)
        self.count: Dict[str, int] = defaultdict(int)
        self.maximum: Dict[str, int] = defaultdict(int)
        self.job: Optional[str] = None
        self._stack: List[int] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._restore: List[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        tracer = self
        before, after = BEFORE.get(name), AFTER.get(name)

        def wrapper(*args, **kwargs):
            if before:
                before(tracer, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.job)
            if after:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        count, opened = self.count, self._open
        in_dp = name == "core.DiscreteDist.expectation"

        def wrapper(*args, **kwargs):
            count[name] += 1
            if in_dp and opened["adaptive.solve_dp"]:
                count["adaptive.solve_dp.expectation_calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        # The package binds names at import (``from .core import
        # max_of_independents``), so every module holding the original
        # function object gets the wrapper.
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pandora_search" or name.startswith("pandora_search."))]
        for module, attr, name in SPANNED:
            original = getattr(module, attr)
            wrapper = self._span(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        for attr, name in COUNTED:
            self._set(core.DiscreteDist, attr, self._counter(name, getattr(core.DiscreteDist, attr)))
        for cls in _policy_classes():
            if "decide" in vars(cls):
                self._set(cls, "decide", self._span("policies.decide", vars(cls)["decide"]))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counts and self times so far; self time is a span's duration
        minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "count": dict(self.count), "maximum": dict(self.maximum)}

    def reset(self) -> None:
        self.spans.clear()
        self.count.clear()
        self.maximum.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def _policy_classes():
    seen, todo = [], [policies.Policy]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("pandora_search") and sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def layer_metrics(setup: dict, passes: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced set-up plus one traced pass (counts
    from the first pass; self time the set-up's plus the median pass's)."""
    first = passes[0]

    def calls(name):
        return setup["calls"].get(name, 0) + first["calls"].get(name, 0)

    def count(name):
        return setup["count"].get(name, 0) + first["count"].get(name, 0)

    def self_s(name):
        per_pass = sorted(p["self_s"].get(name, 0.0) for p in passes)
        return setup["self_s"].get(name, 0.0) + per_pass[len(per_pass) // 2]

    out = {}
    for _, _, name in SPANNED + [(None, None, "policies.decide")]:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for _, name in COUNTED:
        out[f"{name}.calls"] = count(name)
    states = count("adaptive.solve_dp.states")
    out["adaptive.solve_dp.states"] = states
    out["adaptive.solve_dp.max_den_bits"] = max(
        setup["maximum"].get("adaptive.solve_dp.max_den_bits", 0),
        first["maximum"].get("adaptive.solve_dp.max_den_bits", 0))
    out["adaptive.expectation_calls_per_state"] = (
        count("adaptive.solve_dp.expectation_calls") / states if states else 0.0)
    out["core.max_of_independents.grid_points"] = count("core.max_of_independents.grid_points")
    out["committing.best_committing.candidates"] = count("committing.best_committing.candidates")
    out["evaluator.evaluate_exact.paths"] = count("evaluator.evaluate_exact.paths")
    trials = count("simulator.simulate.trials")
    runs = calls("simulator.run_once")
    out["simulator.simulate.trials"] = trials
    out["simulator.trials_per_execution"] = trials / runs if runs else 0.0
    return out


UNITS = {
    "calls": "count", "self_s": "s", "states": "count", "max_den_bits": "bits",
    "expectation_calls_per_state": "calls/state", "grid_points": "count",
    "candidates": "count", "paths": "count", "trials": "count",
    "trials_per_execution": "trials/run", "overhead_s": "s",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]
