"""Exactness digests: every group of library results over a fixed instance
list, as one SHA-256 and a record count, so a refactor that must keep each
Fraction equal proves it against tests/data/exactness.json
(tests/test_exactness.py recomputes the digests).

    PYTHONPATH=src python tests/exactness.py           # print the digests
    PYTHONPATH=src python tests/exactness.py --write   # rewrite the file

A record is "name:type:repr".  The committing group holds every
CommittingSolution field and each box's sigma and E[v] from the instance's
integer form.  The dp group holds, per solve_dp solution in both variants,
its value and its table's items; the evaluate group holds the EvalResult of
Weitzman's policy, of best committing and of the DP policy, over ratio-size
instances, tight_example and the 8-box large joint.  The simulate group holds
SimReports on fixed seeds, on joints that reach each of the simulator's folds.
"""

import hashlib
import json
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from conftest import REFERENCE_CASES, REFERENCE_SEED, REFERENCE_TRIALS, large_joint, random_batch, reference_case
from pandora_search import (
    NONOBLIGATORY,
    REQUIRED,
    CommittingPolicy,
    WeitzmanPolicy,
    best_committing,
    dp_policy,
    evaluate_exact,
    random_instance,
    simulate,
    solve_dp,
    tight_example,
)

DATA = Path(__file__).resolve().parent / "data" / "exactness.json"


def instances():
    yield from random_batch(500, 4, 3, seed0=2000)
    for k in range(400):
        yield random_instance(2 + k % 5, 4, 10, seed=k)
    for k in range(200):
        yield random_instance(2 + k % 5, 4, 10, seed=k, cost_scale_max=Fraction(5, 2))
    for big_n in (2, 3, 10, 1000):
        yield tight_example(big_n)
    for n in (40, 80, 200, 1000):
        yield random_instance(n, 4, 10, seed=0)


def dp_instances():
    for k in range(200):
        yield random_instance(2 + k % 5, 4, 10, seed=k)
    for big_n in (2, 3, 10, 1000):
        yield tight_example(big_n)
    yield large_joint()


def record(name, v):
    return f"{name}:{type(v).__name__}:{v!r}"


def committing_records():
    for inst in instances():
        sol = best_committing(inst)
        for field in fields(sol):
            yield record(field.name, getattr(sol, field.name))
        for sigma, ev in zip(inst.form.sigmas, inst.form.expected_values):
            yield record("sigma", sigma)
            yield record("expected_value", ev)


def dp_records():
    for inst in dp_instances():
        for variant in (NONOBLIGATORY, REQUIRED):
            sol = solve_dp(inst, variant)
            yield record(variant, (sol.value, list(sol.table.items())))


def evaluate_records():
    for inst in dp_instances():
        yield record("weitzman", evaluate_exact(inst, WeitzmanPolicy(inst)))
        yield record("best-committing", evaluate_exact(inst, CommittingPolicy(inst, best_committing(inst).best_set)))
        yield record("dp", evaluate_exact(inst, dp_policy(solve_dp(inst))))


def simulate_records():
    for case in REFERENCE_CASES:
        yield record(case, simulate(*reference_case(case), REFERENCE_TRIALS, REFERENCE_SEED))
    inst = random_instance(3, 3, 9, seed=70)
    yield record("reserve-box-2", simulate(inst, CommittingPolicy(inst, {2}), REFERENCE_TRIALS, REFERENCE_SEED))
    inst = large_joint()
    yield record("large-joint", simulate(inst, WeitzmanPolicy(inst), 2000, 0))


def digest(records):
    h = hashlib.sha256()
    count = 0
    for r in records:
        h.update(r.encode() + b"\n")
        count += 1
    return {"sha256": h.hexdigest(), "records": count}


def digests():
    return {
        "committing": digest(committing_records()),
        "dp": digest(dp_records()),
        "evaluate": digest(evaluate_records()),
        "simulate": digest(simulate_records()),
    }


if __name__ == "__main__":
    out = json.dumps(digests(), indent=2) + "\n"
    if sys.argv[1:] == ["--write"]:
        DATA.write_text(out)
    print(out, end="")
