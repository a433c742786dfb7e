"""Exactness digests: every group of library results over a fixed instance
list, as one SHA-256 and a record count, so a refactor that must keep each
Fraction equal proves it against tests/data/exactness.json
(tests/test_exactness.py recomputes the digests).

    PYTHONPATH=src python tests/exactness.py               # print the digests
    PYTHONPATH=src python tests/exactness.py --write       # rewrite the file
    PYTHONPATH=src python tests/exactness.py --dump FILE   # write every record
    PYTHONPATH=src python tests/exactness.py --diff FILE   # compare with a dump

A record is "name:type:repr".  The committing group holds every
CommittingSolution field and each box's sigma and E[v] from the instance's
integer form.  The dp group holds, per solve_dp solution in both variants,
its value and its table's items; the evaluate group holds the EvalResult of
Weitzman's policy, of best committing and of the DP policy, over ratio-size
instances, tight_example and the 8-box large joint.  The simulate group holds
SimReports on fixed seeds, on joints that reach each of the simulator's folds.
The traces group holds every Trace of iter_traces for the same three policies
over the dp group's instances.

--dump writes every record, one a line, prefixed by its group and a space.
--diff recomputes the records, prints each group's first record that differs
from such a file (or is missing on one side), and exits 1 if any differs: a
digest says that a group moved, a diff against a dump taken before the change
says where.
"""

import hashlib
import json
import sys
from dataclasses import fields
from fractions import Fraction
from itertools import zip_longest
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
    iter_traces,
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


def three_policies(inst):
    """(name, policy) for Weitzman's policy, best committing and the DP policy."""
    yield "weitzman", WeitzmanPolicy(inst)
    yield "best-committing", CommittingPolicy(inst, best_committing(inst).best_set)
    yield "dp", dp_policy(solve_dp(inst))


def evaluate_records():
    for inst in dp_instances():
        for name, pol in three_policies(inst):
            yield record(name, evaluate_exact(inst, pol))


def traces_records():
    for inst in dp_instances():
        for name, pol in three_policies(inst):
            for trace in iter_traces(inst, pol):
                yield record(name, trace)


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


GROUPS = {
    "committing": committing_records,
    "dp": dp_records,
    "evaluate": evaluate_records,
    "simulate": simulate_records,
    "traces": traces_records,
}


def digests(groups=GROUPS):
    return {group: digest(records()) for group, records in groups.items()}


def dump(path, groups=GROUPS):
    with open(path, "w") as out:
        for group, records in groups.items():
            for r in records():
                out.write(f"{group} {r}\n")


def diff(path, groups=GROUPS):
    """Prints each group's first record that differs from the dump at path;
    returns whether any did."""
    dumped = {}
    with open(path) as lines:
        for line in lines:
            group, r = line.rstrip("\n").split(" ", 1)
            dumped.setdefault(group, []).append(r)
    differs = False
    for group in sorted(groups.keys() | dumped.keys()):
        records = groups[group]() if group in groups else ()
        for k, (old, new) in enumerate(zip_longest(dumped.get(group, ()), records)):
            if old != new:
                print(f"{group}: record {k} differs\n  dump: {old}\n  now:  {new}")
                differs = True
                break
    return differs


def main(argv, groups=GROUPS):
    if argv[:1] == ["--dump"] and len(argv) == 2:
        dump(argv[1], groups)
        return 0
    if argv[:1] == ["--diff"] and len(argv) == 2:
        return int(diff(argv[1], groups))
    out = json.dumps(digests(groups), indent=2) + "\n"
    if argv == ["--write"]:
        DATA.write_text(out)
    print(out, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
