"""Command-line interface: instance I/O, generators, and analyses.

Numbers in instance files are decimal strings or exact fraction strings
("p/q"), or JSON numbers (a float is read through its shortest repr); all
parse to exact rationals, so no floats reach the exact pipeline.  Single
analyses emit human-readable tables (or JSON with --json); sweeps emit CSV.

Exit codes: 0 success, 1 failed `ratio` floor, 2 input/validation error,
unwritable output file, or a number too large for a float in text `ratio`,
`solve` or `simulate` (`ratio --json` prints it exact), 3 size guard exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from fractions import Fraction

from .core import Box, DiscreteDist, Instance, SizeGuardError
from . import adaptive, committing, evaluator, generators, reservation, simulator, twobox
from .policies import CommittingPolicy, Policy, WeitzmanPolicy

# Rational lower bound on 1 - 1/e, used for exact ratio checks.
ONE_MINUS_INV_E_LB = Fraction(6321205588, 10**10)

DP_VARIANTS = {"dp": adaptive.NONOBLIGATORY, "dp-required": adaptive.REQUIRED}


class InputError(ValueError):
    pass


def parse_numlit(x) -> Fraction:
    """Decimal string, fraction string "p/q", or JSON int -> exact Fraction."""
    if isinstance(x, bool):
        raise InputError(f"not a number: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # JSON floats are tolerated but converted via their shortest repr.
        return Fraction(repr(x))
    if isinstance(x, str):
        # Python's digit limit stops long digit strings but not "1e10000000",
        # whose Fraction would build a 33-million-bit integer first; the length
        # test keeps the exponent's own int() under that limit
        limit = sys.get_int_max_str_digits()
        exponent = x.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if limit and exponent.isdecimal() and (len(exponent) > len(str(limit)) or int(exponent) > limit):
            raise InputError(f"number literal {x!r} has an exponent above {limit} in magnitude")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad number literal {x!r}: {e}") from None
    raise InputError(f"not a number: {x!r}")


def _members(doc, where: str, *keys: str) -> list:
    """doc's values at keys, or InputError naming where doc is not an object
    or which key it lacks."""
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise InputError(f'{where}: missing "{key}"')
    return [doc[key] for key in keys]


def instance_from_doc(doc) -> Instance:
    """The Instance an instance document describes.  Its shape is checked
    before any number is parsed, so a malformed document raises InputError
    naming the box, the support entry and the missing key or wrong type."""
    if not isinstance(doc, dict) or not isinstance(doc.get("boxes"), list):
        raise InputError('instance file must be an object with a "boxes" array')
    boxes = []
    for bi, bdoc in enumerate(doc["boxes"]):
        where = f"box {bi}"
        cost, support = _members(bdoc, where, "cost", "support")
        if not isinstance(support, list):
            raise InputError(f'{where}: "support" must be an array, got {type(support).__name__}')
        entries = [_members(e, f"{where}, support entry {si}", "value", "prob") for si, e in enumerate(support)]
        try:
            cost = parse_numlit(cost)
            pairs = [(parse_numlit(v), parse_numlit(p)) for v, p in entries]
            boxes.append(Box(DiscreteDist(pairs), cost))
        except ValueError as e:
            raise InputError(f"{where}: {e}") from None
    try:
        return Instance(boxes)
    except ValueError as e:
        raise InputError(str(e)) from None


def instance_to_doc(inst: Instance) -> dict:
    return {
        "boxes": [
            {
                "cost": str(b.cost),
                "support": [
                    {"value": str(v), "prob": str(p)} for v, p in b.dist.support
                ],
            }
            for b in inst.boxes
        ]
    }


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    return instance_from_doc(doc)


def write_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_doc(inst), fh, indent=2)
        fh.write("\n")


def build_policy(inst: Instance, spec: str) -> Policy:
    if spec == "weitzman":
        return WeitzmanPolicy(inst)
    if spec.startswith("commit:"):
        body = spec[len("commit:"):]
        indices = frozenset(int(s) for s in body.split(",") if s != "")
        return CommittingPolicy(inst, indices)
    if spec == "best-committing":
        sol = committing.best_committing(inst)
        return CommittingPolicy(inst, sol.best_set)
    if spec in DP_VARIANTS:
        return adaptive.dp_policy(adaptive.solve_dp(inst, DP_VARIANTS[spec]))
    raise InputError(f"unknown policy spec {spec!r}")


def _emit(doc: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for ln in lines:
            print(ln)


def cmd_profile(args) -> int:
    inst = load_instance(args.file)
    prof = reservation.profile(inst)
    doc = {
        "boxes": [
            {
                "sigma": str(prof.sigmas[i]),
                "expected_value": str(prof.expected_values[i]),
                "kappa": [
                    {"value": str(v), "prob": str(p)}
                    for v, p in prof.kappa_dists[i].support
                ],
            }
            for i in range(inst.n)
        ]
    }
    lines = ["box  sigma        E[v]         kappa support"]
    for i in range(inst.n):
        kap = ", ".join(f"{v}:{p}" for v, p in prof.kappa_dists[i].support)
        lines.append(
            f"{i:<4} {prof.sigmas[i]!s:<12} {prof.expected_values[i]!s:<12} {{{kap}}}"
        )
    _emit(doc, args.json, lines)
    return 0


def cmd_solve(args) -> int:
    inst = load_instance(args.file)
    spec = args.policy
    doc = {"policy": spec}
    lines = []
    if spec == "best-committing":
        sol = committing.best_committing(inst)
        value = sol.best_value
        doc["best_set"] = sorted(sol.best_set)
        doc["candidates"] = [
            {"set": sorted(s), "value": str(v)} for s, v in sol.candidate_values
        ]
        lines.append(f"best reservation set: {sorted(sol.best_set)}")
        for s, v in sol.candidate_values:
            lines.append(f"  S={sorted(s)!s:<10} value = {v} ({float(v):.6g})")
    elif spec in DP_VARIANTS:
        sol = adaptive.solve_dp(inst, DP_VARIANTS[spec])
        value = sol.value
        table_doc = []
        for (uninsp, best), (act, val) in sorted(
            sol.table.items(), key=lambda kv: (sorted(kv[0][0]), kv[0][1] is not None, kv[0][1])
        ):
            table_doc.append(
                {
                    "uninspected": sorted(uninsp),
                    "best_open": None if best is None else str(best),
                    "action": {"kind": act[0], "box": act[1]},
                    "value": str(val),
                }
            )
        doc["table"] = table_doc
        lines.append("decision table (uninspected | best open -> action, value):")
        for row in table_doc:
            act = row["action"]
            tgt = "" if act["box"] is None else f"({act['box']})"
            lines.append(
                f"  U={row['uninspected']!s:<12} best={row['best_open'] or '-':<8} "
                f"-> {act['kind']}{tgt:<5} value = {row['value']}"
            )
    else:
        pol = build_policy(inst, spec)
        value = evaluator.evaluate_exact(inst, pol).utility
    doc["value"] = str(value)
    doc["value_float"] = float(value)
    lines.append(f"value = {value} ({float(value):.12g})")
    _emit(doc, args.json, lines)
    return 0


def _ratio_row(inst: Instance):
    # Where best committing meets the coupling bound it is the optimum.
    sol = committing.best_committing(inst)
    bc = sol.best_value
    dp = bc if bc == sol.upper_bound else adaptive.solve_dp(inst).value
    ratio = bc / dp if dp != 0 else Fraction(1)
    return dp, bc, ratio


def cmd_ratio(args) -> int:
    inst = load_instance(args.file)
    dp, bc, ratio = _ratio_row(inst)
    ok_e = bc >= ONE_MINUS_INV_E_LB * dp
    ok_45 = (inst.n != 2) or (5 * bc >= 4 * dp)
    doc = {
        "dp": str(dp),
        "best_committing": str(bc),
        "ratio": str(ratio),
        "ratio_float": float(ratio),
        "floor_1_minus_1_over_e": "PASS" if ok_e else "FAIL",
    }
    if inst.n == 2:
        doc["floor_4_5"] = "PASS" if ok_45 else "FAIL"
    # Only the text prints dp as a float, which a huge value overflows.
    lines = [] if args.json else [
        f"dp-optimal       = {dp} ({float(dp):.12g})",
        f"best committing  = {bc} ({float(bc):.12g})",
        f"ratio            = {ratio} ({float(ratio):.12g})",
        f"1-1/e floor      : {doc['floor_1_minus_1_over_e']}",
    ] + ([f"4/5 floor (n=2)  : {doc['floor_4_5']}"] if inst.n == 2 else [])
    _emit(doc, args.json, lines)
    return 0 if (ok_e and ok_45) else 1


def cmd_gen(args) -> int:
    if args.tight is not None:
        if args.tight < 2:
            raise InputError("--tight needs N >= 2")
        inst = twobox.tight_example(args.tight)
    else:
        n, s, vmax, cmax, seed = args.random
        inst = generators.random_instance(
            n=int(n), max_support=int(s), value_max=int(vmax),
            seed=int(seed), cost_scale_max=parse_numlit(cmax),
        )
    write_instance(inst, args.output)
    return 0


def cmd_simulate(args) -> int:
    inst = load_instance(args.file)
    pol = build_policy(inst, args.policy)
    report = simulator.simulate(inst, pol, trials=args.trials, seed=args.seed)
    doc = {
        "trials": report.trials,
        "seed": report.seed,
        "mean_utility": report.mean_utility,
        "std_error": report.std_error,
        "inspect_freq": list(report.inspect_freq),
        "select_freq": list(report.select_freq),
    }
    lines = [
        f"trials     = {report.trials}  (seed {report.seed})",
        f"mean       = {report.mean_utility:.6f}",
        f"std error  = {report.std_error:.6f}",
        "box  inspect freq  select freq",
    ]
    for i in range(inst.n):
        lines.append(f"{i:<4} {report.inspect_freq[i]:<13.6f} {report.select_freq[i]:.6f}")
    _emit(doc, args.json, lines)
    return 0


def cmd_sweep(args) -> int:
    rows = []
    if args.family == "tight":
        for big_n in (int(s) for s in args.n_list.split(",")):
            inst = twobox.tight_example(big_n)
            rows.append((f"tight-{big_n}", inst))
    else:
        count, n, s, vmax, seed0 = (int(x) for x in args.random_batch)
        if count < 1:
            raise InputError(f"--random-batch COUNT must be >= 1, got {count}")
        for k in range(count):
            inst = generators.random_instance(
                n=n, max_support=s, value_max=vmax, seed=seed0 + k
            )
            rows.append((f"random-{seed0 + k}", inst))
    # -o opens before the first row, so an unwritable path fails before any
    # DP is solved, and a row that raises removes it, leaving no partial file.
    with (open(args.output, "w", newline="", encoding="utf-8") if args.output
          else contextlib.nullcontext(sys.stdout)) as out:
        try:
            table = [["instance-id", "n", "dp", "best_committing", "ratio", "min-ratio-so-far"]]
            min_ratio = None
            for iid, inst in rows:
                dp, bc, ratio = _ratio_row(inst)
                min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
                table.append([iid, inst.n, str(dp), str(bc), str(ratio), str(min_ratio)])
            csv.writer(out).writerows(table)
        except BaseException:
            if args.output:
                out.close()
                os.remove(args.output)
            raise
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pandora",
        description="Exact and approximate search policies for box-inspection problems "
        "with optional inspection.  Box indices are 0-based.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("profile", help="reservation values and amortized distributions")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser("solve", help="exact value of a policy")
    sp.add_argument("file")
    sp.add_argument(
        "--policy",
        required=True,
        help="weitzman | commit:I,J,... | best-committing | dp | dp-required",
    )
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("ratio", help="best committing vs adaptive optimum")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_ratio)

    sp = sub.add_parser("gen", help="write an instance file")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--tight", type=int, metavar="N", help="two-box tight family at N")
    group.add_argument(
        "--random",
        nargs=5,
        metavar=("N", "S", "VMAX", "CSCALE", "SEED"),
        help="random instance: boxes, max support, value grid max, "
        "cost scale (rational multiple of E[v]), seed",
    )
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("simulate", help="Monte Carlo estimate of a policy")
    sp.add_argument("file")
    sp.add_argument("--policy", required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sweep", help="batch ratio study, CSV output")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=["tight"])
    group.add_argument(
        "--random-batch",
        nargs=5,
        metavar=("COUNT", "N", "S", "VMAX", "SEED0"),
    )
    sp.add_argument("--N-list", dest="n_list", default="2,10,1000")
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=cmd_sweep)

    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, OverflowError) as e:
        # InputError and InvalidDistributionError are ValueErrors; an OSError
        # is an output file that cannot be written; an OverflowError is a
        # number too large for a float.
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SizeGuardError as e:
        print(f"guard: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
