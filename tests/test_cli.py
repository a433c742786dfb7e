import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from pandora_search import (
    REQUIRED,
    CommittingPolicy,
    SizeGuardError,
    best_committing,
    dp_policy,
    random_instance,
    simulate,
    solve_dp,
    tight_example,
)
from pandora_search import adaptive, cli
from pandora_search.cli import (
    ONE_MINUS_INV_E_LB,
    InputError,
    instance_from_doc,
    instance_to_doc,
    main,
    parse_numlit,
    write_instance,
)


@pytest.fixture
def tight_file(tmp_path):
    path = tmp_path / "tight.json"
    write_instance(tight_example(10), str(path))
    return str(path)


class TestNumLiterals:
    def test_fraction_string(self):
        assert parse_numlit("9/20") == F(9, 20)

    def test_decimal_string(self):
        assert parse_numlit("0.45") == F(9, 20)

    def test_int(self):
        assert parse_numlit(7) == 7

    def test_json_float_is_read_through_its_repr(self):
        assert parse_numlit(0.45) == F(9, 20)

    def test_rejects_garbage(self):
        for bad in ("1/0", "abc", True, None):
            with pytest.raises(InputError):
                parse_numlit(bad)

    def test_rejects_an_exponent_past_the_digit_limit(self):
        # "1e10000000" would build a 33-million-bit integer before any check
        limit = sys.get_int_max_str_digits()
        for bad in (f"1e{limit + 1}", f"2.5E-{limit + 1}"):
            with pytest.raises(InputError, match="exponent"):
                parse_numlit(bad)
        assert parse_numlit(f"1e{limit}") == 10 ** limit


class TestInstanceIO:
    def test_round_trip(self, tight_file):
        inst = tight_example(10)
        with open(tight_file) as fh:
            doc = json.load(fh)
        assert instance_from_doc(doc) == inst
        assert instance_from_doc(instance_to_doc(inst)) == inst

    def test_bad_documents(self):
        with pytest.raises(InputError):
            instance_from_doc({"no": "boxes"})
        with pytest.raises(InputError):
            instance_from_doc({"boxes": [{"cost": "1"}]})
        with pytest.raises(InputError):
            instance_from_doc(
                {"boxes": [{"cost": "1", "support": [{"value": "1", "prob": "1/2"}]}]}
            )
        entry = {"value": "1", "prob": "1"}
        # each names the box, the support entry and the missing key or wrong type
        for boxes, message in [
            ([5], "box 0: expected an object, got int"),
            ([{"cost": "1", "support": [entry]}, {"cost": "1", "support": [entry, 7]}],
             "box 1, support entry 1: expected an object, got int"),
            ([{"support": [entry]}], 'box 0: missing "cost"'),
            ([{"cost": "1", "support": [{"value": "1"}]}], 'box 0, support entry 0: missing "prob"'),
            ([{"cost": "1", "support": {"value": "1"}}], 'box 0: "support" must be an array, got dict'),
            ([{"cost": "1", "support": "ab"}], 'box 0: "support" must be an array, got str'),
        ]:
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                instance_from_doc({"boxes": boxes})


class TestCommands:
    def test_module_entry_point_writes_the_file(self, tmp_path):
        out = tmp_path / "f"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = [sys.executable, "-m", "pandora_search.cli", "gen", "--tight", "3", "-o", str(out)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert json.loads(out.read_text())["boxes"]

    def test_profile(self, tight_file, capsys):
        assert main(["profile", tight_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["boxes"][1]["sigma"] == "11/2"
        assert doc["boxes"][0]["sigma"] == "1"

    def test_solve_weitzman(self, tight_file, capsys):
        assert main(["solve", tight_file, "--policy", "weitzman", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "1"

    def test_solve_commit(self, tight_file, capsys):
        assert main(["solve", tight_file, "--policy", "commit:1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "1"

    def test_solve_dp_prints_table(self, tight_file, capsys):
        assert main(["solve", tight_file, "--policy", "dp", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == "49/40"
        root = [r for r in doc["table"] if r["uninspected"] == [0, 1]]
        assert root and root[0]["action"]["kind"] == "inspect"

    def test_solve_dp_table_sorts_best_numerically(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["gen", "--random", "3", "4", "12", "1", "5", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["solve", str(out), "--policy", "dp", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["table"]
        groups = {}
        for row in rows:
            groups.setdefault(tuple(row["uninspected"]), []).append(row["best_open"])
        assert list(groups) == sorted(groups, key=list)
        for bests in groups.values():
            if None in bests:
                assert bests[0] is None and bests.count(None) == 1
            numbers = [F(b) for b in bests if b is not None]
            assert numbers == sorted(numbers)
        assert [F(b) for b in groups[()]] == [5, 6, 8, 10, 11]

    def test_solve_dp_required(self, tight_file, capsys):
        assert main(["solve", tight_file, "--policy", "dp-required", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "1"

    def test_solve_best_committing(self, tight_file, capsys):
        assert main(["solve", tight_file, "--policy", "best-committing", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == "1"
        assert doc["best_set"] == []

    def test_ratio(self, tight_file, capsys):
        assert main(["ratio", tight_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ratio"] == "40/49"
        assert doc["floor_1_minus_1_over_e"] == "PASS"
        assert doc["floor_4_5"] == "PASS"
        assert F(40, 49) >= ONE_MINUS_INV_E_LB

    def test_gen_tight_round_trips(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gen", "--tight", "10", "-o", str(out)]) == 0
        assert main(["solve", str(out), "--policy", "dp", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "49/40"

    def test_gen_random(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["gen", "--random", "3", "3", "9", "1", "5", "-o", str(out)]) == 0
        assert main(["ratio", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["floor_1_minus_1_over_e"] == "PASS"

    def test_simulate(self, tight_file, capsys):
        rc = main(
            ["simulate", tight_file, "--policy", "weitzman",
             "--trials", "20000", "--seed", "1", "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["mean_utility"] - 1.0) < 0.1
        assert doc["trials"] == 20000

    def test_simulate_past_64_boxes(self, tmp_path, capsys):
        # 70 point masses: a joint of one outcome, counted on one table axis.
        out = tmp_path / "p70.json"
        assert main(["gen", "--random", "70", "1", "10", "1", "0", "-o", str(out)]) == 0
        assert main(["simulate", str(out), "--policy", "weitzman", "--trials", "1000", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["mean_utility"] == 10.0

    def test_sweep_tight_csv(self, capsys):
        assert main(["sweep", "--family", "tight", "--N-list", "2,10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("instance-id,n,dp,best_committing,ratio")
        assert lines[1].split(",")[0] == "tight-2"
        assert lines[2].split(",")[4] == "40/49"
        # running minimum tracks the decreasing family
        assert lines[2].split(",")[5] == "40/49"

    def test_sweep_random_batch(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--random-batch", "4", "2", "3", "9", "0", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5


class TestTextOutput:
    """The commands without --json print tables for a reader."""

    def test_profile(self, tight_file, capsys):
        assert main(["profile", tight_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["box", "sigma", "E[v]", "kappa", "support"]
        assert lines[1].split() == ["0", "1", "1/2", "{0:1/2,", "1:1/2}"]
        assert lines[2].split() == ["1", "11/2", "1", "{0:9/10,", "11/2:1/10}"]

    def test_solve_dp(self, tight_file, capsys):
        assert main(["solve", tight_file, "--policy", "dp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "decision table (uninspected | best open -> action, value):"
        root = [ln for ln in lines if ln.startswith("  U=[0, 1] ")]
        assert len(root) == 1 and root[0].split()[-4:] == ["inspect(0)", "value", "=", "49/40"]
        assert len(lines) == 10  # header, eight states, value line
        assert lines[-1] == "value = 49/40 (1.225)"

    def test_ratio_two_boxes_prints_the_four_fifths_floor(self, tight_file, capsys):
        assert main(["ratio", tight_file]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "dp-optimal       = 49/40 (1.225)",
            "best committing  = 1 (1)",
            "ratio            = 40/49 (0.816326530612)",
            "1-1/e floor      : PASS",
            "4/5 floor (n=2)  : PASS",
        ]

    def test_ratio_omits_the_four_fifths_floor_beyond_two_boxes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["gen", "--random", "3", "3", "9", "1", "5", "-o", str(out)]) == 0
        assert main(["ratio", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and lines[-1] == "1-1/e floor      : PASS"

    def test_simulate(self, tight_file, capsys):
        assert main(["simulate", tight_file, "--policy", "dp", "--trials", "2000", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        report = simulate(tight_example(10), dp_policy(solve_dp(tight_example(10))), trials=2000, seed=1)
        assert lines[:4] == [
            "trials     = 2000  (seed 1)",
            f"mean       = {report.mean_utility:.6f}",
            f"std error  = {report.std_error:.6f}",
            "box  inspect freq  select freq",
        ]
        assert len(lines) == 6
        for i in (0, 1):
            assert lines[4 + i].split() == [
                str(i), f"{report.inspect_freq[i]:.6f}", f"{report.select_freq[i]:.6f}"
            ]


@pytest.mark.parametrize(
    "spec, build",
    [
        ("best-committing", lambda inst: CommittingPolicy(inst, best_committing(inst).best_set)),
        ("dp", lambda inst: dp_policy(solve_dp(inst))),
        ("dp-required", lambda inst: dp_policy(solve_dp(inst, REQUIRED))),
    ],
)
def test_simulate_spec_matches_the_policy_built_in_process(tight_file, capsys, spec, build):
    argv = ["simulate", tight_file, "--policy", spec, "--trials", "5000", "--seed", "3", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    inst = tight_example(10)
    report = simulate(inst, build(inst), trials=5000, seed=3)
    assert doc == {
        "trials": 5000,
        "seed": 3,
        "mean_utility": report.mean_utility,
        "std_error": report.std_error,
        "inspect_freq": list(report.inspect_freq),
        "select_freq": list(report.select_freq),
    }


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["profile", "/nonexistent.json"]) == 2

    def test_bad_probabilities_are_input_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"boxes": [{"cost": "0", "support": [{"value": "1", "prob": "1/3"}]}]}')
        assert main(["profile", str(p)]) == 2

    @pytest.mark.parametrize("boxes", [5, None])
    def test_boxes_not_an_array_is_input_error(self, tmp_path, boxes):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"boxes": boxes}))
        assert main(["profile", str(p)]) == 2

    def test_truncated_json_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"boxes": [\n')
        assert main(["profile", str(p)]) == 2
        assert "invalid JSON at line 2" in capsys.readouterr().err

    def test_negative_prize_value_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"boxes": [{"cost": "0", "support": [{"value": "-1", "prob": "1"}]}]}')
        assert main(["profile", str(p)]) == 2
        assert "box 0 has a negative prize value" in capsys.readouterr().err

    def test_gen_tight_below_two_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["gen", "--tight", "1", "-o", str(out)]) == 2
        assert "--tight needs N >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_zero_denominator_cost_scale_is_input_error(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["gen", "--random", "3", "4", "10", "1/0", "7", "-o", str(out)]) == 2
        assert not out.exists()

    def test_simulate_seed_past_64_bits_is_input_error(self, tight_file):
        argv = ["simulate", tight_file, "--policy", "weitzman", "--trials", "10"]
        assert main(argv + ["--seed", "99999999999999999999999"]) == 2

    def test_gen_to_unwritable_path_is_input_error(self, tmp_path):
        assert main(["gen", "--tight", "10", "-o", str(tmp_path / "missing" / "x.json")]) == 2

    def test_sweep_to_unwritable_path_is_input_error(self, tmp_path):
        out = tmp_path / "missing" / "s.csv"
        assert main(["sweep", "--family", "tight", "--N-list", "2", "-o", str(out)]) == 2

    def test_sweep_guard_leaves_no_partial_output(self, tmp_path):
        # The first 19-box instance (seed 47) is not certified, so its row
        # reaches the DP, which is past its state bound.
        out = tmp_path / "sw.csv"
        assert main(["sweep", "--random-batch", "2", "19", "3", "10", "47", "-o", str(out)]) == 3
        assert not out.exists()

    def test_sweep_to_unwritable_path_fails_before_any_row(self, tmp_path, monkeypatch):
        def no_row(inst):
            raise AssertionError("a row was computed before -o was opened")

        monkeypatch.setattr(cli, "_ratio_row", no_row)
        out = tmp_path / "missing" / "s.csv"
        assert main(["sweep", "--random-batch", "2", "3", "3", "9", "0", "-o", str(out)]) == 2

    def test_unknown_policy(self, tight_file):
        assert main(["solve", tight_file, "--policy", "psychic"]) == 2

    def test_commit_to_unknown_box_is_input_error(self, tight_file, capsys):
        assert main(["solve", tight_file, "--policy", "commit:5"]) == 2
        assert "reservation set contains unknown box indices" in capsys.readouterr().err
        assert main(["solve", tight_file, "--policy", "commit:x"]) == 2

    @pytest.mark.parametrize("argv, code", [
        (["ratio"], 2), (["ratio", "--json"], 0), (["solve", "--policy", "dp"], 2),
        (["simulate", "--policy", "weitzman", "--trials", "10"], 2), (["profile"], 0),
    ])
    def test_number_too_large_for_a_float_is_input_error(self, tmp_path, capsys, argv, code):
        # Text ratio, solve and simulate turn the value into a float, to print
        # it or to simulate; exit 1 would read as a failed ratio floor.
        # ratio --json prints exact strings and a ratio in [0, 1].
        p = tmp_path / "big.json"
        p.write_text('{"boxes": [{"cost": "0", "support": [{"value": "1e400", "prob": "1"}]}]}')
        assert main([argv[0], str(p), *argv[1:]]) == code
        out, err = capsys.readouterr()
        assert ("too large for a float" in err) == (code == 2)
        if argv == ["ratio", "--json"]:
            doc = json.loads(out)
            assert (doc["dp"], doc["best_committing"], doc["ratio"]) == ("1" + "0" * 400,) * 2 + ("1",)

    def test_size_guard_exit_code(self, tmp_path, monkeypatch):
        out = tmp_path / "big.json"
        assert main(["gen", "--random", "25", "2", "9", "1", "0", "-o", str(out)]) == 0
        assert main(["solve", str(out), "--policy", "dp"]) == 3

    def test_dp_state_bound_exit_code(self, tmp_path, capsys):
        # 19 boxes: 2^19 * 12 = 6.29M states bound the DP, past MAX_DP_STATES.
        # Seed 47 is not certified, so ratio reaches the DP.
        out = tmp_path / "r47.json"
        assert main(["gen", "--random", "19", "3", "10", "1", "47", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["ratio", str(out)]) == 3
        assert "DP state bound 2^19 * 12 = 6291456 exceeds 4194304" in capsys.readouterr().err


class TestRandomInstanceBounds:
    """random_instance draws up to max_support distinct values from
    0..value_max, so gen and sweep refuse a bound no box can meet, on every
    seed, with exit code 2 and the parameter's name."""

    @pytest.mark.parametrize("seed", ["0", "9"])
    def test_gen_max_support_past_the_value_grid(self, tmp_path, capsys, seed):
        out = tmp_path / "r.json"
        assert main(["gen", "--random", "3", "12", "10", "1", seed, "-o", str(out)]) == 2
        assert "max_support must be in [1, value_max + 1 = 11], got 12" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_max_support_on_the_whole_grid(self, tmp_path):
        assert main(["gen", "--random", "3", "11", "10", "1", "9", "-o", str(tmp_path / "r.json")]) == 0

    def test_gen_zero_max_support(self, tmp_path, capsys):
        assert main(["gen", "--random", "3", "0", "10", "1", "0", "-o", str(tmp_path / "r.json")]) == 2
        assert "max_support must be in [1, value_max + 1 = 11], got 0" in capsys.readouterr().err

    def test_gen_negative_value_max(self, tmp_path, capsys):
        assert main(["gen", "--random", "3", "1", "-1", "1", "0", "-o", str(tmp_path / "r.json")]) == 2
        assert "value_max must be >= 0, got -1" in capsys.readouterr().err

    def test_sweep_zero_max_support(self, capsys):
        assert main(["sweep", "--random-batch", "2", "3", "0", "10", "0"]) == 2
        assert "max_support must be in [1, value_max + 1 = 11], got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(21))
    def test_gen_negative_cost_scale(self, tmp_path, capsys, seed):
        # Some seeds draw a zero cost multiplier for every box, so only a
        # check of the parameter itself refuses it on each of them.
        out = tmp_path / "r.json"
        assert main(["gen", "--random", "1", "4", "10", "-1", str(seed), "-o", str(out)]) == 2
        assert "cost_scale_max must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_sweep_count_below_one(self, tmp_path, capsys, count):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--random-batch", count, "3", "3", "10", "0", "-o", str(out)]) == 2
        assert f"--random-batch COUNT must be >= 1, got {count}" in capsys.readouterr().err
        assert not out.exists()


class DPSolved(Exception):
    pass


class TestCertifiedRatio:
    """ratio and sweep take the optimum from best committing where it meets
    the coupling bound, and solve the DP only elsewhere."""

    @pytest.fixture
    def no_dp(self, monkeypatch):
        def solve_dp_raises(inst, variant=adaptive.NONOBLIGATORY):
            raise DPSolved

        monkeypatch.setattr(adaptive, "solve_dp", solve_dp_raises)

    @pytest.fixture
    def certified_file(self, tmp_path):
        inst = random_instance(5, 4, 10, seed=1)
        sol = best_committing(inst)
        assert sol.best_value == sol.upper_bound == solve_dp(inst).value == F(82, 13)
        path = tmp_path / "certified.json"
        write_instance(inst, str(path))
        return str(path)

    def test_certified_instance_needs_no_dp(self, certified_file, no_dp, capsys):
        assert main(["ratio", certified_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["dp"], doc["best_committing"], doc["ratio"]) == ("82/13", "82/13", "1")

    def test_sweep_of_a_certified_instance_needs_no_dp(self, no_dp, capsys):
        assert main(["sweep", "--random-batch", "1", "5", "4", "10", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "random-1,5,82/13,82/13,1,1"

    def test_tight_example_solves_the_dp(self, tight_file, no_dp):
        with pytest.raises(DPSolved):
            main(["ratio", tight_file])

    def test_guard_tests_use_an_uncertified_instance(self):
        # Seed 47's 19-box instance, which test_dp_state_bound_exit_code and
        # the first row of test_sweep_guard_leaves_no_partial_output use, is
        # not certified, so their exit code 3 comes from the DP's own guard.
        inst = random_instance(19, 3, 10, seed=47)
        sol = best_committing(inst)
        assert sol.best_value < sol.upper_bound
        with pytest.raises(SizeGuardError):
            solve_dp(inst)

    @pytest.mark.parametrize("seed", [19, 20])
    def test_guard_tests_use_certified_instances(self, seed):
        # The 19-box instances of test_certified_rows_past_the_dp_bound_answer
        # (seeds 19, 20) are certified and past the DP's state bound, so that
        # test's exit code 0 shows ratio does not run the DP's guard on them.
        inst = random_instance(19, 3, 10, seed=seed)
        sol = best_committing(inst)
        assert sol.best_value == sol.upper_bound
        with pytest.raises(SizeGuardError):
            solve_dp(inst)

    def test_certified_rows_past_the_dp_bound_answer(self, no_dp, capsys):
        # Seeds 19 and 20 are certified, so neither row reaches the DP,
        # whose state bound 2^19 * 12 they exceed.
        assert main(["sweep", "--random-batch", "2", "19", "3", "10", "19"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "random-19,19,9,9,1,1", "random-20,19,10,10,1,1"]

    def test_certified_40_box_ratio_needs_no_dp(self, tmp_path, no_dp, capsys):
        path = tmp_path / "wide.json"
        write_instance(random_instance(40, 6, 20, seed=0), str(path))
        assert main(["ratio", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dp"] == doc["best_committing"] == "2357/128"
