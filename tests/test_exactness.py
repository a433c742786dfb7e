"""Every digest group of tests/exactness.py matches the one recorded in
tests/data/exactness.json: the library's exact results are unchanged, value
for value and type for type.  Its --dump and --diff modes find a record
altered in a dump."""

import json

from exactness import DATA, GROUPS, digests, main


def test_digests_match_the_recorded_ones():
    assert digests() == json.loads(DATA.read_text())


def test_diff_prints_the_first_altered_record_of_a_dump(tmp_path, capsys):
    groups = {"simulate": GROUPS["simulate"]}
    path = tmp_path / "records.txt"
    assert main(["--dump", str(path)], groups) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 6 and all(line.startswith("simulate ") for line in lines)
    assert main(["--diff", str(path)], groups) == 0
    assert capsys.readouterr().out == ""

    altered = lines[2].replace("mean_utility=", "mean_utility=1")
    assert altered != lines[2]
    path.write_text("\n".join([*lines[:2], altered, *lines[3:]]) + "\n")
    assert main(["--diff", str(path)], groups) == 1
    now = lines[2].split(" ", 1)[1]
    assert capsys.readouterr().out == (f"simulate: record 2 differs\n  dump: {altered.split(' ', 1)[1]}\n"
                                       f"  now:  {now}\n")
