"""Every digest group of tests/exactness.py matches the one recorded in
tests/data/exactness.json: the library's exact results are unchanged, value
for value and type for type."""

import json

from exactness import DATA, digests


def test_digests_match_the_recorded_ones():
    assert digests() == json.loads(DATA.read_text())
