"""CLI outputs pinned byte for byte: verify-all --n-max 12, torsion, check
and lfactor (text and --json) and every hodge --show for every case and n,
and period reductions under both moduli.  Regenerate with tests/make_golden.py only when a change of output
is intended."""

import json

import pytest

from make_golden import PATH, run

with open(PATH) as _fh:
 GOLDEN = json.load(_fh)


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(e["argv"]))
def test_output_is_byte_identical(entry):
 got = run(entry["argv"])
 assert got["exit"] == entry["exit"]
 assert got["stdout"] == entry["stdout"]


def test_golden_covers_every_command():
 seen = {" ".join(e["argv"][:1]) for e in GOLDEN}
 assert seen == {"verify-all", "torsion", "check", "lfactor", "hodge",
                 "period"}
 assert sum(e["argv"][0] == "check" for e in GOLDEN) == 96
 assert sum(e["argv"][0] == "lfactor" for e in GOLDEN) == 96
 assert sum(e["argv"][0] == "hodge" for e in GOLDEN) == 240
