"""CLI outputs pinned byte for byte: verify-all --n-max 12, torsion, check
and lfactor (text and --json) and every hodge --show for every case and n,
period reductions under both moduli, cohomology-model for delta 0..4 and
at the case groups' scale (delta 5..8), invariants (text and --json) for
the acceptance groups, and rotation on the matrix files under
tests/data/rotation.  Regenerate with tests/make_golden.py only when a
change of output is intended."""

import json

import pytest

from make_golden import GROUPS, PATH, ROTATIONS, run

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
                 "period", "cohomology-model", "invariants", "rotation"}
 assert sum(e["argv"][0] == "check" for e in GOLDEN) == 96
 assert sum(e["argv"][0] == "lfactor" for e in GOLDEN) == 96
 assert sum(e["argv"][0] == "hodge" for e in GOLDEN) == 240
 assert sum(e["argv"][0] == "cohomology-model" for e in GOLDEN) == 20
 assert sum(e["argv"][0] == "invariants" for e in GOLDEN) == 2 * len(GROUPS)
 rotations = [e for e in GOLDEN if e["argv"][0] == "rotation"]
 assert len(rotations) == len(ROTATIONS)
 # both outcomes of the lemma are pinned: a rotation over Q(sqrt 3) and a
 # failed hypothesis
 assert any("square class b = 3," in e["stdout"] for e in rotations)
 assert any(e["exit"] == 1 and e["stdout"].startswith("FAIL: ")
            for e in rotations)
 # a sigma with denominators, and the basis and volume failures
 assert any("rotation/sigma_r345.txt" in e["argv"] and e["exit"] == 0
            for e in rotations)
 for fail in ("v2 is not a basis", "lattice volumes differ"):
  assert any(e["stdout"] == "FAIL: %s\n" % fail for e in rotations)


def test_check_json_carries_the_text_verdicts():
 text = {tuple(e["argv"]): e["stdout"].splitlines() for e in GOLDEN
         if e["argv"][0] == "check"}
 verdict = {True: "pass", False: "FAIL"}
 for argv, lines in text.items():
  if argv[-1] != "--json":
   continue
  d = json.loads("\n".join(lines))
  shown = text[argv[:-1]]
  assert "gamma1 exponent %s -> %s" % (
      d["gamma1"]["exponent"], verdict[d["gamma1"]["pass"]]) in shown
  assert "gamma2 residual %s -> %s" % (
      d["gamma2"]["residual"], verdict[d["gamma2"]["pass"]]) in shown
  assert "condensate: residual %s, m=%d -> %s" % (
      d["condensate"]["residual"], d["condensate"]["m"],
      verdict[d["condensate"]["pass"]]) in shown
