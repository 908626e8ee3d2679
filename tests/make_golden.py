"""Regenerate tests/data/golden_cli.json, the pinned CLI outputs that
tests/test_golden.py compares byte for byte.

Run from the repository root only when an output change is intended:

  PYTHONPATH=src python tests/make_golden.py
"""

import contextlib
import io
import json
import os

from artifact.cli import main
from artifact.cases import CASES

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PATH = os.path.join(DATA, "golden_cli.json")

PERIOD_EXPRS = (
    "(mul (pow twopii 2) (conj Q0.s))",
    "(mul Q0 Q4 (pow i 8) (pow dM 2) (pow twopii 20))",
    "(mul (pow sqrtdisc.7 3) pi (pow free 1/2) (pow twopii -3))",
    "(mul (pow detA 2) Delta.s (conj Xi.s) (pow R1.s 2))",
    "(mul (pow sqrtD 3) (pow i 1/2) (pow Q1 2) (pow R2 -2) (pow detB 1/2))",
)

GROUPS = tuple("SL(%d)/R" % n for n in range(4, 10)) + (
    "SO(3,3)", "SO(5,3)", "SO(5,5)", "SO(7,3)", "SO(7,1)", "SL(4)/C",
    "PGL(4)/C", "SO(5)/C", "PGL(2)/C x PGL(3)/C")

# (v1, v2, sigma) matrix files under tests/data/rotation: three instances
# of the lemma (b = 1 trivial and rational, b = 3), the same three turned
# by the 3-4-5 rotation (denominators in sigma and in both bases) and six
# failed hypotheses
ROTATIONS = (
    ("v1", "v1", "sigma"),
    ("v1", "v2_rational", "sigma"),
    ("v1", "v2_sqrt3", "sigma"),
    ("v1", "v2_unstable", "sigma"),
    ("v1", "v2_long_axis", "sigma"),
    ("v1", "v1", "sigma_scaled"),
    ("v1", "v1", "sigma_identity"),
    ("v1_r345", "v1_r345", "sigma_r345"),
    ("v1_r345", "v2_rational_r345", "sigma_r345"),
    ("v1_r345", "v2_sqrt3_r345", "sigma_r345"),
    ("v1", "v2_singular", "sigma"),
    ("v1", "v2_double_volume", "sigma"),
)


def commands():
 out = [["verify-all", "--n-max", "12"], ["torsion"]]
 for case in CASES:
  for n in range(1, 13):
   out.append(["check", "--case", case, "--n", str(n)])
   out.append(["check", "--case", case, "--n", str(n), "--json"])
   out.append(["lfactor", "--case", case, "--n", str(n)])
   out.append(["lfactor", "--case", case, "--n", str(n), "--json"])
   for show in ("M", "N", "AdM", "AdN", "MxN"):
    out.append(["hodge", "--case", case, "--n", str(n), "--show", show])
 for expr in PERIOD_EXPRS:
  for case in CASES:
   for mod in ("Q", "sqrtQ"):
    out.append(["period", "--expr", expr, "--case", case, "--n", "5",
                "--mod", mod])
 for delta in range(5):
  for q, k in ((1, 1), (2, 1), (3, 2)):
   out.append(["cohomology-model", "--delta", str(delta), "--q", str(q),
               "--k", str(k)])
 # the case groups' scale: delta 5..8 at (q, k) = (1, 1), and delta 8 at
 # (2, 2); then delta 9 (so-odd n = 4, pgl-e n = 5) and delta 10 (so-even
 # n = 5, pgl-q n = 6) at (1, 1); then delta 12 at (1, 1), where a dense
 # matrix per degree in the freeness check would show in the suite's time
 for delta, q, k in [(d, 1, 1) for d in range(5, 9)] + [(8, 2, 2)] + \
     [(d, 1, 1) for d in (9, 10, 12)]:
  out.append(["cohomology-model", "--delta", str(delta), "--q", str(q),
              "--k", str(k)])
 for group in GROUPS:
  out.append(["invariants", "--group", group])
  out.append(["invariants", "--group", group, "--json"])
 for v1, v2, sigma in ROTATIONS:
  out.append(["rotation"] + [x for flag, name in
                             (("--v1", v1), ("--v2", v2), ("--sigma", sigma))
                             for x in (flag, "rotation/%s.txt" % name)])
 return out


def run(argv):
 """Output and exit code of one command, run from tests/data, which the
 rotation matrix files are named relative to."""
 buf = io.StringIO()
 cwd = os.getcwd()
 os.chdir(DATA)
 try:
  with contextlib.redirect_stdout(buf):
   code = main(argv)
 finally:
  os.chdir(cwd)
 return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


if __name__ == "__main__":
 with open(PATH, "w") as fh:
  json.dump([run(argv) for argv in commands()], fh, indent=1)
  fh.write("\n")
