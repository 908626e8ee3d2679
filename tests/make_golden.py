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

PATH = os.path.join(os.path.dirname(__file__), "data", "golden_cli.json")

PERIOD_EXPRS = (
    "(mul (pow twopii 2) (conj Q0.s))",
    "(mul Q0 Q4 (pow i 8) (pow dM 2) (pow twopii 20))",
    "(mul (pow sqrtdisc.7 3) pi (pow free 1/2) (pow twopii -3))",
    "(mul (pow detA 2) Delta.s (conj Xi.s) (pow R1.s 2))",
    "(mul (pow sqrtD 3) (pow i 1/2) (pow Q1 2) (pow R2 -2) (pow detB 1/2))",
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
 return out


def run(argv):
 buf = io.StringIO()
 with contextlib.redirect_stdout(buf):
  code = main(argv)
 return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


if __name__ == "__main__":
 with open(PATH, "w") as fh:
  json.dump([run(argv) for argv in commands()], fh, indent=1)
  fh.write("\n")
