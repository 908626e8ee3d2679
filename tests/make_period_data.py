"""Regenerate tests/data/period_data.json, the unreduced period data of
every (case, n) that tests/test_periodring.py compares against: the repr of
period_ratio at both signs, of vol_L for both factors and of deligne_c at
both signs (and with the quadratic twist where it applies), and the ordered
relations of case_relations with their levels.  The golden CLI file sees
these only after reduction, where a change that stays in the relation
lattice does not show.

Run from the repository root only when a change of period data is
intended:

  PYTHONPATH=src python tests/make_period_data.py
"""

import json
import os

from artifact import periodring
from artifact.cases import CASES
from artifact.hodge import CaseMotives

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PATH = os.path.join(DATA, "period_data.json")


def period_data(case, n):
 mot = CaseMotives(case, n)
 psis = (False,) if mot.twisted_m is None else (False, True)
 return {
     "case": case,
     "n": n,
     "period_ratio": [repr(periodring.period_ratio(mot, s)) for s in (1, -1)],
     "vol_L": [repr(periodring.vol_L(mot, w)) for w in ("M", "N")],
     "deligne_c": [[s, psi, repr(periodring.deligne_c(mot, s, psi))]
                   for s in (1, -1) for psi in psis],
     "relations": [[repr(x), level] for x, level in
                   periodring.case_relations(mot).relations],
 }


def entries():
 return [period_data(case, n) for case in CASES for n in range(1, 13)]


if __name__ == "__main__":
 with open(PATH, "w") as fh:
  json.dump(entries(), fh, indent=1)
  fh.write("\n")
