"""The case registry: per-family constants, the name and n checks, and
that no other module branches on a family name."""

import ast
import os

import pytest

import artifact
from artifact import cases, ggpcheck, periodring
from artifact.cases import CASES
from artifact.hodge import CaseMotives
from reference_kernels import written_out_case_data

# the family names with the spellings they once had as aliases, so that a
# branch on an old spelling is still seen
SPELLINGS = {"pgl-q", "pglq", "pgl-e", "pgle", "so-even", "so-even-e",
             "soeven", "so-odd", "so-odd-e", "soodd"}
SRC = os.path.dirname(artifact.__file__)


class TestCaseSpec:
 def test_fields(self):
  assert cases.CaseSpec.__slots__ == ("name", "m", "e", "over_e", "targets",
                                      "factors")

 def test_constants(self):
  for n in range(1, 9):
   for case in ("pgl-q", "pgl-e"):
    d, r = cases.get(case, n), written_out_case_data(case, n).r
    assert (r, d.m(n), d.e) == (n, n * (n + 1), 2)
   d, r = cases.get("so-even", n), written_out_case_data("so-even", n).r
   assert (r, d.m(n), d.e) == (2 * n - 1, 2 * n * n, 1)
   d, r = cases.get("so-odd", n), written_out_case_data("so-odd", n).r
   assert (r, d.m(n), d.e) == (2 * n, 2 * n * (n + 1), 1)

 def test_reduction_level(self):
  assert written_out_case_data("pgl-q", 3).mod == "Q"
  for case in ("pgl-e", "so-even", "so-odd"):
   assert written_out_case_data(case, 3).mod == "sqrtQ"

 @pytest.mark.parametrize("case", CASES)
 def test_m_witness(self, case):
  # the one hand-written power of 2 pi i: 2m = e rank(M x N)
  for n in range(1, 13):
   spec = cases.get(case, n)
   assert 2 * spec.m(n) == spec.e * CaseMotives(case, n).tensor.rank()

 @pytest.mark.parametrize("name", ["so-twisted", "soodd", "PGL-Q"])
 def test_unknown_case(self, name):
  # only the family names themselves are accepted
  with pytest.raises(ValueError, match="unknown case"):
   cases.get(name, 2)

 @pytest.mark.parametrize("n", [0, -2])
 def test_n_must_be_positive(self, n):
  for name in CASES:
   with pytest.raises(ValueError, match="n must be positive"):
    cases.get(name, n)

 def test_large_n_accepted(self):
  assert cases.get("pgl-q", 40).m(40) == 40 * 41


class TestDerivedCaseData:
 """The case data read off the motives equals what each family wrote out
 by hand (tests/reference_kernels.py), for every (case, n <= 12)."""

 @pytest.mark.parametrize("case", CASES)
 def test_centre_twist_and_shift(self, case):
  for n in range(1, 13):
   mot, ref = CaseMotives(case, n), written_out_case_data(case, n)
   assert mot.r == ref.r, (case, n)
   assert (mot.twisted_m is not None) == ref.twists, (case, n)
   k = periodring._orthogonal_k(mot.spec, n)
   assert (None if k is None else k + 1 - n) == ref.shift, (case, n)

 @pytest.mark.parametrize("case", CASES)
 def test_reduction_level(self, monkeypatch, case):
  levels, reduce = [], periodring.reduce

  def recording(x, rels, mod="Q"):
   levels.append(mod)
   return reduce(x, rels, mod)

  monkeypatch.setattr(periodring, "reduce", recording)
  for n in range(1, 13):
   levels.clear()
   assert ggpcheck.run_case(case, n).passed()
   assert levels == [written_out_case_data(case, n).mod], (case, n)


def family_comparisons(source):
 """Lines that compare a value against a family name or alias, or key a
 dict by one."""
 hits = set()
 for node in ast.walk(ast.parse(source)):
  if isinstance(node, ast.Compare):
   operands = [node.left] + node.comparators
  elif isinstance(node, ast.Dict):
   operands = [k for k in node.keys if k is not None]
  else:
   continue
  for operand in operands:
   for sub in ast.walk(operand):
    if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and \
       sub.value.replace("_", "-").lower() in SPELLINGS:
     hits.add(node.lineno)
 return sorted(hits)


class TestOneRegistry:
 def test_detector_sees_branches(self):
  src = ('if case in ("pgl-q", "pgl-e"):\n pass\n'
         'mod = "Q" if case == "pgl-q" else "sqrtQ"\n'
         'alias = {"soodd": "so-odd"}\n'
         'ok = case == "SO_EVEN"\n')
  assert family_comparisons(src) == [1, 3, 4, 5]
  assert family_comparisons('raise ValueError("pgl-q only")\n') == []

 def test_no_family_branch_outside_cases(self):
  found = {}
  for fname in sorted(os.listdir(SRC)):
   if fname.endswith(".py") and fname != "cases.py":
    with open(os.path.join(SRC, fname)) as fh:
     hits = family_comparisons(fh.read())
    if hits:
     found[fname] = hits
  assert found == {}
