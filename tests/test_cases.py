"""The case registry: per-family constants, name canonicalization, the n
check, and that no other module branches on a family name."""

import ast
import os

import pytest

import artifact
from artifact import cases
from artifact.cases import CASES

SPELLINGS = {a for s in cases.SPECS.values() for a in (s.name,) + s.aliases}
SRC = os.path.dirname(artifact.__file__)


class TestCaseSpec:
 def test_constants(self):
  for n in range(1, 9):
   for case in ("pgl-q", "pgl-e"):
    d = cases.get(case, n)
    assert (d.r(n), d.m(n), d.e) == (n, n * (n + 1), 2)
   d = cases.get("so-even", n)
   assert (d.r(n), d.m(n), d.e) == (2 * n - 1, 2 * n * n, 1)
   d = cases.get("so-odd", n)
   assert (d.r(n), d.m(n), d.e) == (2 * n, 2 * n * (n + 1), 1)

 def test_reduction_level(self):
  assert cases.get("pgl-q", 3).mod == "Q"
  for case in ("pgl-e", "so-even", "so-odd"):
   assert cases.get(case, 3).mod == "sqrtQ"

 def test_aliases(self):
  for name in CASES:
   for alias in (name,) + cases.SPECS[name].aliases:
    for spelling in (alias, alias.upper(), alias.replace("-", "_")):
     assert cases.get(spelling, 2) is cases.SPECS[name]

 def test_unknown_case(self):
  with pytest.raises(ValueError, match="unknown case"):
   cases.get("so-twisted", 2)

 @pytest.mark.parametrize("n", [0, -2])
 def test_n_must_be_positive(self, n):
  for name in CASES:
   with pytest.raises(ValueError, match="n must be positive"):
    cases.get(name, n)

 def test_large_n_accepted(self):
  assert cases.get("pgl-q", 40).m(40) == 40 * 41


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
