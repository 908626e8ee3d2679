"""The exact linear-algebra kernel: determinant against the permutation
expansion, the singular case, compound matrices against minors taken by
the permutation expansion, products over Q and Q(sqrt b) against explicit
loops, and that no other module keeps its own copy of these.  Also the
references' Gauss-Jordan inverse against the identity."""

import ast
from fractions import Fraction
import itertools
import os
import random

import pytest

import artifact
from artifact import linalg
from reference_kernels import FieldQSqrt, inv
from test_exteralg import _leibniz_det

SRC = os.path.dirname(artifact.__file__)


def _random_matrix(rng, n):
 return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]


def _loop_product(a, b, zero):
 out = []
 for i in range(len(a)):
  row = []
  for j in range(len(b[0])):
   acc = zero
   for k in range(len(b)):
    acc = acc + a[i][k] * b[k][j]
   row.append(acc)
  out.append(row)
 return out


def _identity(n):
 return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _random_entry(rng, kind):
 """An int, a Fraction, or either at random ("mixed")."""
 if kind == "mixed":
  kind = rng.choice(("int", "fraction"))
 if kind == "int":
  return rng.randint(-4, 4)
 return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


class TestDet:
 @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
 def test_matches_leibniz(self, kind):
  rng = random.Random(41)
  for n in range(7):
   for _ in range(10):
    m = [[_random_entry(rng, kind) for _ in range(n)] for _ in range(n)]
    d = linalg.det(m)
    assert d == _leibniz_det(m), m
    assert type(d) is (int if d.denominator == 1 else Fraction)

 def test_empty_matrix(self):
  assert linalg.det([]) == 1 and type(linalg.det([])) is int

 @pytest.mark.parametrize("m", [
     [[0, 2, 1], [3, 0, 1], [1, 1, 0]],
     [[0, 0, 1], [0, 2, 0], [3, 0, 0]],
     # the second pivot vanishes after the first step: the swap and the
     # exact division by the first pivot after it
     [[2, 4, 6, 1], [1, 2, 5, 3], [3, 7, 1, 2], [1, 1, 1, 1]],
     [[Fraction(1, 2), 1, 3], [1, 2, Fraction(5, 3)], [2, 1, 1]]])
 def test_zero_pivot_swaps_rows(self, m):
  assert linalg.det(m) == _leibniz_det(m) != 0

 def test_row_skip_on_sparse_matrices(self):
  # det on sparse matrices, with many zeros in the pivot columns: rows that
  # a step must still scale by the pivot, as in the "scaled pivot"
  # matrices, whose first pivot |p| > 1 has zeros under it
  hyp = pytest.importorskip("hypothesis")
  st = hyp.strategies

  @st.composite
  def matrices(draw):
   n = draw(st.integers(1, 6))
   entry = draw(st.sampled_from((st.integers(-4, 4),
                                 st.fractions(-4, 4, max_denominator=5))))
   kind = draw(st.sampled_from(("sparse", "signed permutation",
                                "block diagonal", "scaled pivot")))
   if kind == "signed permutation":
    one = draw(st.sampled_from((1, Fraction(1))))
    perm = draw(st.permutations(range(n)))
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
     m[i][j] = draw(st.sampled_from((one, -one)))
    return m
   if kind == "block diagonal":
    cut = draw(st.integers(0, n))
    return [[draw(entry) if (i < cut) == (j < cut) else 0
             for j in range(n)] for i in range(n)]
   m = [[draw(entry) if draw(st.integers(0, 2)) == 0 else 0
         for _ in range(n)] for _ in range(n)]
   if kind == "scaled pivot":
    m[0][0] = draw(st.sampled_from((-1, 1))) * draw(st.integers(2, 9))
    for row in m[1:]:
     row[0] = 0
   return m

  @hyp.settings(max_examples=150, deadline=None, derandomize=True)
  @hyp.given(matrices())
  @hyp.example([[2, 0], [0, 3]])
  @hyp.example([[-3, 1, 0], [0, 2, 0], [0, 0, 5]])
  @hyp.example([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
  @hyp.example([[Fraction(2, 3), 0, 1], [0, 1, 0], [0, 0, Fraction(1, 2)]])
  def check(m):
   d = linalg.det(m)
   assert d == _leibniz_det(m)
   assert type(d) is (int if d.denominator == 1 else Fraction)

  check()

 def test_singular_is_zero_and_input_kept(self):
  for m in ([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
            [[1, 2, 3], [2, 4, 6], [0, 1, 1]]):
   kept = [row[:] for row in m]
   assert linalg.det(m) == 0
   assert m == kept

 def test_integer_input_stays_exact(self):
  for m in ([[2, 1], [1, 3]], [[1, 1, 1], [1, 2, 4], [1, 3, 9]],
            [[Fraction(1, 2), 1], [1, 4]]):
   d = linalg.det(m)
   assert type(d) is int and d == _leibniz_det(m)
  d = linalg.det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
  assert type(d) is Fraction and d == Fraction(1, 3)


def test_cleared_scales_by_the_lcm_of_the_denominators():
 m = [[Fraction(1, 2), 3, 0], [Fraction(-2, 3), Fraction(4), 1]]
 rows, lcm = linalg.cleared(m)
 assert (rows, lcm) == ([[3, 18, 0], [-4, 24, 6]], 6)
 assert all(type(x) is int for row in rows for x in row)
 assert linalg.cleared([[2, -1], [0, 5]]) == ([[2, -1], [0, 5]], 1)
 assert linalg.cleared([]) == ([], 1)


class TestInv:
 def test_inverse(self):
  rng = random.Random(43)
  for n in range(1, 6):
   for _ in range(10):
    m = _random_matrix(rng, n)
    if linalg.det(m) == 0:
     continue
    minv = inv(m)
    assert _loop_product(m, minv, Fraction(0)) == _identity(n)
    assert _loop_product(minv, m, Fraction(0)) == _identity(n)

 def test_integer_input_stays_exact(self):
  minv = inv([[2, 1], [1, 1]])
  assert minv == [[1, -1], [-1, 2]]
  assert all(type(x) is Fraction for row in minv for x in row)

 @pytest.mark.parametrize("m", [[[0]], [[1, 2], [2, 4]],
                                [[1, 0, 0], [0, 0, 1], [0, 0, 2]]])
 def test_singular_raises_value_error(self, m):
  with pytest.raises(ValueError, match="singular matrix"):
   inv([[Fraction(x) for x in row] for row in m])


class TestCompound:
 def test_minors_match_leibniz(self):
  rng = random.Random(47)
  for n in range(5):
   for _ in range(5):
    m = _random_matrix(rng, n)
    want = {}
    for k in range(n + 1):
     subsets = list(itertools.combinations(range(n), k))
     for r in subsets:
      minors = {c: _leibniz_det([[m[i][j] for j in c] for i in r])
                for c in subsets}
      want[r] = {c: x for c, x in minors.items() if x}
    assert linalg.compound(m) == want, m

 def test_degree_zero_and_transpose(self):
  m = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
  assert linalg.compound(m) == {(): {(): 1},
                                (0,): {(0,): 1, (1,): 2}, (1,): {(1,): 3},
                                (0, 1): {(0, 1): 3}}
  assert linalg.compound(linalg.transpose(m)) == \
      {(): {(): 1}, (0,): {(0,): 1}, (1,): {(0,): 2, (1,): 3},
       (0, 1): {(0, 1): 3}}
  assert linalg.compound([]) == {(): {(): 1}}

 def test_every_subset_is_a_key(self):
  # a row whose minors all vanish is kept, empty
  assert linalg.compound([[1, 0], [0, 0]]) == \
      {(): {(): 1}, (0,): {(0,): 1}, (1,): {}, (0, 1): {}}

 def test_integral_minors_are_int(self):
  m = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
  for table in (linalg.compound(m),
                linalg.compound([[Fraction(x) for x in row] for row in m])):
   assert len(table) == 8
   for r, row in table.items():
    for c, minor in row.items():
     assert type(minor) is int
     assert minor == _leibniz_det([[m[i][j] for j in c] for i in r])
  half = [[Fraction(x, 2) for x in row] for row in m]
  assert linalg.compound(half)[(0, 1, 2)] == {(0, 1, 2): Fraction(9, 4)}
  assert type(linalg.compound(half)[(0,)][(0,)]) is int


def _minorwise_compound(m):
 """The compound table with one determinant per minor: an independent
 route to every entry of linalg.compound."""
 n, out = len(m), {}
 for k in range(n + 1):
  subsets = list(itertools.combinations(range(n), k))
  for r in subsets:
   out[r] = {c: d for c in subsets
             if (d := linalg.det([[m[i][j] for j in c] for i in r]))}
 return out


class TestLaplaceCompound:
 """compound expands each minor along its first row over the table of one
 degree lower; every entry is checked against an elimination of its own,
 and the whole table against Cauchy-Binet."""

 def test_matches_minorwise_det(self):
  hyp = pytest.importorskip("hypothesis")
  st = hyp.strategies

  @st.composite
  def matrices(draw):
   n = draw(st.integers(0, 7))
   kind = draw(st.sampled_from(("int", "fraction", "singular", "banded")))
   entry = st.fractions(-4, 4, max_denominator=5) if kind == "fraction" \
       else st.integers(-4, 4)
   m = [[draw(entry) for _ in range(n)] for _ in range(n)]
   if kind == "singular" and n:
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    f = draw(st.integers(-2, 2))
    m[i] = [f * x for x in m[j]] if i != j else [0] * n
   elif kind == "banded":
    width = draw(st.integers(0, 2))
    m = [[x if abs(i - j) <= width else 0 for j, x in enumerate(row)]
         for i, row in enumerate(m)]
   return m

  @hyp.settings(max_examples=80, deadline=None, derandomize=True)
  @hyp.given(matrices())
  def check(m):
   table = linalg.compound(m)
   assert table == _minorwise_compound(m)
   for row in table.values():
    for minor in row.values():
     assert type(minor) is (int if minor.denominator == 1 else Fraction)

  check()

 def test_cauchy_binet_multiplicative(self):
  # C_k(AB) = C_k(A) C_k(B) for every k, at d = 8
  rng = random.Random(61)
  n = 8
  for _ in range(2):
   a, b = ([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
           for _ in range(2))
   ca, cb = linalg.compound(a), linalg.compound(b)
   product = {}
   for r, row in ca.items():
    acc = {}
    for t, x in row.items():
     for c, y in cb[t].items():
      acc[c] = acc.get(c, 0) + x * y
    product[r] = {c: v for c, v in acc.items() if v}
   assert linalg.compound(linalg.matmul(a, b)) == product
   assert len(product) == 2 ** n

 def test_identity_is_the_diagonal_table(self):
  table = linalg.compound(linalg.identity(10))
  assert len(table) == 1024
  assert table == {r: {r: 1} for r in table}
  assert all(type(row[r]) is int for r, row in table.items())

 def test_does_not_call_det(self, monkeypatch):
  m = [[2, 1, 0], [1, 3, 1], [Fraction(1, 2), 1, 4]]
  want = _minorwise_compound(m)
  def no_det(m):
   raise AssertionError("compound called det")
  monkeypatch.setattr(linalg, "det", no_det)
  assert linalg.compound(m) == want


class TestProduct:
 def test_identity_and_transpose(self):
  assert linalg.identity(0) == []
  assert linalg.identity(2) == [[1, 0], [0, 1]]
  assert all(type(x) is Fraction for row in linalg.identity(3) for x in row)
  m = [[1, 2, 3], [4, 5, 6]]
  assert linalg.transpose(m) == [[1, 4], [2, 5], [3, 6]]
  assert linalg.transpose(linalg.transpose(m)) == m
  assert linalg.transpose([]) == []

 def test_non_square_shapes(self):
  rng = random.Random(53)
  for rows, inner, cols in ((1, 3, 1), (2, 3, 4), (4, 1, 2), (3, 3, 3)):
   a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
         for _ in range(inner)] for _ in range(rows)]
   b = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
         for _ in range(cols)] for _ in range(inner)]
   assert linalg.matmul(a, b) == _loop_product(a, b, Fraction(0))
   assert linalg.matmul(linalg.identity(rows), a) == a

 def test_quadratic_field_entries(self):
  rng = random.Random(59)
  def q():
   return FieldQSqrt(3, Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                     Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
  for rows, inner, cols in ((3, 3, 3), (2, 3, 1), (1, 2, 3)):
   a = [[q() for _ in range(inner)] for _ in range(rows)]
   b = [[q() for _ in range(cols)] for _ in range(inner)]
   got = linalg.matmul(a, b)
   assert got == _loop_product(a, b, FieldQSqrt(3))
   assert all(type(x) is FieldQSqrt and x.b == 3 for row in got for x in row)


# linalg.Lattice is the one integer echelon: no module keeps a second
HAND_ROLLED = ("_matmul", "_transpose", "_block_diag", "_hnf", "_residue",
               "_scale_sub", "_cleared")


def hand_rolled_kernels(source):
 """Lines that define a private matrix product, transpose, block diagonal,
 integer echelon, residue, row subtraction or denominator clearing, or
 build an identity entry as int(i == j) with i, j names."""
 hits = set()
 for node in ast.walk(ast.parse(source)):
  if isinstance(node, ast.FunctionDef) and node.name in HAND_ROLLED:
   hits.add(node.lineno)
  elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
     node.func.id == "int" and len(node.args) == 1:
   arg = node.args[0]
   if isinstance(arg, ast.Compare) and len(arg.ops) == 1 and \
      isinstance(arg.ops[0], ast.Eq) and isinstance(arg.left, ast.Name) \
      and isinstance(arg.comparators[0], ast.Name):
    hits.add(node.lineno)
 return sorted(hits)


class TestOneKernel:
 def test_detector_sees_copies(self):
  src = ('ident = [[Fraction(int(i == j)) for j in range(3)]\n'
         '         for i in range(3)]\n'
         'def _matmul(a, b):\n pass\n'
         'def _transpose(m):\n pass\n'
         'def _block_diag(m):\n pass\n'
         'x = QSqrt(b, int(r == c))\n'
         'def _hnf(rows, n):\n pass\n'
         'def _residue(t, basis):\n pass\n'
         'def _scale_sub(acc, f, form):\n pass\n'
         'def _cleared(m):\n pass\n')
  assert hand_rolled_kernels(src) == [1, 3, 5, 7, 9, 10, 12, 14, 16]
  assert hand_rolled_kernels('sign = int(kind == "C")\n'
                             'def matmul(a, b):\n pass\n') == []

 def test_no_copy_outside_linalg(self):
  found = {}
  for fname in sorted(os.listdir(SRC)):
   if fname.endswith(".py"):
    with open(os.path.join(SRC, fname)) as fh:
     hits = hand_rolled_kernels(fh.read())
    if hits:
     found[fname] = hits
  # the detector sees the kernel's own identity, and nothing else
  assert list(found) == ["linalg.py"], found
