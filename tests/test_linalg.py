"""The exact linear-algebra kernel: determinant against the permutation
expansion, inverse against the identity, and the singular case."""

from fractions import Fraction
import random

import pytest

from artifact import linalg
from test_exteralg import _leibniz_det


def _random_matrix(rng, n):
 return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]


def _identity(n):
 return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _matmul(a, b):
 return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
          for j in range(len(b[0]))] for i in range(len(a))]


class TestDet:
 def test_matches_leibniz(self):
  rng = random.Random(41)
  for n in range(6):
   for _ in range(10):
    m = _random_matrix(rng, n)
    assert linalg.det(m) == _leibniz_det(m)

 def test_singular_is_zero_and_input_kept(self):
  m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
  assert linalg.det(m) == 0
  assert m == [[1, 2], [2, 4]]


class TestInv:
 def test_inverse(self):
  rng = random.Random(43)
  for n in range(1, 6):
   for _ in range(10):
    m = _random_matrix(rng, n)
    if linalg.det(m) == 0:
     continue
    minv = linalg.inv(m)
    assert _matmul(m, minv) == _identity(n)
    assert _matmul(minv, m) == _identity(n)

 def test_integer_input_stays_exact(self):
  minv = linalg.inv([[2, 1], [1, 1]])
  assert minv == [[1, -1], [-1, 2]]
  assert all(type(x) is Fraction for row in minv for x in row)

 @pytest.mark.parametrize("m", [[[0]], [[1, 2], [2, 4]],
                                [[1, 0, 0], [0, 0, 1], [0, 0, 2]]])
 def test_singular_raises_value_error(self, m):
  with pytest.raises(ValueError, match="singular matrix"):
   linalg.inv([[Fraction(x) for x in row] for row in m])
