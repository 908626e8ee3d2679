"""Exact linear algebra: determinant and compound matrices of square
matrices of ints or Fractions, by Gaussian elimination, and the identity,
transpose and product of matrices over any ring."""

from fractions import Fraction
import functools
import itertools
import operator


def identity(n):
 return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m):
 return [list(col) for col in zip(*m)]


def matmul(a, b):
 """Product of an l x m and an m x n matrix, m >= 1.  Entries are summed
 with + alone, so it needs no zero of the ring."""
 cols = transpose(b)
 return [[functools.reduce(operator.add, map(operator.mul, row, col))
          for col in cols] for row in a]


def det(m):
 n = len(m)
 m = [[Fraction(x) for x in row] for row in m]   # exact on int entries too
 det = Fraction(1)
 for c in range(n):
  piv = next((r for r in range(c, n) if m[r][c]), None)
  if piv is None:
   return Fraction(0)
  if piv != c:
   m[c], m[piv] = m[piv], m[c]
   det = -det
  det *= m[c][c]
  for r in range(c + 1, n):
   f = m[r][c] / m[c][c]
   if f:
    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
 return det


def compound(m, k):
 """The k-th compound of the n x n matrix m, sparse: each strictly
 increasing k-subset r of range(n) maps to the (c, minor) pairs, c in
 increasing order, whose minor det(m[r, c]) is nonzero."""
 subsets = list(itertools.combinations(range(len(m)), k))
 out = {}
 for r in subsets:
  out[r] = []
  for c in subsets:
   minor = det([[m[i][j] for j in c] for i in r])
   if minor:   # an integral minor is stored as an int
    out[r].append((c, minor.numerator if minor.denominator == 1 else minor))
 return out
