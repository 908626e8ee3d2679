"""Exact linear algebra over Q: determinant and inverse of square matrices
of Fractions, both by Gaussian elimination."""

from fractions import Fraction


def det(m):
 n = len(m)
 m = [row[:] for row in m]
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


def inv(m):
 """Inverse by Gauss-Jordan on [m | 1]; ValueError if m is singular."""
 n = len(m)
 a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
      for i, row in enumerate(m)]
 for c in range(n):
  piv = next((r for r in range(c, n) if a[r][c]), None)
  if piv is None:
   raise ValueError("singular matrix")
  a[c], a[piv] = a[piv], a[c]
  scale = Fraction(1) / a[c][c]
  a[c] = [x * scale for x in a[c]]
  for r in range(n):
   if r != c and a[r][c]:
    f = a[r][c]
    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
 return [row[n:] for row in a]
