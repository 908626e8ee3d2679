"""Exact linear algebra: a matrix of ints or Fractions cleared of its
denominators, the determinant of a square one by fraction-free
elimination, its compound matrices by Laplace expansion over the cleared
integer matrix, the identity, transpose and product of matrices over any
ring, and the echelon of an integer row lattice with its residues."""

from fractions import Fraction
import bisect
import functools
import itertools
import math
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


def cleared(m):
 """(rows, lcm): lcm is the lcm of the denominators of m (ints or
 Fractions) and rows = lcm * m, integral."""
 lcm = math.lcm(*[x.denominator for row in m for x in row])
 return [[x.numerator * (lcm // x.denominator) for x in row]
         for row in m], lcm


def det(m):
 """Determinant of a square matrix of ints or Fractions, an int where it
 is integral: Bareiss's fraction-free elimination (Math. Comp. 22, 1968)
 over Z on the matrix cleared of its denominators.  Each step's entries
 are minors of the cleared matrix, so every division is exact."""
 rows, lcm = cleared(m)
 n, sign, prev = len(rows), 1, 1
 for c in range(n):
  piv = next((r for r in range(c, n) if rows[r][c]), None)
  if piv is None:
   return 0
  if piv != c:
   rows[c], rows[piv] = rows[piv], rows[c]
   sign = -sign
  top, p = rows[c], rows[c][c]
  for row in rows[c + 1:]:
   f = row[c]
   row[c + 1:] = [(p * x - f * y) // prev
                  for x, y in zip(row[c + 1:], top[c + 1:])]
  prev = p
 d, scale = sign * prev, lcm ** n
 return d // scale if d % scale == 0 else Fraction(d, scale)


def compound(m):
 """Every compound of the n x n matrix m, sparse: {r: {c: det(m[r, c])}}
 over the strictly increasing subsets r and c of range(n) of one size,
 nonzero minors only, each an int where it is integral; every r is a key,
 its row empty if all minors vanish.

 Laplace expansion (Aitken, Determinants and Matrices, ch. V) over Z on
 a = lcm * m, m cleared of its denominators: row r of degree k expands
 along a[r[0]], each nonzero entry a[r[0]][j] times each nonzero minor of
 the rows r[1:] on columns c' that avoid j, with the sign (-1)^p of j's
 place p in c = c' + (j,) sorted.  The cost follows the nonzeros; the
 stored minor is the cleared one over lcm^k."""
 n = len(m)
 rows, lcm = cleared(m)
 a = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
 out = {(): {(): 1}}
 prev = {(): {(): 1}}   # the cleared minors of degree k - 1
 for k in range(1, n + 1):
  cur, scale = {}, lcm ** k
  for r in itertools.combinations(range(n), k):
   sub, acc = prev[r[1:]], {}
   for j, x in a[r[0]]:
    for c, d in sub.items():
     p = bisect.bisect_left(c, j)
     if p < len(c) and c[p] == j:
      continue
     key = c[:p] + (j,) + c[p:]
     acc[key] = acc.get(key, 0) + (-x * d if p & 1 else x * d)
   cur[r] = row = {c: d for c, d in acc.items() if d}
   out[r] = row if scale == 1 else \
       {c: d // scale if d % scale == 0 else Fraction(d, scale)
        for c, d in row.items()}
  prev = cur
 return out


def _axpy(acc, f, form):
 """acc += f * form in place over Z, dropping entries that cancel."""
 for k, v in form.items():
  w = acc.get(k, 0) + f * v
  if w:
   acc[k] = w
  else:
   del acc[k]


class Lattice:
 """Z-span of sparse integer rows {column: int}, kept in echelon form
 (Cohen, GTM 138, sec. 2.4): one basis row per pivot column, zero left of
 its positive pivot, each with its integer combination {label: int} of
 the added rows."""

 def __init__(self):
  self.basis = {}  # pivot column -> (row, combination)

 def add(self, row, label):
  """Add a row: reduce it at each pivot in increasing column order, by
  Euclid on the two rows where the pivot does not divide its entry, the
  remainder becoming the pivot; a row left nonzero is a new pivot."""
  v = {k: a for k, a in row.items() if a}
  combo = {label: 1}
  while v:
   c = min(v)
   if c not in self.basis:
    if v[c] < 0:
     v = {k: -a for k, a in v.items()}
     combo = {k: -a for k, a in combo.items()}
    self.basis[c] = (v, combo)
    return
   piv, pcombo = self.basis[c]
   q, r = divmod(v[c], piv[c])
   if q:
    _axpy(v, -q, piv)
    _axpy(combo, -q, pcombo)
   if r:  # 0 < r < pivot: the remainder is the new pivot
    self.basis[c] = (v, combo)
    v, combo = piv, pcombo

 def residue(self, t):
  """(r, combination): r is t floor-reduced at each pivot in increasing
  column order, so 0 <= r[c] < pivot there, and t - r is the combination
  of the added rows.  t is in the lattice exactly when r is empty."""
  r, combo = {k: a for k, a in t.items() if a}, {}
  for c in sorted(self.basis):
   piv, pcombo = self.basis[c]
   q = r.get(c, 0) // piv[c]
   if q:
    _axpy(r, -q, piv)
    _axpy(combo, q, pcombo)
  return r, combo
