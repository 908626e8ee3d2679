"""Exterior algebra over Q with a metric, and the free graded module model
for tempered cohomology: wedge/contraction duality, the long-Weyl twisted
Poincare adjointness, freeness and the isometry property.
"""

from fractions import Fraction
import functools
import itertools
import math
import random

from . import linalg


def _square(matrix, n, name):
 """matrix as n x n rows, each entry an int where it is integral and a
 Fraction otherwise; a ValueError naming the expected shape if it is not
 n x n."""
 if len(matrix) != n or any(len(row) != n for row in matrix):
  raise ValueError("%s must be %d x %d" % (name, n, n))
 return [[x.numerator if x.denominator == 1 else x
          for x in map(Fraction, row)] for row in matrix]


def _row(table, idx, dim):
 """Row idx of a compound table over range(dim), whose keys are the
 strictly increasing subsets; a ValueError for any other idx."""
 row = table.get(idx)
 if row is None:
  raise ValueError("index tuple %r is not a strictly increasing subset "
                   "of range(%d)" % (idx, dim))
 return row


class MetricSpaceQ:
 def __init__(self, dim, gram=None):
  if dim < 0:
   raise ValueError("dimension must be nonnegative")
  self.dim = dim
  if gram is None:
   gram = linalg.identity(dim)
  self.gram = _square(gram, dim, "gram matrix")
  if self.gram != linalg.transpose(self.gram):
   raise ValueError("gram matrix must be symmetric")
  # the compound Gram table {r: {c: det(G[r, c])}}: by Cauchy-Binet, the
  # inner product of the basis k-vectors e_r and e_c
  self.rows = linalg.compound(self.gram)
  for k in range(1, dim + 1):
   lead = tuple(range(k))
   if self.rows[lead].get(lead, 0) <= 0:
    raise ValueError("gram matrix must be positive definite")

 def __eq__(self, other):
  return isinstance(other, MetricSpaceQ) and self.dim == other.dim and \
      self.gram == other.gram


class ExteriorElement:
 """Element of the exterior algebra, keyed by strictly increasing tuples;
 the constructor checks every key."""

 def __init__(self, ambient, coeffs=None):
  self.ambient = ambient
  self.coeffs = {}
  if coeffs:
   for idx, c in coeffs.items():
    idx = tuple(idx)
    _row(ambient.rows, idx, ambient.dim)
    c = c.numerator if c.denominator == 1 else Fraction(c)
    if c:
     self.coeffs[idx] = c

 def _same(self, other):
  if self.ambient is not other.ambient and self.ambient != other.ambient:
   raise ValueError("ambient space mismatch")


def _element(ambient, coeffs):
 """The element with these coefficients, on keys that are valid by
 construction (merged, cut from a checked key or read off a compound
 table): the coefficients are normalized, int where integral, and the
 zeros dropped, but the keys are not checked."""
 el = ExteriorElement.__new__(ExteriorElement)
 el.ambient = ambient
 el.coeffs = {k: c.numerator if c.denominator == 1 else c
              for k, c in coeffs.items() if c}
 return el


@functools.cache
def _merge(a, b):
 """Concatenate index tuples, return (sign, sorted tuple) or None."""
 if set(a) & set(b):
  return None
 out = a + b
 sign = 1
 # count inversions of the concatenation
 for i, x in enumerate(out):
  for y in out[i + 1:]:
   if x > y:
    sign = -sign
 return sign, tuple(sorted(out))


def wedge(a, b):
 a._same(b)
 out = {}
 for ka, ca in a.coeffs.items():
  for kb, cb in b.coeffs.items():
   m = _merge(ka, kb)
   if m:
    s, key = m
    out[key] = out.get(key, 0) + s * ca * cb
 return _element(a.ambient, out)


def contract(x, b):
 """Contraction by a degree-1 functional; a degree -1 derivation."""
 x._same(b)
 for k in x.coeffs:
  if len(k) != 1:
   raise ValueError("contraction needs a degree-1 functional")
 out = {}
 for kb, cb in b.coeffs.items():
  for pos, i in enumerate(kb):
   c = x.coeffs.get((i,))
   if c:
    key = kb[:pos] + kb[pos + 1:]
    out[key] = out.get(key, 0) + ((-1) ** pos) * c * cb
 return _element(b.ambient, out)


def eval_pairing(a, b):
 """Evaluation pairing between dual and primal elements of equal degree."""
 a._same(b)
 return sum(c * b.coeffs.get(k, 0) for k, c in a.coeffs.items())


def induced_inner(a, b):
 """Inner product on the exterior algebra induced by the gram matrix, the
 Gram minors read from the ambient space's compound table
 (Cauchy-Binet)."""
 a._same(b)
 rows, bc = a.ambient.rows, b.coeffs
 total = 0
 for ka, ca in a.coeffs.items():
  for kb, minor in _row(rows, ka, a.ambient.dim).items():
   cb = bc.get(kb)
   if cb:
    total += ca * cb * minor
 return total


def _rand_elem(ambient, degree, rng):
 """Coefficients n/d, n in [-8, 7] and d in [1, 4], times the lcm of the d:
 every checked identity is homogeneous, so the verdicts are those of n/d.
 Per basis index in combinations order, x = rng.getrandbits(6) gives
 n = (x & 15) - 8 and d = (x >> 4) + 1.  A zero n is dropped, its d still
 in the lcm, and the element is built in one pass."""
 bits = rng.getrandbits
 draws, dens = [], []
 for key in itertools.combinations(range(ambient.dim), degree):
  x = bits(6)
  d = (x >> 4) + 1
  dens.append(d)
  if x & 15 != 8:
   draws.append((key, (x & 15) - 8, d))
 lcm = math.lcm(*dens)
 el = ExteriorElement.__new__(ExteriorElement)
 el.ambient = ambient
 el.coeffs = {key: n * (lcm // d) for key, n, d in draws}
 return el


def adjointness_check(space, trials, seed=20260823):
 """<X ^ A, B> = <A, X -| B> for the evaluation pairing; exhaustive over
 basis triples, then seeded random trials, A of degree rng.randrange(dim).
 At dim 0 there is no degree-1 functional and the identity is vacuous."""
 d = space.dim
 if not d:
  return True
 for da in range(d):
  for i in range(d):
   X = ExteriorElement(space, {(i,): 1})
   for A in itertools.combinations(range(d), da):
    Ae = ExteriorElement(space, {A: 1})
    for B in itertools.combinations(range(d), da + 1):
     Be = ExteriorElement(space, {B: 1})
     if eval_pairing(wedge(X, Ae), Be) != eval_pairing(Ae, contract(X, Be)):
      return False
 rng = random.Random(seed)
 for _ in range(trials):
  da = rng.randrange(d)
  X = _rand_elem(space, 1, rng)
  A = _rand_elem(space, da, rng)
  B = _rand_elem(space, da + 1, rng)
  if eval_pairing(wedge(X, A), B) != eval_pairing(A, contract(X, B)):
   return False
 return True


def model_dims(delta, q, k):
 """(degree, dimension) of each graded piece; validates delta, q and k."""
 if delta < 0:
  raise ValueError("delta must be nonnegative")
 if q < 0:
  raise ValueError("q must be nonnegative")
 if k < 1:
  raise ValueError("k must be positive")
 return [(q + i, k * math.comb(delta, i)) for i in range(delta + 1)]


class TemperedCohomologyModel:
 """Free graded module over the exterior algebra with k generators in
 degree q and a long-Weyl involution w on the degree-1 part."""

 def __init__(self, delta, q, k, long_weyl=None, gen_matrix=None,
              gram=None):
  self.dims = model_dims(delta, q, k)
  self.delta = delta
  self.q = q
  self.k = k
  self.space = MetricSpaceQ(delta, gram)
  if long_weyl is None:
   long_weyl = linalg.identity(delta)
  self.w = _square(long_weyl, delta, "long Weyl involution")
  if linalg.matmul(self.w, self.w) != linalg.identity(delta):
   raise ValueError("long Weyl involution must square to the identity")
  # row s of the compound table of w^T is the image of e_s under the
  # multiplicative extension of w: the sum of det(w[t, s]) e_t
  self.w_rows = linalg.compound(linalg.transpose(self.w))
  if gen_matrix is None:
   gen_matrix = linalg.identity(k)
  self.gen_matrix = _square(gen_matrix, k, "generator matrix")
  # the compound Gram table on the module's keys (g, s), the generators
  # orthonormal: row (g, s) holds each ((g, t), det(G[s, t]))
  self.rows = {(g, s): [((g, t), minor) for t, minor in row.items()]
               for g in range(k) for s, row in self.space.rows.items()}
  # the complement t of each index tuple s and the sign that sorts s + t:
  # e_s ^ e_t = sign e_top
  self.complement = {}
  for s in self.space.rows:
   t = tuple(i for i in range(delta) if i not in s)
   self.complement[s] = (t, _merge(s, t)[0])

 # module elements: dict (gen index, subset tuple) -> int or Fraction
 def basis_elems(self, degree):
  i = degree - self.q
  if i < 0 or i > self.delta:
   return []
  return [(g, s) for g in range(self.k)
          for s in itertools.combinations(range(self.delta), i)]

 def generator(self, g):
  """Image of abstract generator g under the generator matrix."""
  return {(i, ()): self.gen_matrix[i][g] for i in range(self.k)
          if self.gen_matrix[i][g]}

 def _reject(self, key):
  """Raise the ValueError for a module key (g, s) that is no key of
  self.rows: s is no index tuple of the space, or g is not in range(k)."""
  g, s = key
  _row(self.space.rows, s, self.delta)
  raise ValueError("generator index %r is not in range(%d)" % (g, self.k))

 def _check(self, f):
  for key in f:
   if key not in self.rows:
    self._reject(key)

 def act(self, f, x):
  """Right action of an exterior element on a module element."""
  if x.ambient is not self.space and x.ambient != self.space:
   raise ValueError("ambient space mismatch")
  rows = self.rows
  out = {}
  for key, c in f.items():
   if key not in rows:
    self._reject(key)
   g, s = key
   if not s:   # degree 0: e_() ^ e_kx = e_kx, no merge to look up
    for kx, cx in x.coeffs.items():
     key = (g, kx)
     out[key] = out.get(key, 0) + c * cx
    continue
   for kx, cx in x.coeffs.items():
    m = _merge(s, kx)
    if m:
     key = (g, m[1])
     out[key] = out.get(key, 0) + m[0] * c * cx
  return {k: v for k, v in out.items() if v}

 def apply_w(self, x):
  """Extend the long-Weyl map multiplicatively to the exterior algebra."""
  if x.ambient is not self.space and x.ambient != self.space:
   raise ValueError("ambient space mismatch")
  out = {}
  for s, c in x.coeffs.items():
   for t, minor in _row(self.w_rows, s, self.delta).items():
    out[t] = out.get(t, 0) + c * minor
  return _element(self.space, out)

 def pairing(self, f1, f2):
  """Top-degree pairing with the w twist folded into the second slot.  The
  e_top coefficient of e_s1 ^ w(e_s2) is one minor: det(w[t, s2]) for the
  complement t of s1, times the sign that sorts s1 + t.  Both are read
  from self.complement, built once at construction; both slots are still
  checked on every call."""
  self._check(f1)
  self._check(f2)
  complement, w_rows = self.complement, self.w_rows
  total = 0
  for (g1, s1), c1 in f1.items():
   t, sign = complement[s1]
   for (g2, s2), c2 in f2.items():
    if g1 == g2:
     total += sign * c1 * c2 * w_rows[s2].get(t, 0)
  return total

 def module_inner(self, f1, f2):
  """Metric with orthonormal generators and the induced exterior metric,
  read from self.rows, the compound Gram table on module keys
  (Cauchy-Binet)."""
  rows = self.rows
  if f2 is not f1:
   self._check(f2)
  total = 0
  for key, c1 in f1.items():
   row = rows.get(key)
   if row is None:
    self._reject(key)
   for key2, minor in row:
    c2 = f2.get(key2)
    if c2:
     total += c1 * c2 * minor
  return total


def freeness_check(model):
 """Wedge from degree-q generators tensor degree-i exterior basis must hit
 a basis of each graded piece."""
 for i in range(model.delta + 1):
  cols = []
  target = model.basis_elems(model.q + i)
  index = {b: t for t, b in enumerate(target)}
  for g in range(model.k):
   gen = model.generator(g)
   for s in itertools.combinations(range(model.delta), i):
    img = model.act(gen, ExteriorElement(model.space, {s: 1}))
    col = [0] * len(target)
    for key, c in img.items():
     col[index[key]] = c
    cols.append(col)
  if linalg.det(cols) == 0:   # the images as rows: the same determinant
   return False
 return True


def poincare_adjoint_check(model):
 """<f1 . X, f2> = (-1)^(deg f2 - q) <f1, (wX) . f2> over all basis
 triples; the sign is the exact one in our conventions.

 Each value is built once, at the loop level of the indices it depends
 on: X = e_r and w(X) once per r, f1 . X once per (g, s1, r) and
 (wX) . f2 once per (g, s2, r) for each degree of f1.  Every basis triple
 still takes its two pairing calls and the signed comparison."""
 d = model.delta
 act, pairing = model.act, model.pairing
 xs = [ExteriorElement(model.space, {(r,): 1}) for r in range(d)]
 wxs = [model.apply_w(X) for X in xs]
 for d1 in range(d):
  d2 = d - 1 - d1
  sign = (-1) ** d2
  for g in range(model.k):
   rights = []   # (f2, [(wX) . f2 for each r]) for each s2
   for s2 in itertools.combinations(range(d), d2):
    f2 = {(g, s2): 1}
    rights.append((f2, [act(f2, wX) for wX in wxs]))
   for s1 in itertools.combinations(range(d), d1):
    f1 = {(g, s1): 1}
    for r, X in enumerate(xs):
     left = act(f1, X)
     for f2, right in rights:
      if pairing(left, f2) != sign * pairing(f1, right[r]):
       return False
 return True


def _cauchy_binet_witness(space, rng):
 """<v1^...^vk, w1^...^wk> = det[<vi, wj>] for random vectors and every
 k = 1..dim, with <vi, wj> read from the raw Gram matrix.  The two sides
 take independent routes: the left reads the compound Gram table, built
 by Laplace expansion, and the right is one Bareiss elimination of the
 k x k matrix of inner products."""
 g = space.gram
 for k in range(1, space.dim + 1):
  vs = [_rand_elem(space, 1, rng) for _ in range(k)]
  ws = [_rand_elem(space, 1, rng) for _ in range(k)]
  inner = [[sum(v.coeffs.get((a,), 0) * g[a][b] * w.coeffs.get((b,), 0)
                for a in range(space.dim) for b in range(space.dim))
            for w in ws] for v in vs]
  if induced_inner(functools.reduce(wedge, vs),
                   functools.reduce(wedge, ws)) != linalg.det(inner):
   return False
 return True


def isometry_check(model, trials, seed=20260823):
 """Multiplication from the generator degree scales norms exactly:
 |omega.nu|^2 / |omega|^2 = |nu|^2 for omega spanned by the generators.

 Both sides of that identity read the same induced metric, so the metric
 is first checked on its own against Cauchy-Binet, with witness vectors
 drawn from a separate generator.

 The nus are the basis elements and trials _rand_elem draws of degree
 rng.randrange(delta + 1).  Each nonzero nu takes three omegas, each with
 one coefficient rng.getrandbits(3) - 4 per generator, zeros dropped."""
 if not _cauchy_binet_witness(model.space, random.Random(seed + 1)):
  return False
 rng = random.Random(seed)
 cases = [ExteriorElement(model.space, {s: 1})
          for i in range(model.delta + 1)
          for s in itertools.combinations(range(model.delta), i)]
 for _ in range(trials):
  cases.append(_rand_elem(model.space, rng.randrange(model.delta + 1), rng))
 act, inner, bits = model.act, model.module_inner, rng.getrandbits
 gens = [(g, ()) for g in range(model.k)]
 for nu in cases:
  if not nu.coeffs:
   continue
  n_nu = induced_inner(nu, nu)
  for _ in range(3):
   om = {}
   for key in gens:
    c = bits(3) - 4
    if c:
     om[key] = c
   if not om:
    continue
   prod = act(om, nu)
   if inner(prod, prod) != inner(om, om) * n_nu:
    return False
 return True
