"""Exterior algebra over Q with a metric, and the free graded module model
for tempered cohomology: wedge/contraction duality, the long-Weyl twisted
Poincare adjointness, freeness and the isometry property.  Freeness is a
rank test over Z: the products of the generators with the exterior basis
are the sparse integer rows of one linalg.Lattice, and the module is free
exactly when its rank is their number.
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
  if self.ambient is not other.ambient:
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

 def _check(self, f):
  """Raise the ValueError for the first key (g, s) of f that is no key of
  self.rows: s is no index tuple of the space, or g is not in range(k)."""
  for key in f:
   if key not in self.rows:
    g, s = key
    _row(self.space.rows, s, self.delta)
    raise ValueError("generator index %r is not in range(%d)" % (g, self.k))

 def act(self, f, x):
  """Right action of an exterior element on a module element."""
  if x.ambient is not self.space:
   raise ValueError("ambient space mismatch")
  rows = self.rows
  out = {}
  for key, c in f.items():
   if key not in rows:
    self._check(f)
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
  if x.ambient is not self.space:
   raise ValueError("ambient space mismatch")
  out = {}
  for s, c in x.coeffs.items():
   for t, minor in _row(self.w_rows, s, self.delta).items():
    out[t] = out.get(t, 0) + c * minor
  return _element(self.space, out)

 def pairing_against(self, f):
  """The top-degree pairing with the w twist folded into the second slot,
  as a functional of the first: {(g, u): <e_(g,u), f>}, nonzero values
  only.  The e_top coefficient of e_u ^ w(e_v) is one minor: det(w[t, v])
  for the complement t of u, times the sign that sorts u + t.  So each
  entry of row v of self.w_rows pairs e_(g,v) with e_(g,u) for the
  complement u of its key t; u and its sign are read from
  self.complement.  f is checked once."""
  self._check(f)
  complement, w_rows = self.complement, self.w_rows
  out = {}
  for (g, v), c in f.items():
   for t, minor in w_rows[v].items():
    u = complement[t][0]
    key = (g, u)
    out[key] = out.get(key, 0) + complement[u][1] * c * minor
  return {k: x for k, x in out.items() if x}

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
    self._check(f1)
   for key2, minor in row:
    c2 = f2.get(key2)
    if c2:
     total += c1 * c2 * minor
  return total


def freeness_check(model):
 """The module is free on its generators: the products gen_g . e_s, gen_g
 the image of generator g under the generator matrix, form a basis of
 every graded piece.

 A rank test over Z (Cohen, GTM 138, sec. 2.4).  The generator matrix is
 cleared of its denominators once, so each product is a sparse integer
 row over the module keys (g, t), with at most k nonzeros, all scaled by
 one nonzero integer.  They go into one linalg.Lattice: products of
 different degrees occupy disjoint columns, and rank over Z is rank over
 Q, so the module is free exactly when the lattice ends with one basis
 row per added row.  A product with a key outside the graded piece of its
 degree fails the check."""
 cols, _ = linalg.cleared(linalg.transpose(model.gen_matrix))
 gens = [{(i, ()): a for i, a in enumerate(col) if a} for col in cols]
 rows, lattice = model.rows, linalg.Lattice()
 for g, s in rows:
  img = model.act(gens[g], ExteriorElement(model.space, {s: 1}))
  if any(key not in rows or len(key[1]) != len(s) for key in img):
   return False
  lattice.add(img, (g, s))
 return len(lattice.basis) == len(rows)


def poincare_adjoint_check(model):
 """<f1 . X, f2> = (-1)^(deg f2 - q) <f1, (wX) . f2> over all basis
 triples; the sign is the exact one in our conventions.

 The pairing is read through pairing_against, once per module key.  For
 each degree d1 of f1, generator g and X = e_r, the two sides are sparse
 dicts over the basis pairs (s1, s2), nonzero values only, so they are
 equal exactly when every triple agrees.  The left side pairs each key of
 e_(g,s1) . X against the functional of e_(g,s2); the right side reads
 the functional of each key of (wX) . e_(g,s2) at (g, s1).  The cost
 follows the nonzeros of the actions and the functionals, not the
 triples."""
 d = model.delta
 act = model.act
 xs = [ExteriorElement(model.space, {(r,): 1}) for r in range(d)]
 wxs = [model.apply_w(X) for X in xs]
 pair = {key: model.pairing_against({key: 1}) for key in model.rows}
 for d1 in range(d):
  sign = (-1) ** (d - 1 - d1)
  s1s = list(itertools.combinations(range(d), d1))
  s2s = list(itertools.combinations(range(d), d - 1 - d1))
  for g in range(model.k):
   for X, wX in zip(xs, wxs):
    image = {}   # (g, u) -> [(s1, c)] for each c e_(g,u) in e_(g,s1) . X
    for s1 in s1s:
     for key, c in act({(g, s1): 1}, X).items():
      image.setdefault(key, []).append((s1, c))
    left = {}
    for s2 in s2s:
     for key, p in pair[(g, s2)].items():
      for s1, c in image.get(key, ()):
       left[s1, s2] = left.get((s1, s2), 0) + c * p
    right = {}
    for s2 in s2s:
     for key, c in act({(g, s2): 1}, wX).items():
      for (_, s1), p in pair[key].items():
       right[s1, s2] = right.get((s1, s2), 0) + sign * c * p
    if {k: v for k, v in left.items() if v} != \
        {k: v for k, v in right.items() if v}:
     return False
 return True


def _cauchy_binet_witness(space, rng):
 """<v1^...^vk, w1^...^wk> = det[<vi, wj>] for k = 1..dim, over dim random
 vectors per side, the wedges their running prefixes, with <vi, wj> read
 from the raw Gram matrix.  The two sides take independent routes: the
 left reads the compound Gram table, built by Laplace expansion, and the
 right is one Bareiss elimination of the leading k x k block of the
 matrix of inner products."""
 g, dim = space.gram, space.dim
 vs = [_rand_elem(space, 1, rng) for _ in range(dim)]
 ws = [_rand_elem(space, 1, rng) for _ in range(dim)]
 inner = [[sum(v.coeffs.get((a,), 0) * g[a][b] * w.coeffs.get((b,), 0)
               for a in range(dim) for b in range(dim))
           for w in ws] for v in vs]
 prefixes = zip(itertools.accumulate(vs, wedge),
                itertools.accumulate(ws, wedge))
 for k, (v, w) in enumerate(prefixes, 1):
  if induced_inner(v, w) != linalg.det([row[:k] for row in inner[:k]]):
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
 cases = [ExteriorElement(model.space, {s: 1}) for s in model.space.rows]
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
