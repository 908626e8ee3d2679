"""Root-system and real-form bookkeeping for the group families we support.

One table, the degrees of the basic invariants, gives the invariants
(dimensions, ranks, the defect delta, minimal tempered degree q, the
compact volume) and the discriminant's Gamma-factors.  The case groups
(G, H) are read off the factor motives' dual groups.  Also the relative
Weyl indices with their chamber-count cross-check, and the duality constant
of the trace form, all in exact arithmetic.
"""

from fractions import Fraction
import math
import re

from . import linalg


class UnsupportedGroup(ValueError):
 pass


class GroupDescriptor:
 """A real reductive group from the supported families, or a product."""

 def __init__(self, family=None, n=None, base="Real", signature=None,
              product=None):
  if product is not None:
   if not product:
    raise UnsupportedGroup("unsupported group: empty product")
   self.product = list(product)
   self.family = None
   return
  self.product = None
  self.family = family
  self.n = n
  self.base = base
  self.signature = signature  # (p, q) for split orthogonal real forms
  if family not in ("PGL", "SL", "GL", "SO"):
   raise UnsupportedGroup("unsupported group: %r" % (family,))
  if base not in ("Real", "ComplexAsReal"):
   raise UnsupportedGroup("unsupported group: base %r" % (base,))
  if family == "SO" and base == "Real" and signature is None:
   raise UnsupportedGroup("unsupported group: real SO needs a signature")
  if (n is not None and n < 1) or (signature and min(signature) < 0):
   raise UnsupportedGroup("unsupported group: bad rank parameter")

 @staticmethod
 def parse(text):
  """Grammar: family(n)[/R|/C], SO(p,q), products joined with ' x '."""
  parts = [p.strip() for p in text.split(" x ")]
  if len(parts) > 1:
   return GroupDescriptor(product=[GroupDescriptor.parse(p) for p in parts])
  m = re.fullmatch(r"([A-Za-z]+)\(([0-9]+)(?:,([0-9]+))?\)(/[RC])?", parts[0])
  if not m:
   raise UnsupportedGroup("unsupported group: cannot parse %r" % (text,))
  fam, a, b, base = m.group(1), int(m.group(2)), m.group(3), m.group(4)
  base = "ComplexAsReal" if base == "/C" else "Real"
  if b is not None:
   if fam != "SO" or base != "Real":
    raise UnsupportedGroup("unsupported group: signature on %r" % (fam,))
   return GroupDescriptor("SO", int(a) + int(b), "Real",
                          signature=(int(a), int(b)))
  if fam == "SO" and base == "Real":
   # bare SO(n) means the split form
   return GroupDescriptor("SO", a, "Real", signature=(a - a // 2, a // 2))
  return GroupDescriptor(fam, a, base)

 def __repr__(self):
  if self.product:
   return " x ".join(repr(g) for g in self.product)
  if self.family == "SO" and self.signature:
   return "SO(%d,%d)" % self.signature
  return "%s(%d)%s" % (self.family, self.n,
                       "/C" if self.base == "ComplexAsReal" else "")


class GroupInvariants:
 fields = ("d_G", "r_G", "d_K", "r_K", "delta", "q", "d_symm", "weyl_index")

 def __init__(self, d_G, r_G, d_K, r_K, weyl_index):
  self.d_G = d_G
  self.r_G = r_G
  self.d_K = d_K
  self.r_K = r_K
  self.delta = r_G - r_K
  self.d_symm = d_G - d_K
  if (self.d_symm - self.delta) % 2:
   raise UnsupportedGroup("inconsistent invariants: 2q+delta != d(G/K)")
  self.q = (self.d_symm - self.delta) // 2
  self.weyl_index = weyl_index
  # vol K ~ pi^delta_K, up to a rational factor
  self.delta_K = Fraction(d_K + r_K, 2)

 def as_dict(self):
  d = {f: getattr(self, f) for f in self.fields}
  d["delta_K"] = {0: "1", 1: "pi"}.get(self.delta_K, "pi^%s" % self.delta_K)
  return d


def _degrees(family, n):
 """Degrees d_i of the basic invariants of the complex group.  Everything
 else is read off them: rank = #d_i, dim = sum(2 d_i - 1), |W| = prod d_i,
 vol(compact form) ~ pi^(sum d_i) (Macdonald), and the discriminant
 (Gross's motive, sum of Q(1 - d_i))."""
 if family in ("PGL", "SL"):
  return list(range(2, n + 1))
 if family == "GL":
  return list(range(1, n + 1))
 if family == "SO":
  # 2, 4, ..., plus the Pfaffian n/2 for even n; SO(0) and SO(1) have none
  pfaffian = [n // 2] if n % 2 == 0 and n > 0 else []
  return list(range(2, 2 * ((n - 1) // 2) + 1, 2)) + pfaffian
 raise UnsupportedGroup("unsupported group: %r" % (family,))


# pairing -> (family, shift): family(r + shift) is the split group whose
# dual's standard representation has that pairing and rank r
_DUAL_GROUP = {"linear": ("PGL", 0), "orthogonal": ("SO", 0),
               "symplectic": ("SO", 1)}


def case_groups(factors, over_e):
 """(G, H) from the factors {"M"/"N": (pairing, r)}: G is the product of
 their _DUAL_GROUP groups, smaller first, and H the smaller with GL(r) for
 PGL(r) (PGL and SL have the same degrees, so G's choice between them is
 not seen).  Over E complex groups viewed as real; over Q the split real
 forms, G and H each taken twice (the squared split case, as
 lgamma._doubled doubles the Hodge structures)."""
 base = "ComplexAsReal" if over_e else "Real"
 (fam, r), big = sorted(((_DUAL_GROUP[p][0], k + _DUAL_GROUP[p][1])
                         for p, k in factors.values()), key=lambda f: f[1])
 g = [GroupDescriptor(f, k, base) for f, k in ((fam, r), big)]
 h = GroupDescriptor("GL" if fam == "PGL" else fam, r, base)
 if over_e:
  return GroupDescriptor(product=g), h
 return GroupDescriptor(product=g * 2), GroupDescriptor(product=[h, h])


def _dim_rank(degrees):
 return sum(2 * d - 1 for d in degrees), len(degrees)


def _descriptor(g):
 return GroupDescriptor.parse(g) if isinstance(g, str) else g


def invariants(g):
 g = _descriptor(g)
 if g.product:
  parts = [invariants(f) for f in g.product]
  inv = GroupInvariants(sum(p.d_G for p in parts), sum(p.r_G for p in parts),
                        sum(p.d_K for p in parts), sum(p.r_K for p in parts),
                        math.prod(p.weyl_index for p in parts))
  return inv
 dim, rank = _dim_rank(_degrees(g.family, g.n))
 if g.base == "ComplexAsReal":
  # restriction of scalars: K is the compact form
  return GroupInvariants(2 * dim, 2 * rank, dim, rank, 1)
 if g.family != "SO":
  # split linear groups: K = SO(n) (or O(n))
  d_K, r_K = _dim_rank(_degrees("SO", g.n))
  return GroupInvariants(dim, rank, d_K, r_K, 2 if g.n % 2 == 0 else 1)
 # real split-signature SO(p,q): K = SO(p) x SO(q)
 p, q = g.signature
 d_K, r_K = _dim_rank(_degrees("SO", p) + _degrees("SO", q))
 wi = 1
 if p % 2 == 1 and q % 2 == 1:
  wi = math.comb((p - 1) // 2 + (q - 1) // 2, (p - 1) // 2)
 return GroupInvariants(dim, rank, d_K, r_K, wi)


def discriminant(g):
 """Gamma-factors of the discriminant of g (of Gross's motive, the sum of
 Q(1 - d_i)) as {(kind, d): multiplicity}: one Gamma_kind(s+d) per basic
 degree d, kind "C" for a complex factor and "R" for a real one.  On a real
 SO(p,q) with p + q even and (p - q)/2 odd (the quasi-split non-split form
 and its inner forms) complex conjugation acts on the Pfaffian by -1, so
 its degree d takes Gamma_R(s+d+1)."""
 g = _descriptor(g)
 out = {}
 if g.product:
  for f in g.product:
   for key, m in discriminant(f).items():
    out[key] = out.get(key, 0) + m
  return out
 kind = "C" if g.base == "ComplexAsReal" else "R"
 degrees = _degrees(g.family, g.n)
 if g.signature and g.n % 2 == 0 and (g.signature[0] - g.signature[1]) % 4:
  degrees[-1] += 1
 for d in degrees:
  out[(kind, d)] = out.get((kind, d), 0) + 1
 return out


# ---------------------------------------------------------------------------
# root systems in orthonormal coordinates


# the axial roots +-c e_i each type adds to the roots +-e_i +- e_j of D
_AXIAL = {"B": (1,), "C": (2,), "BC": (1, 2), "D": ()}


def roots(rtype, rank):
 if rtype not in _AXIAL:
  raise UnsupportedGroup("unsupported root system type: %r" % (rtype,))
 rs = []
 for i in range(rank):
  for j in range(i + 1, rank):
   for si in (1, -1):
    for sj in (1, -1):
     v = [0] * rank
     v[i], v[j] = si, sj
     rs.append(tuple(v))
 for c in _AXIAL[rtype]:
  for i in range(rank):
   for s in (c, -c):
    v = [0] * rank
    v[i] = s
    rs.append(tuple(v))
 return rs


def _reflect(v, a):
 """v reflected in the wall of a, over Z: 2(v,a)/(a,a) must be integral."""
 c, rem = divmod(2 * sum(x * y for x, y in zip(v, a)), sum(x * x for x in a))
 if rem:
  raise ValueError("reflection of %r in %r leaves the lattice" % (v, a))
 return tuple(x - c * y for x, y in zip(v, a))


def _restricted_pair(g):
 """(big system, small system) of restricted roots, in shared coordinates.

 Returns (big, small, rank) with each system a list of vectors, or None for
 groups where the two systems coincide.  The big system is of type B, C or
 BC, so its Weyl group is that of SO(2 rank + 1).
 """
 if g.product:
  raise UnsupportedGroup("restricted pairs are per-factor data")
 if g.base == "ComplexAsReal":
  return None
 if g.family in ("PGL", "SL", "GL"):
  n = g.n
  m = n // 2
  if m == 0:
   raise UnsupportedGroup("not tabulated: rank too small")
  if n % 2 == 0:
   return roots("C", m), roots("D", m), m
  return roots("BC", m), roots("B", m), m
 p, q = g.signature
 if p % 2 == 0 or q % 2 == 0:
  raise UnsupportedGroup("not tabulated: delta = 0 signature")
 k, l = (p - 1) // 2, (q - 1) // 2
 big = roots("B", k + l)
 small = []
 for r in roots("B", k):
  small.append(tuple(r) + (0,) * l)
 for r in roots("B", l):
  small.append((0,) * k + tuple(r))
 return big, small, k + l


def chamber_check(g):
 """Count big-system chambers inside one small-system chamber by orbit
 enumeration over Z and compare with the tabulated index; the orbit size must
 also match the order of the big Weyl group, the product of the degrees
 of SO(2 rank + 1)."""
 g = _descriptor(g)
 index = invariants(g).weyl_index
 pair = _restricted_pair(g)
 if pair is None:
  return index == 1
 big, small, rank = pair
 if rank > 4:
  raise UnsupportedGroup("brute force limited to rank 4")
 orbit = _generic_orbit(big)
 small_pos = [a for a in small if _positive(a)]
 def dominant(x):
  for a in small_pos:
   s = sum(p * q for p, q in zip(x, a))
   if s == 0:
    raise UnsupportedGroup("start vector lies on a wall")
   if s < 0:
    return False
  return True
 count = sum(1 for x in orbit if dominant(x))
 return count == index and \
     len(orbit) == math.prod(_degrees("SO", 2 * rank + 1))


def _positive(a):
 for x in a:
  if x > 0:
   return True
  if x < 0:
   return False
 return False


def _simple_roots(system):
 pos = [a for a in system if _positive(a)]
 pset = set(pos)
 simple = []
 for a in pos:
  if not any(tuple(x - y for x, y in zip(a, b)) in pset for b in pos
             if b != a):
   simple.append(a)
 return simple


def _generic_orbit(system):
 """Orbit of a generic integral vector under the reflection group of the
 system, in Z^rank; simple reflections suffice to generate it."""
 rank = len(system[0])
 gens = _simple_roots(system)
 v = tuple(3 ** (rank - i) for i in range(rank))
 orbit = {v}
 frontier = [v]
 while frontier:
  nxt = []
  for x in frontier:
   for a in gens:
    y = _reflect(x, a)
    if y not in orbit:
     orbit.add(y)
     nxt.append(y)
  frontier = nxt
 return orbit


# ---------------------------------------------------------------------------
# trace-form duality constant: Cartan elements are diagonal matrices, written
# as their diagonals, so the trace form of two is their dot product


def _so_cartan(n):
 # split realization diag(t_1..t_k, t_1^-1..t_k^-1 [, 1])
 k = n // 2
 basis = []
 for i in range(k):
  h = [0] * n
  h[i], h[k + i] = 1, -1
  basis.append(h)
 return basis


def _gram(basis):
 return linalg.matmul(basis, linalg.transpose(basis))


def dual_trace_form(g):
 """Constant c with (dual of tr-form on a_G) = c * (tr-form on dual Cartan).

 Computed by writing both Cartan bases as diagonals and taking the Gram
 matrices G and D of the trace form: the dual form is c D exactly when
 G D = (1/c) 1.
 """
 g = _descriptor(g)
 if g.product:
  vals = {dual_trace_form(f) for f in g.product}
  if len(vals) != 1:
   raise UnsupportedGroup("mixed duality constants in product")
  return vals.pop()
 if g.family == "GL":
  basis = dual_basis = linalg.identity(g.n)  # dual group is GL_n again
 elif g.family == "SO":
  n = g.n
  if n < 2:
   raise UnsupportedGroup("degenerate rank")
  basis = _so_cartan(n)
  # the dual of SO_(2k+1) is Sp_2k, whose split Cartan is that of SO_2k
  dual_basis = _so_cartan(n - n % 2)
 else:
  raise UnsupportedGroup("unsupported family for dual_trace_form")
 # restriction of scalars doubles both Gram matrices block-diagonally, so
 # G D is the product of one block of each, doubled: the same constant
 gd = linalg.matmul(_gram(basis), _gram(dual_basis))
 lam = gd[0][0]
 if not lam or gd != [[lam * x for x in row]
                      for row in linalg.identity(len(gd))]:
  raise UnsupportedGroup("forms are not proportional")
 return 1 / Fraction(lam)
