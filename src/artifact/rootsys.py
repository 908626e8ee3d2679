"""Root-system and real-form bookkeeping for the group families we support.

Invariants (dimensions, ranks, the defect delta, minimal tempered degree q),
Weyl group orders and relative indices, Macdonald volumes of compact groups,
and the duality constant of the trace form, all in exact arithmetic.
"""

from fractions import Fraction
import math
import re

from . import linalg
from .periodring import PeriodScalar


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
  self.delta_K = PeriodScalar.gen("pi", Fraction(d_K + r_K, 2))

 def as_dict(self):
  d = {f: getattr(self, f) for f in self.fields}
  d["delta_K"] = repr(self.delta_K)
  return d


def _complex_dims(family, n):
 """(dim_C, rank_C) of the complex group."""
 if family in ("PGL", "SL"):
  return n * n - 1, n - 1
 if family == "GL":
  return n * n, n
 if family == "SO":
  return n * (n - 1) // 2, n // 2
 raise UnsupportedGroup("unsupported group: %r" % (family,))


def invariants(g):
 if isinstance(g, str):
  g = GroupDescriptor.parse(g)
 if g.product:
  parts = [invariants(f) for f in g.product]
  inv = GroupInvariants(sum(p.d_G for p in parts), sum(p.r_G for p in parts),
                        sum(p.d_K for p in parts), sum(p.r_K for p in parts),
                        math.prod(p.weyl_index for p in parts))
  return inv
 dim, rank = _complex_dims(g.family, g.n)
 if g.base == "ComplexAsReal":
  # restriction of scalars: K is the compact form
  return GroupInvariants(2 * dim, 2 * rank, dim, rank, 1)
 if g.family in ("PGL", "SL", "GL"):
  n = g.n
  d_K = n * (n - 1) // 2
  r_K = n // 2
  d_G = dim if g.family != "GL" else n * n
  r_G = rank if g.family != "GL" else n
  return GroupInvariants(d_G, r_G, d_K, r_K, _weyl_index_linear(n))
 # real split-signature SO(p,q)
 p, q = g.signature
 d_K = p * (p - 1) // 2 + q * (q - 1) // 2
 r_K = p // 2 + q // 2
 wi = 1
 if p % 2 == 1 and q % 2 == 1:
  wi = math.comb((p - 1) // 2 + (q - 1) // 2, (p - 1) // 2)
 return GroupInvariants(dim, rank, d_K, r_K, wi)


def _weyl_index_linear(n):
 return 2 if n % 2 == 0 and n >= 2 else 1


# ---------------------------------------------------------------------------
# root systems in orthonormal coordinates


def roots(rtype, rank):
 rs = []
 if rtype == "A":
  dim = rank + 1
  for i in range(dim):
   for j in range(dim):
    if i != j:
     v = [0] * dim
     v[i], v[j] = 1, -1
     rs.append(tuple(v))
  return rs
 if rtype in ("B", "C", "D", "BC"):
  for i in range(rank):
   for j in range(i + 1, rank):
    for si in (1, -1):
     for sj in (1, -1):
      v = [0] * rank
      v[i], v[j] = si, sj
      rs.append(tuple(v))
  if rtype in ("B", "BC"):
   for i in range(rank):
    for s in (1, -1):
     v = [0] * rank
     v[i] = s
     rs.append(tuple(v))
  if rtype in ("C", "BC"):
   for i in range(rank):
    for s in (1, -1):
     v = [0] * rank
     v[i] = 2 * s
     rs.append(tuple(v))
  return rs
 if rtype == "G2":
  if rank != 2:
   raise UnsupportedGroup("G2 has rank 2")
  rs = roots("A", 2)
  for a, b, c in ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)):
   rs.append((a, b, c))
   rs.append((-a, -b, -c))
  return rs
 if rtype == "F4":
  if rank != 4:
   raise UnsupportedGroup("F4 has rank 4")
  rs = roots("B", 4)
  for signs in range(16):
   v = tuple(Fraction(1, 2) * (1 if signs >> k & 1 else -1) for k in range(4))
   rs.append(v)
  return rs
 raise UnsupportedGroup("unsupported root system type: %r" % (rtype,))


_WEYL_CLOSED = {
 "A": lambda n: math.factorial(n + 1),
 "B": lambda n: 2 ** n * math.factorial(n),
 "C": lambda n: 2 ** n * math.factorial(n),
 "BC": lambda n: 2 ** n * math.factorial(n),
 "D": lambda n: 2 ** max(n - 1, 0) * math.factorial(n),
 "F4": lambda n: 1152,
 "G2": lambda n: 12,
}


def weyl_order(rtype, rank):
 if rtype not in _WEYL_CLOSED:
  raise UnsupportedGroup("unsupported root system type: %r" % (rtype,))
 return _WEYL_CLOSED[rtype](rank)


def _reflect(v, a):
 num = sum(x * y for x, y in zip(v, a))
 den = sum(x * x for x in a)
 c = Fraction(2 * num, 1) / den
 return tuple(x - c * y for x, y in zip(v, a))


def weyl_order_bruteforce(rtype, rank):
 """Order of the group generated by root reflections, as a permutation
 action on the root set itself (exact, no matrices needed)."""
 rs = roots(rtype, rank)
 rs = [tuple(Fraction(x) for x in r) for r in rs]
 index = {r: k for k, r in enumerate(rs)}
 perms = []
 for a in rs:
  perms.append(tuple(index[_reflect(r, a)] for r in rs))
 ident = tuple(range(len(rs)))
 seen = {ident}
 frontier = [ident]
 while frontier:
  nxt = []
  for g in frontier:
   for p in perms:
    h = tuple(g[i] for i in p)
    if h not in seen:
     seen.add(h)
     nxt.append(h)
  frontier = nxt
 return len(seen)


def _restricted_pair(g):
 """(big system, small system) of restricted roots, in shared coordinates.

 Returns (big type, big, small, rank) with each system a list of vectors,
 or None for groups where the two systems coincide.
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
   return "C", roots("C", m), roots("D", m), m
  return "BC", roots("BC", m), roots("B", m), m
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
 return "B", big, small, k + l


def weyl_index(g):
 if isinstance(g, str):
  g = GroupDescriptor.parse(g)
 if g.product:
  return math.prod(weyl_index(f) for f in g.product)
 if g.base == "ComplexAsReal":
  return 1
 return invariants(g).weyl_index


def chamber_check(g):
 """Count big-system chambers inside one small-system chamber by orbit
 enumeration and compare with the tabulated index; the orbit size must
 also match the closed-form order of the big Weyl group."""
 if isinstance(g, str):
  g = GroupDescriptor.parse(g)
 pair = _restricted_pair(g)
 if pair is None:
  return weyl_index(g) == 1
 big_type, big, small, rank = pair
 if rank > 4:
  raise UnsupportedGroup("brute force limited to rank 4")
 big = [tuple(Fraction(x) for x in r) for r in big]
 small = [tuple(Fraction(x) for x in r) for r in small]
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
 return count == weyl_index(g) and len(orbit) == weyl_order(big_type, rank)


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
 """Orbit of a generic vector under the reflection group of the system;
 simple reflections suffice to generate it."""
 rank = len(system[0])
 gens = _simple_roots(system)
 v = tuple(Fraction(3 ** (rank - i)) for i in range(rank))
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
# Macdonald volumes of compact groups


def _compact_data(text):
 m = re.fullmatch(r"(SU|SO|U)\(([0-9]+)\)", text.strip())
 if not m:
  raise UnsupportedGroup("unsupported compact group: %r" % (text,))
 fam, n = m.group(1), int(m.group(2))
 if fam == "SU":
  exps = list(range(1, n))
  d, r = n * n - 1, n - 1
 elif fam == "U":
  exps = [0] + list(range(1, n))
  d, r = n * n, n
 else:
  if n % 2 == 1:
   exps = list(range(1, n, 2))
  else:
   k = n // 2
   exps = list(range(1, n - 2, 2)) + [k - 1]
  d, r = n * (n - 1) // 2, n // 2
 return exps, d, r


def macdonald_volume(text):
 """vol K = prod_i 2 pi^{m_i+1}/m_i!, reduced mod Q* to a pi power."""
 total = 0
 d = r = 0
 for part in str(text).split(" x "):
  exps, dk, rk = _compact_data(part)
  total += sum(m + 1 for m in exps)
  d += dk
  r += rk
 out = PeriodScalar.gen("pi", total)
 if 2 * total != d + r:
  raise UnsupportedGroup("Macdonald volume does not match pi^((d_K+r_K)/2)")
 return out


# ---------------------------------------------------------------------------
# trace-form duality constant


def _mat(n):
 return [[Fraction(0)] * n for _ in range(n)]


def _tr_prod(a, b):
 n = len(a)
 return sum(a[i][j] * b[j][i] for i in range(n) for j in range(n))


def _gram(basis):
 return [[_tr_prod(x, y) for y in basis] for x in basis]


def _gl_cartan(n):
 basis = []
 for i in range(n):
  h = _mat(n)
  h[i][i] = Fraction(1)
  basis.append(h)
 return basis


def _so_cartan(n):
 # split realization diag(t_1..t_k, t_1^-1..t_k^-1 [, 1])
 k = n // 2
 if k == 0:
  raise UnsupportedGroup("degenerate rank")
 basis = []
 for i in range(k):
  h = _mat(n)
  h[i][i] = Fraction(1)
  h[k + i][k + i] = Fraction(-1)
  basis.append(h)
 return basis


def dual_trace_form(g):
 """Constant c with (dual of tr-form on a_G) = c * (tr-form on dual Cartan).

 Computed by building both Cartan bases as explicit matrices, taking Gram
 matrices of the trace form, inverting one, and reading off the ratio.
 """
 if isinstance(g, str):
  g = GroupDescriptor.parse(g)
 if g.product:
  vals = {dual_trace_form(f) for f in g.product}
  if len(vals) != 1:
   raise UnsupportedGroup("mixed duality constants in product")
  return vals.pop()
 if g.family == "GL":
  basis = _gl_cartan(g.n)
  dual_basis = _gl_cartan(g.n)  # dual group is GL_n again
 elif g.family == "SO":
  n = g.n
  if n < 2:
   raise UnsupportedGroup("degenerate rank")
  basis = _so_cartan(n)
  # the dual of SO_(2k+1) is Sp_2k, whose split Cartan is that of SO_2k
  dual_basis = _so_cartan(n - n % 2)
 else:
  raise UnsupportedGroup("unsupported family for dual_trace_form")
 # restriction of scalars doubles both Gram matrices block-diagonally, and
 # the inverse of a block-diagonal matrix is block-diagonal in the
 # inverses, so one block of each gives the same constant
 induced = linalg.inv(_gram(basis))
 dgram = _gram(dual_basis)
 c = None
 k = len(induced)
 for i in range(k):
  for j in range(k):
   if dgram[i][j] == 0:
    if induced[i][j] != 0:
     raise UnsupportedGroup("forms are not proportional")
    continue
   r = induced[i][j] / dgram[i][j]
   if c is None:
    c = r
   elif c != r:
    raise UnsupportedGroup("forms are not proportional")
 return c
