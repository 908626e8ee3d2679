"""Rational pure Hodge structures with real-Frobenius data on the diagonal
piece, the standard motives of each case family, and the functorial
operations (tensor, dual, Tate twist, adjoint, restriction of scalars) that
feed the archimedean L-factor and period computations.
"""

from . import cases


class HodgeStructure:
 """Pure weight-w structure given by its (p,q) multiplicity map.

 fplus/fminus count the +1/-1 eigenvalues of the real Frobenius on the
 (w/2, w/2) piece; both are zero when the weight is odd, the piece is
 absent, or the structure carries the imaginary-quadratic flag (over_e),
 in which case no real Frobenius acts before restriction of scalars.
 """

 def __init__(self, weight, mult, fplus=0, fminus=0, over_e=False):
  self.weight = weight
  self.mult = {}
  for (p, q), m in mult.items():
   if m < 0:
    raise ValueError("negative multiplicity at (%d,%d)" % (p, q))
   if p + q != weight:
    raise ValueError("piece (%d,%d) has wrong weight" % (p, q))
   if m:
    self.mult[(p, q)] = m
  for (p, q), m in self.mult.items():
   if self.mult.get((q, p), 0) != m:
    raise ValueError("multiplicity map breaks conjugation symmetry")
  self.fplus = fplus
  self.fminus = fminus
  self.over_e = over_e
  diag = self.mult.get((weight // 2, weight // 2), 0) if weight % 2 == 0 \
      else 0
  if over_e:
   if fplus or fminus:
    raise ValueError("no real Frobenius data on a flagged structure")
  elif fplus + fminus != diag:
   raise ValueError("diagonal eigenvalue counts must sum to the "
                    "diagonal multiplicity")

 def rank(self):
  return sum(self.mult.values())

 def diagonal_mult(self):
  if self.weight % 2:
   return 0
  return self.mult.get((self.weight // 2, self.weight // 2), 0)

 def frobenius_trace(self):
  return self.fplus - self.fminus

 def pieces(self):
  """Multiplicities sorted by decreasing p."""
  return sorted(self.mult.items(), key=lambda kv: -kv[0][0])

 def __eq__(self, other):
  return isinstance(other, HodgeStructure) and \
      (self.weight, self.mult, self.fplus, self.fminus, self.over_e) == \
      (other.weight, other.mult, other.fplus, other.fminus, other.over_e)

 def __repr__(self):
  body = ", ".join("(%d,%d):%d" % (p, q, m) for (p, q), m in self.pieces())
  tag = " over_e" if self.over_e else " f+=%d f-=%d" % (self.fplus,
                                                        self.fminus)
  return "HodgeStructure(w=%d, {%s}%s)" % (self.weight, body, tag)


def tensor(a, b):
 w = a.weight + b.weight
 out = {}
 for (p, q), m in a.mult.items():
  for (pp, qq), mm in b.mult.items():
   key = (p + pp, q + qq)
   out[key] = out.get(key, 0) + m * mm
 over_e = a.over_e or b.over_e
 if over_e or w % 2:
  return HodgeStructure(w, out, over_e=over_e)
 # only the diagonal-times-diagonal block is Frobenius-stable; the rest
 # pairs off and contributes evenly to both eigenvalues
 diag = out.get((w // 2, w // 2), 0)
 trace = a.frobenius_trace() * b.frobenius_trace()
 return HodgeStructure(w, out, fplus=(diag + trace) // 2,
                       fminus=(diag - trace) // 2)


def dual(a):
 out = {(-p, -q): m for (p, q), m in a.mult.items()}
 return HodgeStructure(-a.weight, out, fplus=a.fplus, fminus=a.fminus,
                       over_e=a.over_e)


def tate_twist(a, j):
 out = {(p - j, q - j): m for (p, q), m in a.mult.items()}
 fp, fm = (a.fplus, a.fminus) if j % 2 == 0 else (a.fminus, a.fplus)
 return HodgeStructure(a.weight - 2 * j, out, fplus=fp, fminus=fm,
                       over_e=a.over_e)


def _square_part(a, anti):
 """Lambda^2 (anti=True) or Sym^2 of a, with exact Frobenius bookkeeping."""
 w = 2 * a.weight
 keys = sorted(a.mult)
 out = {}
 trace = 0
 for i, k1 in enumerate(keys):
  m1 = a.mult[k1]
  key = (2 * k1[0], 2 * k1[1])
  same = m1 * (m1 - 1) // 2 if anti else m1 * (m1 + 1) // 2
  out[key] = out.get(key, 0) + same
  if k1[0] == k1[1]:
   t = a.frobenius_trace()
   trace += (t * t - m1) // 2 if anti else (t * t + m1) // 2
  for k2 in keys[i + 1:]:
   m2 = a.mult[k2]
   key = (k1[0] + k2[0], k1[1] + k2[1])
   out[key] = out.get(key, 0) + m1 * m2
   if key[0] == key[1] and k2 == (k1[1], k1[0]):
    trace += m1 if not anti else -m1
 out = {k: m for k, m in out.items() if m}
 if a.over_e or w % 2:
  return HodgeStructure(w, out, over_e=a.over_e)
 diag = out.get((w // 2, w // 2), 0)
 return HodgeStructure(w, out, fplus=(diag + trace) // 2,
                       fminus=(diag - trace) // 2)


def adjoint(a, pairing):
 if pairing == "linear":
  t = tensor(a, dual(a))
  mult = dict(t.mult)
  if mult.get((0, 0), 0) < 1:
   raise ValueError("no trivial summand to remove")
  mult[(0, 0)] -= 1
  if t.over_e:
   return HodgeStructure(0, mult, over_e=True)
  # the removed trivial line is Frobenius-fixed
  return HodgeStructure(0, mult, fplus=t.fplus - 1, fminus=t.fminus)
 if pairing == "orthogonal":
  return tate_twist(_square_part(a, anti=True), a.weight)
 if pairing == "symplectic":
  if a.rank() % 2:
   raise ValueError("symplectic pairing needs even rank")
  return tate_twist(_square_part(a, anti=False), a.weight)
 raise ValueError("unknown pairing %r" % (pairing,))


def restrict_scalars(a):
 if not a.over_e:
  raise ValueError("restriction of scalars needs a flagged structure")
 out = {k: 2 * m for k, m in a.mult.items()}
 if a.weight % 2:
  return HodgeStructure(a.weight, out)
 d = a.mult.get((a.weight // 2, a.weight // 2), 0)
 # the real Frobenius swaps the two conjugate copies on the diagonal
 return HodgeStructure(a.weight, out, fplus=d, fminus=d)


def deligne_data(a):
 """(dplus, dminus, pplus, pminus) for the half-period computation."""
 if a.over_e:
  raise ValueError("restrict scalars before taking real-Frobenius data")
 off = sum(m for (p, q), m in a.mult.items() if p > q)
 dplus = off + a.fplus
 dminus = off + a.fminus
 diag = a.diagonal_mult()
 if diag and a.fplus and a.fminus:
  raise ValueError("Deligne_period violated")
 eps = 0 if not diag else (1 if a.fminus == 0 else -1)
 pplus = (a.weight - 1 - eps) // 2
 pminus = (a.weight - 1 + eps) // 2
 return dplus, dminus, pplus, pminus


def _linear_std(rank, over_e, psi):
 """Standard structure of a linear or symplectic factor: weight rank-1,
 one line per piece."""
 w = rank - 1
 mult = {(w - i, i): 1 for i in range(rank)}
 if over_e or w % 2:
  return HodgeStructure(w, mult, over_e=over_e)
 fp, fm = (0, 1) if psi else (1, 0)
 return HodgeStructure(w, mult, fplus=fp, fminus=fm)


def _orthogonal_std(rank, over_e):
 """Standard structure of the even orthogonal group SO_rank: weight
 rank-2, doubled middle piece."""
 w = rank - 2
 mult = {(w - i, i): 1 for i in range(w + 1)}
 mult[(w // 2, w // 2)] = 2
 if over_e:
  return HodgeStructure(w, mult, over_e=True)
 return HodgeStructure(w, mult, fplus=1, fminus=1)


def standard_motive(case, n, factor, psi=False):
 spec = cases.get(case, n)
 if factor not in ("M", "N"):
  raise ValueError("factor must be M or N")
 pairing, rank = spec.factors(n)[factor]
 if pairing == "orthogonal":
  return _orthogonal_std(rank, spec.over_e)
 return _linear_std(rank, spec.over_e, psi)


class CaseMotives:
 """The Hodge structures of one (case, n), each built once: std["M"],
 std["N"], M twisted by psi (or None) and the untwisted tensor M x N."""

 def __init__(self, case, n):
  self.spec = cases.get(case, n)
  self.case, self.n = self.spec.name, n
  self.std = {f: standard_motive(self.case, n, f) for f in ("M", "N")}
  self.twisted_m = standard_motive(self.case, n, "M", True) \
      if self.spec.twists else None
  self.tensor = tensor(self.std["M"], self.std["N"])

 def adjoint(self, factor):
  """Adjoint structure of the factor's group, in the case's pairing."""
  return adjoint(self.std[factor], self.spec.factors(self.n)[factor][0])
