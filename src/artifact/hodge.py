"""Rational pure Hodge structures with the trace of the real Frobenius on
the diagonal piece, the standard motives of each case family, and the
functorial operations (direct sum, tensor, dual, Tate twist, adjoint,
restriction of scalars) that feed the archimedean L-factor and period
computations.  Traces add under direct sums and multiply under tensors.
"""

from . import cases


class HodgeStructure:
 """Pure weight-w structure given by its (p,q) multiplicity map.

 trace is the trace of the real Frobenius on the (w/2, w/2) piece: zero
 when the weight is odd or the piece is absent, and None when the
 structure carries the imaginary-quadratic flag (over_e), in which case no
 real Frobenius acts before restriction of scalars.  The counts fplus and
 fminus of its +1 and -1 eigenvalues are read off the trace.
 """

 def __init__(self, weight, mult, trace=0):
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
  self.trace = trace
  diag = self.diagonal_mult()
  if trace is not None and (abs(trace) > diag or (diag - trace) % 2):
   raise ValueError("no involution has trace %d on a diagonal piece of "
                    "rank %d" % (trace, diag))

 @property
 def over_e(self):
  return self.trace is None

 @property
 def fplus(self):
  return 0 if self.over_e else (self.diagonal_mult() + self.trace) // 2

 @property
 def fminus(self):
  return 0 if self.over_e else (self.diagonal_mult() - self.trace) // 2

 def rank(self):
  return sum(self.mult.values())

 def diagonal_mult(self):
  if self.weight % 2:
   return 0
  return self.mult.get((self.weight // 2, self.weight // 2), 0)

 def pieces(self):
  """Multiplicities sorted by decreasing p."""
  return sorted(self.mult.items(), key=lambda kv: -kv[0][0])

 def __eq__(self, other):
  return isinstance(other, HodgeStructure) and \
      (self.weight, self.mult, self.trace) == \
      (other.weight, other.mult, other.trace)

 def __repr__(self):
  body = ", ".join("(%d,%d):%d" % (p, q, m) for (p, q), m in self.pieces())
  tag = " over_e" if self.over_e else " f+=%d f-=%d" % (self.fplus,
                                                        self.fminus)
  return "HodgeStructure(w=%d, {%s}%s)" % (self.weight, body, tag)


def direct_sum(a, b):
 if a.weight != b.weight:
  raise ValueError("direct sum of weights %d and %d" % (a.weight, b.weight))
 out = dict(a.mult)
 for k, m in b.mult.items():
  out[k] = out.get(k, 0) + m
 return HodgeStructure(a.weight, out, None if a.over_e or b.over_e
                       else a.trace + b.trace)


def tensor(a, b):
 out = {}
 for (p, q), m in a.mult.items():
  for (pp, qq), mm in b.mult.items():
   key = (p + pp, q + qq)
   out[key] = out.get(key, 0) + m * mm
 # only the diagonal-times-diagonal block is Frobenius-stable; the rest
 # pairs off and is traceless
 return HodgeStructure(a.weight + b.weight, out, None if a.over_e or b.over_e
                       else a.trace * b.trace)


def dual(a):
 out = {(-p, -q): m for (p, q), m in a.mult.items()}
 return HodgeStructure(-a.weight, out, a.trace)


def tate_twist(a, j):
 out = {(p - j, q - j): m for (p, q), m in a.mult.items()}
 # the real Frobenius acts on Q(1) by -1
 trace = a.trace if a.over_e or j % 2 == 0 else -a.trace
 return HodgeStructure(a.weight - 2 * j, out, trace)


def _square_part(a, anti):
 """Lambda^2 (anti=True) or Sym^2 of a.  The real Frobenius F has trace
 (tr(F)^2 -+ tr(F^2)) / 2 there, and F^2 = 1 gives tr(F^2) = rank."""
 sign = -1 if anti else 1
 keys = sorted(a.mult)
 out = {}
 for i, k1 in enumerate(keys):
  m1 = a.mult[k1]
  key = (2 * k1[0], 2 * k1[1])
  out[key] = out.get(key, 0) + m1 * (m1 + sign) // 2
  for k2 in keys[i + 1:]:
   key = (k1[0] + k2[0], k1[1] + k2[1])
   out[key] = out.get(key, 0) + m1 * a.mult[k2]
 return HodgeStructure(2 * a.weight, out, None if a.over_e else
                       (a.trace * a.trace + sign * a.rank()) // 2)


def adjoint(a, pairing):
 if pairing == "linear":
  t = tensor(a, dual(a))
  mult = dict(t.mult)
  if mult.get((0, 0), 0) < 1:
   raise ValueError("no trivial summand to remove")
  mult[(0, 0)] -= 1
  # the removed trivial line is Frobenius-fixed
  return HodgeStructure(0, mult, None if t.over_e else t.trace - 1)
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
 # the real Frobenius swaps the two conjugate copies: trace 0
 return HodgeStructure(a.weight, {k: 2 * m for k, m in a.mult.items()})


def deligne_data(a):
 """(dplus, dminus), the dimensions of the Betti eigenspaces of the real
 Frobenius, for the half-period computation."""
 if a.over_e:
  raise ValueError("restrict scalars before taking real-Frobenius data")
 off = sum(m for (p, q), m in a.mult.items() if p > q)
 if abs(a.trace) != a.diagonal_mult():
  raise ValueError("Deligne_period violated")
 return off + a.fplus, off + a.fminus


def _linear_std(rank, over_e, psi):
 """Standard structure of a linear or symplectic factor: weight rank-1,
 one line per piece; psi flips the Frobenius sign of the diagonal line."""
 w = rank - 1
 mult = {(w - i, i): 1 for i in range(rank)}
 if over_e or w % 2:
  return HodgeStructure(w, mult, None if over_e else 0)
 return HodgeStructure(w, mult, -1 if psi else 1)


def _orthogonal_std(rank, over_e):
 """Standard structure of the even orthogonal group SO_rank: weight
 rank-2, doubled middle piece with Frobenius eigenvalues +1 and -1."""
 w = rank - 2
 mult = {(w - i, i): 1 for i in range(w + 1)}
 mult[(w // 2, w // 2)] = 2
 return HodgeStructure(w, mult, None if over_e else 0)


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
 std["N"], M twisted by the quadratic character psi (None over E, where
 no twist is taken) and the untwisted tensor M x N, with the centre
 r = (w(M x N) + 1)/2 of L(M x N, s)."""

 def __init__(self, case, n):
  self.spec = cases.get(case, n)
  self.case, self.n = self.spec.name, n
  self.std = {f: standard_motive(self.case, n, f) for f in ("M", "N")}
  self.twisted_m = None if self.spec.over_e else \
      standard_motive(self.case, n, "M", True)
  self.tensor = tensor(self.std["M"], self.std["N"])
  self.r = (self.tensor.weight + 1) // 2

 def adjoint(self, factor):
  """Adjoint structure of the factor's group, in the case's pairing."""
  return adjoint(self.std[factor], self.spec.factors(self.n)[factor][0])
