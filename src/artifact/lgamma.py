"""Archimedean L-factors as formal Gamma-products, exact leading-coefficient
extraction modulo rational scalars, and the per-case comparison of every
computed pi-exponent against its closed-form target.
"""

from fractions import Fraction

from . import hodge
from . import rootsys
from .periodring import PeriodScalar


class GammaProduct:
 """Finitely supported product of Gamma_R / Gamma_C factors.

 Keys are (kind, a) with kind in {"R", "C"}, standing for Gamma_kind(s+a);
 values are integer multiplicities (negative allowed for ratios).
 """

 def __init__(self, factors=None):
  self.factors = {}
  if factors:
   for (kind, a), m in factors.items():
    if kind not in ("R", "C"):
     raise ValueError("unknown factor kind %r" % (kind,))
    if m:
     self.factors[(kind, a)] = self.factors.get((kind, a), 0) + m

 def __mul__(self, other):
  out = dict(self.factors)
  for k, m in other.factors.items():
   out[k] = out.get(k, 0) + m
  return GammaProduct(out)

 def __pow__(self, e):
  return GammaProduct({k: m * e for k, m in self.factors.items()})

 def __truediv__(self, other):
  return self * (other ** -1)

 def __eq__(self, other):
  return isinstance(other, GammaProduct) and self.factors == other.factors

 def __repr__(self):
  if not self.factors:
   return "1"
  bits = []
  for (kind, a), m in sorted(self.factors.items()):
   arg = "s" if a == 0 else ("s%+d" % a)
   bits.append("Gamma_%s(%s)^%d" % (kind, arg, m))
  return " ".join(bits)


def l_infinity(h):
 """Archimedean L-factor of a Hodge structure: Gamma_C(s-p) for each
 conjugate pair p < q, Gamma_R(s-p)^{f+} Gamma_R(s-p+1)^{f-} on the
 diagonal."""
 out = {}
 for (p, q), m in h.mult.items():
  if p < q:
   out[("C", -p)] = out.get(("C", -p), 0) + m
 if h.weight % 2 == 0:
  p = h.weight // 2
  if h.fplus:
   out[("R", -p)] = out.get(("R", -p), 0) + h.fplus
  if h.fminus:
   out[("R", -p + 1)] = out.get(("R", -p + 1), 0) + h.fminus
 return GammaProduct(out)


def leading_coeff(g, s0):
 """Leading Taylor coefficient at the integer s0, mod rational scalars.

 Gamma_C(k) carries pi^{-k} for every integer k (at poles the residue is
 rational); Gamma_R(k) carries pi^{-floor(k/2)}, tracking the half powers
 of pi exactly."""
 exp = Fraction(0)
 for (kind, a), m in g.factors.items():
  k = s0 + a
  if kind == "C":
   exp -= m * k
  else:
   exp -= m * (k // 2)
 return PeriodScalar.gen("pi", exp)


def pi_exponent(ps):
 """Exponent of pi in a pure pi-power scalar."""
 for g, e in ps.exps.items():
  if g != "pi" and e:
   raise ValueError("not a pure power of pi: %r" % (ps,))
 return ps.exps.get("pi", Fraction(0))


def _doubled(h):
 """Pass from one factor pair to the full real group: restriction of
 scalars for the imaginary-quadratic cases, a plain second copy for the
 squared split case."""
 if h.over_e:
  return hodge.restrict_scalars(h)
 return hodge.HodgeStructure(h.weight,
                             {k: 2 * m for k, m in h.mult.items()},
                             fplus=2 * h.fplus, fminus=2 * h.fminus)


def adjoint_structure(mot):
 adm, adn = mot.adjoint("M"), mot.adjoint("N")
 mult = dict(adm.mult)
 for k, v in adn.mult.items():
  mult[k] = mult.get(k, 0) + v
 if adm.over_e:
  return hodge.HodgeStructure(0, mult, over_e=True)
 return hodge.HodgeStructure(0, mult, fplus=adm.fplus + adn.fplus,
                             fminus=adm.fminus + adn.fminus)


def row_json(row):
 """One table1 row with its exponents written as strings."""
 return {"name": row["name"], "computed_exp": str(row["computed_exp"]),
         "expected_exp": str(row["expected_exp"]), "pass": row["pass"]}


def table1_row(mot):
 """Compute all five exponent columns of one (case, n) from its motives
 (a hodge.CaseMotives) and compare each against its closed-form target."""
 spec, n = mot.spec, mot.n
 expected = spec.targets(n)
 expected["ratio"] = expected["rho_at_center"] - expected["adjoint_at_zero"]
 computed = {}

 g, h = (rootsys.GroupDescriptor.parse(d) for d in spec.groups(n))
 gi, hi = rootsys.invariants(g), rootsys.invariants(h)
 computed["compact_volume_ratio"] = \
     Fraction(gi.d_K + gi.r_K, 2) - Fraction(hi.d_K + hi.r_K)

 dg, dh = (GammaProduct(rootsys.discriminant(d)) for d in (g, h))
 computed["discriminant_ratio"] = pi_exponent(
     leading_coeff(dg / (dh ** 2), 0))

 tens = _doubled(mot.tensor)
 computed["rho_at_center"] = spec.e * pi_exponent(
     leading_coeff(l_infinity(tens), spec.r(n)))

 adj = _doubled(adjoint_structure(mot))
 computed["adjoint_at_zero"] = pi_exponent(
     leading_coeff(l_infinity(adj), 0))

 computed["ratio"] = computed["rho_at_center"] - computed["adjoint_at_zero"]

 rows = []
 for name in ("compact_volume_ratio", "discriminant_ratio", "rho_at_center",
              "adjoint_at_zero", "ratio"):
  rows.append({"name": name,
               "computed_exp": computed[name],
               "expected_exp": expected[name],
               "pass": computed[name] == expected[name]})
 return rows
