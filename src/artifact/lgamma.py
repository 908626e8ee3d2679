"""Archimedean L-factors as maps of Gamma-factor multiplicities, the power
of pi in their leading coefficient, and the per-case comparison of every
computed pi-exponent against its closed-form target.
"""

from fractions import Fraction

from . import hodge
from . import rootsys


def l_infinity(h):
 """Archimedean L-factor of a Hodge structure as {(kind, a): multiplicity},
 one Gamma_kind(s+a) with kind "R" or "C" per unit: Gamma_C(s-p) for each
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
 return out


def pi_power(factors, s0):
 """Exponent of pi in the leading Taylor coefficient at the integer s0 of
 the Gamma-product {(kind, a): multiplicity}, modulo rational scalars.

 Gamma_C(k) carries pi^{-k} for every integer k (at poles the residue is
 rational); Gamma_R(k) carries pi^{-floor(k/2)}, tracking the half powers
 of pi exactly.  The exponent is linear in the multiplicities, so products
 and ratios of Gamma-products add and subtract their exponents."""
 exp = 0
 for (kind, a), m in factors.items():
  k = s0 + a
  if kind == "C":
   exp -= m * k
  elif kind == "R":
   exp -= m * (k // 2)
  else:
   raise ValueError("unknown factor kind %r" % (kind,))
 return Fraction(exp)


def _doubled(h):
 """Pass from one factor pair to the full real group: restriction of
 scalars for the imaginary-quadratic cases, a plain second copy for the
 squared split case."""
 return hodge.restrict_scalars(h) if h.over_e else hodge.direct_sum(h, h)


def adjoint_structure(mot):
 return hodge.direct_sum(mot.adjoint("M"), mot.adjoint("N"))


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

 g, h = rootsys.case_groups(spec.factors(n), spec.over_e)
 computed = {
     "compact_volume_ratio": rootsys.invariants(g).delta_K -
                             2 * rootsys.invariants(h).delta_K,
     "discriminant_ratio": pi_power(rootsys.discriminant(g), 0) -
                           2 * pi_power(rootsys.discriminant(h), 0),
     "rho_at_center": spec.e * pi_power(l_infinity(_doubled(mot.tensor)),
                                        mot.r),
     "adjoint_at_zero": pi_power(l_infinity(_doubled(adjoint_structure(mot))),
                                 0)}
 computed["ratio"] = computed["rho_at_center"] - computed["adjoint_at_zero"]

 return [{"name": name, "computed_exp": value, "expected_exp": expected[name],
          "pass": value == expected[name]} for name, value in computed.items()]
