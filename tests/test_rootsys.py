"""Real-group invariants: the degree table against the written-out
dimensions, ranks and discriminants it replaced, Weyl orders and relative
indices against brute-force enumeration, compact volumes against
Macdonald's exponents, and the duality constant of the trace form."""

from fractions import Fraction
import math
import re

import pytest

from artifact import cases, ggpcheck, hodge, lgamma
from artifact import rootsys as rs
from artifact.cases import CASES
from artifact.periodring import PeriodScalar

from make_golden import GROUPS
from reference_kernels import (WRITTEN_OUT_DISCRIMINANTS, WRITTEN_OUT_GROUPS,
                               fraction_generic_orbit, fraction_reflect,
                               inverse_dual_trace_form, written_out_invariants)


def a_roots(rank):
 dim = rank + 1
 out = []
 for i in range(dim):
  for j in range(dim):
   if i != j:
    v = [0] * dim
    v[i], v[j] = 1, -1
    out.append(tuple(v))
 return out


def weyl_order_bruteforce(system):
 """Order of the group generated by root reflections, as a permutation
 action on the root set itself (exact, no matrices needed)."""
 system = [tuple(Fraction(x) for x in r) for r in system]
 index = {r: k for k, r in enumerate(system)}
 perms = [tuple(index[rs._reflect(r, a)] for r in system) for a in system]
 ident = tuple(range(len(system)))
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


def compact_exponents(text):
 """Macdonald's exponents m_i of a compact group SU(n), U(n) or SO(n),
 written out per family, with (family, n) of the complex group it is the
 compact form of."""
 fam, n = re.fullmatch(r"(SU|SO|U)\(([0-9]+)\)", text).groups()
 n = int(n)
 if fam == "SU":
  return list(range(1, n)), ("SL", n)
 if fam == "U":
  return [0] + list(range(1, n)), ("GL", n)
 if n % 2 == 1:
  return list(range(1, n, 2)), ("SO", n)
 return list(range(1, n - 2, 2)) + [n // 2 - 1], ("SO", n)


def macdonald_volume(text):
 """vol K = prod_i 2 pi^{m_i+1}/m_i!, reduced mod Q* to a pi power."""
 return PeriodScalar.gen("pi", sum(m + 1 for m in compact_exponents(text)[0]))


COMPACT = (["SU(%d)" % k for k in range(2, 7)] +
           ["SO(%d)" % k for k in range(3, 7)] +
           ["U(%d)" % k for k in range(1, 7)])


class TestInvariants:
 def test_sl4_split(self):
  iv = rs.invariants("SL(4)/R")
  assert (iv.d_G, iv.r_G) == (15, 3)
  assert iv.delta == 1 and iv.q == 4
  assert 2 * iv.q + iv.delta == iv.d_symm

 def test_pgl2_complex(self):
  iv = rs.invariants("PGL(2)/C")
  assert iv.d_symm == 3 and iv.delta == 1 and iv.q == 1

 def test_product_pair_complex(self):
  iv = rs.invariants("PGL(2)/C x PGL(3)/C")
  assert iv.d_symm == 11
  hv = rs.invariants("GL(2)/C")
  assert hv.d_symm == 4

 def test_dimension_identity_everywhere(self):
  groups = ["SL(%d)/R" % k for k in range(2, 7)] + \
           ["PGL(%d)/R" % k for k in range(2, 7)] + \
           ["PGL(%d)/C" % k for k in range(2, 6)] + \
           ["SO(3,2)", "SO(4,3)", "SO(5,4)", "SO(3,3)", "SO(4,4)",
            "SO(5)/C", "SO(6)/C", "GL(3)/R", "GL(3)/C"]
  for g in groups:
   iv = rs.invariants(g)
   assert 2 * iv.q + iv.delta == iv.d_symm, g

 def test_additive_over_products(self):
  a = rs.invariants("SL(3)/R")
  b = rs.invariants("SO(4,3)")
  ab = rs.invariants("SL(3)/R x SO(4,3)")
  assert ab.d_G == a.d_G + b.d_G
  assert ab.d_K == a.d_K + b.d_K
  assert ab.delta == a.delta + b.delta

 def test_compact_volume_scalar(self):
  iv = rs.invariants("SL(4)/R")
  assert iv.delta_K == Fraction(iv.d_K + iv.r_K, 2)
  assert iv.as_dict()["delta_K"] == repr(PeriodScalar.gen("pi",
                                                          iv.delta_K))

 @pytest.mark.parametrize("g,shown", [
     ("GL(1)/R", "1"), ("SO(2,0)", "pi"), ("SL(3)/R", "pi^2"),
     ("SO(4)/C x SO(5)/C", "pi^10")])
 def test_compact_volume_as_dict(self, g, shown):
  # formatted in place, as the period ring writes pi^delta_K
  k = rs.invariants(g).delta_K
  assert rs.invariants(g).as_dict()["delta_K"] == shown == \
      repr(PeriodScalar.gen("pi", k))

 def test_unsupported(self):
  with pytest.raises(rs.UnsupportedGroup):
   rs.invariants("E8(8)/R")


class TestDegreeTable:
 """Every constant derived from rootsys._degrees equals the hand-written
 formula it replaced."""

 GRID = (["%s(%d)/%s" % (f, n, b) for f in ("PGL", "SL", "GL")
          for n in range(1, 8) for b in "RC"] +
         ["SO(%d)/C" % n for n in range(1, 10)] +
         ["SO(%d)" % n for n in range(1, 10)] +
         ["SO(%d,%d)" % (p, q) for p in range(0, 7) for q in range(0, 7)
          if p + q >= 1] +
         ["PGL(2)/R x PGL(3)/R x PGL(2)/R x PGL(3)/R",
          "GL(1)/R x GL(1)/R", "PGL(1)/C x PGL(2)/C", "SO(2)/C x SO(3)/C",
          "SL(3)/R x SO(4,3)", "SO(4,0) x SO(1) x SO(2)"])

 @pytest.mark.parametrize("g", GRID)
 def test_invariants_match_written_out_formulas(self, g):
  assert rs.invariants(g).as_dict() == written_out_invariants(g).as_dict()

 def test_small_groups(self):
  # SO(0) and SO(1) have no invariants; SO(2) is a torus whose one
  # degree is its Pfaffian; D2 = A1 x A1 repeats the degree 2
  assert [rs._degrees("SO", n) for n in range(6)] == \
      [[], [], [1], [2], [2, 2], [2, 4]]
  assert rs._degrees("SO", 8) == [2, 4, 6, 4]
  assert rs._degrees("GL", 1) == [1] and rs._degrees("PGL", 1) == []

 @pytest.mark.parametrize("case", CASES)
 def test_discriminants_match_written_out_tables(self, case):
  for n in range(1, 13):
   spec = cases.get(case, n)
   g, h = rs.case_groups(spec.factors(n), spec.over_e)
   assert (rs.discriminant(g), rs.discriminant(h)) == \
       WRITTEN_OUT_DISCRIMINANTS[case](n), (case, n)

 def test_discriminant_kinds_and_products(self):
  assert rs.discriminant("SO(4)/C x SO(5)/C") == \
      {("C", 2): 3, ("C", 4): 1}
  assert rs.discriminant("GL(2)/R x PGL(2)/C") == \
      {("R", 1): 1, ("R", 2): 1, ("C", 2): 1}
  assert rs.discriminant("PGL(1)/R") == {}

 @pytest.mark.parametrize("g,expected", [
     # SO(3,1) is isogenous to PGL(2)/C: Gamma_C(s+2)
     ("SO(3,1)", {("R", 2): 1, ("R", 3): 1}),
     ("SO(1,3)", {("R", 2): 1, ("R", 3): 1}),
     ("SO(4,2)", {("R", 2): 1, ("R", 4): 2}),
     ("SO(5,3)", {("R", 2): 1, ("R", 4): 1, ("R", 6): 1, ("R", 5): 1}),
     ("SO(6,0)", {("R", 2): 1, ("R", 4): 2}),
     # (p - q)/2 even: the split form and its inner forms keep Gamma_R(s+d)
     ("SO(2,2)", {("R", 2): 2}),
     ("SO(3,3)", {("R", 2): 1, ("R", 4): 1, ("R", 3): 1}),
     ("SO(4,4)", {("R", 2): 1, ("R", 4): 2, ("R", 6): 1}),
     ("SO(5,1)", {("R", 2): 1, ("R", 4): 1, ("R", 3): 1}),
     ("SO(4,0)", {("R", 2): 2}),
     # odd p + q has no Pfaffian
     ("SO(5,2)", {("R", 2): 1, ("R", 4): 1, ("R", 6): 1})])
 def test_pfaffian_of_non_split_even_forms(self, g, expected):
  assert rs.discriminant(g) == expected

 def test_so31_matches_its_isogenous_complex_group(self):
  # Gamma_R(s+2) Gamma_R(s+3) = Gamma_C(s+2) up to a constant: equal pi
  # powers at every integer point
  so31, pgl2 = (rs.discriminant(g) for g in ("SO(3,1)", "PGL(2)/C"))
  for s0 in range(-4, 5):
   assert lgamma.pi_power(so31, s0) == lgamma.pi_power(pgl2, s0)

 @pytest.mark.parametrize("first,failing,cut", [
     ("pgl-q n=3 table1:compact_volume_ratio", 33, 4),
     ("pgl-q n=1 table1:compact_volume_ratio", 36, 2)])
 def test_pfaffian_is_needed(self, monkeypatch, first, failing, cut):
  # negative control: SO(2k) without its Pfaffian degree n/2, for n >= cut
  # (cut = 2 drops the one degree of the torus SO(2) as well)
  degrees = rs._degrees

  def mutant(family, n):
   d = degrees(family, n)
   return d[:-1] if family == "SO" and n % 2 == 0 and n >= cut else d
  monkeypatch.setattr(rs, "_degrees", mutant)
  status, reports, lines = ggpcheck.verify_all(12)
  assert status == 1
  assert lines[-1] == "first failing identity: " + first
  assert sum(not r.passed() for r in reports) == failing


def failing_columns():
 """{column: number of the 48 (case, n <= 12) whose table1_row fails it}."""
 out = {}
 for case in CASES:
  for n in range(1, 13):
   for row in lgamma.table1_row(hodge.CaseMotives(case, n)):
    if not row["pass"]:
     out[row["name"]] = out.get(row["name"], 0) + 1
 return out


def larger_h(g, h, over_e):
 big = repr(g.product[1]).replace("PGL(", "GL(")
 return g, rs.GroupDescriptor.parse(" x ".join([big] * (1 if over_e else 2)))


def pgl_h(g, h, over_e):
 return g, rs.GroupDescriptor.parse(repr(h).replace("GL(", "PGL("))


def one_copy(g, h, over_e):
 if over_e:
  return g, h
 return rs.GroupDescriptor(product=g.product[:2]), h.product[0]


def sl_g(g, h, over_e):
 return rs.GroupDescriptor.parse(repr(g).replace("PGL(", "SL(")), h


class TestCaseGroups:
 """case_groups against the (G, H) strings the families wrote out, and
 negative controls: each mutant of the rule fails compact_volume_ratio and
 discriminant_ratio in the stated number of the 48 (case, n)."""

 @pytest.mark.parametrize("case", CASES)
 @pytest.mark.parametrize("n", range(1, 13))
 def test_matches_written_out(self, case, n):
  spec = cases.get(case, n)
  got = rs.case_groups(spec.factors(n), spec.over_e)
  want = [rs.GroupDescriptor.parse(t) for t in WRITTEN_OUT_GROUPS[case](n)]
  assert len(got) == len(want) == 2
  for group, ref in zip(got, want):
   assert repr(group) == repr(ref)
   assert rs.invariants(group).as_dict() == rs.invariants(ref).as_dict()
   assert rs.discriminant(group) == rs.discriminant(ref)

 def test_repr_inverts_parse(self):
  # repr writes a group in the notation that parse reads, the one the
  # invariants command takes and the families' groups are written out in
  groups = [rs.GroupDescriptor.parse(t) for t in GROUPS]
  assert [repr(g) for g in groups] == [t.replace("/R", "") for t in GROUPS]
  for case in CASES:
   for n in range(1, 13):
    spec = cases.get(case, n)
    groups += rs.case_groups(spec.factors(n), spec.over_e)
  assert len(groups) == len(GROUPS) + 96
  for g in groups:
   assert repr(rs.GroupDescriptor.parse(repr(g))) == repr(g)

 def test_no_column_fails(self):
  assert failing_columns() == {}

 @pytest.mark.parametrize("pairing,group,failing", [
     ("symplectic", ("SO", 0), 24),   # SO(r) for a symplectic factor
     ("orthogonal", ("SO", 1), 24)])  # SO(r + 1) for an orthogonal one
 def test_dual_group_table_is_needed(self, monkeypatch, pairing, group,
                                     failing):
  monkeypatch.setitem(rs._DUAL_GROUP, pairing, group)
  assert failing_columns() == {"compact_volume_ratio": failing,
                               "discriminant_ratio": failing}

 @pytest.mark.parametrize("mutant,failing", [
     (larger_h, 48), (pgl_h, 12), (one_copy, 12)])
 def test_choices_are_needed(self, monkeypatch, mutant, failing):
  rule = rs.case_groups
  monkeypatch.setattr(rs, "case_groups",
                      lambda factors, over_e:
                      mutant(*rule(factors, over_e), over_e))
  assert failing_columns() == {"compact_volume_ratio": failing,
                               "discriminant_ratio": failing}

 def test_pgl_or_sl_in_g_is_not_seen(self, monkeypatch):
  # PGL(r) and SL(r) have the same degrees, so nothing computed from G
  # tells them apart: the mutant passes every (case, n)
  rule = rs.case_groups
  g, _ = sl_g(*rule({"M": ("linear", 2), "N": ("linear", 3)}, True), True)
  assert repr(g) == "SL(2)/C x SL(3)/C"
  monkeypatch.setattr(rs, "case_groups",
                      lambda factors, over_e:
                      sl_g(*rule(factors, over_e), over_e))
  assert failing_columns() == {}

 def test_orthogonal_factor_over_q_is_rejected(self):
  factors = {"M": ("symplectic", 4), "N": ("orthogonal", 4)}
  assert [repr(g) for g in rs.case_groups(factors, True)] == \
      ["SO(4)/C x SO(5)/C", "SO(4)/C"]
  # no family has an orthogonal factor over Q: a real SO needs a signature
  with pytest.raises(rs.UnsupportedGroup):
   rs.case_groups(factors, False)


class TestWeylOrders:
 # |W| is the product of the degrees; C and BC share B's Weyl group
 @pytest.mark.parametrize("rtype,rank,family,n", [
     ("A", 1, "SL", 2), ("A", 2, "SL", 3), ("A", 3, "SL", 4),
     ("B", 2, "SO", 5), ("B", 3, "SO", 7), ("C", 3, "SO", 7),
     ("BC", 2, "SO", 5), ("D", 2, "SO", 4), ("D", 3, "SO", 6),
     ("D", 4, "SO", 8)])
 def test_bruteforce_is_product_of_degrees(self, rtype, rank, family, n):
  system = a_roots(rank) if rtype == "A" else rs.roots(rtype, rank)
  assert weyl_order_bruteforce(system) == math.prod(rs._degrees(family, n))

 def test_unsupported_root_system(self):
  with pytest.raises(rs.UnsupportedGroup):
   rs.roots("G2", 2)


class TestWeylIndex:
 def test_sl_even_split(self):
  for m in (1, 2, 3):
   assert rs.invariants("SL(%d)/R" % (2 * m)).weyl_index == 2
   assert rs.invariants("PGL(%d)/R" % (2 * m)).weyl_index == 2

 def test_sl_odd_split(self):
  for k in (3, 5, 7):
   assert rs.invariants("SL(%d)/R" % k).weyl_index == 1

 def test_so_odd_odd(self):
  for k, l in ((1, 1), (2, 1), (2, 2), (3, 1)):
   assert rs.invariants("SO(%d,%d)" % (2 * k + 1, 2 * l + 1)).weyl_index \
       == math.comb(k + l, k)

 def test_complex_groups(self):
  for g in ("SL(4)/C", "PGL(3)/C", "SO(5)/C", "SL(4)/C x PGL(2)/C"):
   assert rs.invariants(g).weyl_index == 1

 @pytest.mark.parametrize("g", [
     "SL(4)/R", "SL(5)/R", "SL(6)/R", "SL(7)/R", "SL(8)/R", "SL(9)/R",
     "SO(3,3)", "SO(5,3)", "SO(5,5)", "SO(7,3)", "SO(7,1)", "PGL(4)/C",
     "SL(4)/C", "SO(5)/C"])
 def test_chamber_enumeration(self, g):
  assert rs.chamber_check(g)

 @pytest.mark.parametrize("g", ["SO(5,3)", "SL(6)/R", "SL(7)/R"])
 def test_chamber_orbit_checked_against_degrees(self, monkeypatch, g):
  # negative control: a wrong B-type degree must fail the check; the
  # orbits here are of type B, C and BC
  degrees = rs._degrees

  def mutant(family, n):
   d = degrees(family, n)
   return d[:-1] + [d[-1] + 1] if family == "SO" and n % 2 == 1 and d \
       else d
  monkeypatch.setattr(rs, "_degrees", mutant)
  assert rs.chamber_check(g) is False


class TestIntegerOrbit:
 """The chamber orbit runs over Z; the Fraction orbit it replaced is the
 reference."""

 # the chamber-checked groups with a restricted pair (the complex groups
 # SL(4)/C, PGL(4)/C and SO(5)/C have none)
 @pytest.mark.parametrize("g", [
     "SL(4)/R", "SL(5)/R", "SL(6)/R", "SL(7)/R", "SL(8)/R", "SL(9)/R",
     "SO(3,3)", "SO(5,3)", "SO(5,5)", "SO(7,3)", "SO(7,1)"])
 def test_orbit_equals_fraction_orbit(self, g):
  big = rs._restricted_pair(rs._descriptor(g))[0]
  orbit = rs._generic_orbit(big)
  assert orbit == fraction_generic_orbit(big)
  assert all(type(x) is int for v in orbit for x in v)

 def test_reflect_matches_fraction_reflect(self):
  for rtype, rank in (("B", 3), ("C", 3), ("D", 4), ("BC", 2)):
   system = rs.roots(rtype, rank)
   for v in system + [(7, -3, 5, 2)[:rank]]:
    for a in system:
     assert rs._reflect(v, a) == fraction_reflect(v, a)

 @pytest.mark.parametrize("v,a", [((1, 0), (2, 2)), ((1, 0), (1, 2)),
                                  ((1, 1, 0), (1, 1, 1))])
 def test_non_integral_coefficient_raises(self, v, a):
  # negative control: 2(v,a)/(a,a) is 1/2, 2/5 and 4/3; truncating it
  # would give a wrong vector instead of an error
  assert fraction_reflect(v, a) != \
      tuple(x - (2 * sum(p * q for p, q in zip(v, a)) //
                 sum(y * y for y in a)) * y for x, y in zip(v, a))
  with pytest.raises(ValueError, match="leaves the lattice"):
   rs._reflect(v, a)


class TestMacdonald:
 @pytest.mark.parametrize("g", COMPACT)
 def test_exponents_are_degrees_minus_one(self, g):
  exps, (family, n) = compact_exponents(g)
  assert sorted(m + 1 for m in exps) == sorted(rs._degrees(family, n))

 @pytest.mark.parametrize("g", COMPACT)
 def test_volume_matches_invariants(self, g):
  assert macdonald_volume(g) == PeriodScalar.gen(
      "pi", rs.invariants("%s(%d)/C" % compact_exponents(g)[1]).delta_K)


# the groups of the benchmark's trace-form controls
TRACE_FORM_GROUPS = (["GL(%d)/%s" % (n, b) for n in range(1, 5) for b in "RC"]
                     + ["SO(%d)" % n for n in range(2, 6)])


class TestTraceForm:
 def test_gl_constant_one(self):
  for n in range(1, 5):
   assert rs.dual_trace_form("GL(%d)/R" % n) == 1
   assert rs.dual_trace_form("GL(%d)/C" % n) == 1

 def test_so_constant_quarter(self):
  for n in range(2, 6):
   assert rs.dual_trace_form("SO(%d)" % n) == Fraction(1, 4)

 def test_degenerate(self):
  with pytest.raises(rs.UnsupportedGroup, match="degenerate rank"):
   rs.dual_trace_form("SO(1)")

 def test_restriction_of_scalars_keeps_the_constant(self):
  # over C both Gram matrices are doubled block-diagonally, which leaves
  # the constant and the degenerate-rank rejection as over R
  for n in range(2, 7):
   assert rs.dual_trace_form("SO(%d)/C" % n) == Fraction(1, 4)
   assert rs.dual_trace_form("SO(%d)/C x SO(%d)" % (n, n)) == \
       Fraction(1, 4)
  with pytest.raises(rs.UnsupportedGroup, match="degenerate rank"):
   rs.dual_trace_form("SO(1)/C")
  with pytest.raises(rs.UnsupportedGroup, match="mixed duality"):
   rs.dual_trace_form("GL(2)/C x SO(4)/C")

 @pytest.mark.parametrize("grams", [
     ([[2, 0], [0, 2]], [[4, 0], [0, 2]]),   # two ratios
     ([[2, 1], [1, 2]], [[2, 0], [0, 2]])])  # an entry against a zero
 def test_non_proportional_forms(self, monkeypatch, grams):
  # SO(5): the Cartan basis has length 5, the dual one length 4
  monkeypatch.setattr(rs, "_gram", lambda b: grams[len(b[0]) == 4])
  with pytest.raises(rs.UnsupportedGroup, match="not proportional"):
   rs.dual_trace_form("SO(5)")

 @pytest.mark.parametrize("g", ["SO(4)", "SO(5)", "SO(4)/C x SO(4)"])
 def test_non_orthogonal_basis(self, monkeypatch, g):
  # a Cartan basis with a non-scalar Gram matrix: G D is no multiple of 1,
  # and G^-1 no multiple of D
  split = rs._so_cartan

  def skewed(n):
   basis = split(n)
   basis[1] = [x + y for x, y in zip(basis[0], basis[1])]
   return basis
  monkeypatch.setattr(rs, "_so_cartan", skewed)
  for rule in (rs.dual_trace_form, inverse_dual_trace_form):
   with pytest.raises(rs.UnsupportedGroup, match="not proportional"):
    rule(g)

 @pytest.mark.parametrize("g", TRACE_FORM_GROUPS + [
     "SO(%d)/C x SO(%d)" % (n, n) for n in range(1, 7)] + [
     "SO(%d)/C" % n for n in range(1, 7)] + [
     "GL(2)/C x SO(4)/C", "GL(3)/R x GL(2)/C", "SO(3) x SO(4)/C"])
 def test_equals_the_inverse_rule(self, g):
  # G D = lambda 1 and G^-1 = D / lambda are one condition on invertible
  # Gram matrices, so the constant and every refusal are the parent's
  def outcome(rule):
   try:
    return rule(g)
   except rs.UnsupportedGroup as e:
    return str(e)
  got = outcome(rs.dual_trace_form)
  assert got == outcome(inverse_dual_trace_form)
  assert type(got) in (Fraction, str)
