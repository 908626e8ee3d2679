"""Archimedean Gamma-factor multiplicity maps, the pi-power of their
leading coefficients, and the exponent table: computed vs closed-form
values for every case family, and against the hand-built (f+, f-)
versions of the doubled structures."""

from fractions import Fraction
import functools
import math

import pytest

from artifact import cases
from artifact import lgamma as lg
from artifact import hodge as hg
from artifact import rootsys as rs
from artifact.cases import CASES
from artifact.periodring import PeriodScalar

from reference_kernels import (frobenius_data, written_out_adjoint_structure,
                               written_out_case_data, written_out_doubled,
                               written_out_l_infinity,
                               written_out_leading_coeff)
from test_hodge import unit


class TestLInfinity:
 def test_trivial_motive(self):
  assert lg.l_infinity(unit()) == {("R", 0): 1}

 def test_pair_rule(self):
  t = hg.tensor(hg.standard_motive("pgl-q", 2, "M"),
                hg.standard_motive("pgl-q", 2, "N"))
  assert lg.l_infinity(t) == {("C", 0): 1, ("C", -1): 2}

 def test_pgl_pair_squared_after_restriction(self):
  t = hg.restrict_scalars(hg.tensor(hg.standard_motive("pgl-e", 2, "M"),
                                    hg.standard_motive("pgl-e", 2, "N")))
  assert lg.l_infinity(t) == {("C", 0): 2, ("C", -1): 4}

 def test_diagonal_rule(self):
  h = hg.HodgeStructure(2, {(2, 0): 1, (1, 1): 3, (0, 2): 1}, trace=1)
  assert lg.l_infinity(h) == {("C", 0): 1, ("R", -1): 2, ("R", 0): 1}


class TestLeadingCoeff:
 def test_gamma_c_at_two(self):
  assert lg.pi_power({("C", 0): 1}, 2) == -2

 def test_gamma_c_pole(self):
  g = {("C", 0): 1}
  assert lg.pi_power(g, 0) == 0
  assert lg.pi_power(g, -2) == 2

 def test_gamma_r_half_powers(self):
  g = {("R", 0): 1}
  assert lg.pi_power(g, 1) == 0
  assert lg.pi_power(g, 2) == -1
  assert lg.pi_power(g, 3) == -1
  assert lg.pi_power(g, -1) == 1

 def test_linear_over_summed_maps(self):
  a = {("C", 1): 2, ("R", 0): 1}
  b = {("C", -1): 1, ("R", 3): 2, ("R", 0): -1}
  summed = {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}
  for s0 in (-2, 0, 1, 4):
   assert lg.pi_power(summed, s0) == \
       lg.pi_power(a, s0) + lg.pi_power(b, s0)
   assert lg.pi_power({k: -3 * m for k, m in a.items()}, s0) == \
       -3 * lg.pi_power(a, s0)
  assert lg.pi_power({}, 5) == 0

 def test_bad_kind(self):
  with pytest.raises(ValueError, match="unknown factor kind"):
   lg.pi_power({("H", 0): 1}, 0)
  with pytest.raises(ValueError, match="unknown factor kind"):
   lg.pi_power({("C", 0): 1, ("H", 0): 0}, 0)

 def test_so_adjoint_example(self):
  # the n=2 even orthogonal case gives pi^-18 at 0 after restriction
  adj = lg.adjoint_structure(hg.CaseMotives("so-even", 2))
  res = hg.restrict_scalars(adj)
  assert lg.pi_power(lg.l_infinity(res), 0) == -18


class TestTable:
 @pytest.mark.parametrize("case", CASES)
 @pytest.mark.parametrize("n", range(1, 9))
 def test_all_rows_match(self, case, n):
  for row in lg.table1_row(hg.CaseMotives(case, n)):
   assert row["pass"], (case, n, row)
   assert Fraction(row["computed_exp"]).denominator == 1

 def test_so_discriminant_ratio(self):
  for n in (1, 2, 5):
   rows = {r["name"]: r["computed_exp"]
           for r in lg.table1_row(hg.CaseMotives("so-even", n))}
   assert rows["discriminant_ratio"] == -n

 def test_pgl_complex_ratio_example(self):
  rows = {r["name"]: r["computed_exp"]
          for r in lg.table1_row(hg.CaseMotives("pgl-e", 1))}
  assert rows["ratio"] == -2

 def test_so_odd_ratio_example(self):
  rows = {r["name"]: r["computed_exp"]
          for r in lg.table1_row(hg.CaseMotives("so-odd", 1))}
  assert rows["ratio"] == -4

 def test_rho_is_square_in_pgl_cases(self):
  # the center value doubles the single product's exponent
  for case in ("pgl-q", "pgl-e"):
   for n in (1, 2, 3):
    single = lg.pi_power(
        lg.l_infinity(lg._doubled(hg.CaseMotives(case, n).tensor)),
        written_out_case_data(case, n).r)
    rows = {r["name"]: r["computed_exp"]
            for r in lg.table1_row(hg.CaseMotives(case, n))}
    assert rows["rho_at_center"] == 2 * single

 def test_functional_equation_shift(self):
  # evaluating at s0 + r equals evaluating the r-twist at s0
  for case in ("pgl-q", "so-even"):
   for n in (1, 2, 3):
    t = hg.CaseMotives(case, n).tensor
    r = written_out_case_data(case, n).r
    if t.over_e:
     t = hg.restrict_scalars(t)
    for s0 in (-1, 0, 2):
     assert lg.pi_power(lg.l_infinity(t), s0 + r) == \
         lg.pi_power(lg.l_infinity(hg.tate_twist(t, r)), s0)


class TestConsistency:
 def test_pi_power_is_the_pure_pi_scalar(self):
  # the leading coefficient is pi^pi_power times a rational number, with
  # no other period in it
  for g in ({("C", -1): 3, ("R", 1): -2}, rs.discriminant("SO(4,2)")):
   for s0 in (-3, 0, 2):
    x = lg.pi_power(g, s0)
    assert isinstance(x, Fraction)
    assert PeriodScalar.gen("pi", x) == written_out_leading_coeff(g, s0)


class TestRankCoincidence:
 """The pole order at s = 0 of the full group's adjoint L-factor equals
 delta(G) = rank G - rank K and the f+ of the doubled adjoint structure:
 the paper's rank coincidence, checked here only, not by the pipeline."""

 @pytest.mark.parametrize("case", CASES)
 def test_pole_order_is_delta(self, case):
  for n in range(1, 13):
   mot = hg.CaseMotives(case, n)
   h = lg._doubled(lg.adjoint_structure(mot))
   # Gamma_C(s + a) has a pole at 0 when a <= 0, Gamma_R(s + a) when a is
   # also even
   poles = sum(m for (kind, a), m in lg.l_infinity(h).items()
               if a <= 0 and (kind == "C" or a % 2 == 0))
   g, _ = rs.case_groups(mot.spec.factors(n), mot.spec.over_e)
   delta = rs.invariants(g).delta
   assert poles == delta == h.fplus, (case, n)


class TestWrittenOut:
 """The doubled tensor and doubled adjoint of every (case, n <= 12) carry
 the (f+, f-) counts the hand-built versions add up, and their L-factors
 and the case groups' discriminants have the same pi-power at every
 s0 in [-4, 4] as the written-out leading-coefficient rule gives."""

 @pytest.mark.parametrize("case", CASES)
 @pytest.mark.parametrize("n", range(1, 13))
 def test_matches_written_out(self, case, n):
  mot = hg.CaseMotives(case, n)
  assert frobenius_data(lg.adjoint_structure(mot)) == \
      written_out_adjoint_structure(mot)
  doubled = [(lg._doubled(mot.tensor),
              written_out_doubled(frobenius_data(mot.tensor))),
             (lg._doubled(lg.adjoint_structure(mot)),
              written_out_doubled(written_out_adjoint_structure(mot)))]
  for got, want in doubled:
   assert frobenius_data(got) == want
   factors = lg.l_infinity(got)
   assert factors == written_out_l_infinity(want)
   for s0 in range(-4, 5):
    assert PeriodScalar.gen("pi", lg.pi_power(factors, s0)) == \
        written_out_leading_coeff(written_out_l_infinity(want), s0)
  for group in rs.case_groups(mot.spec.factors(n), mot.spec.over_e):
   disc = rs.discriminant(group)
   for s0 in range(-4, 5):
    assert PeriodScalar.gen("pi", lg.pi_power(disc, s0)) == \
        written_out_leading_coeff(disc, s0)


# ---------------------------------------------------------------------------
# table1 for every n: each column is a cubic in n on each parity class

COLUMNS = ("compact_volume_ratio", "discriminant_ratio", "rho_at_center",
           "adjoint_at_zero", "ratio")
N_PIN = 64   # the cubics through n = 1..8 must predict every n up to here


def _cubic(points):
 """Coefficients (c0, c1, c2, c3), lowest first, of the cubic through four
 points (x, y): Newton's divided differences, expanded."""
 xs = [x for x, _ in points]
 dd = [Fraction(y) for _, y in points]
 for j in range(1, 4):
  for i in range(3, j - 1, -1):
   dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
 poly = [dd[3]]
 for i in (2, 1, 0):   # poly = poly * (x - xs[i]) + dd[i]
  poly = [a - xs[i] * b for a, b in zip([0] + poly, poly + [0])]
  poly[0] += dd[i]
 return tuple(poly)


def quasi_cubic(f):
 """(even cubic, odd cubic) through f(n) at n = 1..8, split by the parity
 of n, or None unless they predict f(n) at every n <= N_PIN."""
 cubics = tuple(_cubic([(n, f(n)) for n in range(2 - p, 9, 2)])
                for p in (0, 1))
 for n in range(1, N_PIN + 1):
  if sum(c * n ** k for k, c in enumerate(cubics[n % 2])) != f(n):
   return None
 return cubics


@functools.lru_cache(maxsize=None)
def computed_columns(case, n):
 return {r["name"]: r["computed_exp"]
         for r in lg.table1_row(hg.CaseMotives(case, n))}


def target_columns(spec, n):
 """The closed forms of spec.targets, with the ratio column that table1_row
 derives from them."""
 t = spec.targets(n)
 t["ratio"] = t["rho_at_center"] - t["adjoint_at_zero"]
 return t


def certificate(spec):
 """{column: whether the computed column and the closed form have the same
 pinned cubics}.  A column is a quasi-polynomial of degree <= 3 and period
 2 in n, on both sides (the pieces of M (x) N and of the adjoints run
 affinely in n with multiplicities at most linear, pi_power is linear in
 them, and Gamma_R's floor(k/2) gives the period), so equal cubics mean
 the column passes for every n."""
 out = {}
 for col in COLUMNS:
  computed = quasi_cubic(lambda n: computed_columns(spec.name, n)[col])
  target = quasi_cubic(lambda n: target_columns(spec, n)[col])
  out[col] = computed is not None and computed == target
 return out


class TestTable1EveryN:
 """Stanley, Enumerative Combinatorics I, sec. 4.4 (quasi-polynomials)."""

 def test_cubic_interpolation(self):
  f = lambda x: Fraction(3, 2) * x ** 3 - 2 * x + 7
  assert _cubic([(x, f(x)) for x in (1, 3, 4, 9)]) == (7, -2, 0,
                                                        Fraction(3, 2))
  assert quasi_cubic(lambda n: n ** 3 + n % 2) == ((0, 0, 0, 1),
                                                   (1, 0, 0, 1))
  assert quasi_cubic(lambda n: n ** 4) is None

 @pytest.mark.parametrize("case", CASES)
 def test_every_column_holds_for_every_n(self, case):
  spec = cases.SPECS[case]
  for n in range(1, 13):
   assert target_columns(spec, n) == {
       r["name"]: r["expected_exp"]
       for r in lg.table1_row(hg.CaseMotives(case, n))}
  assert certificate(spec) == dict.fromkeys(COLUMNS, True)

 def test_target_off_the_cubic_beyond_twelve_fails(self, monkeypatch):
  # a target that agrees with the table for n <= 12 and not beyond: every
  # checked n passes, and the certificate rejects the column
  spec = cases.SPECS["pgl-q"]
  targets = spec.targets

  def perturbed(n):
   t = targets(n)
   t["rho_at_center"] += Fraction(1, 7) * math.prod(n - k
                                                    for k in range(1, 13))
   return t

  monkeypatch.setattr(spec, "targets", perturbed)
  for n in range(1, 13):
   assert all(r["pass"] for r in lg.table1_row(hg.CaseMotives("pgl-q", n)))
  passed = {r["name"]: r["pass"]
            for r in lg.table1_row(hg.CaseMotives("pgl-q", 13))}
  assert passed["rho_at_center"] is False
  got = certificate(spec)
  assert got == dict(dict.fromkeys(COLUMNS, True), rho_at_center=False,
                     ratio=False)
