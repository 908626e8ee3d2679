"""Archimedean Gamma-products, leading coefficients, and the exponent
table: computed vs closed-form values for every case family."""

from fractions import Fraction

import pytest

from artifact import lgamma as lg
from artifact import hodge as hg
from artifact import cases
from artifact.cases import CASES
from artifact.periodring import PeriodScalar

from test_hodge import unit


class TestGammaProduct:
 def test_mul_and_cancel(self):
  a = lg.GammaProduct({("C", 0): 1, ("R", 1): 2})
  b = lg.GammaProduct({("C", 0): -1})
  assert (a * b).factors == {("R", 1): 2}

 def test_pow(self):
  a = lg.GammaProduct({("C", 2): 1})
  assert (a ** 3).factors == {("C", 2): 3}

 def test_bad_kind(self):
  with pytest.raises(ValueError):
   lg.GammaProduct({("H", 0): 1})


class TestLInfinity:
 def test_trivial_motive(self):
  assert lg.l_infinity(unit()).factors == {("R", 0): 1}

 def test_pair_rule(self):
  t = hg.tensor(hg.standard_motive("pgl-q", 2, "M"),
                hg.standard_motive("pgl-q", 2, "N"))
  assert lg.l_infinity(t).factors == {("C", 0): 1, ("C", -1): 2}

 def test_pgl_pair_squared_after_restriction(self):
  t = hg.restrict_scalars(hg.tensor(hg.standard_motive("pgl-e", 2, "M"),
                                    hg.standard_motive("pgl-e", 2, "N")))
  assert lg.l_infinity(t).factors == {("C", 0): 2, ("C", -1): 4}

 def test_diagonal_rule(self):
  h = hg.HodgeStructure(2, {(2, 0): 1, (1, 1): 3, (0, 2): 1},
                        fplus=2, fminus=1)
  assert lg.l_infinity(h).factors == {("C", 0): 1, ("R", -1): 2,
                                      ("R", 0): 1}


class TestLeadingCoeff:
 def test_gamma_c_at_two(self):
  g = lg.GammaProduct({("C", 0): 1})
  assert lg.leading_coeff(g, 2) == PeriodScalar.gen("pi", -2)

 def test_gamma_c_pole(self):
  g = lg.GammaProduct({("C", 0): 1})
  assert lg.leading_coeff(g, 0) == PeriodScalar.one()
  assert lg.leading_coeff(g, -2) == PeriodScalar.gen("pi", 2)

 def test_gamma_r_half_powers(self):
  g = lg.GammaProduct({("R", 0): 1})
  assert lg.leading_coeff(g, 1) == PeriodScalar.one()
  assert lg.leading_coeff(g, 2) == PeriodScalar.gen("pi", -1)
  assert lg.leading_coeff(g, 3) == PeriodScalar.gen("pi", -1)
  assert lg.leading_coeff(g, -1) == PeriodScalar.gen("pi", 1)

 def test_monoid_homomorphism(self):
  a = lg.GammaProduct({("C", 1): 2, ("R", 0): 1})
  b = lg.GammaProduct({("C", -1): 1, ("R", 3): 2})
  for s0 in (-2, 0, 1, 4):
   assert lg.leading_coeff(a * b, s0) == \
       lg.leading_coeff(a, s0) * lg.leading_coeff(b, s0)

 def test_so_adjoint_example(self):
  # the n=2 even orthogonal case gives pi^-18 at 0 after restriction
  adj = lg.adjoint_structure(hg.CaseMotives("so-even", 2))
  res = hg.restrict_scalars(adj)
  assert lg.leading_coeff(lg.l_infinity(res), 0) == \
      PeriodScalar.gen("pi", -18)


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
    spec = cases.get(case, n)
    single = lg.pi_exponent(lg.leading_coeff(
        lg.l_infinity(lg._doubled(hg.CaseMotives(case, n).tensor)),
        spec.r(n)))
    rows = {r["name"]: r["computed_exp"]
            for r in lg.table1_row(hg.CaseMotives(case, n))}
    assert rows["rho_at_center"] == 2 * single

 def test_functional_equation_shift(self):
  # evaluating at s0 + r equals evaluating the r-twist at s0
  for case in ("pgl-q", "so-even"):
   for n in (1, 2, 3):
    t = hg.CaseMotives(case, n).tensor
    r = cases.get(case, n).r(n)
    if t.over_e:
     t = hg.restrict_scalars(t)
    for s0 in (-1, 0, 2):
     assert lg.leading_coeff(lg.l_infinity(t), s0 + r) == \
         lg.leading_coeff(lg.l_infinity(hg.tate_twist(t, r)), s0)


class TestConsistency:
 def test_pi_exponent_rejects_mixed(self):
  with pytest.raises(ValueError):
   lg.pi_exponent(PeriodScalar.gen("Q0", 1))
