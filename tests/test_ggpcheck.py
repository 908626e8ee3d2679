"""Case drivers, the volume ledger with verifiable derivations, and the
quadratic-field rotation lemma."""

from fractions import Fraction
import random

import pytest

from artifact import ggpcheck as gc
from artifact.cases import CASES
from artifact.periodring import PeriodScalar
from artifact.ggpcheck import (run_case, torsion_ledger,
                               VolumeLedger, LedgerUnderdetermined,
                               rotation_check, verify_all, QSqrt,
                               _matvec, _frac_mat)
from artifact.linalg import identity, matmul, transpose
from reference_kernels import dense_solve, three_reduce_verdicts


class TestRunCase:
 def test_so_even_n1(self):
  rep = run_case("so-even", 1)
  assert rep.m_expected == 2
  assert rep.condensate["pass"] and rep.passed()

 def test_pgl_q_n2(self):
  rep = run_case("pgl-q", 2)
  assert rep.m_expected == 6
  assert rep.passed()

 def test_pgl_e_n1(self):
  rep = run_case("pgl-e", 1)
  assert rep.m_expected == 2
  assert rep.passed()

 @pytest.mark.parametrize("case", CASES)
 @pytest.mark.parametrize("n", range(1, 9))
 def test_everything_passes(self, case, n):
  rep = run_case(case, n)
  assert rep.passed(), (case, n, rep.failing())
  assert rep.gamma1["pass"] and rep.gamma2["pass"]

 def test_n_bounds(self):
  with pytest.raises(ValueError):
   run_case("pgl-q", 0)
  with pytest.raises(ValueError):
   run_case("pgl-q", 13)

 def test_report_dict_schema(self):
  d = run_case("so-odd", 2).as_dict()
  assert set(d) == {"case", "n", "table1", "condensate", "gamma1",
                    "gamma2"}
  assert set(d["table1"][0]) == {"name", "computed_exp", "expected_exp",
                                 "pass"}
  assert set(d["condensate"]) == {"residual", "m", "pass"}
  assert set(d["gamma1"]) == {"exponent", "pass"}
  assert isinstance(d["gamma1"]["exponent"], str)
  assert set(d["gamma2"]) == {"residual", "pass"}

 def test_passed_iff_nothing_fails(self):
  rep = run_case("pgl-e", 2)
  assert rep.passed() and rep.failing() is None
  rep.gamma2 = dict(rep.gamma2, **{"pass": False})
  assert not rep.passed() and rep.failing() == "gamma2"

 def test_injected_fault_names_condensate(self):
  rep = run_case("pgl-q", 3, extra=PeriodScalar.gen("Q0", 1))
  assert not rep.passed()
  assert rep.failing() == "condensate"


class TestLedger:
 def test_targets_derive(self):
  led = torsion_ledger()
  assert set(led.derivations) == {"oinkA", "oink1", "buggerme"}

 def test_classes(self):
  led = torsion_ledger()
  assert led.derivations["oinkA"]["class"] == "sqrtQ*"
  assert led.derivations["oink1"]["class"] == "Q*"
  assert led.derivations["buggerme"]["class"] == "sqrtQ*"

 def test_oink1_integer_coefficients(self):
  rec = torsion_ledger().derivations["oink1"]
  assert all(c.denominator == 1 for c in rec["coefficients"].values())

 def test_half_coefficients(self):
  led = torsion_ledger()
  for name in ("oinkA", "buggerme"):
   cs = led.derivations[name]["coefficients"].values()
   assert all(c.denominator <= 2 for c in cs)
   assert any(c.denominator == 2 for c in cs)

 def test_replay_is_exact(self):
  led = torsion_ledger()
  for rec in led.derivations.values():
   assert led.replay(rec)

 def test_unconditional(self):
  led = torsion_ledger()
  assert not any(rec["conditional"] for rec in led.derivations.values())

 def test_conditional_reported(self):
  led = VolumeLedger()
  rec = led.derive("kp-compare")
  assert rec["conditional"] and rec["class"] == "sqrtQ*"
  assert led.replay(rec)

 def test_remove_rt2_negative_control(self):
  led = VolumeLedger().without("rt2")
  with pytest.raises(LedgerUnderdetermined, match="underdetermined"):
   led.derive("buggerme")

 def test_oinkA_survives_without_rt2(self):
  rec = VolumeLedger().without("rt2").derive("oinkA")
  assert rec["class"] == "sqrtQ*"

 def test_default_classes(self):
  led = VolumeLedger()
  classes = {name: led.derive(name)["class"] for name in gc.TARGETS}
  assert classes == {"oinkA": "sqrtQ*", "oink1": "Q*",
                     "buggerme": "sqrtQ*", "kp-compare": "sqrtQ*"}

 def test_halved_axioms_derive_in_rational_class(self):
  # halving every axiom turns the lattice L into L/2, and 2t lies in L
  # iff t lies in L/2: every target, at worst sqrtQ* before, is now Q*
  halved = [(name, {s: v / 2 for s, v in form.items()}, kind)
            for name, form, kind in gc.default_axioms()]
  led = VolumeLedger(halved)
  for name in gc.TARGETS:
   rec = led.derive(name)
   assert rec["class"] == "Q*", name
   assert led.replay(rec)

 def test_unknown_target(self):
  with pytest.raises(ValueError):
   VolumeLedger().derive("nonsense")


SIGMA = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
V1 = [[1, 1, 1], [1, -1, 0], [0, 1, -1]]


def rational_rotation(t):
 """A rational orthogonal matrix commuting with the coordinate cycle:
 a + b*sigma + c*sigma^2 with a rational point on the norm-one conic."""
 t = Fraction(t)
 m = Fraction(-(2 * t + 1), t * t + t + 1)
 p, q = 1 + t * m, m
 a = (1 + 2 * p + q) / 3
 b = (1 - p + q) / 3
 c = (1 - p - 2 * q) / 3
 sig = _frac_mat(SIGMA)
 s2 = matmul(sig, sig)
 return [[a * (i == j) + b * sig[i][j] + c * s2[i][j] for j in range(3)]
         for i in range(3)]


class TestRotation:
 def test_identity_case(self):
  ok, desc = rotation_check(V1, V1, SIGMA)
  assert ok and desc["b"] == 1 and desc["scale"] == 1

 def test_round_trip_100(self):
  rng = random.Random(20260823)
  for _ in range(100):
   t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
   alpha0 = rational_rotation(t)
   assert matmul(transpose(alpha0), alpha0) == identity(3)
   v2 = [_matvec(alpha0, row) for row in _frac_mat(V1)]
   ok, desc = rotation_check(V1, v2, SIGMA)
   assert ok and desc["b"] == 1
   det = desc["change_det"]
   assert det.y == 0 and abs(det.x) == 1, (t, det)

 def test_quadratic_square_class(self):
  # same lattice presented by a longer plane vector first: the conformal
  # ratio is 3, so the rotation genuinely lives in Q(sqrt 3)
  v2 = [[1, 1, -2], [0, 1, -1], [1, 1, 1]]
  ok, desc = rotation_check(V1, v2, SIGMA)
  assert ok and desc["b"] == 3
  assert any(x.y != 0 for row in desc["alpha"] for x in row)
  assert not desc["change_det"].is_zero()

 def test_axis_off_the_diagonal(self):
  # conjugating by a sign change moves the invariant axis of sigma to
  # (1, 1, -1); the lemma holds there as for the coordinate cycle
  d = [1, 1, -1]
  sig = [[d[i] * SIGMA[i][j] * d[j] for j in range(3)] for i in range(3)]

  def flip(m):
   return [[x * e for x, e in zip(row, d)] for row in m]

  ok, desc = rotation_check(flip(V1), flip(V1), sig)
  assert ok and desc["b"] == 1 and desc["scale"] == 1
  ok, desc = rotation_check(flip(V1), flip([[1, 1, -2], [0, 1, -1],
                                            [1, 1, 1]]), sig)
  assert ok and desc["b"] == 3
  assert not desc["change_det"].is_zero()

 def test_unequal_axis_volume(self):
  third = Fraction(1, 3)
  v2 = [[3, 3, 3], [2 * third, -third, -third],
        [-third, 2 * third, -third]]
  with pytest.raises(ValueError, match="invariant volumes differ"):
   rotation_check(V1, v2, SIGMA)

 def test_unequal_full_volume(self):
  v2 = [[2, 2, 2], [1, -1, 0], [0, 1, -1]]
  with pytest.raises(ValueError, match="volumes differ"):
   rotation_check(V1, v2, SIGMA)

 def test_not_stable(self):
  v2 = [[1, 0, 0], [0, 1, 0], [0, 0, 3]]
  with pytest.raises(ValueError, match="sigma-stable"):
   rotation_check(V1, v2, SIGMA)

 def test_sigma_must_be_orthogonal(self):
  with pytest.raises(ValueError, match="orthogonal"):
   rotation_check(V1, V1, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])

 def test_sigma_must_have_order_3(self):
  with pytest.raises(ValueError, match="order"):
   rotation_check(V1, V1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

 def test_qsqrt_arithmetic(self):
  x = QSqrt(5, Fraction(1, 2), Fraction(3))
  assert (x * x.inv()) == QSqrt(5, 1, 0)


class TestVerifyAll:
 def test_all_pass(self):
  status, reports, lines = verify_all(3)
  assert status == 0
  assert len(reports) == 12
  assert lines[-1] == "all identities verified"

 def test_usage_error(self):
  with pytest.raises(ValueError):
   verify_all(0)
  with pytest.raises(ValueError):
   verify_all(13)

 def test_perturbation_flips_and_names(self):
  status, _, lines = verify_all(
      3, perturb=("so-even", 2, PeriodScalar.gen("pi", Fraction(1, 2))))
  assert status != 0
  assert any("first failing identity: so-even n=2" in l for l in lines)


# ---------------------------------------------------------------------------
# sparse kernels against the dense references

AXIOM_NAMES = [name for name, _, _ in gc.default_axioms()]
FAULTS = (PeriodScalar.gen("pi", Fraction(1, 2)), PeriodScalar.gen("twopii"),
          PeriodScalar.gen("twopii", -1))


def _solve_or_none(fn, ledger, target):
 try:
  return list(fn(ledger, target).items())
 except LedgerUnderdetermined:
  return None


class TestSparseSolve:
 def test_default_ledger_matches_dense(self):
  led = VolumeLedger()
  for name, target in gc.TARGETS.items():
   got = list(led._solve(target).items())
   assert got == list(dense_solve(led, target).items()), name

 @pytest.mark.parametrize("removed", AXIOM_NAMES)
 def test_single_removal_matches_dense(self, removed):
  led = VolumeLedger().without(removed)
  for name, target in gc.TARGETS.items():
   got = _solve_or_none(VolumeLedger._solve, led, target)
   assert got == _solve_or_none(dense_solve, led, target), (removed, name)

 def test_explicit_zero_entries_read_as_absent(self):
  # the public constructor does not drop zero coefficients; a dependent
  # axiom and the targets carry one here
  axioms = [(name, dict(form, zz=Fraction(0)), kind)
            for name, form, kind in gc.default_axioms()]
  name, form, kind = axioms[0]
  axioms.append(("dup", dict(form), kind))
  led = VolumeLedger(axioms)
  for name, target in gc.TARGETS.items():
   target = dict(target, zz=Fraction(0))
   assert _solve_or_none(VolumeLedger._solve, led, target) == \
       _solve_or_none(dense_solve, led, target) is not None, name

 def test_underdetermined_target(self):
  with pytest.raises(LedgerUnderdetermined):
   VolumeLedger().without("rt2")._solve(gc.TARGETS["buggerme"])


class TestOneReduction:
 @pytest.mark.parametrize("case", CASES)
 def test_verdicts_match_three_reductions(self, case):
  for n in range(1, 13):
   for extra in (None,) + FAULTS:
    rep = run_case(case, n, extra=extra)
    want = three_reduce_verdicts(case, n, extra)
    assert (rep.gamma1, rep.gamma2, rep.condensate) == want, \
        (case, n, extra)
