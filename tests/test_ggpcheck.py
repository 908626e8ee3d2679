"""Case drivers, the volume ledger with verifiable derivations, and the
quadratic-field rotation lemma."""

import ast
import collections
from fractions import Fraction
import functools
import inspect
import math
import random

import pytest

from artifact import cli
from artifact import exteralg
from artifact import ggpcheck as gc
from artifact import hodge as hg
from artifact import linalg
from artifact import rootsys
from artifact.cases import CASES
from artifact.periodring import PeriodScalar
from artifact.ggpcheck import (run_case, torsion_ledger,
                               VolumeLedger, LedgerUnderdetermined,
                               rotation_check, verify_all, QSqrt, _matvec)
from artifact.linalg import identity, matmul, transpose
from reference_kernels import (FieldQSqrt, dense_solve, frac_mat,
                               fraction_membership_class, inv,
                               qsqrt_rotation_check, three_reduce_verdicts,
                               written_out_axioms, written_out_case_data)


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

 def test_every_family_passes_beyond_the_cap(self, monkeypatch):
  # the cap n <= 12 bounds the CLI, not the identities: with check_n
  # lifted, every family still verifies for n = 13..32
  monkeypatch.setattr(gc, "check_n", lambda n, name: None)
  failed = [(case, n, rep.failing()) for case in CASES
            for n in range(13, 33)
            for rep in [run_case(case, n)] if not rep.passed()]
  assert failed == []

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
  rep.condensate = dict(rep.condensate, **{"pass": False})
  assert not rep.passed() and rep.failing() == "condensate"

 def test_injected_fault_names_condensate(self):
  rep = run_case("pgl-q", 3, extra=PeriodScalar.gen("Q0", 1))
  assert not rep.passed()
  assert rep.failing() == "condensate"

 @pytest.mark.parametrize("case", CASES)
 def test_hodge_structures_built_once(self, monkeypatch, case):
  # each standard motive, and each tensor of two of them, is built at
  # most once per run_case
  std, tensor = hg.standard_motive, hg.tensor
  built, made, tensors = collections.Counter(), {}, collections.Counter()

  def counting_std(case, n, factor, psi=False):
   built[case, n, factor, psi] += 1
   h = std(case, n, factor, psi)
   made[id(h)] = (factor, psi)
   return h

  def counting_tensor(a, b):
   if id(a) in made and id(b) in made:
    tensors[made[id(a)], made[id(b)]] += 1
   return tensor(a, b)

  monkeypatch.setattr(hg, "standard_motive", counting_std)
  monkeypatch.setattr(hg, "tensor", counting_tensor)
  for n in range(1, 13):
   built.clear()
   made.clear()
   tensors.clear()
   assert run_case(case, n).passed()
   want = [("M", False), ("N", False)]
   if written_out_case_data(case, n).twists:
    want.append(("M", True))
   assert built == {(case, n) + k: 1 for k in want}, (case, n)
   assert tensors == {(k, ("N", False)): 1 for k in want if k[0] == "M"}


class TestReductionLevel:
 """Negative control for the level run_case reduces at: sqrt(2) is trivial
 modulo sqrt(Q*) but not modulo Q*, so the split family must report it as
 the condensate residual while the three families over E absorb it."""

 def test_sqrt_rational_fault(self):
  fault = PeriodScalar.gen("sqrtdisc.2")
  for n in range(1, 13):
   rep = run_case("pgl-q", n, extra=fault)
   assert rep.failing() == "condensate", n
   assert rep.condensate["residual"] == "sqrtdisc.2", n
   for case in ("pgl-e", "so-even", "so-odd"):
    assert run_case(case, n, extra=fault).passed(), (case, n)


def halved_ledger():
 """The default ledger with every axiom halved."""
 return VolumeLedger([(name, {s: v / 2 for s, v in form.items()}, kind)
                      for name, form, kind in gc.default_axioms()])


def zero_entry_ledger():
 """The default ledger with an explicit zero entry zz in every axiom, and a
 dependent copy of the first axiom."""
 axioms = [(name, dict(form, zz=Fraction(0)), kind)
           for name, form, kind in gc.default_axioms()]
 name, form, kind = axioms[0]
 axioms.append(("dup", dict(form), kind))
 return VolumeLedger(axioms)


def torsion_records():
 """The records of torsion_ledger, by target."""
 return {rec["target"]: rec for rec, _ in torsion_ledger()}


class TestLedger:
 def test_targets_derive(self):
  # one (record, replayed) pair per target, in name order
  assert [rec["target"] for rec, _ in torsion_ledger()] == \
      ["buggerme", "oink1", "oinkA"]

 def test_classes(self):
  recs = torsion_records()
  assert recs["oinkA"]["class"] == "sqrtQ*"
  assert recs["oink1"]["class"] == "Q*"
  assert recs["buggerme"]["class"] == "sqrtQ*"

 def test_oink1_integer_coefficients(self):
  rec = torsion_records()["oink1"]
  assert all(c.denominator == 1 for c in rec["coefficients"].values())

 def test_half_coefficients(self):
  recs = torsion_records()
  for name in ("oinkA", "buggerme"):
   cs = recs[name]["coefficients"].values()
   assert all(c.denominator <= 2 for c in cs)
   assert any(c.denominator == 2 for c in cs)

 def test_replay_is_exact(self):
  # the replay verdicts torsion_ledger returns, and a fresh ledger's
  led = VolumeLedger()
  for rec, replayed in torsion_ledger():
   assert replayed and led.replay(rec)

 def test_unconditional(self):
  assert not any(rec["conditional"] for rec, _ in torsion_ledger())

 def test_derive_stores_nothing(self):
  # a ledger is its axioms: deriving leaves no state behind
  led = VolumeLedger()
  assert led.derive("oinkA") == led.derive("oinkA")
  assert vars(led) == {"axioms": led.axioms}

 def test_conditional_reported(self):
  led = VolumeLedger()
  rec = led.derive("kp-compare")
  assert rec["conditional"] and rec["class"] == "sqrtQ*"
  assert led.replay(rec)

 def test_remove_rt2_negative_control(self):
  led = VolumeLedger().without("rt2")
  with pytest.raises(LedgerUnderdetermined, match="underdetermined"):
   led.derive("buggerme")

 def test_symbol_in_no_axiom(self):
  # without KP2, cF is in no axiom, and the solve finds no combination
  with pytest.raises(LedgerUnderdetermined, match="underdetermined"):
   VolumeLedger().without("KP2").derive("kp-compare")

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
  led = halved_ledger()
  for name in gc.TARGETS:
   rec = led.derive(name)
   assert rec["class"] == "Q*", name
   assert led.replay(rec)

 def test_unknown_target(self):
  with pytest.raises(ValueError):
   VolumeLedger().derive("nonsense")


class TestAxiomsFromGroups:
 """The degree axioms are read off rootsys.invariants and
 exteralg.model_dims; mutants of that data are planted by monkeypatching
 the two functions that default_axioms calls."""

 def test_equal_to_written_out(self):
  got, want = gc.default_axioms(), written_out_axioms()
  assert [name for name, _, _ in got] == [name for name, _, _ in want]
  assert got == want
  # the pivot symbols of the sparse solve follow the forms' key order
  assert [list(form) for _, form, _ in got] == \
      [list(form) for _, form, _ in want]

 def test_repeated_name_rejected(self):
  # a repeat would collapse two coefficients into one entry and let
  # without() drop both axioms
  axioms = [("rt2" if name == "rt1" else name, form, kind)
            for name, form, kind in gc.default_axioms()]
  with pytest.raises(ValueError, match="repeated axiom name 'rt2'"):
   VolumeLedger(axioms)
  led = VolumeLedger()
  with pytest.raises(ValueError, match="repeated axiom name 'rt1'"):
   VolumeLedger(led.axioms + led.axioms[3:4])
  assert len(led.without("rt2").axioms) == len(led.axioms) - 1

 @staticmethod
 def window_shift(monkeypatch, dq, ddelta):
  dims = exteralg.model_dims
  monkeypatch.setattr(exteralg, "model_dims", lambda delta, q, k:
                      dims(delta + ddelta, q + dq, k))

 @staticmethod
 def dimension_shift(monkeypatch, group, by):
  invariants = rootsys.invariants

  def shifted(g):
   inv = invariants(g)
   if g == group:
    inv.d_symm += by
   return inv
  monkeypatch.setattr(rootsys, "invariants", shifted)

 @pytest.mark.parametrize("group", ["PGL(2)/C x PGL(2)/C x PGL(2)/C",
                                    "PGL(2)/C"])
 @pytest.mark.parametrize("by", [1, -1])
 def test_dimension_mutants_break_reference(self, monkeypatch, group, by):
  self.dimension_shift(monkeypatch, group, by)
  assert gc.default_axioms() != written_out_axioms()

 @pytest.mark.parametrize("dq, ddelta, count, changed", [
     (1, 0, 37, {"buggerme", "kp-compare"}),
     (-1, 0, 37, {"oinkA", "buggerme", "kp-compare"}),
     (0, -1, 40, {"buggerme", "kp-compare"}),
     (0, 1, 34, set())])
 def test_window_mutants(self, monkeypatch, dq, ddelta, count, changed):
  """A shifted or resized tempered window breaks the reference equality,
  but every derivation still succeeds, replays and keeps its class: the
  ledger sees q + 1, q - 1 and delta - 1 only in the coefficients.  On
  delta + 1 only the reference equality sees the mutant: the support
  axioms it drops, in degree q + delta + 1 of Y and of the quotient,
  follow from duality and the support axiom of the dual degree."""
  ref = VolumeLedger(written_out_axioms())
  self.window_shift(monkeypatch, dq, ddelta)
  assert gc.default_axioms() != written_out_axioms()
  led = VolumeLedger()
  assert len(led.axioms) == count
  differs = set()
  for name in gc.TARGETS:
   rec, want = led.derive(name), ref.derive(name)
   assert led.replay(rec) and rec["class"] == want["class"], name
   if rec["coefficients"] != want["coefficients"]:
    differs.add(name)
  assert differs == changed


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
 sig = frac_mat(SIGMA)
 s2 = matmul(sig, sig)
 return [[a * (i == j) + b * sig[i][j] + c * s2[i][j] for j in range(3)]
         for i in range(3)]


class TestRotation:
 def test_identity_case(self):
  ok, desc = rotation_check(V1, V1, SIGMA)
  assert ok and desc["b"] == 1 and desc["scale"] == 1
  assert set(desc) == {"b", "scale", "alpha", "change_det"}

 def test_round_trip_100(self):
  rng = random.Random(20260823)
  for _ in range(100):
   t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
   alpha0 = rational_rotation(t)
   assert matmul(transpose(alpha0), alpha0) == identity(3)
   v2 = [_matvec(alpha0, row) for row in frac_mat(V1)]
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
  assert desc["change_det"] != QSqrt(3)

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
  assert desc["change_det"] != QSqrt(3)

 def test_square_ratio_runs_the_factorization(self):
  # the plane parts' squared lengths have ratio b0 = 1/4, a rational
  # square that _sqfree must factor: b = 1 and scale 1/2
  v2 = [[3, -1, 1], [1, -1, 0], [0, 1, -1]]
  ok, desc = rotation_check(V1, v2, SIGMA)
  assert ok and desc["b"] == 1 and desc["scale"] == Fraction(1, 2)
  assert desc["change_det"] == QSqrt(1, 1)
  assert repr(desc) == repr(qsqrt_rotation_check(V1, v2, SIGMA)[1])

 def test_sqfree_bruteforce(self):
  for n in range(1, 2001):
   part, co = gc._sqfree(n)
   assert part * co * co == n, n
   assert all(part % (p * p) for p in range(2, math.isqrt(part) + 1)), n

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
  # the field operations of the references' QSqrt
  x = FieldQSqrt(5, Fraction(1, 2), Fraction(3))
  assert (x * x.inv()) == QSqrt(5, 1, 0)

 def test_qsqrt_keeps_fraction_parts(self):
  # a Fraction part is kept as it is; an int part becomes a Fraction
  half = Fraction(1, 2)
  x = QSqrt(5, half, 3)
  assert x.x is half and type(x.y) is Fraction and x.y == 3
  assert repr(x) == "(1/2 + 3 sqrt(5))"


V2_SQRT3 = [[1, 1, -2], [0, 1, -1], [1, 1, 1]]
# a rational rotation about the z-axis (3-4-5) to conjugate sigma by, so
# that sigma and the bases carry denominators
R345 = [[Fraction(3, 5), Fraction(-4, 5), 0],
        [Fraction(4, 5), Fraction(3, 5), 0],
        [0, 0, 1]]


def _conjugated(r, sigma, bases):
 """(R sigma R^T, the bases with every row v replaced by R v)."""
 r = frac_mat(r)
 sig = matmul(matmul(r, frac_mat(sigma)), transpose(r))
 return sig, [[_matvec(r, row) for row in frac_mat(b)] for b in bases]


def seeded_rotation_lattices(count=24, seed=20261018):
 """(v1, v2, sigma) triples: the second lattice is the first, or the one
 of square class 3, turned by a seeded rational rotation commuting with
 the coordinate cycle; every third triple is conjugated by R345."""
 rng = random.Random(seed)
 out = []
 for k in range(count):
  t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
  alpha = rational_rotation(t)
  base = V2_SQRT3 if k % 2 else V1
  v2 = [_matvec(alpha, row) for row in frac_mat(base)]
  if k % 3 == 2:
   sigma, (v1, v2) = _conjugated(R345, SIGMA, [V1, v2])
   out.append((v1, v2, sigma))
  else:
   out.append((V1, v2, SIGMA))
 return out


def integer_parts(alpha):
 """(P, Q, D) with alpha = (P + sqrt(b) Q)/D, P and Q integral."""
 d = math.lcm(*(c.denominator for row in alpha for x in row
                for c in (x.x, x.y)))
 return ([[int(x.x * d) for x in row] for row in alpha],
         [[int(x.y * d) for x in row] for row in alpha], d)


class TestIntegerRotation:
 """rotation_check runs over Z; the QSqrt matrix products it replaced are
 the reference."""

 LATTICES = seeded_rotation_lattices()

 def test_lattice_set_covers_both_classes_and_denominators(self):
  assert len(self.LATTICES) >= 20
  classes = {qsqrt_rotation_check(*lat)[1]["b"] for lat in self.LATTICES}
  assert classes == {1, 3}
  assert any(linalg.cleared(frac_mat(s))[1] > 1 for _, _, s in self.LATTICES)

 @pytest.mark.parametrize("k", range(len(LATTICES)))
 def test_desc_equals_reference(self, k):
  ok, desc = rotation_check(*self.LATTICES[k])
  ok_ref, ref = qsqrt_rotation_check(*self.LATTICES[k])
  assert ok is ok_ref is True
  assert set(desc) == set(ref)
  for key in ("b", "scale", "alpha", "change_det"):
   assert desc[key] == ref[key], key
  assert repr(desc) == repr(ref)

 @pytest.mark.parametrize("k", [0, 1, 2, 5])
 def test_identities_hold_on_the_integer_parts(self, k):
  v1, v2, sigma = self.LATTICES[k]
  desc = rotation_check(v1, v2, sigma)[1]
  p, q, d = integer_parts(desc["alpha"])
  gc._rotation_identities(p, q, d, desc["b"],
                          linalg.cleared(frac_mat(sigma))[0])

 @pytest.mark.parametrize("k", [0, 1, 2, 5])
 def test_doubled_sqrt_part_fails_orthogonality(self, k):
  # negative control: 2Q still commutes with sigma, but P^T P + b Q^T Q
  # moves off D^2
  v1, v2, sigma = self.LATTICES[k]
  desc = rotation_check(v1, v2, sigma)[1]
  p, q, d = integer_parts(desc["alpha"])
  q2 = [[2 * x for x in row] for row in q]
  with pytest.raises(AssertionError, match="not orthogonal"):
   gc._rotation_identities(p, q2, d, desc["b"],
                           linalg.cleared(frac_mat(sigma))[0])

 @pytest.mark.parametrize("k", [0, 1, 2, 5])
 def test_broken_commutation_fails_equivariance(self, k):
  # negative control: one entry of P moved breaks PS = SP
  v1, v2, sigma = self.LATTICES[k]
  desc = rotation_check(v1, v2, sigma)[1]
  p, q, d = integer_parts(desc["alpha"])
  p[0][0] += 1
  with pytest.raises(AssertionError, match="commute with sigma"):
   gc._rotation_identities(p, q, d, desc["b"],
                           linalg.cleared(frac_mat(sigma))[0])

 def test_no_fraction_matrix_path(self):
  # regression guard: the checks run on integer matrices, so the program
  # keeps neither a Fraction inverse nor QSqrt arithmetic; QSqrt only
  # records the output
  assert not hasattr(linalg, "inv")
  assert not [op for op in ("__add__", "__sub__", "__mul__", "inv", "is_zero")
              if hasattr(QSqrt, op)]
  for lat in self.LATTICES:
   assert rotation_check(*lat)[0] is True

 def test_adjugate_and_sqrt_determinant(self):
  rng = random.Random(20261019)

  def draw():
   return [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]

  for _ in range(50):
   m, q, b = draw(), draw(), rng.choice((1, 2, 3, 5))
   det = gc._det3(m)
   scalar = [[det * x for x in row] for row in identity(3)]
   assert matmul(gc._adj3(m), m) == matmul(m, gc._adj3(m)) == scalar
   x, y = gc._det3_sqrt(m, q, b)
   field = [[FieldQSqrt(b, s, t) for s, t in zip(*rows)]
            for rows in zip(m, q)]
   assert gc._det3(field) == QSqrt(b, x, y)


SINGULAR = [[1, 1, 1], [1, -1, 0], [2, 0, 1]]
UNSTABLE = [[1, 0, 0], [0, 1, 0], [0, 0, 3]]
THIRD = Fraction(1, 3)
LONG_AXIS = [[3, 3, 3], [2 * THIRD, -THIRD, -THIRD],
             [-THIRD, 2 * THIRD, -THIRD]]
# one failed hypothesis per ValueError of rotation_check, in check order
ROTATION_FAILURES = [
    ("sigma is not orthogonal", V1, V1, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ("sigma must have order exactly 3", V1, V1,
     [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ("sigma must have order exactly 3", V1, V1,
     [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    ("v1 is not a basis", SINGULAR, V1, SIGMA),
    ("v2 is not a basis", V1, SINGULAR, SIGMA),
    ("v1 is not sigma-stable", UNSTABLE, V1, SIGMA),
    ("v2 is not sigma-stable", V1, UNSTABLE, SIGMA),
    # conjugated, v2 is the unit lattice: det W = 1, so only the factor es
    # of the modulus es det W makes it fail
    ("v2 is not sigma-stable", V1, R345, SIGMA),
    ("lattice volumes differ", V1, [[2, 2, 2], [1, -1, 0], [0, 1, -1]],
     SIGMA),
    ("sigma-invariant volumes differ", V1, LONG_AXIS, SIGMA),
]


class TestRotationFailures:
 """Every ValueError of rotation_check carries the reference's message,
 for the coordinate cycle and for its R345 conjugate, whose denominators
 the integer tests (mod es det W among them) must scale by."""

 @pytest.mark.parametrize("conjugate", [False, True], ids=["sigma", "r345"])
 @pytest.mark.parametrize("message, v1, v2, sigma", ROTATION_FAILURES,
                          ids=[f[0] for f in ROTATION_FAILURES])
 def test_same_message_as_reference(self, message, v1, v2, sigma,
                                    conjugate):
  if conjugate:
   sigma, (v1, v2) = _conjugated(R345, sigma, [v1, v2])
  with pytest.raises(ValueError) as ref:
   qsqrt_rotation_check(v1, v2, sigma)
  with pytest.raises(ValueError) as got:
   rotation_check(v1, v2, sigma)
  assert str(got.value) == str(ref.value) == message

 def test_every_branch_is_covered(self):
  # the message templates of the ValueErrors raised in rotation_check
  templates = set()
  for node in ast.walk(ast.parse(inspect.getsource(gc.rotation_check))):
   if isinstance(node, ast.Raise) and node.exc.func.id == "ValueError":
    arg = node.exc.args[0]
    templates.add(arg.value if isinstance(arg, ast.Constant)
                  else arg.left.value)
  assert len(templates) == 6
  assert {f[0] for f in ROTATION_FAILURES} == \
      {t.replace("%s", name) for t in templates for name in ("v1", "v2")}


def cayley(a, b, c):
 """(1 - K)(1 + K)^-1 for the skew matrix K above the diagonal (a, b, c):
 rational and orthogonal, as 1 + K is invertible."""
 k = [[0, a, b], [-a, 0, c], [-b, -c, 0]]
 one = identity(3)
 return matmul([[x - y for x, y in zip(r, s)] for r, s in zip(one, k)],
               inv([[x + y for x, y in zip(r, s)] for r, s in zip(one, k)]))


def _cross(u, v):
 return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
         u[0] * v[1] - u[1] * v[0]]


def test_drawn_rotations_equal_reference():
 """A drawn slope t turns V1 or V2_SQRT3; sigma and both bases are then
 turned by a drawn Cayley transform.  desc equals the reference's."""
 hyp = pytest.importorskip("hypothesis")
 st = hyp.strategies
 slopes = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))

 @hyp.settings(max_examples=60, deadline=None, derandomize=True)
 @hyp.given(t=slopes, base=st.sampled_from([V1, V2_SQRT3]),
            skew=st.tuples(*[st.integers(-4, 4)] * 3))
 def check(t, base, skew):
  alpha = rational_rotation(t)
  v2 = [_matvec(alpha, row) for row in frac_mat(base)]
  sigma, (v1, v2) = _conjugated(cayley(*skew), SIGMA, [V1, v2])
  # the facts that leave no raise for a lattice missing the axis or
  # lying on it: some row of a basis leaves the axis line (rank 3), and
  # axis adj(W) != 0 (adj(W) is invertible)
  proj = [[x + y + z for x, y, z in zip(*rows)]
          for rows in zip(identity(3), sigma, zip(*sigma))]
  axis = next(row for row in proj if any(row))
  for basis in (v1, v2):
   assert any(any(_cross(row, axis)) for row in basis)
   assert any(matmul([axis], gc._adj3(linalg.cleared(basis)[0]))[0])
  ok, desc = rotation_check(v1, v2, sigma)
  ok_ref, ref = qsqrt_rotation_check(v1, v2, sigma)
  assert ok is ok_ref is True
  assert desc == ref and repr(desc) == repr(ref)

 check()


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

 def test_perturbation_flips_and_names(self, monkeypatch):
  def faulty(case, n):
   extra = PeriodScalar.gen("pi", Fraction(1, 2)) \
       if (case, n) == ("so-even", 2) else None
   return run_case(case, n, extra=extra)
  monkeypatch.setattr(gc, "run_case", faulty)
  status, _, lines = verify_all(3)
  assert status != 0
  assert any("first failing identity: so-even n=2" in l for l in lines)

 def test_underdetermined_ledger_fails(self, monkeypatch):
  def underdetermined():
   raise LedgerUnderdetermined("oinkA: target underdetermined")
  monkeypatch.setattr(gc, "torsion_ledger", underdetermined)
  status, _, lines = verify_all(2)
  assert status == 1
  assert lines[-2:] == ["ledger FAIL: oinkA: target underdetermined",
                        "first failing identity: ledger"]

 def test_failed_replay_names_the_first_target(self, monkeypatch):
  # buggerme replays; oink1 and oinkA, after it in name order, do not
  monkeypatch.setattr(gc.VolumeLedger, "replay",
                      lambda self, rec: rec["target"] == "buggerme")
  status, _, lines = verify_all(2)
  assert status == 1
  ledger = [l.split() for l in lines if l.startswith("ledger ")]
  assert [(w[1], w[-1]) for w in ledger] == \
      [("buggerme", "pass"), ("oink1", "FAIL"), ("oinkA", "FAIL")]
  assert lines[-1] == "first failing identity: ledger oink1"

 def test_one_replay_per_target(self, monkeypatch):
  # torsion and verify-all print from torsion_ledger's records, each
  # replayed once there, and make no replay call of their own
  calls = []
  replay = gc.VolumeLedger.replay

  def counted(self, rec):
   calls.append(rec["target"])
   return replay(self, rec)

  monkeypatch.setattr(gc.VolumeLedger, "replay", counted)
  assert cli.main(["torsion"]) == 0
  assert calls == ["buggerme", "oink1", "oinkA"]
  calls.clear()
  assert verify_all(1)[0] == 0
  assert calls == ["buggerme", "oink1", "oinkA"]

 def test_a_case_failure_comes_before_the_ledger(self, monkeypatch):
  def faulty(case, n):
   extra = PeriodScalar.gen("twopii") if case == "so-odd" else None
   return run_case(case, n, extra=extra)
  monkeypatch.setattr(gc, "run_case", faulty)
  monkeypatch.setattr(gc.VolumeLedger, "replay", lambda self, rec: False)
  status, _, lines = verify_all(2)
  assert status == 1
  assert lines[-1].startswith("first failing identity: so-odd n=1 ")


# ---------------------------------------------------------------------------
# sparse kernels against the dense references

AXIOM_NAMES = [name for name, _, _ in gc.default_axioms()]
FAULTS = (PeriodScalar.gen("pi", Fraction(1, 2)), PeriodScalar.gen("twopii"),
          PeriodScalar.gen("twopii", -1))


def _dense_or_none(ledger, target):
 """The dense_solve items, or None."""
 try:
  return list(dense_solve(ledger, target).items())
 except LedgerUnderdetermined:
  return None


def _combination_or_none(ledger, target):
 """(class, coefficient items) of the ledger's one elimination, or None."""
 try:
  klass, coeffs = ledger._combination(target)
 except LedgerUnderdetermined:
  return None
 return klass, list(coeffs.items())


class TestSparseSolve:
 def test_default_ledger_matches_dense(self):
  led = VolumeLedger()
  for name, target in gc.TARGETS.items():
   _, coeffs = led._combination(target)
   assert list(coeffs.items()) == list(dense_solve(led, target).items()), \
       name

 def test_explicit_zero_entries_read_as_absent(self):
  # the public constructor does not drop zero coefficients; a dependent
  # axiom and the targets carry one here
  led = zero_entry_ledger()
  for name, target in gc.TARGETS.items():
   target = dict(target, zz=Fraction(0))
   assert _combination_or_none(led, target)[1] == \
       _dense_or_none(led, target), name

 def test_underdetermined_target(self):
  with pytest.raises(LedgerUnderdetermined, match="underdetermined"):
   VolumeLedger().without("rt2")._combination(gc.TARGETS["buggerme"])

 def test_class_and_coefficients_agree(self):
  # 2 hP3 and 3 hP3 span hP3 over Z: the class is Q*, and the integer
  # combination 3 hP3 - 2 hP3 witnesses it, where the rational solve on
  # the first axiom alone gave the coefficient 1/2
  led = VolumeLedger([("a0", {"hP3": Fraction(2)}, "axiom"),
                      ("a1", {"hP3": Fraction(3)}, "axiom")])
  assert led._combination({"hP3": Fraction(1)}) == \
      ("Q*", {"a0": Fraction(-1), "a1": Fraction(1)})
  assert dense_solve(led, {"hP3": Fraction(1)}) == {"a0": Fraction(1, 2)}


def reference_ledgers():
 """(label, ledger): the full ledger, each single-axiom removal, the halved
 ledger and the ledger with explicit zero entries."""
 full = VolumeLedger()
 return ([("full", full)] +
         [("without " + name, full.without(name)) for name in AXIOM_NAMES] +
         [("halved", halved_ledger()), ("zero entries", zero_entry_ledger())])


REFERENCE_LEDGERS = reference_ledgers()


@functools.lru_cache(maxsize=None)
def dense_reference(k):
 """{target name: dense_solve items or None} on the k-th reference ledger,
 computed once for the tests that read it."""
 led = REFERENCE_LEDGERS[k][1]
 return {name: _dense_or_none(led, target)
         for name, target in gc.TARGETS.items()}


def _assert_equals_reference(led, target, want):
 """_combination equals (the Fraction-built class, want), want the
 dense_solve items, Fraction for Fraction, or both raise."""
 got = _combination_or_none(led, target)
 assert got == (None if want is None else
                (fraction_membership_class(led, target), want))
 assert got is None or all(type(c) is Fraction for _, c in got[1])


class TestIntegerLedger:
 """The ledger's one elimination runs over Z; the dense Fraction
 Gauss-Jordan and the Fraction-built class are the references."""

 @pytest.mark.parametrize("k", range(len(REFERENCE_LEDGERS)),
                          ids=[label for label, _ in REFERENCE_LEDGERS])
 def test_kernels_equal_reference(self, k):
  led = REFERENCE_LEDGERS[k][1]
  for name, target in gc.TARGETS.items():
   # zz is in no axiom but those of the zero-entry ledger; dense_solve
   # reads the target on the ledger's symbols, where its zero is absent,
   # so one dense solve serves both targets
   want = dense_reference(k)[name]
   for t in (target, dict(target, zz=Fraction(0))):
    _assert_equals_reference(led, t, want)

 def test_ledger_set_covers_every_outcome(self):
  seen = collections.Counter()
  for k, (_, led) in enumerate(REFERENCE_LEDGERS):
   for name, target in gc.TARGETS.items():
    got = _combination_or_none(led, target)
    seen[dense_reference(k)[name] is not None, got and got[0]] += 1
  assert set(seen) == {(True, "Q*"), (True, "sqrtQ*"), (False, None)}
  assert len(REFERENCE_LEDGERS) == 40

 def test_no_fraction_arithmetic(self, monkeypatch):
  # regression guard: between reading the axioms and returning the record
  # only integers are combined, so Fraction's operators are never called
  led = VolumeLedger()
  want = {name: (fraction_membership_class(led, target),
                 list(dense_solve(led, target).items()))
          for name, target in gc.TARGETS.items()}

  def banned(*args):
   raise AssertionError("Fraction arithmetic")

  for op in ("add", "sub", "mul", "truediv"):
   for form in ("__%s__", "__r%s__"):
    monkeypatch.setattr(Fraction, form % op, banned)
  monkeypatch.setattr(Fraction, "__neg__", banned)
  got = {name: _combination_or_none(led, target)
         for name, target in gc.TARGETS.items()}
  records = [led.derive(name) for name in gc.TARGETS]
  monkeypatch.undo()
  assert got == want
  assert all(led.replay(rec) for rec in records)

 def test_derive_runs_one_elimination(self, monkeypatch):
  # derive reads its class and its coefficients off one _combination call
  calls = []
  combination = VolumeLedger._combination

  def counted(self, target):
   calls.append(target)
   return combination(self, target)

  monkeypatch.setattr(VolumeLedger, "_combination", counted)
  torsion_ledger()
  assert len(calls) == 3
  with pytest.raises(LedgerUnderdetermined, match="underdetermined"):
   VolumeLedger().without("rt2").derive("buggerme")
  assert len(calls) == 4


class TestReplayClass:
 def test_replay_rejects_a_finer_class(self):
  # oinkA's coefficients are +-1/2: they witness sqrtQ*, not Q*
  led = VolumeLedger()
  rec = torsion_records()["oinkA"]
  assert led.replay(rec)
  assert led.replay(dict(rec, **{"class": "sqrtQ*"}))
  assert not led.replay(dict(rec, **{"class": "Q*"}))
  assert not led.replay(dict(rec, **{"class": None}))

 def test_replay_accepts_a_coarser_class(self):
  # an integer combination lies in sqrtQ* as well: replay certifies an
  # upper bound on the class, not that it is the smallest
  led = VolumeLedger()
  rec = torsion_records()["oink1"]
  assert rec["class"] == "Q*"
  assert led.replay(dict(rec, **{"class": "sqrtQ*"}))

 def test_replay_still_checks_the_target(self):
  led = VolumeLedger()
  rec = torsion_records()["oink1"]
  name, c = next(iter(rec["coefficients"].items()))
  coeffs = dict(rec["coefficients"], **{name: c + 1})
  assert not led.replay(dict(rec, coefficients=coeffs))

 def test_replay_rejects_unknown_names(self):
  # a record that names an axiom or a target the ledger lacks replays to
  # False, like any other record that does not reproduce its target
  rec = VolumeLedger().derive("buggerme")
  assert "rt2" in rec["coefficients"]
  assert VolumeLedger().replay(rec)
  assert not VolumeLedger().without("rt2").replay(rec)
  assert not VolumeLedger().replay(dict(rec, target="nope"))


# symbols of the targets: every ledger has a column for each
DRAWN_SYMBOLS = ["hP3", "hP4", "sP4", "bP1", "cE", "cF"]


def _combine(coeffs, forms):
 """sum(c * form), keeping the entries that cancel as explicit zeros."""
 out = {}
 for c, form in zip(coeffs, forms):
  for s, v in form.items():
   out[s] = out.get(s, Fraction(0)) + c * v
 return out


def _independent(forms):
 """Whether the forms are linearly independent: their Gram matrix over
 DRAWN_SYMBOLS is invertible."""
 return linalg.det([[sum(a.get(s, 0) * b.get(s, 0) for s in DRAWN_SYMBOLS)
                     for b in forms] for a in forms]) != 0


def test_drawn_ledgers_equal_reference(monkeypatch):
 """Sparse rational axiom systems, some axioms dependent on earlier ones,
 some entries explicit zeros; the target is drawn inside the span or
 anywhere.  The class is the reference class, every combination replays
 with denominators that witness its class, and on independent axioms the
 coefficients are dense_solve's."""
 hyp = pytest.importorskip("hypothesis")
 st = hyp.strategies
 values = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
 free_forms = st.dictionaries(st.sampled_from(DRAWN_SYMBOLS), values,
                              max_size=4)
 seen = collections.Counter()
 independent = []   # the sizes of the independent axiom systems compared

 @hyp.settings(max_examples=300, deadline=None, derandomize=True)
 @hyp.given(data=st.data())
 def check(data):
  forms = []
  for _ in range(data.draw(st.integers(1, 7))):
   if forms and data.draw(st.booleans()):
    coeffs = data.draw(st.lists(values, min_size=len(forms),
                                max_size=len(forms)))
    forms.append(_combine(coeffs, forms))
   else:
    forms.append(data.draw(free_forms))
  if data.draw(st.booleans()):
   coeffs = data.draw(st.lists(values, min_size=len(forms),
                               max_size=len(forms)))
   target = _combine(coeffs, forms)
  else:
   target = data.draw(free_forms)
  # replay reads the target by name, without its explicit zeros
  monkeypatch.setitem(gc.TARGETS, "drawn",
                      {s: v for s, v in target.items() if v})
  led = VolumeLedger([("a%d" % j, form, "axiom")
                      for j, form in enumerate(forms)])
  want = _dense_or_none(led, target)
  klass = fraction_membership_class(led, target)
  got = _combination_or_none(led, target)
  assert (got and got[0]) == klass
  if got is not None:
   scale = dict(gc._CLASSES)[klass]
   assert all(scale % c.denominator == 0 for _, c in got[1])
   assert led.replay({"target": "drawn", "coefficients": dict(got[1]),
                      "class": klass})
   if _independent(forms):
    assert got[1] == want
    independent.append(len(forms))
  seen[want is not None, klass] += 1

 check()
 assert max(independent) > 1
 assert set(seen) == {(True, "Q*"), (True, "sqrtQ*"), (True, None),
                      (False, None)}


class TestOneReduction:
 @pytest.mark.parametrize("case", CASES)
 def test_verdicts_match_three_reductions(self, case):
  for n in range(1, 13):
   for extra in (None,) + FAULTS:
    rep = run_case(case, n, extra=extra)
    want = three_reduce_verdicts(case, n, extra)
    assert (rep.gamma1, rep.gamma2, rep.condensate) == want, \
        (case, n, extra)

 def test_condensate_decides_gamma1_and_gamma2(self):
  # failing() reads the condensate alone: over every case and fault it
  # passes exactly when gamma1 and gamma2 both do
  grid = (None,) + FAULTS + tuple(PeriodScalar.gen(g)
                                  for g in ("Q0", "sqrtD", "i"))
  seen = collections.Counter()
  for case in CASES:
   for n in range(1, 13):
    for extra in grid:
     rep = run_case(case, n, extra=extra)
     assert rep.condensate["pass"] == \
         (rep.gamma1["pass"] and rep.gamma2["pass"]), (case, n, extra)
     seen[rep.failing()] += 1
  assert seen == {None: 145, "condensate": 191}
