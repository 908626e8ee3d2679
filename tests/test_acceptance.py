"""End-to-end acceptance checks with runtime budgets.

Each test here restates one contract of the package at full scale:
the exponent tables, the four cancellation identities, root-system
invariants against brute force, the exterior-algebra model checks, the
ledger derivations, the oracle comparisons, the trace-form constants,
and the pipeline exit-code contract.
"""

from fractions import Fraction
from math import comb
import random
import time

import pytest

from artifact import exteralg as ex
from artifact import ggpcheck as gc
from artifact import hodge as hg
from artifact import lgamma as lg
from artifact import rootsys as rs
from artifact import cases
from artifact.cases import CASES
from artifact.periodring import PeriodScalar

from reference_kernels import condensate_residual, frac_mat
from test_ggpcheck import SIGMA, V1, rational_rotation
from test_hodge import (_mults, oracle_linear_adjoint, oracle_square,
                        oracle_tensor)
from test_rootsys import COMPACT, compact_exponents, macdonald_volume


def test_exponent_table_full_sweep():
 """All 4 case families, n = 1..8, every column: exact integer match,
 under five seconds."""
 t0 = time.monotonic()
 entries = 0
 for case in CASES:
  for n in range(1, 9):
   for row in lg.table1_row(hg.CaseMotives(case, n)):
    assert row["pass"], (case, n, row["name"])
    assert Fraction(row["computed_exp"]) == Fraction(row["expected_exp"])
    assert Fraction(row["computed_exp"]).denominator == 1
    entries += 1
 assert entries >= 128
 assert time.monotonic() - t0 < 5.0


def test_cancellation_identities():
 """Every indeterminate cancels and the residual power of 2*pi*i has
 the predicted exponent, for both signs, under five seconds."""
 t0 = time.monotonic()
 expected = {
     "pgl-q": lambda n: n * (n + 1),
     "pgl-e": lambda n: n * (n + 1),
     "so-even": lambda n: 2 * n * n,
     "so-odd": lambda n: 2 * n * (n + 1),
 }
 for case in CASES:
  for n in range(1, 9):
   assert cases.get(case, n).m(n) == expected[case](n)
   for sign in (1, -1):
    res = condensate_residual(case, n, sign)
    assert res.is_one(), (case, n, sign, res)
 assert time.monotonic() - t0 < 5.0


def test_root_system_invariants():
 t0 = time.monotonic()
 # closed-form chamber indices vs brute-force enumeration, rank <= 4
 for g in ("SL(4)/R", "SL(5)/R", "SL(6)/R", "SL(7)/R", "SL(8)/R",
           "SL(9)/R", "SO(3,3)", "SO(5,3)", "SO(5,5)", "SO(7,3)",
           "SO(7,1)", "SL(4)/C", "PGL(4)/C", "SO(5)/C"):
  assert rs.chamber_check(g), g
 for n in (2, 3, 4):
  assert rs.invariants("SL(%d)/R" % (2 * n)).weyl_index == 2
 for k, l in ((1, 1), (2, 1), (2, 2), (3, 1)):
  assert rs.invariants("SO(%d,%d)" % (2 * k + 1, 2 * l + 1)).weyl_index \
      == comb(k + l, k)
 assert rs.invariants("SL(6)/C").weyl_index == 1
 # dimension bookkeeping identity for every supported group
 for g in ("SL(2)/R", "SL(5)/R", "SL(8)/R", "PGL(3)/R", "GL(4)/R",
           "SL(3)/C", "PGL(5)/C", "GL(2)/C", "SO(4)/C", "SO(7)/C",
           "SO(3,3)", "SO(5,3)", "SO(7,1)", "SO(5,5)"):
  inv = rs.invariants(g)
  assert 2 * inv.q + inv.delta == inv.d_symm, g
 # compact volumes reduce to the predicted pi power mod rationals
 for g in COMPACT:
  inv = rs.invariants("%s(%d)/C" % compact_exponents(g)[1])
  assert macdonald_volume(g) == \
      PeriodScalar.gen("pi", Fraction(inv.d_K + inv.r_K, 2)), g
 assert time.monotonic() - t0 < 10.0


def test_exterior_algebra_model():
 t0 = time.monotonic()
 # contraction adjointness: exhaustive over basis plus 1000 random trials
 assert ex.adjointness_check(ex.MetricSpaceQ(4), trials=1000)
 gram = [[2, 1, 0], [1, 2, 0], [0, 0, 5]]
 assert ex.adjointness_check(ex.MetricSpaceQ(3, gram), trials=1000)
 # twisted duality pairing, freeness, and the norm multiplicativity,
 # for every model with delta <= 4
 for delta in range(1, 5):
  for q, k in ((1, 1), (2, 1), (3, 2)):
   m = ex.TemperedCohomologyModel(delta, q, k)
   assert ex.freeness_check(m), (delta, q, k)
   assert ex.poincare_adjoint_check(m), (delta, q, k)
   assert ex.isometry_check(m, trials=1000), (delta, q, k)
 assert time.monotonic() - t0 < 10.0


def test_torsion_ledger_and_rotation():
 # the three period statements are derived from the axioms, in name
 # order, each replayed coefficient by coefficient
 led = gc.VolumeLedger()
 got = gc.torsion_ledger()
 for (rec, replayed), (name, cls) in zip(got, (("buggerme", "sqrtQ*"),
                                               ("oink1", "Q*"),
                                               ("oinkA", "sqrtQ*"))):
  assert rec["target"] == name and rec["class"] == cls
  assert not rec["conditional"]
  assert replayed and led.replay(rec)
 assert len(got) == 3
 # negative control: one axiom removed breaks exactly the statement
 # that needs it
 with pytest.raises(gc.LedgerUnderdetermined):
  gc.VolumeLedger().without("rt2").derive("buggerme")
 # rotation round trip on 100 constructed instances
 rng = random.Random(20260823)
 done = 0
 while done < 100:
  t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
  alpha = rational_rotation(t)
  v2 = [gc._matvec(alpha, row) for row in frac_mat(V1)]
  ok, desc = gc.rotation_check(V1, v2, SIGMA)
  assert ok and desc["b"] == 1
  assert desc["change_det"].y == 0 and abs(desc["change_det"].x) == 1
  done += 1
 assert done == 100


def test_hodge_oracle_equivalence():
 for case in CASES:
  for n in range(1, 9):
   a = hg.standard_motive(case, n, "M")
   b = hg.standard_motive(case, n, "N")
   assert _mults(hg.tensor(a, b)) == oracle_tensor(a, b), (case, n)
   for factor, std in (("M", a), ("N", b)):
    ad = hg.CaseMotives(case, n).adjoint(factor)
    if case in ("pgl-q", "pgl-e"):
     expect = oracle_linear_adjoint(std)
    else:
     raw = oracle_square(std, factor == "M")
     expect = {(p - std.weight, q - std.weight): m
               for (p, q), m in raw.items()}
    assert _mults(ad) == expect, (case, n, factor)


def test_trace_form_constants():
 for n in range(1, 5):
  assert rs.dual_trace_form("GL(%d)/R" % n) == 1
  assert rs.dual_trace_form("GL(%d)/C" % n) == 1
 for n in range(2, 6):
  assert rs.dual_trace_form("SO(%d)" % n) == Fraction(1, 4)


def test_pipeline_contract(monkeypatch):
 status, reports, lines = gc.verify_all(8)
 assert status == 0
 assert len(reports) == 32
 assert lines[-1] == "all identities verified"
 # any single injected exponent perturbation must flip the status and
 # name the failing identity
 run_case = gc.run_case
 bad = PeriodScalar.gen("pi", Fraction(1, 2))
 for case, n in (("pgl-q", 1), ("pgl-e", 5), ("so-even", 3),
                 ("so-odd", 8)):
  monkeypatch.setattr(gc, "run_case", lambda c, k: run_case(
      c, k, extra=bad if (c, k) == (case, n) else None))
  status, _, lines = gc.verify_all(8)
  assert status != 0
  assert any("first failing identity: %s n=%d" % (case, n) in l
             for l in lines), (case, n, lines)
