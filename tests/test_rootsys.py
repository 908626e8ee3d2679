"""Real-group invariants: dimension bookkeeping, Weyl orders and relative
indices against brute-force enumeration, compact volumes, and the duality
constant of the trace form."""

from fractions import Fraction

import pytest

from artifact import rootsys as rs
from artifact.periodring import PeriodScalar


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
  assert iv.delta_K == PeriodScalar.gen("pi",
                                        Fraction(iv.d_K + iv.r_K, 2))

 def test_unsupported(self):
  with pytest.raises(rs.UnsupportedGroup):
   rs.invariants("E8(8)/R")


class TestWeylOrders:
 @pytest.mark.parametrize("rtype,rank,order", [
     ("A", 2, 6), ("D", 2, 4), ("C", 2, 8), ("B", 3, 48),
     ("A", 3, 24), ("D", 4, 192), ("F4", 4, 1152), ("G2", 2, 12)])
 def test_closed_form(self, rtype, rank, order):
  assert rs.weyl_order(rtype, rank) == order

 @pytest.mark.parametrize("rtype,rank", [
     ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
     ("D", 3), ("D", 4), ("BC", 2), ("G2", 2), ("F4", 4)])
 def test_bruteforce_matches(self, rtype, rank):
  assert rs.weyl_order_bruteforce(rtype, rank) == \
      rs.weyl_order(rtype, rank)


class TestWeylIndex:
 def test_sl_even_split(self):
  for m in (1, 2, 3):
   assert rs.weyl_index("SL(%d)/R" % (2 * m)) == 2
   assert rs.weyl_index("PGL(%d)/R" % (2 * m)) == 2

 def test_sl_odd_split(self):
  for k in (3, 5, 7):
   assert rs.weyl_index("SL(%d)/R" % k) == 1

 def test_so_odd_odd(self):
  from math import comb
  for k, l in ((1, 1), (2, 1), (2, 2), (3, 1)):
   assert rs.weyl_index("SO(%d,%d)" % (2 * k + 1, 2 * l + 1)) == \
       comb(k + l, k)

 def test_complex_groups(self):
  for g in ("SL(4)/C", "PGL(3)/C", "SO(5)/C"):
   assert rs.weyl_index(g) == 1

 @pytest.mark.parametrize("g", [
     "SL(4)/R", "SL(5)/R", "SL(6)/R", "SL(7)/R", "SL(8)/R", "SL(9)/R",
     "SO(3,3)", "SO(5,3)", "SO(5,5)", "SO(7,3)", "SO(7,1)", "PGL(4)/C"])
 def test_chamber_enumeration(self, g):
  assert rs.chamber_check(g)

 @pytest.mark.parametrize("g,rtype", [("SO(5,3)", "B"), ("SL(6)/R", "C"),
                                      ("SL(7)/R", "BC")])
 def test_chamber_orbit_checked_against_closed_form(self, monkeypatch, g,
                                                     rtype):
  # negative control: a wrong closed-form Weyl order must fail the check
  monkeypatch.setitem(rs._WEYL_CLOSED, rtype, lambda n: 1)
  assert rs.chamber_check(g) is False


class TestMacdonald:
 @pytest.mark.parametrize("g", ["SU(%d)" % k for k in range(2, 7)] +
                          ["SO(%d)" % k for k in range(3, 7)] +
                          ["U(%d)" % k for k in range(1, 7)])
 def test_volume_matches_invariants(self, g):
  v = rs.macdonald_volume(g)
  assert isinstance(v, PeriodScalar)
  assert set(v.exps) <= {"pi"}


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
