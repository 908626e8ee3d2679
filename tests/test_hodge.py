"""Hodge structure algebra: constructors, functorial operations, and
agreement with independent brute-force basis-counting oracles."""

import itertools

import pytest

from artifact import hodge as hg
from artifact.cases import CASES


# ---------------------------------------------------------------------------
# brute-force oracles: expand an explicit labeled basis and count

def _basis(h):
 out = []
 for (p, q), m in sorted(h.mult.items()):
  for c in range(m):
   out.append((p, q, c))
 return out


def oracle_tensor(a, b):
 tally = {}
 for (p, q, _) in _basis(a):
  for (pp, qq, _) in _basis(b):
   key = (p + pp, q + qq)
   tally[key] = tally.get(key, 0) + 1
 return tally


def oracle_square(a, anti):
 """Sym^2 or Lambda^2 multiplicities by explicit pair counting."""
 bas = _basis(a)
 tally = {}
 for i, x in enumerate(bas):
  start = i + 1 if anti else i
  for y in bas[start:]:
   key = (x[0] + y[0], x[1] + y[1])
   tally[key] = tally.get(key, 0) + 1
 return tally


def oracle_square_trace(a, anti):
 """Trace of the real Frobenius on Sym^2 or Lambda^2 of a: F fixes or
 negates each diagonal basis line (f+ times +1, f- times -1) and swaps
 the c-th lines of (p,q) and (q,p); each basis monomial x_i x_j or
 x_i ^ x_j that F maps to plus or minus itself adds that sign."""
 image = {}
 for (p, q, c) in _basis(a):
  if p != q:
   image[(p, q, c)] = ((q, p, c), 1)
  else:
   image[(p, q, c)] = ((p, q, c), 1 if c < a.fplus else -1)
 bas = _basis(a)
 trace = 0
 for i, x in enumerate(bas):
  for y in bas[i + 1 if anti else i:]:
   (fx, sx), (fy, sy) = image[x], image[y]
   if (fx, fy) == (x, y):
    trace += sx * sy
   elif (fx, fy) == (y, x):
    trace += -sx * sy if anti else sx * sy
 return trace


def oracle_linear_adjoint(a):
 tally = oracle_tensor(a, hg.dual(a))
 tally[(0, 0)] -= 1
 return {k: v for k, v in tally.items() if v}


def _mults(h):
 return dict(h.mult)


def unit(over_e=False):
 """The unit structure Q(0), flagged over E or with Frobenius +1."""
 if over_e:
  return hg.HodgeStructure(0, {(0, 0): 1}, trace=None)
 return hg.HodgeStructure(0, {(0, 0): 1}, trace=1)


class TestConstructors:
 def test_pgl2_standard(self):
  m = hg.standard_motive("pgl-q", 2, "M")
  assert _mults(m) == {(1, 0): 1, (0, 1): 1}

 def test_so4_standard(self):
  m = hg.standard_motive("so-even", 2, "M")
  assert _mults(m) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
  assert m.over_e

 def test_so5_standard(self):
  n = hg.standard_motive("so-even", 2, "N")
  assert _mults(n) == {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}

 def test_ranks(self):
  for n in range(1, 9):
   assert hg.standard_motive("pgl-q", n, "M").rank() == n
   assert hg.standard_motive("pgl-q", n, "N").rank() == n + 1
   assert hg.standard_motive("so-even", n, "M").rank() == 2 * n
   assert hg.standard_motive("so-even", n, "N").rank() == 2 * n
   assert hg.standard_motive("so-odd", n, "M").rank() == 2 * n + 2
   assert hg.standard_motive("so-odd", n, "N").rank() == 2 * n

 def test_psi_flips_diagonal_sign(self):
  m = hg.standard_motive("pgl-q", 3, "M")
  mpsi = hg.standard_motive("pgl-q", 3, "M", psi=True)
  assert (m.fplus, m.fminus) == (1, 0)
  assert (mpsi.fplus, mpsi.fminus) == (0, 1)

 def test_bad_inputs(self):
  with pytest.raises(ValueError):
   hg.standard_motive("pgl-q", 0, "M")
  with pytest.raises(ValueError):
   hg.standard_motive("pgl-q", 2, "X")
  with pytest.raises(ValueError):
   hg.HodgeStructure(1, {(1, 0): 1})  # breaks conjugation symmetry

 @pytest.mark.parametrize("weight,mult,diag,fplus,fminus", [
     (0, {(0, 0): 1}, 1, 2, -1),
     (1, {(1, 0): 1, (0, 1): 1}, 0, 1, -1),
     (2, {(1, 1): 2}, 2, 3, -1)])
 def test_no_frobenius_has_these_eigenvalue_counts(self, weight, mult, diag,
                                                   fplus, fminus):
  # each (f+, f-) pair sums to the diagonal multiplicity, but a negative
  # count means no involution: as a trace, f+ - f- exceeds the rank
  assert fplus + fminus == diag
  with pytest.raises(ValueError, match="no involution"):
   hg.HodgeStructure(weight, mult, trace=fplus - fminus)

 @pytest.mark.parametrize("weight,mult,trace", [
     (2, {(1, 1): 2}, 1), (2, {(1, 1): 2}, -4), (1, {(1, 0): 1, (0, 1): 1}, 1),
     (0, {(0, 0): 3}, 2)])
 def test_trace_needs_diagonal_parity_and_bound(self, weight, mult, trace):
  with pytest.raises(ValueError, match="no involution"):
   hg.HodgeStructure(weight, mult, trace)

 def test_eigenvalue_counts_from_trace(self):
  h = hg.HodgeStructure(2, {(2, 0): 1, (1, 1): 3, (0, 2): 1}, trace=-1)
  assert (h.fplus, h.fminus, h.over_e) == (1, 2, False)
  e = hg.HodgeStructure(2, {(2, 0): 1, (1, 1): 3, (0, 2): 1}, trace=None)
  assert (e.fplus, e.fminus, e.over_e) == (0, 0, True)
  assert h != e and h == hg.HodgeStructure(2, dict(h.mult), -1)


class TestOperations:
 def test_direct_sum_adds_multiplicities_and_traces(self):
  a = hg.HodgeStructure(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}, trace=-1)
  b = hg.HodgeStructure(2, {(1, 1): 3}, trace=1)
  s = hg.direct_sum(a, b)
  assert _mults(s) == {(2, 0): 1, (1, 1): 4, (0, 2): 1}
  assert (s.trace, s.fplus, s.fminus) == (0, 2, 2)
  assert hg.direct_sum(a, a).trace == -2

 def test_direct_sum_flagged_if_either_summand_is(self):
  flagged = hg.HodgeStructure(2, {(1, 1): 3}, trace=None)
  plain = hg.HodgeStructure(2, {(1, 1): 1}, trace=1)
  for s in (hg.direct_sum(flagged, plain), hg.direct_sum(plain, flagged),
            hg.direct_sum(flagged, flagged)):
   assert s.over_e and _mults(s)[(1, 1)] == s.rank()
  assert not hg.direct_sum(plain, plain).over_e

 def test_direct_sum_rejects_unequal_weights(self):
  with pytest.raises(ValueError):
   hg.direct_sum(unit(), hg.tate_twist(unit(), 1))
  with pytest.raises(ValueError):
   hg.direct_sum(hg.standard_motive("pgl-q", 2, "M"), unit())

 def test_tensor_example(self):
  t = hg.tensor(hg.standard_motive("pgl-q", 2, "M"),
                hg.standard_motive("pgl-q", 2, "N"))
  assert _mults(t) == {(3, 0): 1, (2, 1): 2, (1, 2): 2, (0, 3): 1}

 def test_tensor_unit(self):
  x = hg.standard_motive("pgl-q", 3, "M")
  assert hg.tensor(x, unit()) == x

 def test_dual_and_twist(self):
  d = hg.dual(hg.standard_motive("pgl-q", 2, "M"))
  assert _mults(d) == {(-1, 0): 1, (0, -1): 1}
  tw = hg.tate_twist(unit(), 1)
  assert tw.weight == -2 and _mults(tw) == {(-1, -1): 1}

 def test_twist_flips_frobenius_sign(self):
  u = unit()
  assert (u.fplus, u.fminus) == (1, 0)
  assert (hg.tate_twist(u, 1).fplus, hg.tate_twist(u, 1).fminus) == (0, 1)
  assert hg.tate_twist(hg.tate_twist(u, 1), 1).fplus == 1

 def test_dual_twist_symmetry(self):
  m = hg.standard_motive("pgl-q", 4, "M")
  back = hg.tate_twist(hg.dual(m), -m.weight)
  assert _mults(back) == _mults(m)

 def test_restrict_scalars(self):
  r = hg.restrict_scalars(hg.standard_motive("pgl-e", 2, "M"))
  assert _mults(r) == {(1, 0): 2, (0, 1): 2}
  q = hg.restrict_scalars(unit(over_e=True))
  assert q.rank() == 2 and (q.fplus, q.fminus) == (1, 1)
  with pytest.raises(ValueError):
   hg.restrict_scalars(unit())

 def test_adjoint_example(self):
  ad = hg.adjoint(hg.standard_motive("pgl-q", 2, "M"), "linear")
  assert _mults(ad) == {(1, -1): 1, (0, 0): 1, (-1, 1): 1}

 def test_so5_symplectic_rank(self):
  ad = hg.CaseMotives("so-even", 2).adjoint("N")
  assert ad.rank() == 10
  vals = [m for _, m in ad.pieces()]
  assert vals == [1, 1, 2, 2, 2, 1, 1]

 def test_adjoint_ranks(self):
  for n in range(1, 9):
   k = n
   assert hg.CaseMotives("so-even", n).adjoint("M").rank() == k * (2 * k - 1)
   assert hg.CaseMotives("so-even", n).adjoint("N").rank() == k * (2 * k + 1)
   assert hg.CaseMotives("so-odd", n).adjoint("M").rank() == \
       (k + 1) * (2 * k + 1)
   for case in ("pgl-q", "pgl-e"):
    assert hg.CaseMotives(case, n).adjoint("M").rank() == n * n - 1
    assert hg.CaseMotives(case, n).adjoint("N").rank() == (n + 1) ** 2 - 1

 def test_symmetry_preserved_everywhere(self):
  for case in CASES:
   for n in (1, 3, 5):
    for factor in ("M", "N"):
     for h in (hg.standard_motive(case, n, factor),
               hg.CaseMotives(case, n).adjoint(factor)):
      for (p, q), m in h.mult.items():
       assert h.mult[(q, p)] == m

 def test_weight_balance(self):
  for n in (2, 4):
   h = hg.tensor(hg.standard_motive("so-even", n, "M"),
                 hg.standard_motive("so-even", n, "N"))
   s1 = sum(p * m for (p, q), m in h.mult.items())
   s2 = sum(q * m for (p, q), m in h.mult.items())
   assert s1 == s2


class TestSquareTrace:
 """The Frobenius trace of Sym^2 and Lambda^2 against the basis oracle, on
 unflagged structures: the case families only square flagged ones."""

 @pytest.mark.parametrize("weight,mult,trace", [
     (0, {(0, 0): 3}, 1), (0, {(0, 0): 4}, -2), (2, {(2, 0): 2, (1, 1): 3,
                                                     (0, 2): 2}, 3),
     (2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}, 0),
     (1, {(1, 0): 2, (0, 1): 2}, 0),
     (3, {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}, 0)])
 @pytest.mark.parametrize("anti", [True, False])
 def test_square_part_trace(self, weight, mult, trace, anti):
  a = hg.HodgeStructure(weight, mult, trace)
  sq = hg._square_part(a, anti)
  assert _mults(sq) == oracle_square(a, anti)
  assert sq.trace == oracle_square_trace(a, anti)


class TestDeligneData:
 def test_odd_weight_tensor(self):
  t = hg.tensor(hg.standard_motive("pgl-q", 2, "M"),
                hg.standard_motive("pgl-q", 2, "N"))
  assert hg.deligne_data(t) == (3, 3)

 def test_diagonal_plus(self):
  h = hg.HodgeStructure(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}, trace=2)
  assert hg.deligne_data(h) == (3, 1)

 def test_violation(self):
  h = hg.HodgeStructure(0, {(0, 0): 2}, trace=0)
  with pytest.raises(ValueError, match="Deligne_period violated"):
   hg.deligne_data(h)

 def test_flagged_needs_restriction(self):
  with pytest.raises(ValueError):
   hg.deligne_data(unit(over_e=True))


class TestOracles:
 """Independent basis-counting oracles for tensor, Sym^2/Lambda^2, and
 the case adjoints, for every case family and n up to 8."""

 @pytest.mark.parametrize("case", CASES)
 @pytest.mark.parametrize("n", range(1, 9))
 def test_tensor_convolution(self, case, n):
  a = hg.standard_motive(case, n, "M")
  b = hg.standard_motive(case, n, "N")
  assert _mults(hg.tensor(a, b)) == oracle_tensor(a, b)

 @pytest.mark.parametrize("case", CASES)
 @pytest.mark.parametrize("n", range(1, 9))
 def test_adjoint_multiplicities(self, case, n):
  for factor in ("M", "N"):
   std = hg.standard_motive(case, n, factor)
   ad = hg.CaseMotives(case, n).adjoint(factor)
   if case in ("pgl-q", "pgl-e"):
    expect = oracle_linear_adjoint(std)
   else:
    anti = factor == "M"
    raw = oracle_square(std, anti)
    expect = {(p - std.weight, q - std.weight): m
              for (p, q), m in raw.items()}
   assert _mults(ad) == expect, (case, n, factor)

 def test_square_parts_complement(self):
  # Sym^2 + Lambda^2 = full tensor square
  for n in (1, 2, 3):
   std = hg.standard_motive("so-even", n, "M")
   sym = oracle_square(std, False)
   alt = oracle_square(std, True)
   full = oracle_tensor(std, std)
   keys = set(sym) | set(alt)
   assert {k: sym.get(k, 0) + alt.get(k, 0) for k in keys} == full

 def test_frobenius_rank_consistency(self):
  # restriction of scalars splits the diagonal evenly
  for case in ("so-even", "so-odd"):
   for n in (1, 2, 4):
    for factor in ("M", "N"):
     ad = hg.CaseMotives(case, n).adjoint(factor)
     r = hg.restrict_scalars(ad)
     assert r.rank() == 2 * ad.rank()
     assert r.fplus == r.fminus == ad.diagonal_mult()
