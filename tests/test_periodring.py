"""Period ring arithmetic, relation reduction, and the symbolic
cancellation identities, cross-checked against the numeric period-matrix
oracle."""

from fractions import Fraction
import json
import random

from hypothesis import assume, example, given, settings, strategies as st
import pytest

from artifact import cases, ggpcheck, hodge, linalg, periodring
from artifact.cases import CASES
from artifact.hodge import CaseMotives
from artifact.periodring import (PeriodScalar, RelationSet,
                                 InconsistentRelations, reduce,
                                 case_relations, vol_L,
                                 deligne_c, period_ratio,
                                 parse_expr)
from make_period_data import PATH as PERIOD_DATA, period_data
import oracle_periods as orc
from reference_kernels import (FractionScalar, condensate_residual,
                               dense_hnf, dense_reduce,
                               dense_residue,
                               written_out_case_data,
                               written_out_case_relations,
                               written_out_deligne_c)


g = PeriodScalar.gen
half = Fraction(1, 2)
_half_exponents = st.builds(Fraction, st.integers(-4, 4),
                            st.sampled_from((1, 2)))


def _relations(gens):
 """A drawn relation (exponents, level) over one to three of gens:
 integral exponents at level Q, as RelationSet requires, and
 half-integral ones at level sqrtQ."""
 return st.sampled_from(("Q", "sqrtQ")).flatmap(lambda lev: st.tuples(
     st.dictionaries(st.sampled_from(gens), st.integers(-4, 4)
                     if lev == "Q" else _half_exponents,
                     min_size=1, max_size=3),
     st.just(lev)))


class TestScalarAlgebra:
 def test_mul_inv(self):
  x = g("Q0.s", 2) * g("pi", half)
  assert (x * x ** -1).is_one()

 def test_conj_swaps_embeddings(self):
  assert g("Q0.s").conj() == g("Q0.sb")
  assert g("Q0.sb").conj() == g("Q0.s")

 def test_conj_involution(self):
  x = g("Q1.s", 3) * g("i", 1) * g("twopii", -2) * g("pi", half)
  assert x.conj().conj() == x

 def test_conj_negates_imaginary(self):
  # conj(2 pi i) = -2 pi i = (2 pi i) * i^2
  assert g("twopii").conj() == g("twopii") * g("i", 2)
  assert g("i").conj() == g("i", -1)
  assert g("pi").conj() == g("pi")
  # the discriminant square root is carried as a real-class generator
  assert g("sqrtD").conj() == g("sqrtD")

 def test_pow_half_integer(self):
  x = g("Q0.s") ** half
  assert x.exps["Q0.s"] == half

 def test_automorphism(self):
  x, y = g("Q0.s") * g("i"), g("R1.sb", 2)
  assert (x * y).conj() == x.conj() * y.conj()


def _assert_exponent_rule(x):
 """Integral exponents are ints, the others Fractions of denominator > 1,
 and the exponent of i lies in [0, 4)."""
 for name, e in x.exps.items():
  assert type(e) is int or (type(e) is Fraction and e.denominator > 1), \
      (name, e)
 assert 0 <= x.exps.get("i", 0) < 4


# both embeddings of Q0 so that conjugation merges exponents, i wrapping
# mod 4, and half-integral and third-integral exponents
_ALGEBRA_GENS = ("i", "pi", "twopii", "sqrtD", "Q0", "Q0.s", "Q0.sb", "R1.s")
_exponents = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3))))
_exponent_maps = st.dictionaries(st.sampled_from(_ALGEBRA_GENS), _exponents,
                                 max_size=6)


class TestFractionReference:
 """The scalar algebra on int exponents agrees with the Fraction-only
 scalar in every operation and printed form."""

 @settings(max_examples=300, deadline=None, derandomize=True)
 @given(_exponent_maps, _exponent_maps, st.integers(-3, 3),
        st.integers(-7, 7))
 @example({"i": 7, "Q0.s": Fraction(1, 2)}, {"i": Fraction(-3, 2),
                                            "Q0.sb": Fraction(3, 2)}, -2, 3)
 def test_agrees_with_fraction_scalar(self, a, b, k, h):
  x, y, fx, fy = PeriodScalar(a), PeriodScalar(b), \
      FractionScalar(a), FractionScalar(b)
  half_k = Fraction(h, 2)
  pairs = [(x, fx), (y, fy), (x * y, fx * fy), (x ** k, fx ** k),
           (x ** half_k, fx ** half_k), (x.conj(), fx.conj()),
           (x * y ** -1, fx / fy), (x.conj() * y ** half_k,
                                    fx.conj() * fy ** half_k)]
  for z, fz in pairs:
   _assert_exponent_rule(z)
   assert z.exps == fz.exps
   assert repr(z) == repr(fz)
   assert hash(z) == hash(fz)
   assert z.is_one() == fz.is_one()
  for (z, fz), (w, fw) in zip(pairs, pairs[1:] + pairs[:1]):
   assert (z == w) == (fz == fw)
  assert x * y * y ** -1 == x
  assert (x ** k * x ** -k).is_one()


# drawn relation sets over pi, twopii and four eliminable generators
_message_gens = ("Q0", "Q1.s", "i", "sqrtD", "pi", "twopii")
_relation_orders = st.lists(_relations(_message_gens), min_size=1,
                            max_size=4).flatmap(
    lambda rels: st.tuples(st.just(rels), st.permutations(rels)))


class TestInconsistentMessage:
 @settings(max_examples=300, deadline=None, derandomize=True)
 @given(_relation_orders)
 # eliminated in this order the pi row kept twopii^3, and the message read
 # pi^1*twopii^3; the Hermite row is pi^1
 @example(([({"i": 2, "pi": -1}, "Q"), ({"twopii": 3}, "Q")],
           [({"twopii": 3}, "Q"), ({"i": 2, "pi": -1}, "Q")]))
 def test_message_is_the_hermite_row(self, orders):
  sets = [RelationSet([(PeriodScalar(e), lev) for e, lev in rels])
          for rels in orders]
  try:
   dense_reduce(g("Q0"), sets[0], "Q")
  except InconsistentRelations as exc:
   want = str(exc)
  else:
   assume(False)
  # whatever the order of the relations and the level of the reduction
  for rels in sets:
   for mod in ("Q", "sqrtQ"):
    with pytest.raises(InconsistentRelations) as info:
     reduce(g("Q0"), rels, mod)
    assert str(info.value) == want


class TestReduce:
 def _rels(self, w):
  # conj(Q_p) Q_{w-p} = (-1)^w up to rationals, for a weight-w family
  rels = []
  for p in range(w + 1):
   rels.append((g("Q%d.sb" % p) * g("Q%d.s" % (w - p)) * g("i", 2 * w),
                "Q"))
  return RelationSet(rels)

 def test_pair_collapses(self):
  rels = self._rels(3)
  x = g("Q1.s") * g("Q2.sb")
  assert reduce(x, rels, "Q").is_one()

 def test_norm_square_derived(self):
  # |Q_p|^2 |Q_{p*}|^2 is rational: derived, not hard-coded
  for w in (2, 3, 4, 5):
   rels = self._rels(w)
   for p in range(w + 1):
    x = (g("Q%d.s" % p) * g("Q%d.sb" % p) *
         g("Q%d.s" % (w - p)) * g("Q%d.sb" % (w - p)))
    assert reduce(x, rels, "Q").is_one(), (w, p)

 def test_idempotent(self):
  rels = self._rels(2)
  x = g("Q0.s", 3) * g("Q2.sb", 1) * g("twopii", 4)
  once = reduce(x, rels, "Q")
  assert reduce(once, rels, "Q") == once

 def test_conj_commutes_with_reduce(self):
  # as maps into the quotient: both routes land in the same class
  rels = self._rels(3)
  x = g("Q0.s", 2) * g("Q3.sb") * g("i")
  assert reduce(reduce(x, rels, "Q").conj(), rels, "Q") == \
      reduce(x.conj(), rels, "Q")

 def test_sqrt_pi_survives(self):
  x = g("pi", half)
  assert reduce(x, RelationSet(), "Q") == x
  assert reduce(x, RelationSet(), "sqrtQ") == x

 def test_declared_sqrt_symbol_drops(self):
  rels = RelationSet(rational_gens=("Delta.s",))
  assert not reduce(g("Delta.s", half) * g("Delta.sb", half), rels,
                    "sqrtQ").is_one()
  rels2 = RelationSet([(g("Delta.s") * g("Delta.sb"), "Q")],
                      rational_gens=("Delta.s", "Delta.sb"))
  assert reduce(g("Delta.s", half) * g("Delta.sb", half), rels2,
                "sqrtQ").is_one()

 def test_inconsistent(self):
  rels = RelationSet([(g("Q0.s") * g("pi"), "Q"),
                      (g("Q0.s"), "Q")])
  # the message states the forced relation in its own exponents, at
  # either level
  for mod in ("Q", "sqrtQ"):
   with pytest.raises(InconsistentRelations, match=r": pi\^1$"):
    reduce(g("Q0.s"), rels, mod)

 def test_half_integral_relation_at_sqrt_level(self):
  # Q0 R0 is trivial modulo Q*, so Q0 is R0^-1 modulo sqrt(Q*) too; its
  # square root, half-integral, is no relation modulo Q*
  rels = RelationSet([(g("Q0") * g("R0"), "Q")])
  assert reduce(g("Q0"), rels, "sqrtQ") == g("R0", -1)
  with pytest.raises(ValueError, match="non-integral exponent"):
   RelationSet([(g("Q0", half) * g("R0", half), "Q")])


with open(PERIOD_DATA) as _fh:
 PERIOD_DATA_ENTRIES = json.load(_fh)


class TestPeriodData:
 """The unreduced period data, which the golden CLI file sees only after
 reduction, where a change inside the relation lattice would not show."""

 @pytest.mark.parametrize("entry", PERIOD_DATA_ENTRIES,
                          ids=lambda e: "%s-%d" % (e["case"], e["n"]))
 def test_matches_pinned_data(self, entry):
  assert period_data(entry["case"], entry["n"]) == entry

 def test_covers_every_case(self):
  assert [(e["case"], e["n"]) for e in PERIOD_DATA_ENTRIES] == \
      [(case, n) for case in CASES for n in range(1, 13)]

 @pytest.mark.parametrize("case", CASES)
 def test_exponent_rule(self, case):
  for n in range(1, 13):
   mot = CaseMotives(case, n)
   psis = (False,) if mot.twisted_m is None else (False, True)
   for sign in (1, -1):
    _assert_exponent_rule(period_ratio(mot, sign))
    for psi in psis:
     _assert_exponent_rule(deligne_c(mot, sign, psi))
   for which in ("M", "N"):
    _assert_exponent_rule(vol_L(mot, which))
   for x, _level in case_relations(mot).relations:
    _assert_exponent_rule(x)


class TestVolumes:
 def test_pgl_q_n2(self):
  assert vol_L(CaseMotives("pgl-q", 2), "M") == g("Q1")

 def test_pgl_e_n1(self):
  assert vol_L(CaseMotives("pgl-e", 1), "M").is_one()

 def test_so_even_n2_symbols(self):
  v = vol_L(CaseMotives("so-even", 2), "M")
  assert v.exps.get("Delta.s") == 1
  assert v.exps.get("Xi.s") == 1
  assert v.exps.get("Q0") == -2

 def test_factor_name_checked(self):
  with pytest.raises(ValueError, match="which must be"):
   vol_L(CaseMotives("pgl-q", 2), "X")


class TestCancellation:
 """The four symbolic cancellation identities: every indeterminate drops
 and the residual is exactly the predicted power of 2 pi i."""

 @pytest.mark.parametrize("case", CASES)
 @pytest.mark.parametrize("n", range(1, 9))
 def test_residual_trivial(self, case, n):
  for sign in (1, -1):
   assert condensate_residual(case, n, sign).is_one(), (case, n, sign)

 def test_exponents(self):
  for n in range(1, 9):
   assert cases.get("pgl-q", n).m(n) == n * (n + 1)
   assert cases.get("pgl-e", n).m(n) == n * (n + 1)
   assert cases.get("so-even", n).m(n) == 2 * n * n
   assert cases.get("so-odd", n).m(n) == 2 * n * (n + 1)

 def test_perturbation_names_residual(self):
  rels = case_relations(CaseMotives("pgl-q", 3))
  x = period_ratio(CaseMotives("pgl-q", 3)) * g("twopii", -12) * g("Q0")
  res = reduce(x, rels, "Q")
  assert not res.is_one()
  assert any(k.startswith("Q") for k in res.exps)


def _without(rels, x):
 """The relation set with x and its conjugate dropped."""
 return RelationSet([(y, lev) for y, lev in rels.relations
                     if y != x and y != x.conj()], rels.rational_gens)


class TestRelationDrops:
 """Every declared relation is needed by its case's condensate, but for
 a pinned list: dropping a relation (with its conjugate) must flip the
 verdict, so a relation nothing uses shows up here."""

 # (case, n or None for every n, relation) whose drop keeps the verdict
 UNUSED = {("so-even", None, "Xi.s*Xi.sb"), ("so-odd", None, "Xi.s*Xi.sb"),
           ("pgl-q", 1, "Q0"), ("pgl-e", 1, "Q0.s*Q0.sb")}

 def test_drop_table(self):
  drops = kept = 0
  for case in CASES:
   for n in range(1, 13):
    spec = cases.get(case, n)
    rels = case_relations(CaseMotives(case, n))
    x = period_ratio(CaseMotives(case, n)) * g("twopii", -spec.m(n))
    orbits = []
    for y, _lev in rels.relations:
     if y.conj() not in orbits:
      orbits.append(y)
    for y in orbits:
     drops += 1
     holds = reduce(x, _without(rels, y),
                    written_out_case_data(case, n).mod).is_one()
     unused = {(case, n, repr(y)), (case, None, repr(y))} & self.UNUSED
     assert holds == bool(unused), (case, n, y)
     kept += holds
  # the 522 listed relations form 372 conjugation orbits
  assert (drops, kept) == (372, 26)

 @pytest.mark.parametrize("case", ["so-even", "so-odd"])
 def test_xi_norm_needed_at_level_q(self, case):
  # Xi.s*Xi.sb follows from the other relations at level sqrt(Q*), the
  # level of the orthogonal cases, but not at level Q, which period --mod Q
  # reduces at: so it stays declared
  xi = g("Xi.s") * g("Xi.sb")
  for n in range(1, 13):
   rest = _without(case_relations(CaseMotives(case, n)), xi)
   assert reduce(xi, rest, "sqrtQ").is_one()
   assert reduce(xi, rest, "Q") == xi


class TestTwistRule:
 """The powers of 2 pi i, of i sqrtD and the Betti signs that deligne_c and
 the determinant relations read off the Hodge data equal the ones written
 out by hand, and the verdicts depend on that reading."""

 @pytest.mark.parametrize("case", CASES)
 def test_deligne_c_matches_written_out(self, case):
  for n in range(1, 13):
   for psi in ((False, True) if written_out_case_data(case, n).twists
               else (False,)):
    for sign in (1, -1):
     assert deligne_c(CaseMotives(case, n), sign, psi) == \
         written_out_deligne_c(case, n, sign, psi), (case, n, sign, psi)

 @pytest.mark.parametrize("case", CASES)
 def test_relations_match_written_out(self, case):
  for n in range(1, 13):
   ours = case_relations(CaseMotives(case, n))
   ref = written_out_case_relations(case, n)
   assert ours.relations == ref.relations, (case, n)
   assert ours.rational_gens == ref.rational_gens, (case, n)

 def test_deligne_data_controls_the_verdicts(self, monkeypatch):
  # negative control: d^+- one too large in every Deligne period
  data = hodge.deligne_data

  def mutant(a):
   dplus, dminus = data(a)
   return dplus + 1, dminus + 1
  monkeypatch.setattr(hodge, "deligne_data", mutant)
  _every_report_fails()

 def test_relation_weight_controls_the_verdicts(self, monkeypatch):
  # negative control: the determinant relations read weight w + 1
  def mutant(det, x):
   return g(det, 2) * g("twopii", (x.weight + 1) * x.rank())
  monkeypatch.setattr(periodring, "_det_relation", mutant)
  _every_report_fails()


def _every_report_fails():
 status, reports, lines = ggpcheck.verify_all(12)
 assert status == 1
 assert lines[-1] == "first failing identity: pgl-q n=1 condensate"
 assert len(reports) == 48 and not any(r.passed() for r in reports)


class TestParse:
 def test_roundtrip(self):
  x = parse_expr("(mul (pow twopii 3) (conj Q0.s))")
  assert x == g("twopii", 3) * g("Q0.sb")

 def test_atom(self):
  assert parse_expr("pi") == g("pi")

 @pytest.mark.parametrize("text", ["(mul a", "(", ""])
 def test_truncated_input_is_value_error(self, text):
  with pytest.raises(ValueError, match="unexpected end of expression"):
   parse_expr(text)

 @pytest.mark.parametrize("text", ["(pow a 1/0)", "(mul b (pow a -3/0))"])
 def test_zero_denominator_is_value_error(self, text):
  with pytest.raises(ValueError, match="zero denominator"):
   parse_expr(text)


# ---------------------------------------------------------------------------
# dual route: numeric period matrices vs the symbolic closed forms

def _prod(vals):
 out = orc.QI(1)
 for v in vals:
  out = out * v
 return out


def _power(v, e):
 if e >= 0:
  return _prod([v] * e)
 inv = orc.QI(1) / v
 return _prod([inv] * (-e))


class TestNumericOracle:
 """The closed forms encoded in deligne_c are exactly the ones the numeric
 period-matrix computation produces, up to rational factors."""

 @pytest.mark.parametrize("j", [0, 2])
 @pytest.mark.parametrize("sign", [1, -1])
 @pytest.mark.parametrize("twist", [False, True])
 def test_even_weight_tensor_period(self, j, sign, twist):
  rng = random.Random(100 + j)
  for trial in range(3):
   m0 = orc.MotiveInstance(j, rng, middle_sign=1)
   nn = orc.MotiveInstance(j + 1, rng)
   m = m0.quadratic_twist(rng.randint(1, 5)) if twist else m0
   schi = -1 if twist else 1
   t = j // 2
   lhs = orc.tensor_c_pm(m, nn, sign)
   rhs = _power(orc.delta(m), t + 1) * _power(orc.delta(nn), t)
   for p in range(t):
    rhs = rhs * _power(m.Q[p], p - t)
   for q in range(t + 1):
    rhs = rhs * _power(nn.Q[q], q - t)
   rhs = rhs * orc.c_pm(nn, sign * schi)
   assert orc.rational_ratio(lhs, rhs) is not None, (j, sign, twist, trial)

 @pytest.mark.parametrize("j", [1, 3])
 @pytest.mark.parametrize("sign", [1, -1])
 @pytest.mark.parametrize("twist", [False, True])
 def test_odd_weight_tensor_period(self, j, sign, twist):
  rng = random.Random(200 + j)
  for trial in range(3):
   m0 = orc.MotiveInstance(j, rng)
   nn = orc.MotiveInstance(j + 1, rng, middle_sign=1)
   m = m0.quadratic_twist(rng.randint(1, 5)) if twist else m0
   t = j // 2
   lhs = orc.tensor_c_pm(m, nn, sign)
   rhs = _power(orc.delta(m), t + 1) * _power(orc.delta(nn), t + 1)
   for p in range(t + 1):
    rhs = rhs * _power(m.Q[p], p - t)
   for q in range(t + 1):
    rhs = rhs * _power(nn.Q[q], q - t - 1)
   rhs = rhs * orc.c_pm(m, sign)
   assert orc.rational_ratio(lhs, rhs) is not None, (j, sign, twist, trial)

 def test_twist_changes_minor_by_gauss_factor(self):
  # c^eps of the twisted motive is c^{-eps} of the original, times a
  # power of the purely imaginary twist scalar
  rng = random.Random(11)
  for j in (1, 3):
   m = orc.MotiveInstance(j, rng)
   tw = m.quadratic_twist(3)
   t = j // 2
   for sign in (1, -1):
    lhs = orc.c_pm(tw, sign)
    rhs = _power(orc.QI(0, 3), -(t + 1)) * orc.c_pm(m, -sign)
    # their ratio is rational times a power of i times rationals
    r = lhs / rhs
    assert r.is_rational() or r.re == 0, (j, sign)


# ---------------------------------------------------------------------------
# the sparse reduce against the dense reference

OUTSIDE = ("sqrtdisc.7", "free", "pi", "twopii", "sqrtD", "i")


def _random_scalar(rng, gens):
 exps = {}
 for name in rng.sample(gens, min(len(gens), 8)):
  exps[name] = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
 return PeriodScalar(exps)


# drawn relation sets, half-integral exponents at level sqrtQ: free names,
# both embeddings of one, every special generator, and rational
# generators; x, half-integral too, also over names that the set does not
# mention
_SET_GENS = ("Q0", "R0", "Q1.s", "Q1.sb", "sqrtD", "sqrtdisc.3", "i", "pi",
             "twopii")
_relation_sets = st.tuples(
    st.lists(_relations(_SET_GENS), max_size=4),
    st.lists(st.sampled_from(("Q0", "R0", "Q1.s")), max_size=2),
    st.dictionaries(st.sampled_from(_SET_GENS + ("free", "sqrtdisc.7")),
                    _half_exponents, max_size=5),
    st.sampled_from(("Q", "sqrtQ")))


class TestSparseReduce:
 @settings(max_examples=400, deadline=None, derandomize=True)
 @given(_relation_sets)
 # Q0 R0 at level sqrtQ: Q0 is R0^-1 modulo sqrt(Q*)
 @example(([({"Q0": 1, "R0": 1}, "sqrtQ")], [], {"Q0": 1}, "sqrtQ"))
 def test_drawn_sets_match_dense_reference(self, data):
  relations, rational, x, mod = data
  rels = RelationSet([(PeriodScalar(e), lev) for e, lev in relations],
                     rational_gens=rational)
  x = PeriodScalar(x)
  try:
   want = dense_reduce(x, rels, mod)
  except InconsistentRelations as exc:
   with pytest.raises(InconsistentRelations) as info:
    reduce(x, rels, mod)
   assert str(info.value) == str(exc)
  else:
   assert reduce(x, rels, mod) == want

 @pytest.mark.parametrize("case", CASES)
 def test_matches_dense_reference(self, case):
  rng = random.Random(CASES.index(case))
  for n in range(1, 13):
   rels = case_relations(CaseMotives(case, n))
   gens = sorted({s for r, _ in rels.relations for s in r.exps} |
                 set(rels.rational_gens)) + list(OUTSIDE)
   for mod in ("Q", "sqrtQ"):
    for _ in range(6):
     x = _random_scalar(rng, gens)
     assert reduce(x, rels, mod) == dense_reduce(x, rels, mod), \
         (case, n, mod, x)
    for name in OUTSIDE:
     x = g(name, Fraction(rng.randint(-7, 7), 2))
     assert reduce(x, rels, mod) == dense_reduce(x, rels, mod), \
         (case, n, mod, x)

 @pytest.mark.parametrize("case", CASES)
 def test_twopii_powers_commute_with_reduce(self, case):
  # twopii is never a pivot, which is what lets run_case read all three
  # verdicts off one residue
  for n in range(1, 13):
   rels = case_relations(CaseMotives(case, n))
   for mod in ("Q", "sqrtQ"):
    x = period_ratio(CaseMotives(case, n)) * g("pi", half)
    base = reduce(x, rels, mod)
    for k in (-3, -1, 1, 2):
     assert reduce(x * g("twopii", k), rels, mod) == base * g("twopii", k)

 def test_inconsistent_on_every_call(self):
  rels = RelationSet([(g("Q0.s") * g("twopii"), "Q"), (g("Q0.s"), "Q")])
  for _ in range(3):
   with pytest.raises(InconsistentRelations):
    reduce(g("Q0.s"), rels, "Q")

 def test_denominator_beyond_two_rejected(self):
  rels = case_relations(CaseMotives("pgl-q", 2))
  for name in ("Q0", "free", "sqrtdisc.3"):
   with pytest.raises(ValueError, match="denominator beyond 2"):
    reduce(g(name, Fraction(1, 3)), rels, "Q")
  with pytest.raises(ValueError, match="denominator beyond 2"):
   reduce(g("Q0"), RelationSet([(g("Q0", Fraction(1, 3)), "sqrtQ")]), "Q")

 def test_bad_mod(self):
  with pytest.raises(ValueError, match="mod must be"):
   reduce(g("Q0"), RelationSet(), "R")


class TestSqrtLevelResidue:
 """At sqrt(Q*) the residue is a representative again: its exponents have
 denominator at most 2, it reduces to itself, and it differs from x by a
 scalar trivial modulo sqrt(Q*)."""

 def _check(self, x, rels):
  y = reduce(x, rels, "sqrtQ")
  assert all(Fraction(e).denominator <= 2 for e in y.exps.values()), y
  assert reduce(y, rels, "sqrtQ") == y
  assert reduce(x * y ** -1, rels, "sqrtQ").is_one()
  return y

 def test_odd_relation_row(self):
  # a relation modulo Q* with a half-integral exponent would give an odd
  # row at doubled scale, (3, 1) for the first; RelationSet rejects it,
  # and its conjugate too, and takes the same scalar at level sqrtQ
  for exps in ({"Q0": Fraction(3, 2), "R0": half}, {"Q0": half, "R0": half},
               {"Q1.s": half}):
   for x in (PeriodScalar(exps), PeriodScalar(exps).conj()):
    with pytest.raises(ValueError, match="non-integral exponent: "):
     RelationSet([(g("Q0"), "Q"), (x, "Q")])
    self._check(g("Q0"), RelationSet([(x, "sqrtQ")]))

 @settings(max_examples=300, deadline=None, derandomize=True)
 @given(_relation_sets)
 @example(([({"Q0": 3, "R0": 1}, "sqrtQ")], [], {"Q0": half}, "sqrtQ"))
 def test_drawn_sets(self, data):
  relations, rational, x, _mod = data
  rels = RelationSet([(PeriodScalar(e), lev) for e, lev in relations],
                     rational_gens=rational)
  try:
   reduce(PeriodScalar(), rels, "sqrtQ")
  except InconsistentRelations:
   assume(False)
  self._check(PeriodScalar(x), rels)


def _lattice_rows(x, rels, mod):
 """The rows that reduce(x, rels, mod) adds to its lattice."""
 rows, add = [], linalg.Lattice.add
 def record(self, row, label):
  rows.append(row)
  return add(self, row, label)
 with pytest.MonkeyPatch.context() as mp:
  mp.setattr(linalg.Lattice, "add", record)
  try:
   reduce(x, rels, mod)
  except InconsistentRelations:
   pass
 return rows


def _assert_even(rows):
 assert rows
 for row in rows:
  assert all(a % 2 == 0 for a in row.values()), row


class TestEvenRows:
 """Every row of a relation lattice is even at the doubled scale, so the
 lattice is its own meet with 2Z^n and reduce reduces x^2 against it
 unchanged at sqrt(Q*)."""

 @pytest.mark.parametrize("case", CASES)
 def test_case_lattices(self, case):
  for n in range(1, 13):
   mot = CaseMotives(case, n)
   for mod in ("Q", "sqrtQ"):
    _assert_even(_lattice_rows(period_ratio(mot), case_relations(mot),
                               mod))

 @settings(max_examples=300, deadline=None, derandomize=True)
 @given(_relation_sets)
 def test_drawn_sets(self, data):
  relations, rational, x, mod = data
  rels = RelationSet([(PeriodScalar(e), lev) for e, lev in relations],
                     rational_gens=rational)
  _assert_even(_lattice_rows(PeriodScalar(x), rels, mod))


def _residue(basis, t):
 """Residue of t against the echelon rows, each expanded to a dense row."""
 t = list(t)
 for c, p, entries in basis:
  row = [0] * len(t)
  for k, a in entries:
   row[k] = a
  assert row[c] == p
  q = t[c] // p
  for k in range(len(t)):
   t[k] -= q * row[k]
 return t


def _combine(combo, rows, n):
 """sum(c * rows[j]) over the combination {j: c}, a dense row of length
 n."""
 out = [0] * n
 for j, c in combo.items():
  out = [a + c * b for a, b in zip(out, rows[j])]
 return out


_rows = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
             max_size=5),
    st.lists(st.integers(-20, 20), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5)))


class TestHnfProperties:
 @settings(max_examples=300, deadline=None, derandomize=True)
 @given(_rows)
 # adding 2 against the pivot 3 is a Euclid step of quotient 0; the pivot
 # ends at 1, with the combination 3 - 2
 @example(([[3], [2]], [5], [0] * 5))
 def test_residue_constant_on_cosets(self, data):
  rows, t, coeffs = data
  n = len(t)
  basis = dense_hnf(rows, n)
  shifted = list(t)
  for c, row in zip(coeffs, rows):
   shifted = [a + c * b for a, b in zip(shifted, row)]
  assert _residue(basis, t) == _residue(basis, shifted)
  # the echelon spans the rows: each reduces to zero
  for row in rows:
   assert not any(_residue(basis, row))
  # pivots are positive and the residue sits in [0, pivot) at each pivot
  res = _residue(basis, t)
  for c, p, _entries in basis:
   assert p > 0 and 0 <= res[c] < p
  assert dense_residue(list(t), basis) == res
  # the sparse lattice that reduce and the ledger read has the same
  # residue, and every basis row and t - r is its combination of the
  # added rows
  lattice = linalg.Lattice()
  for j, row in enumerate(rows):
   lattice.add(dict(enumerate(row)), j)
  r, combo = lattice.residue(dict(enumerate(t)))
  assert [r.get(k, 0) for k in range(n)] == res
  assert [(c, lattice.basis[c][0][c]) for c in sorted(lattice.basis)] == \
      [(c, p) for c, p, _e in basis]
  for row, rcombo in list(lattice.basis.values()) + \
      [({k: a - r.get(k, 0) for k, a in enumerate(t)}, combo)]:
   assert [row.get(k, 0) for k in range(n)] == _combine(rcombo, rows, n)
