"""Exterior algebra and the free graded module: wedge/contraction
adjointness, freeness, the twisted top-degree pairing, and the isometry
identity, all in exact rational arithmetic."""

import collections
from fractions import Fraction
import itertools
import math
import random

import pytest

from artifact import exteralg as ex
from artifact import linalg
import reference_kernels
from reference_kernels import (fraction_adjointness_check, fraction_act,
                               fraction_induced_inner, fraction_isometry_check,
                               fraction_module_inner, fraction_rand_elem,
                               per_triple_poincare_check, poincare_triples,
                               twisted_pairing, wedge_apply_w, wedge_pairing)


def E(sp, idx, c=1):
 return ex.ExteriorElement(sp, {tuple(idx): Fraction(c)})


class TestAlgebra:
 def setup_method(self):
  self.sp = ex.MetricSpaceQ(4)

 def test_wedge_anticommutes_degree_one(self):
  a, b = E(self.sp, (0,)), E(self.sp, (2,))
  assert ex.wedge(a, b).coeffs == {(0, 2): 1}
  assert ex.wedge(b, a).coeffs == {(0, 2): -1}

 def test_wedge_square_zero(self):
  a = ex.ExteriorElement(self.sp, {(1,): 1, (3,): 2})
  assert ex.wedge(a, a).coeffs == {}

 def test_wedge_sign(self):
  assert ex.wedge(E(self.sp, (1,)), E(self.sp, (0,))).coeffs == \
      {(0, 1): -1}

 def test_wedge_associative(self):
  rng = random.Random(3)
  for _ in range(20):
   a = ex._rand_elem(self.sp, 1, rng)
   b = ex._rand_elem(self.sp, 1, rng)
   c = ex._rand_elem(self.sp, 2, rng)
   assert ex.wedge(ex.wedge(a, b), c).coeffs == \
       ex.wedge(a, ex.wedge(b, c)).coeffs

 def test_contract_is_derivation(self):
  # x -| (a ^ b) = (x -| a) ^ b + (-1)^deg(a) a ^ (x -| b)
  rng = random.Random(5)
  for da in (1, 2):
   for _ in range(20):
    x = ex._rand_elem(self.sp, 1, rng)
    a = ex._rand_elem(self.sp, da, rng)
    b = ex._rand_elem(self.sp, 1, rng)
    lhs = ex.contract(x, ex.wedge(a, b))
    rhs = dict(ex.wedge(ex.contract(x, a), b).coeffs)
    for k, c in ex.wedge(a, ex.contract(x, b)).coeffs.items():
     rhs[k] = rhs.get(k, 0) + (-1) ** da * c
    assert lhs.coeffs == {k: c for k, c in rhs.items() if c}

 def test_contract_needs_degree_one(self):
  with pytest.raises(ValueError):
   ex.contract(E(self.sp, (0, 1)), E(self.sp, (0, 1, 2)))

 def test_gram_must_be_positive(self):
  with pytest.raises(ValueError):
   ex.MetricSpaceQ(2, [[1, 2], [2, 1]])
  with pytest.raises(ValueError):
   ex.MetricSpaceQ(2, [[1, 2], [3, 1]])


class TestShapes:
 """A matrix of the wrong size is rejected when it is given, with the
 shape it should have, not read in part or failed on later."""

 def test_gram_must_be_dim_by_dim(self):
  # a larger gram used to be accepted, its compound tables holding index 2
  with pytest.raises(ValueError, match="gram matrix must be 2 x 2"):
   ex.MetricSpaceQ(2, GRAM3)
  with pytest.raises(ValueError, match="gram matrix must be 3 x 3"):
   ex.MetricSpaceQ(3, [[2, 1], [1, 2]])
  with pytest.raises(ValueError, match="gram matrix must be 3 x 3"):
   ex.MetricSpaceQ(3, [[2, 1, 0], [1, 3], [0, 1, 4]])
  with pytest.raises(ValueError, match="gram matrix must be 3 x 3"):
   ex.TemperedCohomologyModel(3, 1, 1, gram=GRAM4)

 def test_dimension_must_be_nonnegative(self):
  # a negative dimension used to reach the shape check, whose message
  # named a "-1 x -1" gram matrix
  for dim in (-1, -3):
   for gram in (None, [], [[1]]):
    with pytest.raises(ValueError, match="dimension must be nonnegative"):
     ex.MetricSpaceQ(dim, gram)
  assert ex.MetricSpaceQ(0).rows == {(): {(): 1}}

 def test_model_matrices_must_match_delta_and_k(self):
  with pytest.raises(ValueError, match="generator matrix must be 2 x 2"):
   ex.TemperedCohomologyModel(2, 1, 2, gen_matrix=[[1]])
  with pytest.raises(ValueError, match="generator matrix must be 2 x 2"):
   ex.TemperedCohomologyModel(2, 1, 2, gen_matrix=[[1, 0], [0]])
  with pytest.raises(ValueError,
                     match="long Weyl involution must be 2 x 2"):
   ex.TemperedCohomologyModel(2, 1, 1, long_weyl=[[1, 0, 0], [0, 1, 0],
                                                   [0, 0, 1]])
  with pytest.raises(ValueError,
                     match="long Weyl involution must be 3 x 3"):
   ex.TemperedCohomologyModel(3, 1, 1, long_weyl=[[0, 1], [1, 0]])
  m = ex.TemperedCohomologyModel(2, 1, 2, long_weyl=[[0, 1], [1, 0]],
                                 gen_matrix=[[1, 1], [0, 1]])
  assert ex.freeness_check(m) and ex.poincare_adjoint_check(m)


def _leibniz_det(m):
 """Determinant by the permutation expansion, independent of the
 elimination in the package."""
 n = len(m)
 total = Fraction(0)
 for perm in itertools.permutations(range(n)):
  inversions = sum(perm[i] > perm[j]
                   for i in range(n) for j in range(i + 1, n))
  term = Fraction((-1) ** inversions)
  for i, j in enumerate(perm):
   term *= m[i][j]
  total += term
 return total


def _per_pair_inner(a, b):
 """Reference: one Gram minor per pair of equal-degree basis k-vectors."""
 gram = a.ambient.gram
 total = Fraction(0)
 for ka, ca in a.coeffs.items():
  for kb, cb in b.coeffs.items():
   if len(ka) == len(kb):
    total += ca * cb * _leibniz_det([[gram[i][j] for j in kb] for i in ka])
 return total


BAD_INDEX = "not a strictly increasing subset"


def _per_pair_module_inner(space, f1, f2):
 """Reference: orthonormal generators, one Gram minor per pair of keys."""
 return sum((_per_pair_inner(E(space, s1, c1), E(space, s2, c2))
             for (g1, s1), c1 in f1.items()
             for (g2, s2), c2 in f2.items() if g1 == g2), Fraction(0))


GRAM3 = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
GRAM4 = [[4, 1, 0, 1], [1, 3, 1, 0], [0, 1, 5, 2], [1, 0, 2, 6]]
GRAM5 = [[4, 1, 0, 1, 0], [1, 3, 1, 0, 0], [0, 1, 5, 2, 1], [1, 0, 2, 6, 0],
         [0, 0, 1, 0, 3]]   # GRAM4 is its leading block


class TestInducedMetric:
 @pytest.mark.parametrize("gram", [GRAM3, GRAM4])
 def test_gram_determinant_identity(self, gram):
  # <v1 ^ ... ^ vk, w1 ^ ... ^ wk> = det[<vi, wj>]  (Cauchy-Binet)
  sp = ex.MetricSpaceQ(len(gram), gram)
  rng = random.Random(17)
  for k in range(sp.dim + 1):
   for _ in range(10):
    vs = [ex._rand_elem(sp, 1, rng) for _ in range(k)]
    ws = [ex._rand_elem(sp, 1, rng) for _ in range(k)]
    v_wedge, w_wedge = E(sp, ()), E(sp, ())
    for v, w in zip(vs, ws):
     v_wedge, w_wedge = ex.wedge(v_wedge, v), ex.wedge(w_wedge, w)
    inner = [[sum(v.coeffs.get((i,), 0) * gram[i][j] * w.coeffs.get((j,), 0)
                  for i in range(sp.dim) for j in range(sp.dim))
              for w in ws] for v in vs]
    assert ex.induced_inner(v_wedge, w_wedge) == _leibniz_det(inner)

 @pytest.mark.parametrize("gram", [GRAM3, GRAM4])
 def test_matches_per_pair_minors(self, gram):
  sp = ex.MetricSpaceQ(len(gram), gram)
  rng = random.Random(29)
  for _ in range(20):
   a, b = {}, {}
   for deg in range(sp.dim + 1):   # one degree per draw: no key repeats
    if rng.random() < 0.6:
     a.update(ex._rand_elem(sp, deg, rng).coeffs)
    if rng.random() < 0.6:
     b.update(ex._rand_elem(sp, deg, rng).coeffs)
   a, b = ex.ExteriorElement(sp, a), ex.ExteriorElement(sp, b)
   assert ex.induced_inner(a, b) == _per_pair_inner(a, b)
   assert ex.induced_inner(a, b) == ex.induced_inner(b, a)

 def test_module_inner_matches_per_pair_minors(self):
  m = ex.TemperedCohomologyModel(3, 1, 2, gram=GRAM3)
  rng = random.Random(31)
  for _ in range(20):
   f1, f2 = {}, {}
   for f in (f1, f2):
    for g in range(m.k):
     for deg in range(m.delta + 1):
      for s, c in ex._rand_elem(m.space, deg, rng).coeffs.items():
       if rng.random() < 0.5:
        f[(g, s)] = c
   assert m.module_inner(f1, f2) == _per_pair_module_inner(m.space, f1, f2)

 def test_bad_index_tuples_rejected(self):
  # in either slot and the same element in both
  good = {(0, (0, 1)): Fraction(1)}
  m = ex.TemperedCohomologyModel(3, 1, 1)
  for bad in ((1, 0), (0, 0), (0, 3), (5,), (0, 1, 2, 3)):
   f = {(0, bad): Fraction(1)}
   for args in ((f, f), (f, good), (good, f)):
    with pytest.raises(ValueError, match=BAD_INDEX):
     m.module_inner(*args)
   with pytest.raises(ValueError, match=BAD_INDEX):
    m.act(f, E(m.space, (2,)))


BAD_GENERATOR = "generator index .* is not in range"


class TestIndexChecks:
 """An index tuple is valid exactly when it is a key of the space's
 compound Gram table, and a bad one raises the same ValueError in every
 kernel."""

 @pytest.mark.parametrize("gram", [None, GRAM3, GRAM4])
 def test_table_keys_are_the_valid_tuples(self, gram):
  dim = 3 if gram is None else len(gram)
  sp = ex.MetricSpaceQ(dim, gram)
  valid = [s for k in range(dim + 1)
           for s in itertools.combinations(range(dim), k)]
  assert list(sp.rows) == valid
  for s in itertools.product(range(-1, dim + 1), repeat=2):
   try:
    reference_kernels.check_index(s, dim)
   except ValueError:
    assert s not in sp.rows
   else:
    assert s in sp.rows

 def test_index_outside_the_dimension_rejected(self):
  sp = ex.MetricSpaceQ(3)
  for bad in ((7,), (3,), (-1,), (0, 3), (-1, 2)):
   with pytest.raises(ValueError, match=BAD_INDEX):
    ex.ExteriorElement(sp, {bad: 1})
   x = E(sp, (1,))
   x.coeffs = {bad: 1}
   with pytest.raises(ValueError, match=BAD_INDEX):
    ex.induced_inner(x, E(sp, (1,)))
  m = ex.TemperedCohomologyModel(3, 1, 1)
  with pytest.raises(ValueError, match=BAD_INDEX):
   m.act({(0, (3,)): 1}, E(m.space, ()))
  assert m.act({(0, ()): 1}, E(m.space, (2,))) == {(0, (2,)): 1}

 def test_pairing_against_rejects_bad_tuples(self):
  m = ex.TemperedCohomologyModel(3, 1, 1)
  for bad in ((1, 0), (2, 1), (0, 0), (3,), (0, 3)):
   with pytest.raises(ValueError, match=BAD_INDEX):
    m.pairing_against({(0, bad): 1})
  assert m.pairing_against({(0, (2,)): 1}) == {(0, (0, 1)): 1}

 def test_bad_generators_rejected(self):
  # a generator outside range(k) used to be carried into the result, and
  # paired and normed as if it were one of the k
  m = ex.TemperedCohomologyModel(3, 1, 1)
  e0 = E(m.space, (0,))
  good = {(0, (0,)): 1}
  for g in (5, 1, -1, "x", None):
   for s in ((), (0,), (1, 2)):
    bad = {(g, s): 1}
    with pytest.raises(ValueError, match=BAD_GENERATOR):
     m.act(bad, e0)
    for args in ((bad, bad), (bad, good), (good, bad)):
     with pytest.raises(ValueError, match=BAD_GENERATOR):
      m.module_inner(*args)
    with pytest.raises(ValueError, match=BAD_GENERATOR):
     m.pairing_against(bad)
  m2 = ex.TemperedCohomologyModel(3, 1, 2)
  assert m2.act({(1, ()): 1}, E(m2.space, (0,))) == {(1, (0,)): 1}
  assert m2.module_inner({(1, (0,)): 1}, {(1, (0,)): 1}) == 1
  assert m2.pairing_against({(1, (2,)): 1}) == {(1, (0, 1)): 1}

 def test_apply_w_rejects_bad_tuples(self):
  m = ex.TemperedCohomologyModel(3, 1, 1)
  for bad in ((7,), (2, 1)):
   x = E(m.space, (1, 2))
   x.coeffs = {bad: 1}
   with pytest.raises(ValueError, match=BAD_INDEX):
    m.apply_w(x)

 def test_model_rejects_an_element_of_another_space(self):
  # an element of another space, of another dimension or of the same
  # dimension with another Gram matrix, is not re-homed into the model's
  m = ex.TemperedCohomologyModel(3, 1, 1)
  for other in (ex.MetricSpaceQ(8), ex.MetricSpaceQ(3, GRAM3)):
   x = E(other, (2,))
   with pytest.raises(ValueError, match="ambient space mismatch"):
    m.act({(0, ()): 1}, x)
   with pytest.raises(ValueError, match="ambient space mismatch"):
    m.apply_w(x)
  with pytest.raises(ValueError, match="ambient space mismatch"):
   m.act({(0, ()): 1}, E(ex.MetricSpaceQ(8), (7,)))
  # an equal space that is another object is the model's space
  twin = ex.MetricSpaceQ(3)
  assert twin is not m.space
  assert m.act({(0, ()): 1}, E(twin, (2,))) == {(0, (2,)): 1}
  image = m.apply_w(E(twin, (2,)))
  assert image.ambient is m.space and image.coeffs == {(2,): 1}

 def test_rejected_tuple_raises_on_every_check(self):
  sp = ex.MetricSpaceQ(3)
  for _ in range(2):
   with pytest.raises(ValueError, match=BAD_INDEX):
    ex.ExteriorElement(sp, {(1, 0): 1})
   with pytest.raises(ValueError, match=BAD_INDEX):
    ex.ExteriorElement(ex.MetricSpaceQ(1), {(0, 1): 1})
   assert ex.ExteriorElement(sp, {(0, 1): 1}).coeffs == {(0, 1): 1}
  m = ex.TemperedCohomologyModel(3, 1, 1)
  for _ in range(2):
   with pytest.raises(ValueError, match=BAD_INDEX):
    m.module_inner({(0, (2, 1)): 1}, {(0, (1, 2)): 1})

 def test_same_compares_the_gram_matrix_of_another_space(self):
  sp = ex.MetricSpaceQ(3, GRAM3)
  for other in (ex.MetricSpaceQ(3), ex.MetricSpaceQ(4)):
   with pytest.raises(ValueError, match="ambient space mismatch"):
    E(sp, (0,))._same(E(other, (0,)))
  twin = ex.MetricSpaceQ(3, GRAM3)
  assert twin is not sp
  E(sp, (0,))._same(E(twin, (0,)))
  assert ex.induced_inner(E(sp, (0, 1)), E(twin, (0, 1))) == 5

 def test_compound_built_once_per_matrix(self, monkeypatch):
  built = []
  compound = linalg.compound

  def counting(mat):
   built.append(mat)
   return compound(mat)

  monkeypatch.setattr(linalg, "compound", counting)
  m = ex.TemperedCohomologyModel(4, 3, 2, long_weyl=SKEW_INVOLUTIONS[1],
                                 gram=GRAM4)
  # at construction: the gram's table, then the table of w^T
  assert built == [m.space.gram, linalg.transpose(m.w)]
  assert built[0] is m.space.gram
  assert ex.isometry_check(m, trials=1000) is True
  assert ex.freeness_check(m) and ex.poincare_adjoint_check(m)
  assert len(built) == 2


def test_flat_rows_match_per_pair_minors():
 """On a fresh space and model, whatever the order in which the degrees
 are read, induced_inner and module_inner equal one Gram minor per
 pair."""
 hyp = pytest.importorskip("hypothesis")
 st = hyp.strategies

 @st.composite
 def draws(draw):
  dim = draw(st.integers(1, 4))
  a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim,
                             max_size=dim), min_size=dim, max_size=dim))
  gram = [[sum(row[i] * row[j] for row in a) + (i == j)
           for j in range(dim)] for i in range(dim)]
  keys = [s for deg in range(dim + 1)
          for s in itertools.combinations(range(dim), deg)]
  coeff = st.integers(-9, 9).filter(bool)
  elems = [draw(st.dictionaries(st.sampled_from(keys), coeff))
           for _ in range(2)]
  mods = [draw(st.dictionaries(st.tuples(st.integers(0, 1),
                                         st.sampled_from(keys)), coeff))
          for _ in range(2)]
  order = draw(st.permutations(range(dim + 1)))
  return gram, elems, mods, order

 @hyp.settings(max_examples=100, deadline=None, derandomize=True)
 @hyp.given(draws())
 def check(drawn):
  gram, (a, b), (f1, f2), order = drawn
  sp = ex.MetricSpaceQ(len(gram), gram)
  m = ex.TemperedCohomologyModel(len(gram), 1, 2, gram=gram)
  y = ex.ExteriorElement(sp, b)
  for deg in order:
   part = {s: c for s, c in a.items() if len(s) == deg}
   x = ex.ExteriorElement(sp, part or {tuple(range(deg)): 1})
   assert ex.induced_inner(x, y) == _per_pair_inner(x, y)
   f = {(g, s): c for (g, s), c in f1.items() if len(s) == deg} or \
       {(1, tuple(range(deg))): 1}
   assert m.module_inner(f, f) == _per_pair_module_inner(m.space, f, f)
  x = ex.ExteriorElement(sp, a)
  assert ex.induced_inner(x, y) == _per_pair_inner(x, y)
  assert ex.induced_inner(y, x) == _per_pair_inner(y, x)
  for g, h in ((f1, f1), (f1, f2), (f2, f1)):
   assert m.module_inner(g, h) == _per_pair_module_inner(m.space, g, h)

 check()


def test_kernel_results_are_what_the_checked_constructor_builds():
 """_rand_elem, wedge, contract and apply_w build their results without
 checking the keys; each result is the element the public constructor
 makes of its coefficients, with no zero and every integral coefficient
 an int."""
 hyp = pytest.importorskip("hypothesis")
 st = hyp.strategies

 @st.composite
 def draws(draw):
  dim = draw(st.integers(1, 5))
  keys = [s for deg in range(dim + 1)
          for s in itertools.combinations(range(dim), deg)]
  coeff = st.one_of(st.integers(-4, 4),
                    st.fractions(-4, 4, max_denominator=6))
  a, b = (draw(st.dictionaries(st.sampled_from(keys), coeff))
          for _ in range(2))
  x = draw(st.dictionaries(st.sampled_from(range(dim)), coeff))
  # an involution: blocks [[1, c], [0, -1]] on disjoint pairs, signs on
  # the rest
  order = draw(st.permutations(range(dim)))
  w = [[draw(st.sampled_from((1, -1))) if i == j else 0
        for j in range(dim)] for i in range(dim)]
  for i, j in zip(order[0::2], order[1::2]):
   w[i][i], w[j][j], w[i][j] = 1, -1, draw(coeff)
  return dim, a, b, x, w, draw(st.integers(0, 2 ** 32)), \
      draw(st.integers(0, dim))

 def assert_canonical(r):
  assert ex.ExteriorElement(r.ambient, r.coeffs).coeffs == r.coeffs
  assert all(r.coeffs.values())
  assert all(type(c) is int for c in r.coeffs.values()
             if c.denominator == 1)

 @hyp.settings(max_examples=100, deadline=None, derandomize=True)
 @hyp.given(draws())
 def check(drawn):
  dim, a, b, x, w, seed, deg = drawn
  m = ex.TemperedCohomologyModel(dim, 1, 1, long_weyl=w)
  a, b = ex.ExteriorElement(m.space, a), ex.ExteriorElement(m.space, b)
  x = ex.ExteriorElement(m.space, {(i,): c for i, c in x.items()})
  results = [ex._rand_elem(m.space, deg, random.Random(seed)),
             ex.wedge(a, b), ex.wedge(b, a), ex.wedge(x, a),
             ex.contract(x, a), ex.contract(x, b), m.apply_w(a),
             m.apply_w(x)]
  for r in results:
   assert_canonical(r)

 check()


class TestAdjointness:
 @pytest.mark.parametrize("dim", [1, 2, 3, 4])
 def test_exhaustive_small(self, dim):
  assert ex.adjointness_check(ex.MetricSpaceQ(dim), trials=0)

 @pytest.mark.parametrize("trials", [0, 5])
 def test_dimension_zero_is_vacuous(self, trials):
  # no degree-1 functional exists, so no trial degree is drawn
  assert ex.adjointness_check(ex.MetricSpaceQ(0), trials=trials) is True

 def test_thousand_random_trials(self):
  assert ex.adjointness_check(ex.MetricSpaceQ(4), trials=1000)

 def test_gram_independent(self):
  gram = [[2, 1, 0], [1, 2, 0], [0, 0, 5]]
  assert ex.adjointness_check(ex.MetricSpaceQ(3, gram), trials=50)


def _lossy_wedge(a, b):
 """wedge that overwrites a key instead of adding to it."""
 a._same(b)
 out = {}
 for ka, ca in a.coeffs.items():
  for kb, cb in b.coeffs.items():
   m = ex._merge(ka, kb)
   if m:
    s, key = m
    out[key] = s * ca * cb
 return ex.ExteriorElement(a.ambient, out)


class TestAdjointnessSeesAccumulation:
 """Basis triples never put two products on one key, so only the random
 trials see a wedge that forgets to add them."""

 @pytest.mark.parametrize("dim", [3, 4])
 def test_lossy_wedge_fails_the_trials(self, dim, monkeypatch):
  monkeypatch.setattr(ex, "wedge", _lossy_wedge)
  assert ex.adjointness_check(ex.MetricSpaceQ(dim), trials=0) is True
  assert ex.adjointness_check(ex.MetricSpaceQ(dim), trials=20) is False


class TestModel:
 def test_dims_table(self):
  assert ex.model_dims(3, 3, 1) == [(3, 1), (4, 3), (5, 3), (6, 1)]
  assert ex.model_dims(2, 4, 3) == [(4, 3), (5, 6), (6, 3)]

 def test_long_weyl_must_be_involution(self):
  with pytest.raises(ValueError):
   ex.TemperedCohomologyModel(2, 1, 1, long_weyl=[[0, 1], [0, 1]])

 def test_needs_generators_and_nonnegative_delta(self):
  with pytest.raises(ValueError):
   ex.TemperedCohomologyModel(2, 1, 0)
  with pytest.raises(ValueError):
   ex.TemperedCohomologyModel(-1, 1, 1)

 def test_nonnegative_q(self):
  for q in (-1, -5):
   with pytest.raises(ValueError, match="q must be nonnegative"):
    ex.model_dims(2, q, 1)
   with pytest.raises(ValueError, match="q must be nonnegative"):
    ex.TemperedCohomologyModel(2, q, 1)
  assert ex.model_dims(2, 0, 1) == [(0, 1), (1, 2), (2, 1)]
  m = ex.TemperedCohomologyModel(2, 0, 1)
  assert ex.freeness_check(m) and ex.poincare_adjoint_check(m)

 def test_freeness(self):
  for delta, q, k in ((3, 3, 1), (2, 1, 2), (4, 2, 1)):
   m = ex.TemperedCohomologyModel(delta, q, k)
   assert ex.freeness_check(m)

 def test_freeness_fails_on_rank_deficient_generators(self):
  m = ex.TemperedCohomologyModel(2, 1, 2, gen_matrix=[[1, 1], [1, 1]])
  assert not ex.freeness_check(m)
  m2 = ex.TemperedCohomologyModel(3, 2, 3,
                                  gen_matrix=[[1, 0, 1], [0, 1, 1],
                                              [1, 1, 2]])
  assert not ex.freeness_check(m2)

 def test_action_module_axiom(self):
  m = ex.TemperedCohomologyModel(3, 2, 2)
  rng = random.Random(9)
  f = {(0, ()): Fraction(2), (1, ()): Fraction(-1)}
  x = ex._rand_elem(m.space, 1, rng)
  y = ex._rand_elem(m.space, 1, rng)
  assert m.act(m.act(f, x), y) == m.act(f, ex.wedge(x, y))

 @pytest.mark.parametrize("g", [0, 1])
 def test_action_adds_products_on_one_key(self, g):
  # the checks act with single-term factors or generator-degree ones, so
  # no two products meet on a key there; these factors make them meet
  m = ex.TemperedCohomologyModel(3, 1, 2)
  x = ex.ExteriorElement(m.space, {(0,): 3, (1,): 5})
  f = {(g, (0,)): 1, (g, (1,)): 2}   # 5 e01 - 6 e01
  assert m.act(f, x) == fraction_act(m, f, x) == {(g, (0, 1)): -1}
  # a degree-0 term and a degree-1 term on one generator, in either
  # order: 7 e1 + 2 e01 from e_(), and 21 e01 from 3 e0
  y = ex.ExteriorElement(m.space, {(1,): 7, (0, 1): 2})
  for f in ({(g, ()): 1, (g, (0,)): 3}, {(g, (0,)): 3, (g, ()): 1}):
   assert m.act(f, y) == fraction_act(m, f, y) == \
       {(g, (1,)): 7, (g, (0, 1)): 23}


def _act_dropping_degree0_generators(real):
 """act whose degree-0 path drops every generator g >= 1."""
 def act(self, f, x):
  return real(self, {key: c for key, c in f.items() if key[1] or key[0] < 1},
              x)
 return act


def _act_into_complements(real):
 """act that moves each image key (g, t) to (g, complement of t): a
 bijection of the module keys, so the images keep full rank, but every key
 with 2 len(t) != delta leaves the degree of its product."""
 def act(self, f, x):
  return {(g, self.complement[t][0]): c
          for (g, t), c in real(self, f, x).items()}
 return act


class TestFreeness:
 """freeness_check is a rank test on one integer lattice; the dense
 determinant per degree is its reference."""

 def test_matches_dense_reference(self):
  hyp = pytest.importorskip("hypothesis")
  st = hyp.strategies

  @st.composite
  def models(draw):
   delta, q, k = draw(st.integers(0, 6)), draw(st.integers(0, 3)), \
       draw(st.integers(1, 3))
   kind = draw(st.sampled_from(("singular", "unimodular", "permutation",
                                "fraction")))
   entry = st.integers(-3, 3)
   if kind == "fraction":
    entry = st.fractions(-3, 3, max_denominator=4)
   m = [[draw(entry) for _ in range(k)] for _ in range(k)]
   if kind == "singular":   # the last row a combination of the others
    a = [draw(st.integers(-2, 2)) for _ in range(k - 1)]
    m[-1] = [sum(c * row[j] for c, row in zip(a, m)) for j in range(k)]
   elif kind == "unimodular":   # unit upper times unit lower triangular
    up = [[draw(entry) if i < j else (i == j) * draw(st.sampled_from((-1, 1)))
           for j in range(k)] for i in range(k)]
    low = [[draw(entry) if i > j else int(i == j) for j in range(k)]
           for i in range(k)]
    m = linalg.matmul(up, low)
   elif kind == "permutation":   # a permutation, each entry scaled
    perm = draw(st.permutations(range(k)))
    m = [[draw(st.sampled_from((-2, -1, 1, 3))) if j == perm[i] else 0
          for j in range(k)] for i in range(k)]
   return ex.TemperedCohomologyModel(delta, q, k, gen_matrix=m)

  @hyp.settings(max_examples=200, deadline=None, derandomize=True)
  @hyp.given(models())
  @hyp.example(ex.TemperedCohomologyModel(2, 1, 2, gen_matrix=[[1, 1],
                                                               [1, 1]]))
  @hyp.example(ex.TemperedCohomologyModel(3, 0, 2, gen_matrix=[[2, 0],
                                                               [0, 3]]))
  def check(m):
   assert ex.freeness_check(m) is reference_kernels.dense_freeness_check(m)

  check()

 def test_calls_no_det(self, monkeypatch):
  def no_det(m):
   raise AssertionError("freeness_check called det")

  monkeypatch.setattr(linalg, "det", no_det)
  for gen in ([[1, 0], [0, 1]], [[Fraction(1, 2), 1], [0, Fraction(2, 3)]],
              [[0, 2], [-3, 0]]):
   assert ex.freeness_check(ex.TemperedCohomologyModel(4, 1, 2,
                                                       gen_matrix=gen))
  assert not ex.freeness_check(
      ex.TemperedCohomologyModel(4, 1, 2, gen_matrix=[[1, 2], [2, 4]]))

 @pytest.mark.parametrize("delta", range(4))
 def test_fails_when_act_drops_a_generator(self, delta, monkeypatch):
  m = ex.TemperedCohomologyModel(delta, 1, 2)
  assert ex.freeness_check(m)
  monkeypatch.setattr(ex.TemperedCohomologyModel, "act",
                      _act_dropping_degree0_generators(
                          ex.TemperedCohomologyModel.act))
  assert not ex.freeness_check(m)

 @pytest.mark.parametrize("delta,k", [(1, 1), (3, 2), (4, 1)])
 def test_fails_on_a_key_of_the_wrong_degree(self, delta, k, monkeypatch):
  m = ex.TemperedCohomologyModel(delta, 2, k)
  assert ex.freeness_check(m)
  monkeypatch.setattr(ex.TemperedCohomologyModel, "act",
                      _act_into_complements(ex.TemperedCohomologyModel.act))
  assert not ex.freeness_check(m)
  with pytest.raises(KeyError):
   reference_kernels.dense_freeness_check(m)


class TestPoincareAdjoint:
 @pytest.mark.parametrize("delta,q,k", [(2, 1, 1), (3, 3, 1), (4, 2, 2)])
 def test_identity_weyl(self, delta, q, k):
  m = ex.TemperedCohomologyModel(delta, q, k)
  assert ex.poincare_adjoint_check(m)

 def test_signed_permutation_weyl(self):
  w = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
  m = ex.TemperedCohomologyModel(3, 2, 2, long_weyl=w)
  assert ex.poincare_adjoint_check(m)

 def test_negation_weyl(self):
  w = [[-1, 0], [0, -1]]
  m = ex.TemperedCohomologyModel(2, 1, 1, long_weyl=w)
  assert ex.poincare_adjoint_check(m)

 def test_sign_convention_is_sharp(self):
  # flipping the asserted sign must break the signed comparison
  m = ex.TemperedCohomologyModel(3, 1, 1)
  found_nonzero = False
  for lhs, rhs in poincare_triples(m):
   if lhs:
    found_nonzero = True
    assert lhs == rhs
    assert lhs != -rhs
  assert found_nonzero


# planted faults, each of which the check must see: the model is built
# sound and one value that the check reads is broken in place
POINCARE_W = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]


def _poincare_model():
 return ex.TemperedCohomologyModel(4, 1, 2, long_weyl=POINCARE_W)


def _flip_w_minor(m, s):
 row = m.w_rows[s]
 c = min(row)
 row[c] = -row[c]


def _flip_complement_sign(m, s):
 t, sign = m.complement[s]
 m.complement[s] = (t, -sign)


def _drop_act_term(m, key):
 act = m.act
 m.act = lambda f, x: {k: v for k, v in act(f, x).items() if k != key}


_SUBSETS4 = [s for i in range(5) for s in itertools.combinations(range(4), i)]


class TestPoincareSeesFaults:
 """poincare_adjoint_check returns False on each planted fault, as does
 the per-triple reference loop on the same model."""

 def test_sound_model_passes(self):
  m = _poincare_model()
  assert ex.poincare_adjoint_check(m) and per_triple_poincare_check(m)

 @pytest.mark.parametrize("s", _SUBSETS4, ids=str)
 def test_w_minor_sign_flipped(self, s):
  m = _poincare_model()
  _flip_w_minor(m, s)
  assert not ex.poincare_adjoint_check(m)
  assert not per_triple_poincare_check(m)

 @pytest.mark.parametrize("s", _SUBSETS4, ids=str)
 def test_complement_sign_flipped(self, s):
  m = _poincare_model()
  _flip_complement_sign(m, s)
  assert not ex.poincare_adjoint_check(m)
  assert not per_triple_poincare_check(m)

 @pytest.mark.parametrize("key", [(0, (2,)), (1, (0, 3)), (0, (0, 1, 3)),
                                  (1, (0, 1, 2, 3))], ids=str)
 def test_act_drops_a_term(self, key):
  m = _poincare_model()
  _drop_act_term(m, key)
  assert not ex.poincare_adjoint_check(m)
  assert not per_triple_poincare_check(m)


def _count_kernel_calls(m):
 """Wrap m's act, apply_w and pairing_against to count their calls."""
 calls = collections.Counter()
 for name in ("act", "apply_w", "pairing_against"):
  def counted(*args, _name=name, _f=getattr(m, name)):
   calls[_name] += 1
   return _f(*args)
  setattr(m, name, counted)
 return calls


class TestPoincareTraffic:
 """The check takes one functional per module key and builds each action
 and w(X) once, where the per-triple reference takes two pairings per
 basis triple: a return to per-triple work fails these counts."""

 def _pin(self, d, q, k):
  m = ex.TemperedCohomologyModel(d, q, k)
  calls = _count_kernel_calls(m)
  assert ex.poincare_adjoint_check(m)
  assert calls["apply_w"] == d
  assert calls["act"] <= 2 * k * d * (2 ** d - 1)
  # every module key has degree q + |s| >= 1 at q >= 1
  assert calls["pairing_against"] <= len(m.rows) == k * 2 ** d
  return calls

 def test_kernel_calls(self, monkeypatch):
  d, k = 4, 2
  got = self._pin(d, 1, k)
  m = ex.TemperedCohomologyModel(d, 1, k)
  ref = _count_kernel_calls(m)
  pairings = _record_calls(reference_kernels, "twisted_pairing", monkeypatch)
  assert per_triple_poincare_check(m)
  assert len(pairings) == 2 * k * d * math.comb(2 * d, d - 1)
  assert got["act"] < ref["act"]

 def test_kernel_calls_at_delta_10(self):
  # 3.36 M pairings per triple at (10, 1, 1); the check takes 1024
  # functionals and at most 20 460 actions
  self._pin(10, 1, 1)


def test_merge_cache_keeps_every_pair_at_delta_9():
 # act merges each subset s with one index r: 9 * 2^9 = 4608 pairs at
 # delta 9, so a second pass over them must not miss
 pairs = [(s, (r,)) for i in range(10)
          for s in itertools.combinations(range(9), i) for r in range(9)]
 ex._merge.cache_clear()
 for _ in range(2):
  for s, r in pairs:
   ex._merge(s, r)
 assert ex._merge.cache_info().misses == len(pairs)


# involutions that are not symmetric: w and its transpose act differently
# on the exterior algebra, while the Poincare identity holds for both
SKEW_INVOLUTIONS = [
    [[1, 1, 0], [0, -1, 0], [0, 0, 1]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [2, -2, 1, 0], [0, 0, 0, -1]],
]


def _rand_module_elem(m, rng):
 out = {}
 for g in range(m.k):
  for deg in range(m.delta + 1):
   for s, c in ex._rand_elem(m.space, deg, rng).coeffs.items():
    if rng.random() < 0.5:
     out[(g, s)] = c
 return out


class TestLongWeylOrientation:
 """apply_w and pairing against the wedge-built references, which extend
 w e_i = sum_j w[j][i] e_j multiplicatively."""

 def test_image_is_a_column(self):
  m = ex.TemperedCohomologyModel(3, 1, 1, long_weyl=SKEW_INVOLUTIONS[0])
  assert m.apply_w(E(m.space, (1,))).coeffs == {(0,): 1, (1,): -1}
  assert m.apply_w(E(m.space, (1, 2))).coeffs == {(0, 2): 1, (1, 2): -1}

 @pytest.mark.parametrize("w", SKEW_INVOLUTIONS)
 def test_apply_w_matches_wedge_reference(self, w):
  m = ex.TemperedCohomologyModel(len(w), 1, 2, long_weyl=w)
  rng = random.Random(37)
  for deg in range(m.delta + 1):
   for s in itertools.combinations(range(m.delta), deg):
    assert m.apply_w(E(m.space, s)).coeffs == \
        wedge_apply_w(m, E(m.space, s)).coeffs
   for _ in range(5):
    x = ex._rand_elem(m.space, deg, rng)
    assert m.apply_w(x).coeffs == wedge_apply_w(m, x).coeffs

 @pytest.mark.parametrize("w", SKEW_INVOLUTIONS)
 def test_pairing_matches_wedge_reference(self, w):
  m = ex.TemperedCohomologyModel(len(w), 2, 2, long_weyl=w)
  rng = random.Random(41)
  for _ in range(20):
   f1, f2 = _rand_module_elem(m, rng), _rand_module_elem(m, rng)
   want = wedge_pairing(m, f1, f2)
   assert twisted_pairing(m, f1, f2) == want
   against = m.pairing_against(f2)
   assert sum(c * against.get(key, 0) for key, c in f1.items()) == want
  assert ex.poincare_adjoint_check(m)


def _flip_w_entry(m, s, t):
 m.w_rows[s][t] = -m.w_rows[s][t]


# every single planted fault of a model: each entry of each w_rows row
# sign-flipped, each complement sign flipped, each act output key dropped
def _single_faults(m):
 return ([(_flip_w_entry, s, t) for s, row in m.w_rows.items()
          for t in row] +
         [(_flip_complement_sign, s) for s in m.complement] +
         [(_drop_act_term, key) for key in m.rows])


class TestPoincareMatchesPerTriple:
 """The sparse comparison of the two sides gives the verdict of the
 per-triple reference loop, on sound models and on each planted fault."""

 @pytest.mark.parametrize("args,w", [
     ((delta, q, k), None) for delta in range(1, 5)
     for q, k in ((1, 1), (2, 1), (3, 2))] + [
     ((4, 1, 2), POINCARE_W)] + [
     ((len(w), q, k), w) for w in SKEW_INVOLUTIONS
     for q, k in ((1, 1), (2, 2))], ids=str)
 def test_sound_models(self, args, w):
  m = ex.TemperedCohomologyModel(*args, long_weyl=w)
  assert ex.poincare_adjoint_check(m) is per_triple_poincare_check(m) \
      is True

 @pytest.mark.parametrize("w", [POINCARE_W, SKEW_INVOLUTIONS[1]],
                          ids=["poincare_w", "skew"])
 def test_each_single_fault(self, w):
  faults = _single_faults(ex.TemperedCohomologyModel(4, 1, 2, long_weyl=w))
  assert len(faults) >= 16 + 16 + 32
  seen = 0
  for plant, *where in faults:
   m = ex.TemperedCohomologyModel(4, 1, 2, long_weyl=w)
   plant(m, *where)
   got = ex.poincare_adjoint_check(m)
   assert got == per_triple_poincare_check(m), (plant.__name__, where)
   seen += not got
  assert seen

 def test_drawn_involutions(self):
  # w = P diag(+-1) P^-1, P a product of elementary unimodular matrices
  hyp = pytest.importorskip("hypothesis")
  st = hyp.strategies

  @st.composite
  def involutions(draw):
   d = draw(st.integers(1, 4))
   p, p_inv = linalg.identity(d), linalg.identity(d)
   pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
   for _ in range(draw(st.integers(0, 6)) if pairs else 0):
    i, j = draw(st.sampled_from(pairs))
    c = draw(st.sampled_from((-2, -1, 1, 2)))
    for row in p:   # P E for E = 1 + c e_ij
     row[j] += c * row[i]
    # E^-1 P^-1 for E^-1 = 1 - c e_ij
    p_inv[i] = [a - c * b for a, b in zip(p_inv[i], p_inv[j])]
   signs = [[draw(st.sampled_from((1, -1))) if i == j else 0
             for j in range(d)] for i in range(d)]
   return p, p_inv, signs, draw(st.integers(0, 2)), draw(st.integers(1, 2))

  @hyp.settings(max_examples=60, deadline=None, derandomize=True)
  @hyp.given(involutions())
  def check(drawn):
   p, p_inv, signs, q, k = drawn
   assert linalg.matmul(p, p_inv) == linalg.identity(len(p))
   w = linalg.matmul(linalg.matmul(p, signs), p_inv)
   m = ex.TemperedCohomologyModel(len(w), q, k, long_weyl=w)
   assert ex.poincare_adjoint_check(m) is per_triple_poincare_check(m) \
       is True

  check()


class TestIsometry:
 def test_orthonormal(self):
  m = ex.TemperedCohomologyModel(3, 3, 1)
  assert ex.isometry_check(m, trials=30)

 def test_scaled_gram(self):
  lam = 7
  gram = [[lam if i == j else 0 for j in range(3)] for i in range(3)]
  m = ex.TemperedCohomologyModel(3, 1, 2, gram=gram)
  assert ex.isometry_check(m, trials=30)

 def test_general_gram(self):
  gram = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
  m = ex.TemperedCohomologyModel(3, 1, 1, gram=gram)
  assert ex.isometry_check(m, trials=30)

 def test_relative_norm_identity_explicit(self):
  # |omega.nu|^2 = |omega|^2 |nu|^2 exactly, for generator-degree omega
  m = ex.TemperedCohomologyModel(3, 2, 2)
  om = {(0, ()): Fraction(3), (1, ()): Fraction(-2)}
  nu = ex.ExteriorElement(m.space, {(0, 2): 5, (1, 2): -1})
  prod = m.act(om, nu)
  assert m.module_inner(prod, prod) == \
      m.module_inner(om, om) * ex.induced_inner(nu, nu)


def _drop_mirrored_minors(space):
 """Break the induced metric: keep only the upper triangle of the
 compound Gram table, as a table that forgot its mirrored entries would."""
 for ka, row in space.rows.items():
  for kb in [kb for kb in row if kb < ka]:
   del row[kb]


class TestIsometryWitness:
 """The isometry identity reads one metric on both sides, so only the
 Cauchy-Binet witness inside isometry_check can see a wrong one."""

 @pytest.mark.parametrize("delta,q,k", [(3, 1, 1), (4, 2, 1), (4, 3, 2)])
 def test_broken_induced_metric_fails(self, delta, q, k):
  gram = GRAM3 if delta == 3 else GRAM4
  m = ex.TemperedCohomologyModel(delta, q, k, gram=gram)
  assert ex.isometry_check(m, trials=30)
  _drop_mirrored_minors(m.space)
  assert not ex.isometry_check(m, trials=30)



GRAM3_RATIONAL = [[Fraction(x, 3) for x in row] for row in GRAM3]
GRAM3_NONDIAG = [[2, 1, 0], [1, 2, 0], [0, 0, 5]]


def _minors(space):
 return [minor for row in space.rows.values() for minor in row.values()]


class TestIntegerArithmetic:
 """On integral data the exterior model computes over Z: a silent return
 to Fraction arithmetic fails here, not only in the benchmark."""

 def test_integer_gram_minors_and_draws_are_int(self):
  m = ex.TemperedCohomologyModel(4, 1, 2, gram=GRAM4)
  assert all(type(minor) is int for minor in _minors(m.space))
  rng = random.Random(43)
  for deg in range(m.delta + 1):
   for _ in range(5):
    x = ex._rand_elem(m.space, deg, rng)
    assert all(type(c) is int for c in x.coeffs.values())
    assert type(ex.induced_inner(x, x)) is int
    om = {(0, ()): rng.randint(1, 5), (1, ()): -2}
    prod = m.act(om, x)
    assert all(type(c) is int for c in prod.values())
    assert type(m.module_inner(prod, prod)) is int

 def test_rational_gram_keeps_fraction_minors(self):
  sp = ex.MetricSpaceQ(3, GRAM3_RATIONAL)
  assert any(type(minor) is Fraction for minor in _minors(sp))
  assert all(type(minor) is int or minor.denominator != 1
             for minor in _minors(sp))

 @pytest.mark.parametrize("seed", [5, 47, 20260823])
 def test_draws_are_integer_multiples_of_the_reference(self, seed):
  sp = ex.MetricSpaceQ(4, GRAM4)
  rng, ref_rng = random.Random(seed), random.Random(seed)
  for _ in range(50):
   deg = rng.randrange(sp.dim + 1)
   assert ref_rng.randrange(sp.dim + 1) == deg
   x = ex._rand_elem(sp, deg, rng)
   ref = fraction_rand_elem(sp, deg, ref_rng)
   assert x.coeffs.keys() == ref.coeffs.keys()
   ratios = {Fraction(c) / ref.coeffs[k] for k, c in x.coeffs.items()}
   assert len(ratios) <= 1
   for r in ratios:
    assert r.denominator == 1 and r > 0
  assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("seed", [5, 47])
def test_draws_are_the_six_bit_rule_times_their_lcm(seed):
 # one getrandbits(6) per basis index: n = (x & 15) - 8, d = (x >> 4) + 1;
 # a zero n is dropped, but the lcm runs over every drawn d
 sp = ex.MetricSpaceQ(4, GRAM4)
 rng, twin = random.Random(seed), random.Random(seed)
 zeros = lcm_moved = 0
 for deg in [0, 1, 2, 3, 4] * 20:
  x = ex._rand_elem(sp, deg, rng)
  draws = []
  for key in itertools.combinations(range(4), deg):
   b = twin.getrandbits(6)
   draws.append((key, (b & 15) - 8, (b >> 4) + 1))
  lcm = math.lcm(*[d for _, _, d in draws])
  assert x.coeffs == {key: n * lcm // d for key, n, d in draws if n}
  assert all(type(c) is int for c in x.coeffs.values())
  zeros += sum(1 for _, n, _ in draws if not n)
  lcm_moved += lcm != math.lcm(*[d for _, n, d in draws if n])
 # the seeds reach both a dropped zero and an lcm that only a zero's d moves
 assert zeros and lcm_moved
 assert rng.random() == twin.random()


def _record_calls(owner, name, monkeypatch):
 """Patch owner.name to record the arguments of every call."""
 seen, fn = [], getattr(owner, name)
 def record(*args):
  seen.append(args)
  return fn(*args)
 monkeypatch.setattr(owner, name, record)
 return seen


class TestFractionReference:
 """The integer kernels reach the verdicts of the Fraction reference."""

 @pytest.mark.parametrize("seed", [20260823, 11, 911])
 def test_acceptance_grid(self, seed):
  for space in (ex.MetricSpaceQ(4), ex.MetricSpaceQ(3, GRAM3_NONDIAG)):
   assert ex.adjointness_check(space, trials=1000, seed=seed) is True
   assert fraction_adjointness_check(space, trials=1000, seed=seed) is True
  for delta in range(1, 5):
   for q, k in ((1, 1), (2, 1), (3, 2)):
    m = ex.TemperedCohomologyModel(delta, q, k)
    assert ex.isometry_check(m, trials=1000, seed=seed) is True
    assert fraction_isometry_check(m, trials=1000, seed=seed) is True

 @pytest.mark.parametrize("seed", [3, 29, 20260823])
 @pytest.mark.parametrize("delta,q,k", [(1, 2, 3), (2, 1, 2), (3, 2, 1),
                                       (4, 1, 3), (5, 2, 1)])
 def test_same_trials_as_the_reference(self, seed, delta, q, k,
                                       monkeypatch):
  # both checks act with the same omegas on the same nus, the integer nu
  # a positive integer multiple of the reference's n/d draw
  m = ex.TemperedCohomologyModel(delta, q, k,
                                 gram=[row[:delta] for row in GRAM5[:delta]])
  seen, ref_seen = [], []
  act = m.act
  def record(f, x):
   seen.append((f, x))
   return act(f, x)
  m.act = record
  def ref_record(model, f, x):
   ref_seen.append((f, x))
   return fraction_act(model, f, x)
  monkeypatch.setattr(reference_kernels, "fraction_act", ref_record)
  # 50 trials: at delta 1 a nu has one coefficient, zero one time in 16
  assert ex.isometry_check(m, trials=50, seed=seed) is True
  assert reference_kernels.fraction_isometry_check(m, trials=50,
                                                   seed=seed) is True
  assert len(seen) == len(ref_seen) > 3 * 40
  for (om, nu), (ref_om, ref_nu) in zip(seen, ref_seen):
   assert om == ref_om
   assert all(type(c) is int for c in om.values())
   assert nu.coeffs.keys() == ref_nu.coeffs.keys()
   ratios = {Fraction(c) / ref_nu.coeffs[key]
             for key, c in nu.coeffs.items()}
   assert len(ratios) == 1
   lam, = ratios
   assert lam.denominator == 1 and lam > 0

 @pytest.mark.parametrize("seed", [3, 29, 20260823])
 @pytest.mark.parametrize("dim,gram", [
     (1, None), (1, [[2]]), (2, None), (2, [[2, 1], [1, 2]]),
     (3, None), (3, GRAM3_NONDIAG), (4, None), (4, GRAM4)])
 def test_adjointness_same_trials_as_the_reference(self, seed, dim, gram,
                                                  monkeypatch):
  # both checks wedge the same X on the same A and contract it into the
  # same B, each integer draw a positive integer multiple of the
  # reference's n/d draw
  sp = ex.MetricSpaceQ(dim, gram)
  calls = [_record_calls(ex, name, monkeypatch)
           for name in ("wedge", "contract")]
  ref_calls = [_record_calls(reference_kernels, name, monkeypatch)
               for name in ("wedge", "contract")]
  assert ex.adjointness_check(sp, trials=40, seed=seed) is True
  assert fraction_adjointness_check(sp, trials=40, seed=seed) is True
  for seen, ref_seen in zip(calls, ref_calls):
   assert len(seen) == len(ref_seen) > 40
   for args, ref_args in zip(seen, ref_seen):
    for x, ref in zip(args, ref_args):
     assert x.coeffs.keys() == ref.coeffs.keys()
     ratios = {Fraction(c) / ref.coeffs[k] for k, c in x.coeffs.items()}
     assert len(ratios) <= 1
     for r in ratios:
      assert r.denominator == 1 and r > 0

 @pytest.mark.parametrize("gram", [GRAM3_NONDIAG, GRAM3_RATIONAL])
 def test_gram(self, gram):
  sp = ex.MetricSpaceQ(3, gram)
  assert ex.adjointness_check(sp, trials=200) is True
  assert fraction_adjointness_check(sp, trials=200) is True
  m = ex.TemperedCohomologyModel(3, 1, 2, gram=gram)
  assert ex.isometry_check(m, trials=200) is True
  assert fraction_isometry_check(m, trials=200) is True

 @pytest.mark.parametrize("gram", [GRAM3_NONDIAG, GRAM3_RATIONAL])
 def test_kernel_values_scale_with_the_draw(self, gram):
  # the integer draw is lam * the reference draw, so the norms scale by
  # lam^2 and the action by lam; the factors of positive degree compare
  # the wedge sign of act with the reference's own
  m = ex.TemperedCohomologyModel(3, 1, 2, gram=gram)
  rng, ref_rng = random.Random(53), random.Random(53)
  for _ in range(30):
   deg = rng.randrange(m.delta + 1)
   ref_rng.randrange(m.delta + 1)
   x = ex._rand_elem(m.space, deg, rng)
   ref = fraction_rand_elem(m.space, deg, ref_rng)
   lam = next((Fraction(c) / ref.coeffs[k] for k, c in x.coeffs.items()), 1)
   assert ex.induced_inner(x, x) == lam ** 2 * fraction_induced_inner(ref, ref)
   for om in ({(0, ()): 3, (1, ()): -2},
              {(0, (1,)): 3, (1, (2,)): -2, (1, (0, 2)): 5}):
    prod, ref_prod = m.act(om, x), fraction_act(m, om, ref)
    assert prod == {key: lam * c for key, c in ref_prod.items()}
    assert m.module_inner(prod, prod) == \
        lam ** 2 * fraction_module_inner(m, ref_prod, ref_prod)

 @pytest.mark.parametrize("delta,q,k", [(3, 1, 1), (4, 2, 1), (4, 3, 2)])
 def test_broken_induced_metric_fails_on_both_paths(self, delta, q, k):
  gram = GRAM3 if delta == 3 else GRAM4
  m = ex.TemperedCohomologyModel(delta, q, k, gram=gram)
  _drop_mirrored_minors(m.space)
  assert ex.isometry_check(m, trials=30) is False
  assert fraction_isometry_check(m, trials=30) is False
