"""Straightforward dense versions of the exact kernels, kept as references
for the equivalence tests: a reduction that rebuilds the whole relation
lattice on every call with a per-column integer vector, the three-reduction
case verdict, the dense Fraction Gauss-Jordan ledger solve, and the long
Weyl map and twisted pairing of the exterior model built by wedging
degree-1 images."""

from fractions import Fraction

from artifact import cases, periodring
from artifact.exteralg import ExteriorElement, wedge
from artifact.periodring import (PeriodScalar, InconsistentRelations,
                                 _auto_sqrt_class, _column_order, _hnf)
from artifact.ggpcheck import LedgerUnderdetermined


def dense_int_vector(x, cols, scale=2):
 v = []
 for g in cols:
  e = x.exps.get(g, Fraction(0)) * scale
  if e.denominator != 1:
   raise ValueError("exponent denominator beyond 2 not supported: %r" % (x,))
  v.append(int(e))
 return v


def dense_reduce(x, rels, mod="Q"):
 if mod not in ("Q", "sqrtQ"):
  raise ValueError("mod must be 'Q' or 'sqrtQ'")
 gens = set(x.exps)
 for r, _lev in rels.relations:
  gens.update(r.exps)
 gens.update(rels.rational_gens)
 gens.update(["i"])
 cols = _column_order(gens)
 idx = {g: k for k, g in enumerate(cols)}
 n = len(cols)
 lattice = []
 for r, lev in rels.relations:
  v = dense_int_vector(r, cols)
  if mod == "Q":
   mult = 2 if lev == "Q" else 4
  else:
   mult = 1 if lev == "Q" else 2
  if mult == 1 and any(a % 2 for a in v):
   raise ValueError("half-integral relation exponents are not supported")
  lattice.append([a * mult // 2 for a in v])
 for g in cols:
  base = None
  if _auto_sqrt_class(g):
   base = 2
  elif g in rels.rational_gens:
   base = 1
  if base is not None:
   v = [0] * n
   v[idx[g]] = 2 * base if mod == "Q" else base
   lattice.append(v)
 basis = _hnf(lattice, n)
 for c, row in basis:
  if cols[c] in ("pi", "twopii"):
   raise InconsistentRelations("pi relation")
 t = dense_int_vector(x, cols)
 for c, row in basis:
  q = t[c] // row[c]
  if q:
   for k in range(n):
    t[k] -= q * row[k]
 return PeriodScalar({cols[k]: Fraction(t[k], 2) for k in range(n) if t[k]})


def three_reduce_verdicts(case, n, extra=None):
 """(gamma1, gamma2, condensate) of one case, one reduction each."""
 m = cases.get(case, n).m(n)
 rels = periodring.case_relations(case, n)
 mod = "Q" if case == "pgl-q" else "sqrtQ"
 cond = periodring.condensate(case, n)
 if extra is not None:
  cond = cond * extra
 reduced = dense_reduce(cond, rels, mod)
 m_found = reduced.exps.get("twopii", Fraction(0))
 gamma1 = {"exponent": -m_found, "pass": m_found == m}
 rest = dense_reduce(reduced * PeriodScalar.gen("twopii", -m_found), rels,
                     mod)
 gamma2 = {"residual": repr(rest), "pass": rest.is_one()}
 residual = dense_reduce(cond * PeriodScalar.gen("twopii", -m), rels, mod)
 condensate = {"residual": repr(residual), "m": m,
               "pass": residual.is_one()}
 return gamma1, gamma2, condensate


def dense_solve(ledger, target):
 """Coefficients from Gauss-Jordan on the dense symbols x axioms matrix."""
 ncols = len(ledger.axioms)
 nrows = len(ledger.symbols)
 mat = [[Fraction(0)] * (ncols + 1) for _ in range(nrows)]
 for j, (_, form, _) in enumerate(ledger.axioms):
  for i, s in enumerate(ledger.symbols):
   mat[i][j] = form.get(s, Fraction(0))
 for i, s in enumerate(ledger.symbols):
  mat[i][ncols] = target.get(s, Fraction(0))
 pivots = []
 r = 0
 for c in range(ncols):
  piv = next((i for i in range(r, nrows) if mat[i][c]), None)
  if piv is None:
   continue
  mat[r], mat[piv] = mat[piv], mat[r]
  inv = 1 / mat[r][c]
  mat[r] = [x * inv for x in mat[r]]
  for i in range(nrows):
   if i != r and mat[i][c]:
    f = mat[i][c]
    mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
  pivots.append((r, c))
  r += 1
 for i in range(r, nrows):
  if mat[i][ncols]:
   raise LedgerUnderdetermined("underdetermined")
 coeffs = {}
 for row, col in pivots:
  if mat[row][ncols]:
   coeffs[ledger.axioms[col][0]] = mat[row][ncols]
 return coeffs


def wedge_apply_w(model, x):
 """Extend the long-Weyl map multiplicatively to the exterior algebra."""
 out = ExteriorElement(model.space, {})
 for s, c in x.coeffs.items():
  term = ExteriorElement(model.space, {(): c})
  for i in s:
   img = ExteriorElement(model.space,
                         {(j,): model.w[j][i] for j in range(model.delta)
                          if model.w[j][i]})
   term = wedge(term, img)
  out = out + term
 return out


def wedge_pairing(model, f1, f2):
 """Top-degree pairing with the w twist folded into the second slot."""
 total = Fraction(0)
 top = tuple(range(model.delta))
 for (g1, s1), c1 in f1.items():
  for (g2, s2), c2 in f2.items():
   if g1 != g2:
    continue
   e2 = wedge_apply_w(model, ExteriorElement(model.space, {s2: Fraction(1)}))
   prod = wedge(ExteriorElement(model.space, {s1: Fraction(1)}), e2)
   total += c1 * c2 * prod.coeffs.get(top, Fraction(0))
 return total
