"""Exact arithmetic with period scalars modulo rational square classes.

A scalar is a finite product of formal generators raised to rational
exponents: an integral exponent is an int, any other a Fraction.  The
generator classes, by the kind that _kind reads off a name and reduce
orders its columns by:

  0  <name>        a free indeterminate, fixed by conjugation (reserved
                   for quantities known to be real or of rational square
                   class), or <name>.s / <name>.sb, the two complex
                   embeddings of one, which conjugation swaps
  1  sqrtD         sqrt(D) for the fixed positive rational D (so
                   sqrt(-D) = i*sqrtD), fixed by conjugation
     sqrtdisc.<x>  square root of a named nonzero rational, fixed too
  2  i             sqrt(-1), which conjugation inverts
  3  pi            the real number pi
  4  twopii        the scalar 2*pi*i, which conjugation multiplies by i^2

Kinds 1 and 2 are of rational square class.  Triviality modulo Q* or
sqrt(Q*) is decided by integer lattice reduction against a declared
relation set, so the orientation in which each relation is written never
matters.
"""

from fractions import Fraction

from . import hodge
from . import linalg


class PeriodScalar:
 """Formal product of generators: an integral exponent is an int, any
 other a Fraction of denominator > 1, and i, of order 4, has its exponent
 in [0, 4)."""

 def __init__(self, exps=None):
  self.exps = {}
  if exps:
   for g, e in exps.items():
    if type(e) is not int:
     e = Fraction(e)
     if e.denominator == 1:
      e = e.numerator
    if g == "i":
     e %= 4
    if e:
     self.exps[g] = e

 @staticmethod
 def one():
  return PeriodScalar()

 @staticmethod
 def gen(name, exp=1):
  return PeriodScalar({name: exp})

 def __mul__(self, other):
  out = dict(self.exps)
  for g, e in other.exps.items():
   mine = out.get(g)
   out[g] = e if mine is None else mine + e
  return PeriodScalar(out)

 def __pow__(self, k):
  return PeriodScalar({g: e * k for g, e in self.exps.items()})

 def conj(self):
  """Complex conjugate: a renaming of the generators that swaps the
  embeddings .s and .sb and inverts i, times i^2 for each 2 pi i, since
  conj(2 pi i) = i^2 * 2 pi i."""
  out = {g[:-2] + ".sb" if g.endswith(".s") else
         g[:-3] + ".s" if g.endswith(".sb") else g: -e if g == "i" else e
         for g, e in self.exps.items()}
  t = self.exps.get("twopii")
  if t:
   out["i"] = out.get("i", 0) + 2 * t
  return PeriodScalar(out)

 def is_one(self):
  return not self.exps

 def __eq__(self, other):
  return isinstance(other, PeriodScalar) and self.exps == other.exps

 def __hash__(self):
  return hash(frozenset(self.exps.items()))

 def __repr__(self):
  if not self.exps:
   return "1"
  parts = []
  for g in sorted(self.exps):
   e = self.exps[g]
   parts.append(g if e == 1 else "%s^%s" % (g, e))
  return "*".join(parts)


class RelationSet:
 """Declared multiplicative relations among period generators.

 Each relation (x, level) asserts x ~ 1 modulo Q* (level "Q") or modulo
 sqrt(Q*) (level "sqrtQ").  The set is closed under complex conjugation on
 construction.  rational_gens lists indeterminates known to be rational.
 """

 def __init__(self, relations=(), rational_gens=()):
  # each relation and its conjugate, in order, an equal repeat dropped
  self.relations = list(dict.fromkeys(
      (y, level) for x, level in relations for y in (x, x.conj())))
  for _y, level in self.relations:
   if level not in ("Q", "sqrtQ"):
    raise ValueError("unknown relation level: %r" % (level,))
  self.rational_gens = tuple(rational_gens)


def _kind(g):
 """The class 0..4 of a generator, as in the module docstring."""
 if g == "sqrtD" or g.startswith("sqrtdisc."):
  return 1
 return {"i": 2, "pi": 3, "twopii": 4}.get(g, 0)


def _to_int_vector(x, index, scale=1):
 """Exponents of x at doubled scale (exponent 1/2 -> 1), times scale, as
 a sparse row {column: int} over the indexed columns."""
 v = {}
 for g, e in x.exps.items():
  d = e.denominator
  if d > 2:
   raise ValueError("exponent denominator beyond 2 not supported: %r" % (x,))
  v[index[g]] = e.numerator * (2 // d) * scale
 return v


class InconsistentRelations(ValueError):
 pass


def reduce(x, rels, mod="Q"):
 """Canonical residue of x against the relation set, mod Q* or sqrt(Q*).

 Returns a PeriodScalar; the empty product means x is trivial at the
 requested level.  Raises InconsistentRelations if the relations force a
 multiplicative relation between powers of pi and 2*pi*i themselves.

 The set has one lattice: the scalars trivial modulo Q*, at doubled
 scale, over the generators of x and of the set and i, sorted by _kind
 and then by name, so that pi and twopii come last.
 A relation modulo Q* spans itself and one modulo sqrt(Q*) its square; a
 generator of rational square class spans its square and a rational one
 itself.  y is trivial modulo sqrt(Q*) exactly when y^2 is modulo Q*, so
 at sqrtQ the residue of x^2 is halved; x^2 is reduced modulo the even
 rows of the lattice alone, as the representatives y of x, those with
 y^2 = x^2 modulo Q* and of exponent denominator at most 2, have y^2 in
 x^2 plus those rows.  So the residue is again such a y, and reducing it
 gives it back.
 """
 if mod not in ("Q", "sqrtQ"):
  raise ValueError("mod must be 'Q' or 'sqrtQ'")
 gens = {"i", *x.exps, *rels.rational_gens}
 for r, _lev in rels.relations:
  gens.update(r.exps)
 kinds = sorted((_kind(g), g) for g in gens)
 cols = [g for _, g in kinds]
 index = {g: k for k, g in enumerate(cols)}
 lattice = linalg.Lattice()
 for k, (r, lev) in enumerate(rels.relations):
  lattice.add(_to_int_vector(r, index, 1 if lev == "Q" else 2), k)
 for k, (kind, g) in enumerate(kinds):
  unit = 4 if kind in (1, 2) else 2 if g in rels.rational_gens else 0
  if unit:
   lattice.add({k: unit}, g)
 for c in sorted(lattice.basis):
  if kinds[c][0] > 2:
   # quote the Hermite row, its twopii entry floor-reduced against the
   # twopii pivot, so that the order of the relations does not show
   row = dict(lattice.basis[c][0])
   t = index.get("twopii")
   if t != c and t in lattice.basis:
    row[t] = row.get(t, 0) % lattice.basis[t][0][t]
   raise InconsistentRelations(
    "relation set forces a rational relation among pi powers: " +
    "*".join("%s^%s" % (cols[k], Fraction(row[k], 2))
             for k in sorted(row) if row[k]))
 scale = 1
 if mod == "sqrtQ":
  scale, lattice = 2, lattice.even()
 t, _combo = lattice.residue(_to_int_vector(x, index, scale))
 return PeriodScalar({cols[k]: Fraction(a, 2 * scale)
                      for k, a in sorted(t.items())})


# ---------------------------------------------------------------------------
# period data of the case families (see cases.py for the per-family data)
#
# Indeterminate names: Qp / Rq are period ratios of the two factors, dM /
# dMpsi / dN are period determinants, cMp/cMm/cNp/cNm are the two period
# minors of the odd-weight factor, detA/detB are de Rham comparison
# determinants, Delta / Xi are the discriminant and unitary part of the
# orthogonal Gram determinant.
#
# Every power of 2*pi*i comes from the Hodge data of hodge: delta(X)^2
# (2 pi i)^(w(X) rank X) is rational for a determinant period, and Deligne's
# twist rule (PSPM 33, 1979, 5.1.8) c^+-(X(r)) = (2 pi i)^(r d^+-(X))
# c^(+-(-1)^r)(X) gives the power and the Betti sign of a Deligne period.


def _det_relation(det, x):
 """det^2 (2 pi i)^(w rank) for the determinant period det of motive x."""
 return PeriodScalar({det: 2, "twopii": x.weight * x.rank()})


def _ratio_relations(prefix, x):
 """Relations among the period ratios prefix_p, p = 0..w, of a factor
 whose standard motive x has weight w: prefix_p prefix_(w-p) i^(2w) for
 each pair p < w - p and the real middle ratio over Q, or over E the same
 between the two embeddings .sb and .s for every p."""
 w = x.weight
 if x.over_e:
  return [(PeriodScalar({"%s%d.sb" % (prefix, p): 1,
                         "%s%d.s" % (prefix, w - p): 1, "i": 2 * w}), "Q")
          for p in range(w + 1)]
 rels = [(PeriodScalar({"%s%d" % (prefix, p): 1,
                        "%s%d" % (prefix, w - p): 1, "i": 2 * w}), "Q")
         for p in range(w + 1) if p < w - p]
 if w % 2 == 0:
  # real middle eigenvector
  rels.append((PeriodScalar.gen("%s%d" % (prefix, w // 2)), "Q"))
 return rels


def _split_relations(m, nn):
 rels = _ratio_relations("Q", m) + _ratio_relations("R", nn)
 rels.append((_det_relation("dM", m), "Q"))
 rels.append((_det_relation("dMpsi", m), "Q"))  # psi keeps weight and rank
 rels.append((_det_relation("dN", nn), "Q"))
 # the two Betti minors of the odd-weight factor X against delta(X)
 odd, ratio, x = ("M", "Q", m) if m.weight % 2 else ("N", "R", nn)
 y = {"c%sp" % odd: 1, "c%sm" % odd: 1, "d" + odd: -1}
 y.update(("%s%d" % (ratio, p), 1) for p in range(x.rank() // 2))
 rels.append((PeriodScalar(y), "Q"))
 return RelationSet(rels)


def _quadratic_relations(m, nn):
 rels = _ratio_relations("Q", m) + _ratio_relations("R", nn)
 for det, prefix, x in (("detA", "Q", m), ("detB", "R", nn)):
  rels.append((_det_relation(det, x) * PeriodScalar(
      {"%s%d.s" % (prefix, p): -1 for p in range(x.rank())}), "Q"))
 return RelationSet(rels)


def _orthogonal_relations(n, m, nn):
 g = PeriodScalar.gen
 rels = [(g("Delta.s") * g("Delta.sb"), "Q"),
         (g("Xi.s") * g("Xi.sb"), "Q"),
         (g("Xi.s", 2) * g("Delta.s") * g("Delta.sb", -1), "Q"),
         (_det_relation("detB", nn), "Q"),
         (_det_relation("detA", m) * g("Delta.s"), "Q")]
 return RelationSet(rels, rational_gens=[x for k in range(2 * n + 2)
                                         for x in ("Q%d" % k, "R%d" % k)])


def _orthogonal_k(spec, n):
 """k with M the standard motive of SO(2k + 2), or None when M is not
 orthogonal."""
 pairing, rank = spec.factors(n)["M"]
 return rank // 2 - 1 if pairing == "orthogonal" else None


def case_relations(mot):
 """The relation set of one (case, n), from its hodge.CaseMotives."""
 m, nn = mot.std["M"], mot.std["N"]
 if _orthogonal_k(mot.spec, mot.n) is not None:
  return _orthogonal_relations(mot.n, m, nn)
 return _quadratic_relations(m, nn) if m.over_e else _split_relations(m, nn)


def _orthogonal_ratios(prefix, top):
 """prod_{p < top} prefix_p^-(2 top - 2p): the real period ratios of an
 orthogonal factor."""
 return PeriodScalar({"%s%d" % (prefix, p): 2 * p - 2 * top
                      for p in range(top)})


def vol_L(mot, which):
 """Lattice volume of the Betti realization of the factor which of the
 case motives mot, as a period scalar."""
 if which not in ("M", "N"):
  raise ValueError("which must be 'M' or 'N'")
 spec, n = mot.spec, mot.n
 k = _orthogonal_k(spec, n)
 if k is not None:
  if which == "N":
   return PeriodScalar.gen("sqrtD", n * n) * _orthogonal_ratios("R", n)
  return _orthogonal_ratios("Q", k) * PeriodScalar(
      {"sqrtD": (n - k) * n * (n - 1), "Delta.s": k, "Xi.s": k})
 prefix, top = ("Q", n) if which == "M" else ("R", n + 1)
 embeddings = (".s", ".sb") if spec.over_e else ("",)
 return PeriodScalar({"%s%d%s" % (prefix, p, s): p
                      for p in range(top) for s in embeddings})


def deligne_c(mot, sign=1, psi=False):
 """Deligne period c^sign of X(r), X = M x N the tensor motive of the case
 motives mot, r = mot.r its centre; psi twists M (motives over Q only).
 The twist rule gives (2 pi i)^(r d^sign), d^sign of X restricted to Q,
 and over E (i sqrtD)^(-d/2).  The split family's period ends in the Betti
 minor of the odd-weight factor, of sign sign (-1)^r chi(psi), and
 twisting an odd-weight M costs the Gauss power i^(-d(M))."""
 spec, n = mot.spec, mot.n
 if sign not in (1, -1):
  raise ValueError("sign must be +1 or -1")
 if psi and mot.twisted_m is None:
  raise ValueError("quadratic twist only applies to pgl-q")
 pm = 0 if sign > 0 else 1  # d^+ or d^- of deligne_data
 x = hodge.tensor(mot.twisted_m, mot.std["N"]) if psi else mot.tensor
 if x.over_e:
  x = hodge.restrict_scalars(x)
 d = hodge.deligne_data(x)[pm]
 exps = {"twopii": mot.r * d}
 if spec.over_e:
  exps["i"] = exps["sqrtD"] = Fraction(-d, 2)
 k = _orthogonal_k(spec, n)
 if k is not None:
  exps.update({"Xi.s": -n, "detA": 2 * n, "detB": 2 * k + 2})
  return PeriodScalar(exps) * _orthogonal_ratios("Q", k) * \
      _orthogonal_ratios("R", n)
 if spec.over_e:
  exps.update(("Q%d.s" % p, p - n) for p in range(n))
  exps.update(("R%d.s" % q, q - n) for q in range(n + 1))
  exps.update({"detA": n + 1, "detB": n})
  return PeriodScalar(exps)
 lo, hi = n // 2, (n + 1) // 2
 exps.update(("Q%d" % p, p - (n - 1) // 2) for p in range(lo))
 exps.update(("R%d" % q, q - lo) for q in range(hi))
 exps.update({"dMpsi" if psi else "dM": hi, "dN": lo})
 m = mot.twisted_m if psi else mot.std["M"]
 odd = "M" if m.weight % 2 else "N"
 betti = sign * (-1) ** mot.r * (-1 if psi else 1)
 exps["c%s%s" % (odd, "p" if betti > 0 else "m")] = 1
 if psi and odd == "M":
  exps["i"] = -hodge.deligne_data(m)[pm]
 return PeriodScalar(exps)


def period_ratio(mot, sign=1):
 """Full period ratio of the case motives mot, which the cancellation
 theorems evaluate.

 For the rational pair this is the product over both quadratic twists of
 c^2 / (vol_M vol_N); for the imaginary quadratic pairs it is c^2/(vol vol)
 or c/(vol vol) depending on whether the central value is a square.
 """
 twists = (False,) if mot.twisted_m is None else (False, True)
 out = (vol_L(mot, "M") * vol_L(mot, "N")) ** -len(twists)
 for psi in twists:
  out = out * deligne_c(mot, sign, psi) ** mot.spec.e
 return out


def condensate(case, n, sign=1):
 """The period ratio of (case, n), its motives built afresh."""
 return period_ratio(hodge.CaseMotives(case, n), sign)


# ---------------------------------------------------------------------------
# tiny s-expression front end for the CLI

def parse_expr(text):
 """Parse '(mul (pow twopii 3) (conj Q0.s))' style expressions."""
 toks = text.replace("(", " ( ").replace(")", " ) ").split()
 pos = [0]

 def atom(tok):
  return PeriodScalar.gen(tok)

 def peek():
  if pos[0] >= len(toks):
   raise ValueError("unexpected end of expression")
  return toks[pos[0]]

 def read():
  tok = peek()
  pos[0] += 1
  if tok == ")":
   raise ValueError("unexpected ')'")
  if tok != "(":
   return atom(tok)
  op = peek()
  pos[0] += 1
  args = []
  while peek() != ")":
   if op == "pow" and len(args) == 1:
    try:
     args.append(Fraction(toks[pos[0]]))
    except ZeroDivisionError:
     raise ValueError("zero denominator in exponent %r" % (toks[pos[0]],))
    pos[0] += 1
   else:
    args.append(read())
  pos[0] += 1
  if op == "mul":
   out = PeriodScalar.one()
   for a in args:
    out = out * a
   return out
  if op == "pow":
   if len(args) != 2:
    raise ValueError("pow takes a base and a rational exponent")
   return args[0] ** args[1]
  if op == "conj":
   if len(args) != 1:
    raise ValueError("conj takes one argument")
   return args[0].conj()
  raise ValueError("unknown operator: %r" % (op,))

 out = read()
 if pos[0] != len(toks):
  raise ValueError("trailing tokens in expression")
 return out
