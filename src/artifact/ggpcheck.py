"""End-to-end case drivers: per-case reports combining the exponent table,
the symbolic period cancellation, the torsion/volume ledger with verifiable
derivations, and the quadratic-field rotation lemma."""

from fractions import Fraction
import math

from . import cases
from . import exteralg
from . import hodge
from . import lgamma
from . import linalg
from . import periodring
from . import rootsys
from .periodring import PeriodScalar


# ---------------------------------------------------------------------------
# case reports

class CaseReport:
 def __init__(self, case, n, table1, gamma1, gamma2, condensate, m_expected):
  self.case = case
  self.n = n
  self.table1 = table1
  self.gamma1 = gamma1
  self.gamma2 = gamma2
  self.condensate = condensate
  self.m_expected = m_expected

 def passed(self):
  return self.failing() is None

 def failing(self):
  """Name of the first failing identity, or None.  The condensate passes
  exactly when gamma1 and gamma2 both do, so it speaks for them."""
  for r in self.table1:
   if not r["pass"]:
    return "table1:" + r["name"]
  if not self.condensate["pass"]:
   return "condensate"
  return None

 def as_dict(self):
  return {"case": self.case, "n": self.n,
          "table1": [lgamma.row_json(r) for r in self.table1],
          "condensate": self.condensate,
          "gamma1": {"exponent": str(self.gamma1["exponent"]),
                     "pass": self.gamma1["pass"]},
          "gamma2": self.gamma2}


def check_n(n, name):
 """The cases are verified for n = 1..12; ValueError for another n."""
 if not 1 <= n <= 12:
  raise ValueError("%s must be between 1 and 12" % name)


def run_case(case, n, extra=None):
 """Full verdict for one case/n: exponent table, and gamma1, gamma2 and the
 cancellation residual, all read off one reduction of the period ratio.
 extra, if given, is a PeriodScalar multiplied into the period ratio
 (perturbation hook)."""
 check_n(n, "n")
 mot = hodge.CaseMotives(case, n)
 spec, case, m = mot.spec, mot.case, mot.spec.m(n)
 table1 = lgamma.table1_row(mot)
 rels = periodring.case_relations(mot)
 cond = periodring.period_ratio(mot)
 if extra is not None:
  cond = cond * extra
 # over E the identities hold only up to square roots of rationals
 mod = "sqrtQ" if spec.over_e else "Q"
 # twopii is the last column and never a pivot, so reduction commutes
 # with powers of it: one residue gives all three verdicts
 reduced = periodring.reduce(cond, rels, mod)
 m_found = reduced.exps.get("twopii", 0)
 gamma1 = {"exponent": -m_found, "pass": m_found == m}
 rest = reduced * PeriodScalar.gen("twopii", -m_found)
 gamma2 = {"residual": repr(rest), "pass": rest.is_one()}
 residual = reduced * PeriodScalar.gen("twopii", -m)
 condensate = {"residual": repr(residual), "m": m,
               "pass": residual.is_one()}
 return CaseReport(case, n, table1, gamma1, gamma2, condensate, m)


# ---------------------------------------------------------------------------
# torsion / volume ledger

class LedgerUnderdetermined(ValueError):
 pass


# the scaling classes, finest first, each with the denominators it allows
_CLASSES = (("Q*", 1), ("sqrtQ*", 2))


def _alt(prefix, top, sign=1):
 return {"%s%d" % (prefix, i): Fraction(sign * (-1) ** i)
         for i in range(top + 1)}


def _merge_lin(*parts):
 out = {}
 for part in parts:
  for k, v in part.items():
   out[k] = out[k] + v if k in out else v
 return {k: v for k, v in out.items() if v}


def default_axioms():
 """Axiom relations for the volume ledger, as linear forms that vanish
 modulo logarithms of rationals.  Symbols: hP/ht are the cuspidal and
 trivial parts of the degree-i volumes on Y, the symmetric space of y,
 sP/st their twisted-metric versions, bP/bt the same on the quotient (of
 bar), vbar its volume, rtY/rtsY/rtB the torsions.  d(G/K), q and delta of
 y and bar give the RTalt_*, duality_* and support_* axioms; written out:
   rt1: the torsion of Y is rational;
   rt2: the twisted torsion of Y is the quotient's torsion squared;
   Trivial_Volume: the trivial volumes of Y have rational alternating product;
   trivvolume: that product for the twisted metric is vbar squared;
   btriv: that product on the quotient is vbar;
   sigma_fixed: both metrics give one cuspidal volume in degree q of Y;
   KP1: conditionally, hP3 is the period class cE;
   KP2: conditionally, sP4 is the period class cF."""
 axioms = []

 def ax(name, *parts, kind="axiom"):
  axioms.append((name, _merge_lin(*parts), kind))

 y = rootsys.invariants("PGL(2)/C x PGL(2)/C x PGL(2)/C")
 bar = rootsys.invariants("PGL(2)/C")
 metrics = ((y, (("Y", "P", "rtY", "hP", "ht"),
                 ("sigma", "sigma", "rtsY", "sP", "st"))),
            (bar, (("bar", "bar", "rtB", "bP", "bt"),)))
 for g, ms in metrics:
  for tag, _, rt, cusp, triv in ms:
   ax("RTalt_" + tag, {rt: Fraction(1)}, _alt(cusp, g.d_symm, -1),
      _alt(triv, g.d_symm, -1))
 ax("rt1", {"rtY": Fraction(1)})
 ax("rt2", {"rtsY": Fraction(1), "rtB": Fraction(-2)})
 for g, ms in metrics:
  for i in range((g.d_symm + 1) // 2):  # i < d - i
   for _, tag, _, cusp, _ in ms:
    ax("duality_%s_%d" % (tag, i),
       {cusp + str(i): Fraction(1), cusp + str(g.d_symm - i): Fraction(1)})
 for g, ms in metrics:
  tempered = {i for i, _ in exteralg.model_dims(g.delta, g.q, 1)}
  for i in sorted(set(range(g.d_symm + 1)) - tempered):
   for _, tag, _, cusp, _ in ms:
    ax("support_%s_%d" % (tag, i), {cusp + str(i): Fraction(1)})
 ax("Trivial_Volume", _alt("ht", y.d_symm))
 ax("trivvolume", _alt("st", y.d_symm), {"vbar": Fraction(-2)})
 ax("btriv", _alt("bt", bar.d_symm), {"vbar": Fraction(-1)})
 ax("sigma_fixed", {"sP3": Fraction(1), "hP3": Fraction(-1)})
 ax("KP1", {"hP3": Fraction(1), "cE": Fraction(-1)}, kind="conditional")
 ax("KP2", {"sP4": Fraction(1), "cF": Fraction(-1)}, kind="conditional")
 return axioms


TARGETS = {
    "oinkA": _merge_lin({"hP4": Fraction(1), "hP3": Fraction(-1)}),
    "oink1": _merge_lin(_alt("sP", 9), _alt("bP", 3, -2)),
    "buggerme": {"sP4": Fraction(1), "bP1": Fraction(2),
                 "hP3": Fraction(-1)},
    "kp-compare": {"cF": Fraction(1), "bP1": Fraction(2),
                   "cE": Fraction(-1)},
}


class VolumeLedger:
 """Free abelian group on volume symbols with rational exponents; derives
 target relations as explicit rational combinations of the axioms."""

 def __init__(self, axioms=None):
  self.axioms = list(default_axioms() if axioms is None else axioms)
  names = [name for name, _, _ in self.axioms]
  if len(set(names)) < len(names):
   raise ValueError("repeated axiom name %r" % max(names, key=names.count))
  self.derivations = {}

 def without(self, *names):
  return VolumeLedger([a for a in self.axioms if a[0] not in names])

 def _combination(self, target):
  """(class, coefficients) of the target: the first of _CLASSES whose
  scale times the target is an integer combination of the axioms, with
  the coefficients of that combination divided by the scale; else
  LedgerUnderdetermined."""
  forms = [form for _, form, _ in self.axioms]
  den = math.lcm(*(x.denominator for form in forms + [target]
                   for x in form.values()))
  index = {}
  for form in forms + [target]:
   for s in form:
    index.setdefault(s, len(index))

  def ints(form, scale):
   return {index[s]: x.numerator * (den // x.denominator) * scale
           for s, x in form.items()}

  lattice = linalg.Lattice()
  for j, form in enumerate(forms):
   lattice.add(ints(form, 1), j)
  for label, scale in _CLASSES:
   rest, combo = lattice.residue(ints(target, scale))
   if not rest:
    return label, {self.axioms[a][0]: Fraction(c, scale)
                   for a, c in sorted(combo.items())}
  raise LedgerUnderdetermined("underdetermined")

 def derive(self, name):
  """Derive the named target; records and returns the derivation."""
  if name not in TARGETS:
   raise ValueError("unknown target %r" % (name,))
  klass, coeffs = self._combination(TARGETS[name])
  kinds = {n: k for n, _, k in self.axioms}
  record = {"target": name,
            "coefficients": coeffs,
            "class": klass,
            "conditional": any(kinds[a] == "conditional" for a in coeffs)}
  self.derivations[name] = record
  return record

 def replay(self, record):
  """Recombine the logged axioms and check the target is reproduced, by
  coefficients whose denominators divide the record's scale: 1 for Q*, 2
  for sqrtQ*.  This certifies that the target lies in the record's class,
  an upper bound; it does not show that no finer class holds.  A record
  that names an axiom or a target the ledger lacks does not replay."""
  scale = dict(_CLASSES).get(record["class"])
  forms = {n: form for n, form, _ in self.axioms}
  coeffs = record["coefficients"]
  if scale is None or record["target"] not in TARGETS or \
     any(scale % c.denominator for c in coeffs.values()) or \
     not forms.keys() >= coeffs.keys():
   return False
  total = _merge_lin(*({s: c * v for s, v in forms[a].items()}
                       for a, c in coeffs.items()))
  return total == TARGETS[record["target"]]


def torsion_ledger():
 ledger = VolumeLedger()
 for name in ("oinkA", "oink1", "buggerme"):
  ledger.derive(name)
 return ledger


# ---------------------------------------------------------------------------
# rotation lemma over a real quadratic extension

def _sqfree(n):
 """(squarefree part, cofactor) with n = part * cofactor^2, n > 0."""
 part, co = 1, 1
 d = 2
 while d * d <= n:
  e = 0
  while n % d == 0:
   n //= d
   e += 1
  co *= d ** (e // 2)
  if e % 2:
   part *= d
  d += 1
 return part * n, co


class QSqrt:
 """x + y*sqrt(b) with rational x, y and a fixed squarefree b: an entry of
 what rotation_check returns."""

 __slots__ = ("x", "y", "b")

 def __init__(self, b, x=0, y=0):
  self.b = b
  self.x = x if isinstance(x, Fraction) else Fraction(x)
  self.y = y if isinstance(y, Fraction) else Fraction(y)

 def __eq__(self, o):
  return self.b == o.b and self.x == o.x and self.y == o.y

 def __repr__(self):
  return "(%s + %s sqrt(%d))" % (self.x, self.y, self.b)


def _dot(a, b):
 return sum(x * y for x, y in zip(a, b))


def _matvec(m, v):
 return [sum(r[j] * v[j] for j in range(len(v))) for r in m]


def _scalar(c):
 return [[c, 0, 0], [0, c, 0], [0, 0, c]]


def _det3(m):
 """Determinant of a 3x3 matrix by cofactors; the program's are integral."""
 return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
         - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
         + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _adj3(m):
 """Adjugate of a 3x3 matrix over any commutative ring, adj(m) m =
 m adj(m) = det(m) 1: the cofactors of _det3, read with cyclic indices."""
 return [[m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
          - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
          for j in range(3)] for i in range(3)]


def _det3_sqrt(p, q, b):
 """(x, y) with det(P + sqrt(b) Q) = x + y sqrt(b), for 3x3 integer P, Q:
 det(P + tQ) = det P + t tr(adj(P) Q) + t^2 tr(P adj(Q)) + t^3 det Q."""
 def trace_of_product(m, n):
  return sum(_dot(row, col) for row, col in zip(m, zip(*n)))

 return (_det3(p) + b * trace_of_product(p, _adj3(q)),
         trace_of_product(_adj3(p), q) + b * _det3(q))


def _qsqrt_mat(b, p, q, d):
 return [[QSqrt(b, Fraction(x, d), Fraction(y, d)) for x, y in zip(*rows)]
         for rows in zip(p, q)]


def _rotation_identities(p, q, d, b, s):
 """Check over Z that alpha = (P + sqrt(b) Q)/D commutes with sigma (S is
 sigma with its denominators cleared) and is orthogonal: PS = SP, QS = SQ,
 P^T P + b Q^T Q = D^2 1 and P^T Q + Q^T P = 0.  AssertionError otherwise."""
 matmul, transpose = linalg.matmul, linalg.transpose
 if any(matmul(m, s) != matmul(s, m) for m in (p, q)):
  raise AssertionError("constructed map does not commute with sigma")
 pp, qq, pq = (matmul(transpose(x), y) for x, y in ((p, p), (q, q), (p, q)))
 if any(pp[i][j] + b * qq[i][j] != (d * d if i == j else 0)
        or pq[i][j] + pq[j][i] for i in range(3) for j in range(3)):
  raise AssertionError("constructed map is not orthogonal")


def rotation_check(v1, v2, sigma):
 """Exhibit the quadratic-field rotation carrying the second lattice's
 rational span structure onto the first's.

 v1, v2: 3x3 matrices of ints or Fractions whose rows span the lattices;
 sigma: a rational orthogonal matrix of order 3 stabilizing both.  Returns
 (True, description) with the square class b and the rotation matrix over
 Q(sqrt b); raises ValueError with a diagnostic when a hypothesis fails.

 Every check runs over Z: sigma = S/es and each basis V = W/e with S, W
 integral, and V^-1 = e adj(W)/det W.
 """
 matmul, transpose = linalg.matmul, linalg.transpose
 s, es = linalg.cleared(sigma)
 st = transpose(s)
 if matmul(st, s) != _scalar(es * es):
  raise ValueError("sigma is not orthogonal")
 if matmul(matmul(s, s), s) != _scalar(es ** 3) or s == _scalar(es):
  raise ValueError("sigma must have order exactly 3")
 lattices = []
 for name, basis in (("v1", v1), ("v2", v2)):
  w, e = linalg.cleared(basis)
  det = _det3(w)
  if det == 0:
   raise ValueError("%s is not a basis" % name)
  adj = _adj3(w)
  # row i of V sigma^T V^-1 = W S^T adj(W)/(es det W) holds the
  # coordinates of sigma(row i of V)
  if any(c % (es * det) for row in matmul(matmul(w, st), adj) for c in row):
   raise ValueError("%s is not sigma-stable" % name)
  lattices.append((w, e, det, adj))
 (w1, e1, det1, adj1), (w2, e2, det2, adj2) = lattices
 # invariant line: kernel of sigma - 1, forced one-dimensional by order 3.
 # 1 + sigma + sigma^2 = 1 + sigma + sigma^T is three times the projection
 # onto it and symmetric, so its first nonzero row spans it
 proj = [[x + y + z for x, y, z in zip(*rows)]
         for rows in zip(_scalar(es), s, st)]
 line = next(row for row in proj if any(row))
 k = math.gcd(*line)
 axis = [x // k for x in line]
 # det V = det W / e^3
 if det1 * det1 * e2 ** 6 != det2 * det2 * e1 ** 6:
  raise ValueError("lattice volumes differ")

 def axis_norm(w, adj):
  # the shortest lattice vector on the axis is c V, with c the primitive
  # integer vector along axis V^-1, i.e. along axis adj(W): never 0, as
  # adj(W) is invertible.  Returns |c W|^2 = e^2 |c V|^2
  c = matmul([axis], adj)[0]
  g = math.gcd(*c)
  cw = matmul([[x // g for x in c]], w)[0]
  return _dot(cw, cw)

 if axis_norm(w1, adj1) * e2 * e2 != axis_norm(w2, adj2) * e1 * e1:
  raise ValueError("sigma-invariant volumes differ")
 n = _dot(axis, axis)

 def plane_part(w):
  # n e times the part off the axis of the first row of V that leaves the
  # axis line; a basis has rank 3, so some row does
  return next(u for u in ([n * x - _dot(row, axis) * a
                           for x, a in zip(row, axis)] for row in w)
              if any(u))

 u1, u2 = plane_part(w1), plane_part(w2)
 b0 = Fraction(_dot(u1, u1) * e2 * e2, _dot(u2, u2) * e1 * e1)
 b, co = _sqfree(b0.numerator * b0.denominator)
 # num*den = b*co^2, so b0 = (co/den)^2 * b
 r = Fraction(co, b0.denominator)
 if r * r * b != b0:
  raise AssertionError("square-class split failed")
 # the linear map fixing the axis and sending (u2, sigma u2) to
 # (u1, sigma u1) is e2 G/(e1 det M) with G = [u1, S u1, 0] adj(M) and
 # M = [u2, S u2, axis] (columns); scaled by 1/sqrt(b0) it is a rotation
 su1, su2 = _matvec(s, u1), _matvec(s, u2)
 m = transpose([u2, su2, axis])
 det_m = _det3(m)
 gm = matmul(transpose([u1, su1, [0, 0, 0]]), _adj3(m))
 # conformality of the plane map, forced by sigma-equivariance
 gu2, gsu2 = _matvec(gm, u2), _matvec(gm, su2)
 n1, dm2 = _dot(u1, u1), det_m * det_m
 if _dot(gu2, gu2) != dm2 * n1 or \
    _dot(gu2, gsu2) * _dot(u2, u2) != dm2 * n1 * _dot(u2, su2):
  raise AssertionError("plane map is not conformal")
 # alpha = (P + sqrt(b) Q)/D: P/D = axis axis^T/n projects onto the axis,
 # Q/D = e2 den G/(e1 det M co b) is the plane map scaled by
 # 1/sqrt(b0) = sqrt(b) den/(co b)
 den_q = e1 * det_m * co * b
 p = [[x * y * den_q for y in axis] for x in axis]
 q = [[x * e2 * b0.denominator * n for x in row] for row in gm]
 d = n * den_q
 k = math.gcd(d, *(x for mat in (p, q) for row in mat for x in row))
 if d < 0:
  k = -k
 p, q, d = ([[x // k for x in row] for row in p],
            [[x // k for x in row] for row in q], d // k)
 _rotation_identities(p, q, d, b, s)
 # row i of V2 alpha^T V1^-1 holds the coordinates of alpha(row i of V2)
 # in the first basis: (W2 P^T + sqrt(b) W2 Q^T) e1 adj(W1)/(D e2 det W1)
 inv1 = [[e1 * x for x in row] for row in adj1]
 cp, cq = (matmul(matmul(w2, transpose(mat)), inv1) for mat in (p, q))
 dc = d * e2 * det1
 x, y = _det3_sqrt(cp, cq, b)
 if x == 0 and y == 0:
  raise AssertionError("rotation does not carry the spans over")
 desc = {"b": b, "scale": r, "alpha": _qsqrt_mat(b, p, q, d),
         "change_det": QSqrt(b, Fraction(x, dc ** 3), Fraction(y, dc ** 3))}
 return True, desc


# ---------------------------------------------------------------------------
# top-level driver

def verify_all(n_max):
 """Run every case for n = 1..n_max plus the ledger derivations.

 Returns (exit_status, reports, lines); exit status 0 iff everything
 passes."""
 check_n(n_max, "n-max")
 reports = []
 lines = []
 status = 0
 first_fail = None
 for case in cases.CASES:
  for n in range(1, n_max + 1):
   rep = run_case(case, n)
   reports.append(rep)
   verdict = "pass" if rep.passed() else "FAIL(%s)" % rep.failing()
   lines.append("%-8s n=%-2d m=%-3d %s" % (case, n, rep.m_expected, verdict))
   if not rep.passed() and first_fail is None:
    first_fail = "%s n=%d %s" % (case, n, rep.failing())
    status = 1
 try:
  ledger = torsion_ledger()
  for name, rec in sorted(ledger.derivations.items()):
   ok = ledger.replay(rec)
   lines.append("ledger %-10s class=%-7s %s" %
                (name, rec["class"], "pass" if ok else "FAIL"))
   if not ok and first_fail is None:
    first_fail = "ledger %s" % name
    status = 1
 except LedgerUnderdetermined as e:
  lines.append("ledger FAIL: %s" % e)
  if first_fail is None:
   first_fail = "ledger"
   status = 1
 if first_fail:
  lines.append("first failing identity: %s" % first_fail)
 else:
  lines.append("all identities verified")
 return status, reports, lines
