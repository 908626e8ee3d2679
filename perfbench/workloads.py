"""The benchmark's three workloads.

Each workload has three parts: `inputs(seed)` builds everything the passes
need from the workload seed (untimed); `run(inputs, items, now, between)`
is one timed pass that calls the program and appends each item's (start,
end), read from the clock `now`, to `items`, calling `between()` before each
item it starts itself (calibration.py samples there);
`check(inputs, results)` compares the pass's results with outcomes derived
here, not with earlier output of the program, and returns
(outcomes attempted, list of mismatches).

sweep     `artifact verify-all --n-max 12` through `cli.main`, the command
          users run.  Exercises the period ring, the ledger and the case
          drivers; never touches the exterior model.
exterior  the exterior-model grid of the acceptance suite with its trial
          counts (1000).  Exercises only `exteralg`, so a change to the
          period ring or the ledger should leave it flat.
controls  negative controls and independent witnesses: seeded faults
          against each case lattice (many targets per lattice), a fresh
          ledger for every removed axiom (no lattice reuse), seeded
          rotation round trips, chamber enumeration and trace-form
          constants.  Shows both sides of a lattice or ledger cache and the
          small dense linear algebra that `sweep` barely touches.
"""

import contextlib
import io
import random
import re
from fractions import Fraction

from artifact import cli, exteralg, ggpcheck, periodring, rootsys

CASES = ("pgl-q", "pgl-e", "so-even", "so-odd")
N_MAX = 12


def expected_m(case, n):
 """Exponent of 2*pi*i left by the cancellation, from the paper."""
 return {"pgl-q": n * (n + 1), "pgl-e": n * (n + 1), "so-even": 2 * n * n,
         "so-odd": 2 * n * (n + 1)}[case]


def _call(fn, *args, **kwargs):
 """Run one item; an exception is a result to check, not a crash."""
 try:
  return fn(*args, **kwargs)
 except Exception as e:  # noqa: BLE001 - reported as a mismatch
  return e


def _timed(items, now, between, fn, *args, **kwargs):
 between()
 t0 = now()
 out = _call(fn, *args, **kwargs)
 items.append((t0, now()))
 return out


# ---------------------------------------------------------------------------
# sweep

@contextlib.contextmanager
def _time_calls(owner, attr, items, now):
 """Time each call of owner.attr (one item per call) while inside."""
 fn = getattr(owner, attr)

 def timed(*args, **kwargs):
  t0 = now()
  try:
   return fn(*args, **kwargs)
  finally:
   items.append((t0, now()))

 setattr(owner, attr, timed)
 try:
  yield
 finally:
  setattr(owner, attr, fn)


def sweep_inputs(seed):
 return ["verify-all", "--n-max", str(N_MAX)]


def sweep_run(argv, items, now, between):
 out = io.StringIO()
 # an item is one (case, n) verdict; the items run inside cli.main, so
 # `between` is not called (a pass takes well under a second)
 with _time_calls(ggpcheck, "run_case", items, now), \
   contextlib.redirect_stdout(out):
  status = _call(cli.main, argv)
 return status, out.getvalue()


_CASE_LINE = re.compile(r"(\S+)\s+n=(\d+)\s+m=(\d+)\s+(\S+)$")
_LEDGER_LINE = re.compile(r"ledger (\S+)\s+class=(\S+)\s+(\S+)$")
LEDGER_CLASSES = {"buggerme": "sqrtQ*", "oink1": "Q*", "oinkA": "sqrtQ*"}


def sweep_check(argv, results):
 status, text = results
 lines = text.splitlines()
 got = {}
 extra = []
 for line in lines[:-1]:
  m = _CASE_LINE.match(line)
  if m and not line.startswith("ledger"):
   key = (m.group(1), int(m.group(2)))
   got[key] = (int(m.group(3)), m.group(4))
   continue
  m = _LEDGER_LINE.match(line)
  if m:
   got[m.group(1)] = (m.group(2), m.group(3))
   continue
  extra.append(line)
 expected = {(c, n): (expected_m(c, n), "pass")
             for c in CASES for n in range(1, N_MAX + 1)}
 expected.update({k: (v, "pass") for k, v in LEDGER_CLASSES.items()})
 bad = ["%s: got %s, want %s" % (k, got.get(k), v)
        for k, v in expected.items() if got.get(k) != v]
 if status != 0 or not lines or lines[-1] != "all identities verified" \
    or extra or len(got) != len(expected):
  bad.append("exit %r, last line %r, unexpected lines %r" %
             (status, lines[-1:] or None, extra[:3]))
 return len(expected) + 1, bad


# ---------------------------------------------------------------------------
# exterior

GRAM3 = [[2, 1, 0], [1, 2, 0], [0, 0, 5]]
MODELS = [(delta, q, k) for delta in range(1, 5)
          for q, k in ((1, 1), (2, 1), (3, 2))]


def exterior_inputs(seed):
 rng = random.Random(seed)
 checks = [("adjointness dim 4", "adjointness", (4, None),
           rng.getrandbits(32)),
          ("adjointness gram3", "adjointness", (3, GRAM3),
           rng.getrandbits(32))]
 for delta, q, k in MODELS:
  for check in ("freeness", "poincare_adjoint", "isometry"):
   checks.append(("%s %d,%d,%d" % (check, delta, q, k), check,
                  (delta, q, k), rng.getrandbits(32)))
 return checks


def exterior_run(checks, items, now, between):
 ex = exteralg
 results = []
 for _label, check, params, seed in checks:
  if check == "adjointness":
   args = (ex.adjointness_check, ex.MetricSpaceQ(*params))
   kwargs = {"trials": 1000, "seed": seed}
  else:
   model = ex.TemperedCohomologyModel(*params)
   args = (getattr(ex, check + "_check"), model)
   kwargs = {"trials": 1000, "seed": seed} if check == "isometry" else {}
  results.append(_timed(items, now, between, *args, **kwargs))
 return results


def exterior_check(checks, results):
 bad = ["%s: got %r, want True" % (c[0], res)
        for c, res in zip(checks, results) if res is not True]
 if len(results) != len(checks):
  bad.append("%d results for %d checks" % (len(results), len(checks)))
 return len(checks), bad


# ---------------------------------------------------------------------------
# controls

FAULTS = (("pi", Fraction(1, 2)), ("twopii", Fraction(1)),
          ("twopii", Fraction(-1)))
SIGMA = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
V1 = [[1, 1, 1], [1, -1, 0], [0, 1, -1]]
CHAMBER_GROUPS = ("SL(4)/R", "SL(5)/R", "SL(6)/R", "SL(7)/R", "SL(8)/R",
                  "SL(9)/R", "SO(3,3)", "SO(5,3)", "SO(5,5)", "SO(7,3)",
                  "SO(7,1)", "SL(4)/C", "PGL(4)/C", "SO(5)/C")
TRACE_FORMS = ([("GL(%d)/%s" % (n, b), Fraction(1))
                for n in range(1, 5) for b in "RC"] +
               [("SO(%d)" % n, Fraction(1, 4)) for n in range(2, 6)])
ROTATIONS = 100


def _matmul(a, b):
 return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
          for j in range(len(b[0]))] for i in range(len(a))]


def rational_rotation(t):
 """Rational orthogonal matrix a + b*sigma + c*sigma^2 commuting with the
 coordinate 3-cycle sigma; (p, q) runs over the rational points of the
 norm-one conic p^2 - p*q + q^2 = 1 through (1, 0) with slope t."""
 m = -(2 * t + 1) / (t * t + t + 1)
 p, q = 1 + t * m, m
 a, b, c = (1 + 2 * p + q) / 3, (1 - p + q) / 3, (1 - p - 2 * q) / 3
 sig = [[Fraction(x) for x in row] for row in SIGMA]
 s2 = _matmul(sig, sig)
 return [[a * (i == j) + b * sig[i][j] + c * s2[i][j] for j in range(3)]
         for i in range(3)]


def controls_inputs(seed):
 rng = random.Random(seed)
 # every (case, n) gets each fault once, in an order drawn from the seed,
 # so every seed does the same work
 faults = []
 for case in CASES:
  for n in range(1, N_MAX + 1):
   faults += [(case, n, f) for f in rng.sample(FAULTS, len(FAULTS))]
 ident = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
 sig = [[Fraction(x) for x in row] for row in SIGMA]
 lattices = []
 for _ in range(ROTATIONS):
  t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
  alpha = rational_rotation(t)
  at = [list(r) for r in zip(*alpha)]
  if _matmul(at, alpha) != ident or \
     _matmul(alpha, sig) != _matmul(sig, alpha):
   raise AssertionError("rotation generator broken at t=%s" % t)
  lattices.append(_matmul([[Fraction(x) for x in r] for r in V1], at))
 axioms = ggpcheck.default_axioms()
 target = ggpcheck.TARGETS["buggerme"]
 ledger = [(name, _in_span([f for a, f, _k in axioms if a != name], target))
           for name, _form, _kind in axioms]
 return {"faults": faults, "ledger": ledger, "rotations": lattices}


def _in_span(forms, target):
 """Whether target is a rational combination of the linear forms: sparse
 Gaussian elimination, independent of the ledger's own solver."""
 basis = []  # (pivot symbol, row with coefficient 1 at the pivot)

 def reduce(v):
  v = dict(v)
  for p, row in basis:
   c = v.get(p)
   if c:
    for s, x in row.items():
     y = v.get(s, 0) - c * x
     if y:
      v[s] = y
     else:
      del v[s]
  return v

 for form in forms:
  r = reduce(form)
  if r:
   p = min(r)
   basis.append((p, {s: Fraction(x) / r[p] for s, x in r.items()}))
 return not reduce(target)


def _ledger_without(axiom):
 ledger = ggpcheck.VolumeLedger().without(axiom)
 rec = ledger.derive("buggerme")
 return rec, ledger.replay(rec)


def controls_run(inputs, items, now, between):
 PS = periodring.PeriodScalar
 out = {"faults": [], "ledger": [], "rotations": [], "chambers": [],
        "trace_forms": []}
 def timed(fn, *args, **kwargs):
  return _timed(items, now, between, fn, *args, **kwargs)

 for case, n, (g, e) in inputs["faults"]:
  out["faults"].append(timed(ggpcheck.run_case, case, n, extra=PS.gen(g, e)))
 for axiom, _solvable in inputs["ledger"]:
  out["ledger"].append(timed(_ledger_without, axiom))
 for v2 in inputs["rotations"]:
  out["rotations"].append(timed(ggpcheck.rotation_check, V1, v2, SIGMA))
 for g in CHAMBER_GROUPS:
  out["chambers"].append(timed(rootsys.chamber_check, g))
 for g, _c in TRACE_FORMS:
  out["trace_forms"].append(timed(rootsys.dual_trace_form, g))
 return out


def _fault_ok(case, n, g, e, rep):
 """A fault multiplies the period ratio by g^e: the condensate must fail
 with exactly that residual, gamma1 must fail iff the 2*pi*i exponent
 moved, and gamma2 must fail iff something other than 2*pi*i remains."""
 if isinstance(rep, Exception):
  return False
 m = expected_m(case, n)
 twopii = e if g == "twopii" else 0
 return (not rep.passed() and rep.failing() == "condensate"
         and rep.m_expected == m
         and rep.condensate["residual"] ==
         repr(periodring.PeriodScalar.gen(g, e))
         and rep.gamma1["pass"] == (g != "twopii")
         and rep.gamma1["exponent"] == -(m + twopii)
         and rep.gamma2["pass"] == (g == "twopii"))


def _ledger_ok(axiom, solvable, res):
 """The derivation must succeed exactly where buggerme is a rational
 combination of the remaining axioms (never without rt2), and a success
 must replay without the removed axiom.  Its class must be sqrtQ*, the
 full ledger's class: removing an axiom shrinks the lattice, so no removal
 can give the finer class Q*."""
 if isinstance(res, ggpcheck.LedgerUnderdetermined):
  return not solvable
 if isinstance(res, Exception) or not solvable or axiom == "rt2":
  return False
 rec, replayed = res
 return replayed and axiom not in rec["coefficients"] and \
     rec["class"] == "sqrtQ*"


def _rotation_ok(res):
 if isinstance(res, Exception):
  return False
 ok, desc = res
 det = desc["change_det"]
 return ok is True and desc["b"] == 1 and det.y == 0 and abs(det.x) == 1


def controls_check(inputs, out):
 bad = []
 for (case, n, (g, e)), rep in zip(inputs["faults"], out["faults"]):
  if not _fault_ok(case, n, g, e, rep):
   bad.append("fault %s n=%d %s^%s: %r" % (case, n, g, e,
                                          getattr(rep, "condensate", rep)))
 for (axiom, solvable), res in zip(inputs["ledger"], out["ledger"]):
  if not _ledger_ok(axiom, solvable, res):
   bad.append("ledger without %s: %r" % (axiom, res))
 for i, res in enumerate(out["rotations"]):
  if not _rotation_ok(res):
   bad.append("rotation %d: %r" % (i, res))
 for g, res in zip(CHAMBER_GROUPS, out["chambers"]):
  if res is not True:
   bad.append("chamber_check %s: %r" % (g, res))
 for (g, c), res in zip(TRACE_FORMS, out["trace_forms"]):
  if res != c:
   bad.append("dual_trace_form %s: %r, want %s" % (g, res, c))
 want = len(inputs["faults"]) + len(inputs["ledger"]) + \
     len(inputs["rotations"]) + len(CHAMBER_GROUPS) + len(TRACE_FORMS)
 got = sum(len(v) for v in out.values())
 if got != want:
  bad.append("%d results for %d controls" % (got, want))
 return want, bad


WORKLOADS = {
    "sweep": (sweep_inputs, sweep_run, sweep_check),
    "exterior": (exterior_inputs, exterior_run, exterior_check),
    "controls": (controls_inputs, controls_run, controls_check),
}
