"""Outside-in layer tracing.

The program is not modified: the tracer replaces module attributes of the
`artifact` package with timing wrappers while a traced pass runs, and puts
the originals back afterwards.  Every wrapped call records one span (name,
parent span, start, end).  A span's self time is its duration minus the
time covered by its child spans.

Layers are the package's modules.  Within a layer the tracer wraps every
public module-level function, the private helpers in EXTRA and the public
methods in METHODS.  Value types (PeriodScalar, ExteriorElement, QSqrt,
HodgeStructure, GammaProduct) stay unwrapped: their arithmetic is charged to
the layer function that calls it, and wrapping them would multiply the
tracing overhead.
"""

from array import array
import functools
import importlib
import inspect
import time

LAYERS = ("cli", "ggpcheck", "exteralg", "periodring", "lgamma", "rootsys",
          "hodge")

# private helpers that get a span of their own
EXTRA = {"periodring": ("_hnf",)}

# public methods of the classes that carry a layer's work
METHODS = {
    "ggpcheck": {"VolumeLedger": ("without", "derive", "replay")},
    "exteralg": {"TemperedCohomologyModel": ("act", "apply_w", "pairing",
                                             "module_inner")},
}


def _reduce_hook(tr, x, rels, mod="Q", *_, **__):
 """Columns of the integer lattice and whether this relation set was
 already reduced against in the pass (the traffic a lattice cache sees)."""
 gens = set(x.exps) | set(rels.rational_gens) | {"i"}
 for r, _lev in rels.relations:
  gens.update(r.exps)
 tr.counts["periodring.reduce.cols"] += len(gens)
 key = (frozenset((frozenset(r.exps.items()), lev)
                  for r, lev in rels.relations),
        frozenset(rels.rational_gens), mod)
 if key in tr.seen_lattices:
  tr.counts["periodring.reduce.repeats"] += 1
 tr.seen_lattices.add(key)


def _induced_inner_hook(tr, a, b, *_, **__):
 """One Gram-minor determinant per pair of equal-degree basis k-vectors."""
 degrees = {}
 for k in a.coeffs:
  degrees[len(k)] = degrees.get(len(k), 0) + 1
 tr.counts["exteralg.gram_minors"] += sum(degrees.get(len(k), 0)
                                          for k in b.coeffs)


HOOKS = {"periodring.reduce": _reduce_hook,
         "exteralg.induced_inner": _induced_inner_hook}


class Tracer:
 """Span recorder for one traced pass; install() before, uninstall()
 after."""

 def __init__(self):
  self.modules = {m: importlib.import_module("artifact." + m)
                  for m in LAYERS}
  self.names = []
  self._ids = {}
  self._patches = []
  self.reset()

 def reset(self):
  self.name_of = array("i")
  self.parent = array("i")
  self.enter = array("d")   # wrapper entry, before any count hook
  self.start = array("d")   # call start
  self.end = array("d")     # call end
  self._stack = [-1]
  self.counts = {"periodring.reduce.cols": 0, "periodring.reduce.repeats": 0,
                 "exteralg.gram_minors": 0}
  self.seen_lattices = set()
  self.hook_errors = 0

 # -- wrapping -------------------------------------------------------------

 def _targets(self):
  """(owner, attribute, span name) for everything to wrap."""
  out = []
  for layer, mod in self.modules.items():
   names = [n for n, f in vars(mod).items()
            if inspect.isfunction(f) and f.__module__ == mod.__name__
            and not n.startswith("_")]
   names += [n for n in EXTRA.get(layer, ()) if hasattr(mod, n)]
   for n in sorted(names):
    out.append((mod, n, "%s.%s" % (layer, n)))
   for cls_name, meths in METHODS.get(layer, {}).items():
    cls = getattr(mod, cls_name, None)
    for m in meths:
     if cls is not None and inspect.isfunction(vars(cls).get(m)):
      out.append((cls, m, "%s.%s.%s" % (layer, cls_name, m)))
  return out

 def install(self):
  if self._patches:
   raise RuntimeError("tracer already installed")
  wrapped = {}
  patches = []
  for owner, attr, name in self._targets():
   fn = vars(owner)[attr]
   wrapped[fn] = self._wrap(name, fn)
   if isinstance(owner, type):
    patches.append((owner, attr, fn))
  # re-point every module binding of a wrapped function, including names
  # imported into other layers (ggpcheck's _hnf is periodring's)
  for mod in self.modules.values():
   for attr, val in vars(mod).items():
    if inspect.isfunction(val) and val in wrapped:
     patches.append((mod, attr, val))
  for owner, attr, fn in patches:
   setattr(owner, attr, wrapped[fn])
  self._patches = patches

 def uninstall(self):
  for owner, attr, fn in reversed(self._patches):
   setattr(owner, attr, fn)
  self._patches = []

 def _wrap(self, name, fn):
  nid = self._ids.setdefault(name, len(self._ids))
  if nid == len(self.names):
   self.names.append(name)
  hook = HOOKS.get(name)
  clock = time.perf_counter
  tracer = self

  @functools.wraps(fn)
  def traced(*args, **kwargs):
   t_enter = clock()
   if hook is not None:
    try:
     hook(tracer, *args, **kwargs)
    except (AttributeError, TypeError):
     tracer.hook_errors += 1
   stack = tracer._stack
   i = len(tracer.parent)
   tracer.name_of.append(nid)
   tracer.parent.append(stack[-1])
   tracer.enter.append(t_enter)
   tracer.start.append(0.0)
   tracer.end.append(0.0)
   stack.append(i)
   t0 = clock()
   try:
    return fn(*args, **kwargs)
   finally:
    t1 = clock()
    stack.pop()
    tracer.start[i] = t0
    tracer.end[i] = t1

  return traced

 # -- analysis -------------------------------------------------------------

 def summary(self):
  """Per span name: calls and self seconds; plus the seconds covered by
  top-level spans."""
  n = len(self.parent)
  covered = [0.0] * n
  top = 0.0
  for i in range(n):
   span = self.end[i] - self.enter[i]
   p = self.parent[i]
   if p >= 0:
    covered[p] += span
   else:
    top += span
  calls = {}
  self_s = {}
  for i in range(n):
   name = self.names[self.name_of[i]]
   calls[name] = calls.get(name, 0) + 1
   self_s[name] = self_s.get(name, 0.0) + \
       (self.end[i] - self.start[i]) - covered[i]
  return calls, self_s, top


BUILD = ("periodring.condensate", "periodring.pair_volume",
         "periodring.case_relations", "periodring.deligne_c",
         "periodring.vol_L")
CHECKS = ("adjointness_check", "freeness_check", "poincare_adjoint_check",
          "isometry_check")
LEDGER = ("ggpcheck.VolumeLedger.", "ggpcheck.torsion_ledger",
          "ggpcheck.default_axioms")


def layer_metrics(tracer, pass_s):
 """Per-layer metrics of one traced pass lasting pass_s seconds, as
 {name: (value, unit)}."""
 calls, self_s, top = tracer.summary()

 def n_calls(*prefixes):
  return sum(v for k, v in calls.items() if k.startswith(prefixes))

 def secs(*prefixes):
  return sum(v for k, v in self_s.items() if k.startswith(prefixes))

 reduces = calls.get("periodring.reduce", 0)
 cases = calls.get("ggpcheck.run_case", 0)
 counts = tracer.counts
 out = {
     "hodge.calls": (n_calls("hodge."), "count"),
     "hodge.self_s": (secs("hodge."), "s"),
     "lgamma.table1_row.calls": (calls.get("lgamma.table1_row", 0), "count"),
     "lgamma.self_s": (secs("lgamma."), "s"),
     "rootsys.invariants.calls": (calls.get("rootsys.invariants", 0),
                                  "count"),
     "rootsys.chamber_check.self_s": (secs("rootsys.chamber_check"), "s"),
     "rootsys.self_s": (secs("rootsys."), "s"),
     "periodring.reduce.calls": (reduces, "count"),
     "periodring.reduce.self_s": (secs("periodring.reduce"), "s"),
     "periodring.hnf_s": (secs("periodring._hnf"), "s"),
     "periodring.build_s": (sum(self_s.get(k, 0.0) for k in BUILD), "s"),
     "periodring.reduce.cols_sum": (counts["periodring.reduce.cols"],
                                    "count"),
     "periodring.reduce.calls_per_case": (reduces / cases if cases else 0.0,
                                          "ratio"),
     "periodring.reduce.repeat_share": (
         counts["periodring.reduce.repeats"] / reduces if reduces else 0.0,
         "ratio"),
     "periodring.self_s": (secs("periodring."), "s"),
     "ggpcheck.ledger.derive.calls": (
         calls.get("ggpcheck.VolumeLedger.derive", 0), "count"),
     "ggpcheck.ledger.self_s": (secs(*LEDGER), "s"),
     "ggpcheck.rotation_check.calls": (
         calls.get("ggpcheck.rotation_check", 0), "count"),
     "ggpcheck.rotation.self_s": (secs("ggpcheck.rotation_check"), "s"),
     "ggpcheck.run_case.self_s": (secs("ggpcheck.run_case"), "s"),
     "ggpcheck.self_s": (secs("ggpcheck."), "s"),
     "exteralg.induced_inner.calls": (
         calls.get("exteralg.induced_inner", 0), "count"),
     "exteralg.gram_minors": (counts["exteralg.gram_minors"], "count"),
     "exteralg.induced_inner.self_s": (secs("exteralg.induced_inner"), "s"),
     "exteralg.wedge.calls": (calls.get("exteralg.wedge", 0), "count"),
     "exteralg.wedge.self_s": (secs("exteralg.wedge"), "s"),
     "exteralg.self_s": (secs("exteralg."), "s"),
     "cli.self_s": (secs("cli."), "s"),
     "uncovered_share": ((pass_s - top) / pass_s, "ratio"),
 }
 for check in CHECKS:
  out["exteralg.%s.self_s" % check] = (secs("exteralg." + check), "s")
 return out
