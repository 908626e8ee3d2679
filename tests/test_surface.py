"""Every module-level function and class of the package, public or
private, is used by the program: referenced, outside its own definition, by
code in src/artifact or by the benchmark (perfbench/*.py).  A cross-check
or helper that only tests call belongs in tests/.  An identifier counts as a reference wherever it occurs,
so the guard can miss a dead def that shares its name with something else,
but never flags a used one: periodring.condensate, say, would pass on
run_case's local and CaseReport's attribute of that name alone.

Also the layering of the modules: which sibling modules each may import,
that the import graph has no cycle, and that no module reads a sibling's
private names; that no module reads a private name of the random module or
of a random.Random, so every draw goes through its public methods; and the
private program names that the test references read, each listed with its
reason."""

import ast
import collections
import glob
import os
import random

import artifact

SRC = os.path.dirname(artifact.__file__)
BENCH = os.path.join(SRC, os.pardir, os.pardir, "perfbench")

# names kept without a program caller, each with its reason
ALLOWED = set()


def _names(tree):
 """Identifiers a tree references: names, attributes, imported names."""
 out = set()
 for node in ast.walk(tree):
  if isinstance(node, ast.Name):
   out.add(node.id)
  elif isinstance(node, ast.Attribute):
   out.add(node.attr)
  elif isinstance(node, ast.ImportFrom):
   out.update(a.name for a in node.names)
 return out


def unreferenced(program, bench):
 """(module, name) of every module-level def or class of the program
 modules ({module: source}) that nothing in the program or the bench
 sources ([source]) references outside its own definition."""
 uses = collections.Counter()  # top-level statements naming each identifier
 defs = []
 for mod, source in sorted(program.items()):
  for node in ast.parse(source).body:
   names = _names(node)
   uses.update(names)
   if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
    defs.append((mod, node.name, node.name in names))
 for source in bench:
  uses.update(_names(ast.parse(source)))
 return [(mod, name) for mod, name, recursive in defs
         if uses[name] == recursive]


def _sources(pattern):
 out = {}
 for path in sorted(glob.glob(pattern)):
  with open(path) as fh:
   out[os.path.basename(path)[:-3]] = fh.read()
 return out


PROGRAM = _sources(os.path.join(SRC, "*.py"))
BENCH_SOURCES = list(_sources(os.path.join(BENCH, "*.py")).values())


def test_every_name_has_a_program_caller():
 assert BENCH_SOURCES, "perfbench sources not found"
 assert set(unreferenced(PROGRAM, BENCH_SOURCES)) == ALLOWED


def test_guard_flags_a_test_only_function():
 planted = dict(PROGRAM)
 planted["rootsys"] += ("\n\ndef oracle_only(x):\n"
                        " return oracle_only(x - 1) if x else 0\n")
 assert ("rootsys", "oracle_only") in unreferenced(planted, BENCH_SOURCES)
 # a caller in another module, in the same module or in the benchmark
 # clears it
 for mod, call in (("lgamma", "rootsys.oracle_only(2)"),
                   ("rootsys", "oracle_only(2)")):
  called = dict(planted)
  called[mod] += "\n\ndef _use():\n return %s\n" % call
  assert ("rootsys", "oracle_only") not in \
      unreferenced(called, BENCH_SOURCES)
 assert ("rootsys", "oracle_only") not in \
     unreferenced(planted, BENCH_SOURCES + ["rootsys.oracle_only(1)\n"])



def test_guard_flags_a_test_only_private_helper():
 # a private helper that only tests call, as the Fraction matrix helper of
 # the rotation lemma was once the references' alone
 planted = dict(PROGRAM)
 planted["ggpcheck"] += ("\n\ndef _frac_mat(m):\n"
                         " return [[Fraction(x) for x in row] for row in m]\n")
 assert ("ggpcheck", "_frac_mat") in unreferenced(planted, BENCH_SOURCES)
 called = dict(planted)
 called["ggpcheck"] = called["ggpcheck"].replace(
     "def rotation_check(v1, v2, sigma):",
     "def rotation_check(v1, v2, sigma):\n v1 = _frac_mat(v1)", 1)
 assert ("ggpcheck", "_frac_mat") not in unreferenced(called, BENCH_SOURCES)


# ---------------------------------------------------------------------------
# layering

def imports(source):
 """Sibling modules of the package that a module's source imports."""
 out = set()
 for node in ast.walk(ast.parse(source)):
  if isinstance(node, ast.ImportFrom):
   if node.level == 1 and node.module:
    out.add(node.module.split(".")[0])
   elif node.level == 1 or node.module == "artifact":
    out.update(a.name for a in node.names)
   elif node.module and node.module.startswith("artifact."):
    out.add(node.module.split(".")[1])
  elif isinstance(node, ast.Import):
   out.update(a.name.split(".")[1] for a in node.names
              if a.name.startswith("artifact."))
 return out


def cycles(program):
 """Modules of the program ({module: source}) that reach themselves
 through the import graph."""
 graph = {mod: imports(src) & set(program) for mod, src in program.items()}
 out = set()
 for start in graph:
  seen, todo = set(), list(graph[start])
  while todo:
   mod = todo.pop()
   if mod not in seen:
    seen.add(mod)
    todo.extend(graph[mod])
  if start in seen:
   out.add(start)
 return out


GRAPH = {mod: imports(src) for mod, src in PROGRAM.items()}


def test_layers():
 assert GRAPH["cases"] == set() and GRAPH["linalg"] == set()
 assert GRAPH["hodge"] == {"cases"}
 assert GRAPH["periodring"] == {"hodge", "linalg"}
 assert GRAPH["lgamma"] == {"hodge", "rootsys"}
 assert GRAPH["exteralg"] == {"linalg"}
 assert GRAPH["rootsys"] == {"linalg"}
 assert GRAPH["ggpcheck"] == {"cases", "exteralg", "hodge", "lgamma",
                              "linalg", "periodring", "rootsys"}
 assert [mod for mod, deps in GRAPH.items() if "cli" in deps] == []


def test_no_import_cycle():
 assert cycles(PROGRAM) == set()


def test_layer_detectors():
 # every import spelling is seen, and a back edge closes a cycle through
 # exactly the modules on its way round
 assert imports("from . import a\nfrom .b import x\nfrom artifact import c"
                "\nfrom artifact.d import y\nimport artifact.e\n"
                "import os\nfrom fractions import Fraction\n") == \
     {"a", "b", "c", "d", "e"}
 for mod, back, loop in (("hodge", "lgamma", {"hodge", "lgamma"}),
                         ("linalg", "rootsys", {"linalg", "rootsys"}),
                         ("cases", "periodring",
                          {"cases", "hodge", "periodring"})):
  planted = dict(PROGRAM)
  planted[mod] += "\nfrom . import %s\n" % back
  assert cycles(planted) == loop, (mod, back)


# ---------------------------------------------------------------------------
# private names stay in their module

def _private(name):
 return name.startswith("_") and not name.endswith("__")


def private_reads(program):
 """(module, "sibling._name") for every private name that a module of the
 program ({module: source}) imports from a sibling (from .x import _y) or
 reads off one (x._y, artifact.x._y)."""
 out = set()
 for mod, source in program.items():
  tree = ast.parse(source)
  bound = {}  # local name -> the sibling module it is bound to
  for node in ast.walk(tree):
   if isinstance(node, ast.ImportFrom):
    parts = (node.module or "").split(".")
    if node.level == 1 and parts[0]:
     sib = parts[0]
    elif parts[0] == "artifact" and len(parts) > 1:
     sib = parts[1]
    else:   # from . import x, from artifact import x
     sib = None
     bound.update((a.asname or a.name, a.name) for a in node.names
                  if a.name in program)
    out.update((mod, "%s.%s" % (sib, a.name)) for a in node.names
               if sib in program and sib != mod and _private(a.name))
   elif isinstance(node, ast.Import):
    bound.update((a.asname, a.name.split(".")[1]) for a in node.names
                 if a.asname and a.name.startswith("artifact."))
  for node in ast.walk(tree):
   if isinstance(node, ast.Attribute) and _private(node.attr):
    v = node.value
    if isinstance(v, ast.Name):
     sib = bound.get(v.id)
    elif isinstance(v, ast.Attribute) and isinstance(v.value, ast.Name) \
        and v.value.id == "artifact":
     sib = v.attr
    else:
     sib = None
    if sib in program and sib != mod:
     out.add((mod, "%s.%s" % (sib, node.attr)))
 return out


def test_no_private_cross_module_read():
 assert private_reads(PROGRAM) == set()


def test_private_read_guard_fires():
 # the ledger once imported the period ring's echelon kernels
 planted = dict(PROGRAM)
 planted["ggpcheck"] = planted["ggpcheck"].replace(
     "from .periodring import PeriodScalar\n",
     "from .periodring import PeriodScalar, _hnf, _residue\n", 1)
 assert private_reads(planted) == {("ggpcheck", "periodring._hnf"),
                                   ("ggpcheck", "periodring._residue")}
 for source, read in (("from artifact.linalg import _x\n", "linalg._x"),
                      ("def f():\n return periodring._hnf\n",
                       "periodring._hnf"),
                      ("from . import hodge as h\nh._y\n", "hodge._y"),
                      ("import artifact.rootsys as r\nr._z\n",
                       "rootsys._z"),
                      ("import artifact.lgamma\nartifact.lgamma._w\n",
                       "lgamma._w")):
  planted = dict(PROGRAM)
  planted["cli"] += "\n" + source
  assert private_reads(planted) == {("cli", read)}, source
 # a module's own private names, dunders and a private attribute of an
 # object are not a sibling's private names
 planted = dict(PROGRAM)
 planted["cli"] += ("\nfrom . import periodring\nperiodring.__name__\n"
                    "ggpcheck.VolumeLedger()._combination\n_helper = 1\n")
 assert private_reads(planted) == set()


# ---------------------------------------------------------------------------
# the random module is read through its public names only

RANDOM_MODULE_PRIVATE = {n for n in dir(random) if _private(n)}
RANDOM_METHOD_PRIVATE = {n for n in dir(random.Random) if _private(n)}


def random_private_reads(program):
 """(module, name) for every private name of the random module that a
 module of the program ({module: source}) imports (from random import _x)
 or reads off a name bound to the module (random._x, r._x after import
 random as r), and every private attribute of random.Random that it reads
 off any object, by attribute or by getattr with a literal name."""
 out = set()
 for mod, source in program.items():
  tree = ast.parse(source)
  bound = set()
  for node in ast.walk(tree):
   if isinstance(node, ast.Import):
    bound.update(a.asname or a.name for a in node.names
                 if a.name == "random")
   elif isinstance(node, ast.ImportFrom) and node.module == "random" and \
       not node.level:
    out.update((mod, a.name) for a in node.names if _private(a.name))
  for node in ast.walk(tree):
   if isinstance(node, ast.Attribute) and _private(node.attr):
    if node.attr in RANDOM_METHOD_PRIVATE or \
       (isinstance(node.value, ast.Name) and node.value.id in bound):
     out.add((mod, node.attr))
   elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
       node.func.id == "getattr" and len(node.args) >= 2 and \
       isinstance(node.args[1], ast.Constant) and \
       node.args[1].value in RANDOM_METHOD_PRIVATE:
    out.add((mod, node.args[1].value))
 return out


def test_no_private_random_read():
 assert random_private_reads(PROGRAM) == set()


def test_random_guard_fires():
 assert {"_randbelow", "_inst"} <= RANDOM_METHOD_PRIVATE | \
     RANDOM_MODULE_PRIVATE
 for source, read in (("rng = random.Random(1)\nrng._randbelow(19)\n",
                       "_randbelow"),
                      ("random._inst.random()\n", "_inst"),
                      ("import random as r\nr._urandom(4)\n", "_urandom"),
                      ("from random import _inst\n", "_inst"),
                      ("def f(rng):\n return rng._randbelow_with_getrandbits"
                       "\n", "_randbelow_with_getrandbits"),
                      ("getattr(random.Random(2), '_randbelow')(5)\n",
                       "_randbelow")):
  planted = dict(PROGRAM)
  planted["exteralg"] += "\n" + source
  assert random_private_reads(planted) == {("exteralg", read)}, source
 # public draws, a program object's own private names and a name of
 # another module are not the random module's private names
 planted = dict(PROGRAM)
 planted["exteralg"] += ("\nrandom.Random(3).getrandbits(5)\n"
                         "ExteriorElement(MetricSpaceQ(2))._same\n"
                         "math._inst\n")
 assert random_private_reads(planted) == set()


# ---------------------------------------------------------------------------
# what the test references borrow from the program

REFERENCES = os.path.join(os.path.dirname(__file__), "reference_kernels.py")

# every private program name that tests/reference_kernels.py reads, with
# the reason it borrows the program's version instead of writing its own
REFERENCE_PRIVATE = {
    "ggpcheck._alt": "written_out_axioms builds its alternating sums with "
                     "the program's helper",
    "ggpcheck._merge_lin": "written_out_axioms adds linear forms with the "
                           "program's helper",
    "ggpcheck._det3": "qsqrt_rotation_check takes 3x3 determinants over "
                      "Q(sqrt b)",
    "ggpcheck._dot": "qsqrt_rotation_check takes dot products over "
                     "Q(sqrt b)",
    "ggpcheck._matvec": "qsqrt_rotation_check applies sigma over Q(sqrt b)",
    "ggpcheck._sqfree": "qsqrt_rotation_check names b by its square-free "
                        "part",
    "rootsys._descriptor": "inverse_dual_trace_form reads a group as the "
                           "program parses it",
    "rootsys._gram": "inverse_dual_trace_form reads the Gram matrices "
                     "that a test can plant",
    "rootsys._so_cartan": "inverse_dual_trace_form reads the Cartan bases "
                          "that a test can plant",
    "rootsys._simple_roots": "fraction_generic_orbit reflects in the "
                             "program's simple roots",
}


def reference_private_reads(source):
 """Private program names ("module._name") that a test reference source
 imports or reads off a module of the program."""
 return {read for mod, read in
         private_reads(dict(PROGRAM, reference_kernels=source))
         if mod == "reference_kernels"}


def test_reference_private_reads_are_listed():
 with open(REFERENCES) as fh:
  reads = reference_private_reads(fh.read())
 assert reads == set(REFERENCE_PRIVATE)
 # the dense reduction states its own column order and square classes
 assert not any(read.startswith("periodring.") for read in reads)


def test_reference_guard_fires():
 with open(REFERENCES) as fh:
  source = fh.read()
 for planted, read in (
     ("from artifact.periodring import _kind\n", "periodring._kind"),
     ("def f():\n return periodring._to_int_vector\n",
      "periodring._to_int_vector")):
  assert reference_private_reads(source + planted) == \
      set(REFERENCE_PRIVATE) | {read}
