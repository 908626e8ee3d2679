"""Every function and method of the package is entered by a command or a
benchmark workload.  One sys.setprofile hook records the code objects that
are called while the CLI runs a fixed subset of the golden entries
(tests/data/golden_cli.json) and while one pass of each perfbench workload
runs; every def of src/artifact, methods and nested functions included, is
named by its qualified name and must be among them, or in ALLOWED with its
reason.  The allow-list is compared for equality, so an entry that the runs
come to enter fails too, and the list can only shrink.

tests/test_surface.py guards module-level names by reference; methods are
checked here, dunder methods included, which no source ever names."""

import ast
import glob
import importlib
import json
import os
import sys
import time

import pytest

import artifact
from make_golden import PATH, run
from test_benchmark_contract import WORKLOADS

SRC = os.path.dirname(artifact.__file__)

# defs that no command or workload enters, each kept for its reason
ALLOWED = {
    "cases.CaseSpec.__init__":
        "runs when cases is imported, before any profile is set",
    "ggpcheck.QSqrt.__eq__":
        "the program's output values are compared by it, and the "
        "reference FieldQSqrt inherits it",
    "periodring.condensate":
        "only perfbench/selftest.py calls it; it goes with the next change "
        "to the benchmark",
    "rootsys.GroupDescriptor.__repr__":
        "the inverse of parse (test_repr_inverts_parse), and the notation "
        "the case-group tests compare",
}


def defs(source):
 """Qualified name of every def in a module source, as its code object
 names it (co_qualname): C.m for a method, f.<locals>.g for a def nested
 in f.  Lambdas and comprehensions are not defs."""
 out = []

 def walk(node, prefix):
  for child in ast.iter_child_nodes(node):
   if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
    out.append(prefix + child.name)
    walk(child, prefix + child.name + ".<locals>.")
   elif isinstance(child, ast.ClassDef):
    walk(child, prefix + child.name + ".")
   else:
    walk(child, prefix)

 walk(ast.parse(source), "")
 return out


def unentered(program, entered, allowed):
 """(defs of the program ({module: source}) that are neither in entered
 nor allowed, allowed names that are not unentered defs): the guard holds
 when both are empty.  Names are "module.qualname"."""
 never = {"%s.%s" % (mod, name) for mod, source in program.items()
          for name in defs(source)} - entered
 return never - set(allowed), set(allowed) - never


PROGRAM = {}
for _path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
 with open(_path) as _fh:
  PROGRAM[os.path.basename(_path)[:-3]] = _fh.read()


def _in_subset(argv):
 """The golden entries that enter every function that all of them do:
 hodge, check and lfactor at n = 2 only, cohomology-model at delta <= 4
 only, and every other entry."""
 if argv[0] in ("hodge", "check", "lfactor"):
  return argv[argv.index("--n") + 1] == "2"
 if argv[0] == "cohomology-model":
  return int(argv[argv.index("--delta") + 1]) <= 4
 return True


with open(PATH) as _fh:
 SUBSET = [e for e in json.load(_fh) if _in_subset(e["argv"])]


@pytest.fixture(scope="module")
def entered():
 """module.qualname of every def of the package that the golden subset
 and one pass of each workload call."""
 modules = [importlib.import_module("artifact." + mod) for mod in PROGRAM]
 files = {module.__file__: mod for module, mod in zip(modules, PROGRAM)}
 # a memo that earlier tests filled would keep its function's body from
 # being entered
 for module in modules:
  for obj in vars(module).values():
   if hasattr(obj, "cache_clear"):
    obj.cache_clear()
 codes = set()

 def hook(frame, event, arg):
  if event == "call":
   codes.add(frame.f_code)

 outputs, mismatches = [], []
 previous = sys.getprofile()
 sys.setprofile(hook)
 try:
  for entry in SUBSET:
   outputs.append(run(entry["argv"]))
  for name in sorted(WORKLOADS):
   inputs, work, check = WORKLOADS[name]
   data = inputs(20261019)
   mismatches += check(data, work(data, [], time.perf_counter,
                                  lambda: None))[1]
 finally:
  sys.setprofile(previous)
 # the runs took the paths that the golden file pins
 assert outputs == SUBSET and mismatches == []
 return {"%s.%s" % (files[c.co_filename], c.co_qualname) for c in codes
         if c.co_filename in files}


def test_every_def_is_entered_or_allowed(entered):
 assert len(SUBSET) == 135
 assert unentered(PROGRAM, entered, ALLOWED) == (set(), set())


# ---------------------------------------------------------------------------
# the guard fails where it should

PLANTED = {"m": "def f(x):\n"
                " def g(y):\n"
                "  return y + 1\n"
                " return [g(y) for y in (lambda: x)()]\n\n\n"
                "class C:\n"
                " def used(self):\n"
                "  return 1\n\n"
                " def planted(self):\n"
                "  return 2\n"}


def test_defs_are_named_as_code_objects_are():
 assert defs(PLANTED["m"]) == ["f", "f.<locals>.g", "C.used", "C.planted"]
 namespace = {}
 exec(compile(PLANTED["m"], "m", "exec"), namespace)
 assert namespace["C"].planted.__code__.co_qualname == "C.planted"
 inner = [c for c in namespace["f"].__code__.co_consts
          if hasattr(c, "co_qualname") and c.co_name == "g"]
 assert [c.co_qualname for c in inner] == ["f.<locals>.g"]


def test_guard_flags_a_planted_method():
 entered = {"m.f", "m.f.<locals>.g", "m.C.used"}
 assert unentered(PLANTED, entered, {}) == ({"m.C.planted"}, set())
 assert unentered(PLANTED, entered | {"m.C.planted"}, {}) == (set(), set())


def test_guard_flags_a_planted_nested_function():
 entered = {"m.f", "m.C.used", "m.C.planted"}
 assert unentered(PLANTED, entered, {}) == ({"m.f.<locals>.g"}, set())
 # the lambda and the comprehension in f, never entered either, are not
 # defs: nothing asks for them
 assert unentered(PLANTED, entered, {"m.f.<locals>.g": "why"}) == \
     (set(), set())


def test_guard_flags_a_stale_allowed_entry():
 entered = {"m.f", "m.f.<locals>.g", "m.C.used", "m.C.planted"}
 assert unentered(PLANTED, entered, {"m.C.planted": "why"}) == \
     (set(), {"m.C.planted"})
 assert unentered(PLANTED, entered, {"m.gone": "why"}) == \
     (set(), {"m.gone"})


def test_guard_flags_the_deleted_element_methods(entered):
 # the arithmetic and printing that ExteriorElement and HodgeStructure
 # once carried for the tests: no command or workload enters any of it
 planted = dict(PROGRAM)
 planted["exteralg"] = planted["exteralg"].replace(
     " def _same(self, other):",
     " def __add__(self, other):\n  pass\n\n"
     " def __sub__(self, other):\n  pass\n\n"
     " def scale(self, c):\n  pass\n\n"
     " def __eq__(self, other):\n  pass\n\n"
     " def __repr__(self):\n  pass\n\n"
     " def _same(self, other):", 1)
 planted["hodge"] = planted["hodge"].replace(
     " def pieces(self):",
     " def __eq__(self, other):\n  pass\n\n"
     " def __repr__(self):\n  pass\n\n"
     " def pieces(self):", 1)
 assert unentered(planted, entered, ALLOWED) == (
     {"exteralg.ExteriorElement." + m
      for m in ("__add__", "__sub__", "scale", "__eq__", "__repr__")} |
     {"hodge.HodgeStructure.__eq__", "hodge.HodgeStructure.__repr__"},
     set())
