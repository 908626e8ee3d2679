"""Command line front end.

Subcommands:
 invariants        real-group invariant table for a group descriptor
 cohomology-model  graded dimensions and checks of the exterior model
 hodge             multiplicity tables for the case structures
 lfactor           computed vs closed-form exponent row for one case
 period            ad-hoc reduction of a period s-expression
 check             full verdict for one case and n
 torsion           volume-ledger derivations
 rotation          quadratic-field rotation between two lattices
 verify-all        run the case identities up to a bound and the ledger;
                   exit 0 iff all pass

Exit status: 0 when every identity checked passes, 1 when one fails, 2 on a
usage error (a bad argument or input file), reported as one line on stderr.
An error that the computation finds in its own data ends in a traceback.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import cases
from . import rootsys
from . import exteralg
from . import hodge
from . import lgamma
from . import periodring
from . import ggpcheck


class UsageError(ValueError):
 """A bad argument or input file: main alone turns it into exit 2."""


def _read(f, *args):
 """f(*args) on input from the command line: a ValueError it raises is a
 UsageError."""
 try:
  return f(*args)
 except ValueError as e:
  raise UsageError(e) from e


def _print_table(rows, headers):
 widths = [max(len(str(r[i])) for r in rows + [headers])
           for i in range(len(headers))]
 line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
 print(line)
 print("-" * len(line))
 for r in rows:
  print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))


def _print_table1(rows):
 _print_table([(r["name"], r["computed_exp"], r["expected_exp"],
                "pass" if r["pass"] else "FAIL") for r in rows],
              ["column", "computed", "closed form", "verdict"])


def cmd_invariants(args):
 iv = rootsys.invariants(_read(rootsys.GroupDescriptor.parse, args.group))
 data = iv.as_dict()
 if args.json:
  print(json.dumps({k: str(v) for k, v in data.items()}, indent=1))
 else:
  for k, v in data.items():
   print("%-14s %s" % (k, v))
 return 0


def cmd_cohomology_model(args):
 _read(exteralg.model_dims, args.delta, args.q, args.k)
 model = exteralg.TemperedCohomologyModel(args.delta, args.q, args.k)
 _print_table(model.dims, ["degree", "dimension"])
 checks = [("freeness", exteralg.freeness_check(model)),
           ("poincare_adjoint", exteralg.poincare_adjoint_check(model)),
           ("isometry", exteralg.isometry_check(model, trials=20))]
 ok = True
 for name, res in checks:
  print("%-18s %s" % (name, "pass" if res else "FAIL"))
  ok = ok and res
 return 0 if ok else 1


_SHOW = ("M", "N", "AdM", "AdN", "MxN")


def _show_structure(case, n, which):
 mot = hodge.CaseMotives(case, n)
 if which in ("M", "N"):
  return mot.std[which]
 return mot.adjoint(which[2]) if which in ("AdM", "AdN") else mot.tensor


def cmd_hodge(args):
 _read(cases.get, args.case, args.n)
 h = _show_structure(args.case, args.n, args.show)
 print("weight %d, rank %d%s" % (h.weight, h.rank(),
                                 ", flagged" if h.over_e else ""))
 _print_table([("(%d,%d)" % k, m) for k, m in h.pieces()],
              ["piece", "mult"])
 if not h.over_e and h.weight % 2 == 0:
  print("diagonal eigenvalues: +1 x %d, -1 x %d" % (h.fplus, h.fminus))
 return 0


def cmd_lfactor(args):
 _read(cases.get, args.case, args.n)
 rows = lgamma.table1_row(hodge.CaseMotives(args.case, args.n))
 if args.json:
  print(json.dumps([lgamma.row_json(r) for r in rows], indent=1))
 else:
  _print_table1(rows)
 return 0 if all(r["pass"] for r in rows) else 1


def cmd_period(args):
 x = _read(periodring.parse_expr, args.expr)
 if args.case:
  _read(cases.get, args.case, args.n)
  # reducible at all: no exponent of denominator beyond 2
  _read(periodring.reduce, x, periodring.RelationSet(), args.mod)
  rels = periodring.case_relations(hodge.CaseMotives(args.case, args.n))
  x = periodring.reduce(x, rels, args.mod)
 print(repr(x))
 return 0


def cmd_check(args):
 _read(ggpcheck.check_n, args.n, "n")
 rep = ggpcheck.run_case(args.case, args.n)
 if args.json:
  print(json.dumps(rep.as_dict(), indent=1))
 else:
  _print_table1(rep.table1)
  print("condensate: residual %s, m=%d -> %s" %
        (rep.condensate["residual"], rep.condensate["m"],
         "pass" if rep.condensate["pass"] else "FAIL"))
  print("gamma1 exponent %s -> %s" %
        (rep.gamma1["exponent"], "pass" if rep.gamma1["pass"] else "FAIL"))
  print("gamma2 residual %s -> %s" %
        (rep.gamma2["residual"], "pass" if rep.gamma2["pass"] else "FAIL"))
 return 0 if rep.passed() else 1


def cmd_torsion(args):
 try:
  ledger = ggpcheck.torsion_ledger()
 except ggpcheck.LedgerUnderdetermined as e:
  print("FAIL: %s" % e)
  return 1
 ok = True
 for name, rec in sorted(ledger.derivations.items()):
  replay = ledger.replay(rec)
  ok = ok and replay
  print("%-10s class=%-7s conditional=%-5s replay=%s" %
        (name, rec["class"], rec["conditional"],
         "pass" if replay else "FAIL"))
  for ax, c in sorted(rec["coefficients"].items()):
   print("   %+s * %s" % (c, ax))
 return 0 if ok else 1


def _read_matrix(path):
 """Whitespace-separated rationals, row-major; lines starting with '#'
 are comments.  Every failure to read one is a ValueError."""
 vals = []
 try:
  fh = open(path)
 except OSError as e:
  raise ValueError("%s: %s" % (path, e.strerror))
 with fh:
  for line in fh:
   line = line.strip()
   if not line or line.startswith("#"):
    continue
   for tok in line.split():
    try:
     vals.append(Fraction(tok))
    except ZeroDivisionError:
     raise ValueError("%s: zero denominator in %r" % (path, tok))
 if len(vals) != 9:
  raise ValueError("%s: expected 9 entries, got %d" % (path, len(vals)))
 return [vals[0:3], vals[3:6], vals[6:9]]


def cmd_rotation(args):
 # a matrix that cannot be read is a usage error; only hypothesis failures
 # of the lemma itself print FAIL
 mats = [_read(_read_matrix, p) for p in (args.v1, args.v2, args.sigma)]
 try:
  ok, desc = ggpcheck.rotation_check(*mats)
 except ValueError as e:
  print("FAIL: %s" % e)
  return 1
 print("square class b = %d, plane scale = %s" % (desc["b"], desc["scale"]))
 for row in desc["alpha"]:
  print("  " + "  ".join(repr(x) for x in row))
 return 0


def cmd_verify_all(args):
 _read(ggpcheck.check_n, args.n_max, "n-max")
 status, _, lines = ggpcheck.verify_all(args.n_max)
 for line in lines:
  print(line)
 return status


def build_parser():
 p = argparse.ArgumentParser(prog="artifact", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
 sub = p.add_subparsers(dest="command", required=True)

 q = sub.add_parser("invariants", help="real-group invariants")
 q.add_argument("--group", required=True,
                help="descriptor, e.g. 'SL(4)/R' or 'PGL(2)/C x PGL(3)/C'")
 q.add_argument("--json", action="store_true")
 q.set_defaults(func=cmd_invariants)

 q = sub.add_parser("cohomology-model", help="exterior module model")
 q.add_argument("--delta", type=int, required=True)
 q.add_argument("--q", type=int, required=True)
 q.add_argument("--k", type=int, required=True)
 q.set_defaults(func=cmd_cohomology_model)

 q = sub.add_parser("hodge", help="case structure multiplicity tables")
 q.add_argument("--case", required=True, choices=cases.CASES)
 q.add_argument("--n", type=int, required=True)
 q.add_argument("--show", required=True, choices=_SHOW)
 q.set_defaults(func=cmd_hodge)

 q = sub.add_parser("lfactor", help="exponent table row")
 q.add_argument("--case", required=True, choices=cases.CASES)
 q.add_argument("--n", type=int, required=True)
 q.add_argument("--json", action="store_true")
 q.set_defaults(func=cmd_lfactor)

 q = sub.add_parser("period", help="reduce a period s-expression")
 q.add_argument("--expr", required=True,
                help="e.g. '(mul (pow twopii 2) (conj Q0.s))'")
 q.add_argument("--case", choices=cases.CASES)
 q.add_argument("--n", type=int, default=1)
 q.add_argument("--mod", choices=("Q", "sqrtQ"), default="Q")
 q.set_defaults(func=cmd_period)

 q = sub.add_parser("check", help="full verdict for one case")
 q.add_argument("--case", required=True, choices=cases.CASES)
 q.add_argument("--n", type=int, required=True)
 q.add_argument("--json", action="store_true")
 q.set_defaults(func=cmd_check)

 q = sub.add_parser("torsion", help="volume ledger derivations")
 q.set_defaults(func=cmd_torsion)

 q = sub.add_parser("rotation", help="quadratic rotation between lattices")
 q.add_argument("--v1", required=True)
 q.add_argument("--v2", required=True)
 q.add_argument("--sigma", required=True)
 q.set_defaults(func=cmd_rotation)

 q = sub.add_parser("verify-all",
                    help="run the case identities and the ledger")
 q.add_argument("--n-max", type=int, required=True)
 q.set_defaults(func=cmd_verify_all)
 return p


def main(argv=None):
 args = build_parser().parse_args(argv)
 try:
  return args.func(args)
 except UsageError as e:
  print("usage error: %s" % e, file=sys.stderr)
  return 2


if __name__ == "__main__":
 sys.exit(main())
