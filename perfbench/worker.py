"""One fresh interpreter running one workload; started by run.py.

usage: worker.py LAUNCHED WORKLOAD SEED BUDGET_S TRACE
       worker.py LAUNCHED --setup-only

LAUNCHED is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC, shared by all processes), so setup_s covers the
interpreter start and the import of every `artifact` module.  The worker
runs a first pass, then warm passes until the next one would end past
BUDGET_S, and prints one JSON object as its last line of output.  Pass and
item times, and setup_s, are calibrated as calibration.py describes;
`wall_s` keeps the uncalibrated pass times.  Traced runs are not calibrated.

With TRACE=1 an untraced first pass is followed by traced and untraced
passes in turn, at least one of each, so the tracing overhead is measured
against warm untraced passes of the same process.  A count hook of the
tracer that fails makes the worker exit non-zero: its counts would be
wrong.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
sys.path.insert(0, SRC)
try:
 import artifact
 from artifact import (cli, exteralg, ggpcheck, hodge, lgamma,  # noqa: F401
                       periodring, rootsys)
except ImportError as e:
 sys.exit("perfbench: cannot import artifact from %s: %s" % (SRC, e))
READY = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

if not os.path.abspath(artifact.__file__).startswith(SRC + os.sep):
 sys.exit("perfbench: artifact imported from %s, not %s" %
          (artifact.__file__, SRC))

import calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _nothing():
 pass


def traced_pass(run, inputs, tr):
 """(seconds, per-layer metrics, results) of one pass under the tracer."""
 tr.reset()
 tr.install()
 try:
  t0 = time.perf_counter()
  results = run(inputs, [], time.perf_counter, _nothing)
  elapsed = time.perf_counter() - t0
 finally:
  tr.uninstall()
 return elapsed, tracer.layer_metrics(tr, elapsed), results


def main(argv):
 setup_s = READY - float(argv[1])
 cal = calibration.Calibrator()
 cal.burst()
 setup_s *= cal.factor(cal.at[0], cal.at[0])
 if argv[2] == "--setup-only":
  print(json.dumps({"setup_s": setup_s}))
  return 0
 name, seed, budget, trace = argv[2], int(argv[3]), float(argv[4]), \
     argv[5] == "1"
 make_inputs, run, check = workloads.WORKLOADS[name]
 inputs = make_inputs(seed)
 out = {"setup_s": setup_s}
 attempted = 0
 mismatches = []

 def record(results):
  nonlocal attempted
  n, bad = check(inputs, results)
  attempted += n
  mismatches.extend(bad)

 clock = time.perf_counter
 begin = clock()
 if trace:
  tr = tracer.Tracer()
  untraced, traced, layers = [], [], []
  hook_errors = 0
  while len(untraced) < 2 or clock() - begin + last <= budget:
   if len(traced) < len(untraced):
    last, metrics, results = traced_pass(run, inputs, tr)
    traced.append(last)
    layers.append(metrics)
    hook_errors += tr.hook_errors
   else:
    t0 = clock()
    results = run(inputs, [], clock, _nothing)
    last = clock() - t0
    untraced.append(last)
   record(results)
  if hook_errors:
   sys.exit("perfbench: tracer count hooks failed %d times; they no longer "
            "match the program's signatures" % hook_errors)
  per_layer = {key: [statistics.median(m[key][0] for m in layers), unit]
               for key, (_v, unit) in layers[0].items()}
  warm = statistics.median(untraced[1:])
  per_layer["raw_run_s"] = [warm, "s"]
  per_layer["tracing_overhead_s"] = [statistics.median(traced) - warm, "s"]
  out.update(per_layer=per_layer)
 else:
  passes, wall, item_s = [], [], []
  while len(passes) < 2 or clock() - begin + wall[-1] <= budget:
   items = []
   t0 = cal.now()
   results = run(inputs, items, cal.now, cal.between)
   t1 = cal.now()
   cal.burst()
   passes.append((t1 - t0) * cal.factor(t0, t1))
   wall.append(t1 - t0)
   item_s.extend((b - a) * cal.factor(a, b) for a, b in items)
   record(results)
  out.update(first_pass_s=passes[0], warm_s=passes[1:], wall_s=wall,
             item_s=item_s, kernel_s=statistics.median(cal.samples()))
 out.update(attempted=attempted, failed=len(mismatches),
            mismatches=mismatches[:5],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0)
 print(json.dumps(out))
 return 0


if __name__ == "__main__":
 sys.exit(main(sys.argv))
