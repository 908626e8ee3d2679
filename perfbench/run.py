"""Benchmark of the `artifact` checker.

usage: python3 perfbench/run.py --workload {sweep,exterior,controls}
                                --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
Every workload process is a fresh interpreter running passes one after
another (no threads, no parallel processes).

--trace 0 prints the end-to-end metrics, measured with nothing wrapped
(pass and item times calibrated for CPU speed from kernel samples taken
between passes and items, see calibration.py):
  setup_s       launch of an interpreter until every artifact module is
                imported; median over several launches
  first_pass_s  first pass in a fresh process (what each CLI run pays);
                median over the run's worker processes
  run_s         median of the warm passes
  item_p50_ms   per-item latency within passes (an item is one (case, n)
  item_p90_ms   verdict, one model check or one control), Harrell-Davis
                percentile estimates
  pass_ratio    outcomes equal to the expected one / outcomes attempted
  peak_rss_mb   largest ru_maxrss of a worker process
--trace 1 prints the per-layer metrics of tracer.py, from one process whose
warm passes alternate traced and untraced, and the uncalibrated median of
its warm untraced passes (raw_run_s).  It fails if a count hook of the
tracer fails.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable summary.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from calibration import K0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# fresh worker processes per untraced run; each gets an equal share of the
# measured seconds.  An exterior pass takes most of a run on its own.
WORKERS = {"sweep": 8, "exterior": 1, "controls": 2}
SETUP_LAUNCHES = 15
DEADLINE_S = 170


def _launch(args, deadline):
 launched = time.perf_counter()
 proc = subprocess.run([sys.executable, WORKER, repr(launched)] + args,
                       stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                       timeout=max(1.0, deadline - time.monotonic()),
                       text=True, check=True)
 return json.loads(proc.stdout.splitlines()[-1])


def environment():
 cpu = "unknown"
 try:
  with open("/proc/cpuinfo") as fh:
   for line in fh:
    if line.startswith("model name"):
     cpu = line.split(":", 1)[1].strip()
     break
 except OSError:
  pass
 return {"python": platform.python_version(),
         "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def percentile(values, p):
 """Harrell-Davis estimate of the p-th percentile: a weighted mean of all
 order statistics, with weights from the Beta((n+1)q, (n+1)(1-q)) density
 (q = p/100) at each rank's midpoint.  Items of a pass differ widely in
 size, and a single order statistic jumps between neighbouring items from
 run to run; the weighted mean does not."""
 xs = sorted(values)
 n = len(xs)
 a, b = (n + 1) * p / 100, (n + 1) * (1 - p / 100)
 logw = [(a - 1) * math.log(u) + (b - 1) * math.log(1 - u)
         for u in ((i + 0.5) / n for i in range(n))]
 top = max(logw)
 w = [math.exp(lw - top) for lw in logw]
 return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def end_to_end(workload, seed, seconds, deadline):
 _launch(["--setup-only"], deadline)  # writes bytecode caches; untimed
 k = WORKERS[workload]
 runs = [_launch([workload, str(seed), repr(seconds / k), "0"], deadline)
         for _ in range(k)]
 setups = [r["setup_s"] for r in runs]
 while len(setups) < SETUP_LAUNCHES:
  setups.append(_launch(["--setup-only"], deadline)["setup_s"])
 warm = [s for r in runs for s in r["warm_s"]]
 items = [s for r in runs for s in r["item_s"]]
 attempted = sum(r["attempted"] for r in runs)
 failed = sum(r["failed"] for r in runs)
 metrics = {
     "setup_s": (statistics.median(setups), "s"),
     "first_pass_s": (statistics.median(r["first_pass_s"] for r in runs),
                      "s"),
     "run_s": (statistics.median(warm), "s"),
     "item_p50_ms": (1000 * percentile(items, 50), "ms"),
     "item_p90_ms": (1000 * percentile(items, 90), "ms"),
     "pass_ratio": ((attempted - failed) / attempted, "ratio"),
     "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
 }
 wall = [s for r in runs for s in r["wall_s"][1:]]
 notes = ["%d worker processes, %d setup launches, %d warm passes, "
          "%d item samples" % (k, len(setups), len(warm), len(items)),
          "uncalibrated run_s %.6g s, calibration kernel %.6g s (nominal "
          "%g s)" % (statistics.median(wall),
                     statistics.median(r["kernel_s"] for r in runs), K0),
          "fail_ratio %s (%d of %d outcomes)" %
          (failed / attempted, failed, attempted)]
 return runs, metrics, notes


def per_layer(workload, seed, seconds, deadline):
 run = _launch([workload, str(seed), repr(seconds), "1"], deadline)
 metrics = {k: tuple(v) for k, v in run["per_layer"].items()}
 return [run], metrics, []


def main(argv=None):
 p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
 p.add_argument("--workload", required=True,
                choices=sorted(WORKERS))
 p.add_argument("--seed", type=int, required=True)
 p.add_argument("--seconds", type=float, required=True)
 p.add_argument("--trace", type=int, choices=(0, 1), default=0)
 args = p.parse_args(argv)
 if not os.path.isfile(os.path.join(ROOT, "src", "artifact", "__init__.py")):
  print("perfbench: no src/artifact under %s; run from a checkout" % ROOT,
        file=sys.stderr)
  return 2
 deadline = time.monotonic() + DEADLINE_S
 measure = per_layer if args.trace else end_to_end
 try:
  runs, metrics, notes = measure(args.workload, args.seed, args.seconds,
                                 deadline)
 except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
  print("perfbench: worker failed: %s" % e, file=sys.stderr)
  return 2
 attempted = sum(r["attempted"] for r in runs)
 failed = sum(r["failed"] for r in runs)
 print("# env %s" % json.dumps(environment()))
 print("# workload %s, seed %d, trace %d: %s" %
       (args.workload, args.seed, args.trace, "; ".join(notes)))
 for r in runs:
  for m in r["mismatches"]:
   print("# mismatch: %s" % m)
 for name, (value, unit) in metrics.items():
  print("# %-40s %14.6g %s" % (name, value, unit))
 print(json.dumps({"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {name: {"value": value, "unit": unit}
                               for name, (value, unit) in metrics.items()}}))
 return 0


if __name__ == "__main__":
 sys.exit(main())
