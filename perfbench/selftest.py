"""Self-test of the benchmark itself.

usage: python3 perfbench/selftest.py

1. The tracer restores every wrapped attribute, nests spans correctly and
   never reports negative self time.
2. For each workload, two traced runs with the same seed report identical
   count metrics, and every run reports exactly the metric names listed in
   BENCHMARK.json with correct outputs.

Takes a few minutes, most of it in the exterior workload.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
from artifact import ggpcheck, periodring  # noqa: E402

COUNT_UNITS = ("count", "ratio")


def check_tracer():
 tr = tracer.Tracer()
 before = {name: dict(vars(m)) for name, m in tr.modules.items()}
 methods = dict(vars(ggpcheck.VolumeLedger))
 tr.install()
 assert periodring.condensate is not before["periodring"]["condensate"]
 assert ggpcheck.VolumeLedger.derive is not methods["derive"]
 periodring.condensate("pgl-q", 3)
 tr.uninstall()
 assert tr.hook_errors == 0, tr.hook_errors
 for name, mod in tr.modules.items():
  assert dict(vars(mod)) == before[name], "%s not restored" % name
 assert dict(vars(ggpcheck.VolumeLedger)) == methods
 calls, self_s, top = tr.summary()
 assert calls["periodring.condensate"] == 1 and len(calls) > 1, calls
 for i in range(1, len(tr.parent)):
  p = tr.parent[i]
  assert 0 <= p < i, "span %d has parent %d" % (i, p)
  assert tr.enter[p] <= tr.enter[i] and tr.end[i] <= tr.end[p]
 assert all(v >= 0 for v in self_s.values()), self_s
 assert sum(self_s.values()) <= top


def bench(workload, trace, seed=7):
 out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace)],
                      cwd=ROOT, stdout=subprocess.PIPE, text=True,
                      check=True, timeout=180).stdout
 return json.loads(out.splitlines()[-1])


def check_workload(workload, spec):
 end_to_end = bench(workload, 0)
 first, second = bench(workload, 1), bench(workload, 1)
 for res, section in ((end_to_end, "end_to_end"), (first, "per_layer"),
                      (second, "per_layer")):
  assert res["correct"] and res["failed"] == 0, (workload, res)
  want = {m["name"]: m["unit"] for m in spec[section]}
  got = {k: v["unit"] for k, v in res["metrics"].items()}
  assert got == want, (workload, section, set(got) ^ set(want))
 counts = {k: (first["metrics"][k]["value"], second["metrics"][k]["value"])
           for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS
           and k != "uncovered_share"}
 differ = {k: v for k, v in counts.items() if v[0] != v[1]}
 assert not differ, (workload, differ)
 return counts


def main():
 with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
  spec = json.load(fh)
 check_tracer()
 print("tracer: ok")
 for workload in [w["name"] for w in spec["workloads"]]:
  counts = check_workload(workload, spec)
  print("%s: ok, %d count metrics repeat exactly" % (workload, len(counts)))
 return 0


if __name__ == "__main__":
 sys.exit(main())
