"""What the benchmark reads from the package: one in-process pass of each
workload of perfbench/workloads.py (inputs, run, check) with a fixed seed
finds no mismatch.  This pins the names and outputs the workloads use,
such as run_case(extra=), the change_det of rotation_check and the exit
status and lines of verify-all, without running the benchmark itself."""

import importlib.util
import os
import sys
import time

import pytest

import artifact

PATH = os.path.join(os.path.dirname(artifact.__file__), os.pardir, os.pardir,
                    "perfbench", "workloads.py")


def _load_workloads():
 """perfbench/workloads.py as a module, read only: no bytecode is written
 next to it."""
 spec = importlib.util.spec_from_file_location("perfbench_workloads", PATH)
 module = importlib.util.module_from_spec(spec)
 dont_write = sys.dont_write_bytecode
 sys.dont_write_bytecode = True
 try:
  spec.loader.exec_module(module)
 finally:
  sys.dont_write_bytecode = dont_write
 return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_pass_without_mismatch(name):
 inputs, run, check = WORKLOADS[name]
 data = inputs(20261019)
 items = []
 results = run(data, items, time.perf_counter, lambda: None)
 attempted, mismatches = check(data, results)
 assert mismatches == []
 assert attempted > 0 and items
