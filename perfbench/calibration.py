"""CPU-speed calibration for the end-to-end times.

The machines this runs on are shared: the same pass can take 30% longer a
minute later, or a few seconds later, with no change in the code, and CPU
time moves with wall time, so the drift is in the processor's speed, not in
scheduling.  To keep runs comparable, a worker times a fixed calibration
kernel (exact Fraction elimination, the same operation mix as the
program's linear algebra): BURST times before every pass and after the
last one, and once between two items of a pass when INTERVAL seconds have
passed since the last sample.  A sample never interrupts a call into the
program.  The clock `now()` stops while the kernel runs, and pass and item
times are reported as

    seconds * K0 / median kernel seconds from the last but one burst
                   before the interval to the second burst after it

with K0 the nominal kernel time.  A reported second is therefore a second on
a processor that runs the kernel in K0.  The kernel never calls the program,
so a change to the program moves only the numerator.  The uncalibrated
times stay in the worker's output (`wall_s`).
"""

import bisect
from fractions import Fraction
import gc
import random
import statistics
import time

K0 = 0.025
BURST = 3
INTERVAL = 0.25
clock = time.perf_counter

_rng = random.Random(20261017)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5))
            for _ in range(14)] for _ in range(14)]


def kernel():
 """Determinant of a fixed 14x14 rational matrix, three times."""
 det = Fraction(0)
 for _ in range(3):
  m = [row[:] for row in _MATRIX]
  n = len(m)
  d = Fraction(1)
  for c in range(n):
   piv = next(r for r in range(c, n) if m[r][c])
   m[c], m[piv] = m[piv], m[c]
   d *= m[c][c]
   for r in range(c + 1, n):
    f = m[r][c] / m[c][c]
    if f:
     m[r] = [x - f * y for x, y in zip(m[r], m[c])]
  det += d
 return det


class Calibrator:
 """Kernel samples of one worker process."""

 def __init__(self):
  self.at = []       # now() of each burst
  self.bursts = []   # kernel seconds of each burst
  self.spent = 0.0   # seconds spent in bursts so far

 def now(self):
  """perf_counter minus the time spent in bursts."""
  return clock() - self.spent

 def burst(self, n=BURST):
  # the kernel's garbage is acyclic; keep collections of the program's
  # heap out of the samples
  enabled = gc.isenabled()
  gc.disable()
  t0 = clock()
  samples = []
  for _ in range(n):
   t = clock()
   kernel()
   samples.append(clock() - t)
  self.at.append(t0 - self.spent)
  self.bursts.append(samples)
  self.spent += clock() - t0
  if enabled:
   gc.enable()

 def between(self):
  """Called between two items of a pass."""
  if self.now() - self.at[-1] >= INTERVAL:
   self.burst(1)

 def factor(self, start, end):
  """K0 / median kernel seconds of the bursts from the last but one at or
  before `start` to the second one at or after `end` (times on now()):
  a short item lies between two single samples, too few for a median."""
  lo = max(bisect.bisect_right(self.at, start) - 2, 0)
  hi = bisect.bisect_left(self.at, end) + 1
  return K0 / statistics.median(k for b in self.bursts[lo:hi + 1] for k in b)

 def samples(self):
  return [k for b in self.bursts for k in b]
