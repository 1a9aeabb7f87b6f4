"""Machine-speed tracking: a fixed calibration kernel timed between ops.

On a shared VM each vCPU flips between a fast and a slow state on its own.
On the 2-vCPU Xeon VM this benchmark was written on, one fixed example46
cost evaluation took either 2.3 ms or 3.9 ms; a vCPU flipped within a
second or stayed slow for minutes, and over half an hour the share of time
either vCPU was fast went from about 40% to 3%.  Raw wall times of whole
20 s runs spread by 0.1 to 0.3 (interquartile range over median), and two
sets of runs a few minutes apart could differ by 1.7x.

A fixed kernel of the same kinds of work (interpreted float arithmetic,
small numpy arrays, a vectorised pass over a few hundred points) slows down
in the slow state by nearly the same ratio as the package's ops: 1.76 to
1.78 for the kernel against 1.53, 1.68 and 1.70 for a CLI `compass` call, a
Danskin subgradient and an ODE cost evaluation, measured side by side.  So:

- the kernel is timed about every 10 ms of op time, and before and after
  every fresh-process run;
- when it reads slow, the process moves to the fastest of its allowed vCPUs
  (each flips on its own), and before a fresh-process run it keeps looking
  for up to half a second; otherwise the process, and every process it
  starts, stays on one vCPU;
- every timing is reported at a fixed machine speed: multiplied by
  ``REFERENCE_NS`` over the mean of the kernel samples just before and just
  after it.  ``REFERENCE_NS`` is the kernel's time in the fast state of the
  machine above, so there timings read about as they would in the fast
  state, and on any machine they do not depend on the state it was in.

The kernel belongs to the benchmark, so no change to the package moves it.
"""

from __future__ import annotations

import bisect
import os
import time

import numpy as np

REFERENCE_NS = 200_000       # kernel time in the fast state (2-vCPU Xeon VM, 2.1 GHz)
INTERVAL_NS = 10_000_000     # op time between two kernel samples
SLOW_MARGIN = 1.25           # a sample this far above the run's fastest ones reads slow
SETTLE_S = 0.5               # longest search for a fast vCPU before a fresh-process run

ALLOWED_CPUS: list = []  # the vCPUs this process may run on, before it pins itself
_POINTS = np.linspace(0.0, 1.0, 360)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one of its allowed vCPUs."""
    if hasattr(os, "sched_setaffinity"):
        ALLOWED_CPUS[:] = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {ALLOWED_CPUS[0]})


def _kernel():
    acc = 0.0
    table = {}
    for i in range(150):
        x = i * 0.37
        acc += abs(x - 3.0) if i & 1 else max(x, 1.5) * 0.5
        table[i & 15] = acc
    z = np.zeros(3)
    for _ in range(20):
        k = np.asarray([abs(z[0]) + 1.0, z[1] * 0.5, 2.0], dtype=float)
        z = z + 0.01 * sum(c * k for c in (0.1, 0.2))
    for _ in range(15):
        b = np.abs(_POINTS - 0.3) * 2.0 + _POINTS * _POINTS
        acc += float(b.max()) + float(np.argmax(b))
    return acc, z


def kernel_ns(reps: int = 3) -> int:
    """Median time of ``reps`` runs of the kernel."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        _kernel()
        samples.append(time.perf_counter_ns() - t0)
    return sorted(samples)[reps // 2]


class SpeedTrack:
    """Kernel samples of one run, the vCPU it runs on, and the factor they give a timing."""

    def __init__(self):
        self.times: list[int] = []    # perf_counter_ns at the end of each sample
        self.samples: list[int] = []  # kernel time of each sample
        self._sorted: list[int] = []
        self.busy = INTERVAL_NS       # op time since the last sample: the first op gets one before it
        self.cpus = ALLOWED_CPUS[:]
        self.cpu = self.cpus[0] if self.cpus else None
        self.moves = 0

    def sample(self) -> int:
        ns = kernel_ns()
        self.samples.append(ns)
        self.times.append(time.perf_counter_ns())
        bisect.insort(self._sorted, ns)
        self.busy = 0
        return ns

    def _slow(self, ns: int) -> bool:
        return ns > SLOW_MARGIN * self._sorted[len(self._sorted) // 20]

    def _move(self, cpu: int) -> int:
        os.sched_setaffinity(0, {cpu})
        self.cpu = cpu
        kernel_ns(1)  # the first run after a move pays for cold caches
        return self.sample()

    def check(self) -> bool:
        """Sample; if slow, move to the fastest allowed vCPU.  Whether it ends fast."""
        ns = self.sample()
        if not self._slow(ns) or len(self.cpus) < 2:
            return not self._slow(ns)
        here, best = self.cpu, (ns, self.cpu)
        for cpu in self.cpus:
            if cpu != here:
                best = min(best, (self._move(cpu), cpu))
                if not self._slow(best[0]):
                    break
        if best[1] != self.cpu:
            self._move(best[1])
        self.moves += best[1] != here
        return not self._slow(self.samples[-1])

    def settle(self) -> None:
        """Check until a vCPU reads fast, or for ``SETTLE_S``."""
        end = time.perf_counter() + SETTLE_S
        while not self.check() and time.perf_counter() < end:
            pass

    def before_op(self) -> None:
        if self.busy >= INTERVAL_NS:
            self.check()

    def factor(self, start: int, end: int) -> float:
        """What a timing from ``start`` to ``end`` is multiplied by: the reference speed over the local one."""
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        near = [self.samples[k] for k in (i, j) if 0 <= k < len(self.samples)]
        return REFERENCE_NS * len(near) / sum(near)
