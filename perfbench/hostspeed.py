"""Host-speed calibration: every end-to-end time is scaled to a reference host.

The benchmark runs on a few cores of a shared host whose speed drifts:
up to 2x over an hour and +-30% from one second to the next, alike for
wall and CPU time, and differently for one busy vCPU than for two.
Medians over a run do not remove a drift that lasts longer than the
run, so each time is scaled by the host's speed at the moment it was
measured:

    scaled seconds = host seconds * reference / kernel seconds

where *kernel seconds* is the time of a fixed pure-Python kernel (a
dict of small objects touched at random, like the simulator's caches
and directories) that uses nothing from ``src/``.  Its table is small
enough to stay in the CPU caches, so the simulator's own memory
footprint barely moves it.  A change to the simulator moves the host
seconds and not the kernel, so it shows in full; a slower host moves
both.

* In-process cells are stepped ``STEP_CYCLES`` at a time and the kernel
  runs whenever ``PERIOD_S`` of simulation has passed since it last ran;
  each stretch of simulation is scaled by the kernel time right after it
  (``Stepper``, reference ``REFERENCE_S``).
* Phases that span processes (a sweep pass, a serve session, ``import
  repro`` in fresh interpreters) are scaled by a ``Probe``: a thread of
  this process that runs the kernel every ``PROBE_PERIOD_S`` while the
  phase runs and times it in its own CPU time (reference
  ``PROBE_REFERENCE_S``).  CPU time leaves out the waits for a vCPU
  that the phase's own processes hold, and keeps a slower CPU.

The references are the kernels' medians on the 2-vCPU VM the
benchmark's sizes were set on, both taken in the same runs, so scaled
figures read as host seconds on that machine.  Raw host seconds stay in
the report.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from typing import List

#: kernel medians (s) on the reference host: between cell steps, and
#: in the probe thread's CPU time
REFERENCE_S = 2.0e-4
PROBE_REFERENCE_S = 2.4e-4
PROBE_PERIOD_S = 0.02
#: simulated cycles per step of a stepped cell
STEP_CYCLES = 50
#: host s of simulation between two kernel runs
PERIOD_S = 0.005


class _Line:
    __slots__ = ("tag", "state", "lru")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.state = 1
        self.lru = 0


_rng = random.Random(20111)
_TABLE = {i: _Line(i) for i in range(256)}
_ADDRS = [_rng.randrange(256) for _ in range(2000)]


def kernel(clock=time.perf_counter) -> float:
    """Run the kernel once; its seconds on ``clock``."""
    table = _TABLE
    start = clock()
    acc = 0
    for addr in _ADDRS:
        line = table[addr]
        line.lru += 1
        acc += line.state
        if line.lru & 3 == 0:
            line.state ^= 1
    return clock() - start


def factor(samples: List[float]) -> float:
    """Scale for host seconds measured while the ``Stepper`` samples
    ``samples`` were taken."""
    return REFERENCE_S / statistics.median(samples)


class Stepper:
    """Steps a built chip's simulator and times the kernel between steps.

    ``install`` swaps the chip's ``Simulator`` for a subclass whose
    ``run(until)`` advances ``STEP_CYCLES`` at a time (the simulated
    results are unchanged; the pinned digests check it).  ``raw_s`` is
    the host time of the simulation, without the kernel runs;
    ``scaled_s`` is the same time scaled stretch by stretch.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._last = 0.0

    def install(self, chip) -> None:
        sim = chip.sim
        base = type(sim)
        stepper = self
        clock = time.perf_counter

        class SteppedSimulator(base):
            __slots__ = ()

            def run(self, until=None):
                if until is None:
                    return base.run(self, until)
                now = self.now
                while now < until:
                    now = min(until, now + STEP_CYCLES)
                    base.run(self, until=now)
                    if clock() - stepper._last >= PERIOD_S:
                        stepper._sample()
                return self.now

        self._base = base
        self._sim = sim
        sim.__class__ = SteppedSimulator

    def uninstall(self) -> None:
        self._sim.__class__ = self._base

    def start(self) -> None:
        self._last = time.perf_counter()

    def _sample(self) -> None:
        stretch = time.perf_counter() - self._last
        k = kernel()
        self.samples.append(k)
        self.raw_s += stretch
        self.scaled_s += stretch * REFERENCE_S / k
        self._last = time.perf_counter()

    def finish(self) -> None:
        """Close the last stretch (scaled by one more kernel run)."""
        self._sample()


class Probe:
    """Samples the kernel on a thread while a phase that spans processes
    runs; ``factor`` turns the phase's host seconds into scaled ones."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(kernel(time.thread_time))

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(kernel(time.thread_time))

    @property
    def factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.samples)
