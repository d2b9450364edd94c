"""Op timing with an interleaved calibration reference.

The host this benchmark was built on is shared.  Load from its other
tenants makes identical work run up to 2.5 times slower, in phases from
milliseconds to minutes, and CPU time inflates as much as wall time.  A
best or a median over a run follows that load.

So a `Meter` runs a short reference unit, which calls no janbessel code,
between ops: after the first op that completes `every_ns` of op time since
the last unit.  An op's calibrated time is its measured time scaled by the
unit's nominal time over the median of the units nearest it in the batch.
On a host where the unit takes its nominal time, calibrated and measured
times agree.  Units run in the same process, right beside the ops, so
they see the load the ops see.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# The in-process unit has the in-process workloads' instruction mix:
# complex arithmetic in the interpreter and numpy ops on a 640-point array.
# Its nominal time is a fixed scale: calibrated times read as times on a
# host where the unit takes that long.
UNIT_ZS = 0.9 * np.exp(2j * np.pi * np.arange(640) / 640)
UNIT_NOMINAL_NS = 32_500
# The cli unit starts and stops a bare interpreter, as each cli op does.
INTERPRETER_NOMINAL_NS = 55_000_000
# An op is calibrated by the median of this many units on each side of it.
# Load changes within milliseconds: over 20 dense batches, calibrated walls
# varied by 5.5% with 1 unit a side, 7.8% with 4 and 11% with the batch's
# median unit.
HALF_WINDOW = 1


def _unit_body():
    s = 0j
    z = 0.3 + 0.4j
    for _ in range(20):
        s = s * z + 1.0
        abs(s)
    a = UNIT_ZS.copy()
    for _ in range(3):
        a = a * UNIT_ZS
        np.any(np.abs(a) > 2.0)
        np.maximum(1.0, np.abs(a))


def unit_ns():
    """Time in ns of one in-process unit.

    The unit runs once untimed first, so that its time does not depend on
    what the op before it left in the caches: a unit timed right after a
    dense op took 20-25% longer than one after a sweep cell, which let
    calibrated dense times move with cache effects of the program itself.

    A unit during which another thread of this process was busy (a BLAS or
    pool thread the program left running) reads inf: that load comes from
    the program, and calibrating it away would hide it.
    """
    _unit_body()
    cpu = time.process_time_ns()
    start = time.perf_counter_ns()
    _unit_body()
    wall = time.perf_counter_ns() - start
    return wall if time.process_time_ns() - cpu <= 1.2 * wall else math.inf


def interpreter_ns(cwd):
    """Time in ns to start and stop a bare interpreter, inf for a failed start."""
    start = time.perf_counter_ns()
    try:
        done = subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=os.environ,
                              capture_output=True, timeout=60)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return math.inf
    end = time.perf_counter_ns()
    return end - start if done.returncode == 0 else math.inf


class Meter:
    """Op times of one batch, with reference units between ops."""

    def __init__(self, unit, nominal_ns, every_ns):
        self.unit = unit
        self.nominal_ns = nominal_ns
        self.every_ns = every_ns
        self.ops = []   # measured op times, ns
        self.after = []  # per op: the index of the first unit run after it
        self.units = []  # unit times, ns
        self.unit_wall_ns = 0  # wall time spent in units, inf ones included
        self._since = 0

    def record(self, ns):
        """Record one op's time, then run a unit if one is due."""
        self.ops.append(ns)
        self.after.append(len(self.units))
        self._since += ns
        if self._since >= self.every_ns:
            start = time.perf_counter_ns()
            self.units.append(self.unit())
            self.unit_wall_ns += time.perf_counter_ns() - start
            self._since = 0

    def mark(self):
        return len(self.ops), self.unit_wall_ns

    def recorded_since(self, mark):
        return len(self.ops) - mark[0]

    def spread(self, mark, count, elapsed_ns):
        """Replace the ops recorded since `mark` by `count` equal shares of
        `elapsed_ns`, less the units run meanwhile, for a call whose ops could
        not be timed one by one.
        """
        first, unit_wall_ns = mark
        del self.ops[first:], self.after[first:]
        share = (elapsed_ns - (self.unit_wall_ns - unit_wall_ns)) / count
        for _ in range(count):
            self.ops.append(share)
            self.after.append(len(self.units))

    def local_ns(self):
        """Per op, the median of the 2 * HALF_WINDOW units nearest it, half
        of them run before it and half after.

        Without a finite median (no units, or the program kept another
        thread busy through them) the op is left uncalibrated.
        """
        n = len(self.units)
        local = []
        for j in self.after:
            j = min(j, n - 1)
            window = self.units[max(0, j - HALF_WINDOW):j + HALF_WINDOW] if n else []
            m = statistics.median(window) if window else math.inf
            local.append(m if math.isfinite(m) else self.nominal_ns)
        return local

    def calibrated(self):
        """Per op, its measured time at the unit's nominal speed, in ns."""
        return [op * self.nominal_ns / ref for op, ref in zip(self.ops, self.local_ns())]
