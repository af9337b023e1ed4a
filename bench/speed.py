"""Machine-speed calibration for the benchmark's timings.

On the host the baseline was measured on (2 vCPUs, Intel Xeon, CPython
3.11.7) the CPU changes speed by up to 2x within a minute (other tenants
share it; the process is not descheduled, the same instructions simply
run slower; CPU time and wall time move together).  Measured there: one fixed theta_bridge task timed back to back
for 50 s had an interquartile range of 52% of its median, so no raw
timing can hold a 25% bound from one run to the next.

A fixed pure-Python probe (Fraction arithmetic, dict updates, complex
products: the operations the library spends its time in) is timed right
before every task.  Its time tracks the host's speed: over the same 50 s
the task/probe ratio varied by 12.5% per sample, and its medians over ten
samples by about 5%.  Every reported time is therefore scaled to a
reference speed, at which the probe takes REFERENCE_PROBE_S:

    reported = measured * REFERENCE_PROBE_S / (median of the probes
               taken around the measurement)

The run also prints the raw times and the median probe time, so the
scaling can be undone.  The probe does not touch torushms, so no change
to the library can move it.

cli_session times whole processes, whose start-up (exec, loading,
unmarshalling) does not slow down in step with the Python loop: over
70 s the ten-task medians of its CLI latencies varied by about 10% raw,
by about 20% scaled with the loop probe, and by about 5% scaled with the
time of a bare `python -c pass`.  Its tasks use that `Probe.process`
instead, with its own reference time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.010          # the loop probe's time at the reference speed
REFERENCE_PROCESS_PROBE_S = 0.050  # `python -c pass` at the reference speed
WINDOW = 2                         # probes on each side that set a task's local speed

perf_counter = time.perf_counter


class Probe:
    """A probe function and its time at the reference speed."""

    def __init__(self, measure, reference_s):
        self.measure = measure
        self.reference_s = reference_s

    @classmethod
    def loop(cls):
        return cls(probe, REFERENCE_PROBE_S)

    @classmethod
    def process(cls, cwd, env):
        def measure():
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env,
                           check=True, capture_output=True, timeout=120)
            return perf_counter() - start
        return cls(measure, REFERENCE_PROCESS_PROBE_S)

    def scale_each(self, times, probes):
        """Scale times[i] by the median of probes[i - WINDOW .. i + WINDOW]."""
        out = []
        for i, t in enumerate(times):
            local = statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 1])
            out.append(t * self.reference_s / local)
        return out


def probe() -> float:
    """Time one fixed slice of pure-Python work, in seconds."""
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    z = 1 + 1j
    for k in range(1, 1500):
        f = Fraction(k, k % 7 + 1) * Fraction(3, k % 5 + 2)
        acc += f
        table[f] = table.get(f, 0) + z
        z = z * (0.999 + 0.001j)
    return perf_counter() - start
