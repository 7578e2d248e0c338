"""Host-speed reference: a fixed piece of pure-Python work, timed right
before and right after every timed region, so timings can be reported
in reference seconds.

Why.  The host this benchmark was built on (2 KVM vCPUs shared with
other tenants) runs the same code at speeds that differ by up to 2x, in
phases lasting seconds to minutes; CPU time tracks wall time, so the
slowdown is in execution speed, not in scheduling.  The phases are per
CPU (reference samples taken on the two CPUs at the same time
correlated at 0.11), so the reference runs on the CPU it measures,
between timed regions, never concurrently with them.  Over five
minutes the raw cold rate of ``campaign-n5`` fell by a third as the host
got busier; no number of samples in a 40-second run averages that out.

How.  The reference work — tuple keys into a dict, tuple concatenation,
a sort — is interpreter-bound like the program, and never imports the
program, so a change to the program cannot move it.  ``factor`` is how
much slower than ``NOMINAL_S`` the reference ran around a timed region.
The program does not slow down one for one with it: regressing the
logarithm of each decision's time on the logarithm of its factor over
30 passes of ``schemes-n6`` gave slopes from 0.44 (``shatter``: large
working sets, numpy kernels) to 0.97 (small disk reads), most near 0.5.
So a duration ``t`` is reported as ``t / factor ** sensitivity``: on a
host running the reference in ``NOMINAL_S``, reference seconds are
seconds.  In simulated three-pass runs of those 30 passes a sensitivity
of 0.5 gave the smallest spread between runs (interquartile range over
median: 0.089 for cold and 0.047 for read rates, against 0.153 and
0.070 unscaled and 0.130 and 0.147 fully scaled), and 0.5 is the
default.  Workloads whose time is more interpreter-bound set their own
(``Workload.cold_sensitivity`` / ``read_sensitivity``): the ~1 ms reads
of ``even-cycle-n8`` follow the reference one for one (their ratio to
it stayed within 0.086-0.104 while both moved 2x, and ten-run spreads
of their rate were 0.03 scaled at 1 against 0.05-0.18 at 0.5), and the
many small decisions of ``campaign-n5`` follow it at about 0.75 (the
slope of its ten run medians, scaled at 0.5, on each run's median host
factor was -0.26 for cold and -0.28 for read rates).  Raw figures are
printed beside every scaled one.
"""

from __future__ import annotations

import os
import statistics
import time

#: Reference time per run on the build host in its fast phases.
NOMINAL_S = 0.008

#: Default share of the reference's slowdown that a timed region follows.
SENSITIVITY = 0.5

#: Timed runs per sample; the sample is their median.
RUNS = 5


def reference_work() -> int:
    table: dict = {}
    for i in range(20_000):
        key = (i * 7919 % 1000, i & 15, "x")
        table[key] = table.get(key, ()) + (i,)
    return len(sorted(table.items()))


def sample() -> float:
    """Median seconds of ``RUNS`` reference runs."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """How much slower than nominal the reference ran around a region."""
    return (before + after) / (2.0 * NOMINAL_S)


def scale(
    seconds: float, before: float, after: float, sensitivity: float = SENSITIVITY
) -> float:
    """*seconds* measured between two samples, in reference seconds, for
    a region whose time follows the reference's slowdown to the power
    *sensitivity*."""
    return seconds / factor(before, after) ** sensitivity


def pin() -> int:
    """Pin this process (and the processes it starts) to one CPU, so a
    timed region and the samples bracketing it run on the same CPU;
    returns the CPU.  The timed workloads are serial by design."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
