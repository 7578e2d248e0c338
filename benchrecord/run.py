"""The benchmark of record.

Usage (from the root of a checkout)::

    python3 benchrecord/run.py --workload schemes-n6 --seed 1 --seconds 40 --trace 0

Workloads: ``schemes-n6``, ``even-cycle-n8``, ``campaign-n5`` (see
``workloads.py`` and ``README.md``).  With ``--trace 0`` the run times
cold and read passes for ``--seconds`` seconds and reports the
end-to-end metrics; with ``--trace 1`` it replays every decision layer
by layer (``replay.py``) and reports the per-layer metrics.  Every
timed decision goes through the correctness gate (``gate.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from the checkout's ``src/``; its
disk tier and run reports go to a private directory under the checkout
that is removed on exit.  Without ``src/repro`` the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_ROOT = ROOT / ".benchrecord_state"
WORKLOAD_NAMES = ("schemes-n6", "even-cycle-n8", "campaign-n5")

#: Set-up probes per run, spread over the whole run (an odd count, so
#: the median is one probe).
PROBES = 11

#: End-to-end metrics and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "cached_cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
}

#: Percentile levels for the printed tail detail.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate(state: Path) -> None:
    """Point every on-disk tier at *state* and import ``repro`` from the
    checkout's ``src/`` (never from anywhere else)."""
    os.environ["REPRO_CACHE_DIR"] = str(state / "cache")
    os.environ["REPRO_RUNS_DIR"] = str(state / "runs")
    os.environ["REPRO_NO_PROGRESS"] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no program under {SRC}; nothing to measure\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro  # noqa: PLC0415

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.stderr.write(f"benchmark: repro imported from {origin}, not {SRC}\n")
        raise SystemExit(2)


def host_record() -> dict:
    from repro.kernel import kernel_available, numpy_version  # noqa: PLC0415

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "kernel_available": kernel_available(),
        "REPRO_FORCE_WORKERS": os.environ.get("REPRO_FORCE_WORKERS"),
        "REPRO_DISABLE_NUMPY": os.environ.get("REPRO_DISABLE_NUMPY"),
    }


def setup_probe() -> tuple[float, list[float], float]:
    """Seconds from starting a fresh interpreter until it is ready to
    decide, the host-speed samples bracketing it, and the child's peak
    resident memory in MB; the child is always waited for."""
    before = hostspeed.sample()
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(SRC)],
        stdout=subprocess.PIPE,
        cwd=str(ROOT),
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait()
    word, _, peak_kib = line.partition(" ")
    if word != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed, [before, hostspeed.sample()], int(peak_kib) / 1024.0


def peak_rss_mb(children_mb: float) -> float:
    """Peak resident memory of this process (Linux reports KiB) plus the
    largest peak its probes reported."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + children_mb


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile with
    at least ten samples beyond it (when there is one)."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out["q1"], out["q3"] = q1, q3
    for level in TAIL_LEVELS:
        beyond = len(ordered) * (1.0 - level / 100.0)
        if beyond >= 10:
            index = min(len(ordered) - 1, int(len(ordered) * level / 100.0))
            out[f"p{level:g}"] = ordered[index]
            break
    return out


class Probes:
    """Set-up probes interleaved across the run: after each pass, probe
    until the probe count keeps pace with the elapsed share of the run."""

    def __init__(self, start: float, seconds: float, host: list[float]) -> None:
        self.start = start
        self.seconds = seconds
        self.host = host
        self.raw: list[float] = []
        self.samples: list[float] = []
        # Untimed: compiles bytecode, warms the file cache.
        self.peak_mb = setup_probe()[2]

    def probe(self) -> None:
        seconds, bracket, peak_mb = setup_probe()
        self.peak_mb = max(self.peak_mb, peak_mb)
        self.host.extend(bracket)
        self.raw.append(seconds)
        self.samples.append(hostspeed.scale(seconds, *bracket))

    def catch_up(self) -> None:
        share = min(1.0, (time.perf_counter() - self.start) / self.seconds)
        while len(self.samples) < int(PROBES * share):
            self.probe()

    def top_up(self) -> None:
        while len(self.samples) < PROBES:
            self.probe()


def measure(workload, pins: dict, seconds: float, cache_dir: Path) -> dict:
    """Cold and read passes until the time is up (at least one of each),
    with set-up probes between them.  Timings are in reference seconds
    (``hostspeed``); the raw figures are printed as details."""
    import workloads  # noqa: PLC0415

    start = time.perf_counter()
    deadline = start + seconds
    host: list[float] = []
    probes = Probes(start, seconds, host)
    cold_rates: list[float] = []
    raw_cold_rates: list[float] = []
    read_rates: list[float] = []
    raw_read_rates: list[float] = []
    read_latencies: list[float] = []
    rss = None
    attempted = failed = 0
    failures: list[str] = []
    cost_cold = cost_read = 0.0
    cycle = 0
    while True:
        left = deadline - time.perf_counter()
        if cycle == 0 or left >= cost_cold + cost_read:
            workloads.reset_disk(cache_dir)
            began = time.perf_counter()
            cold = workloads.run_pass(workload, pins, read=False)
            cost_cold = time.perf_counter() - began
            cold_rates.append(cold.cells / cold.reference_seconds)
            raw_cold_rates.append(cold.cells / cold.seconds)
            host.extend(cold.host_samples)
            attempted += cold.cells
            failed += cold.failed_cells
            failures += cold.failures
            probes.catch_up()
            reads = workload.reads_per_cold
            cycle += 1
        elif left >= cost_read:
            reads = 1  # no room for another cold pass: read the last one again
        else:
            break
        for index in range(reads):
            if index and deadline - time.perf_counter() < cost_read:
                break
            began = time.perf_counter()
            read = workloads.run_pass(
                workload,
                pins,
                read=True,
                cold_digests=cold.digests,
                repeats=workload.read_repeats,
            )
            cost_read = time.perf_counter() - began
            read_rates.append(read.cells / read.reference_seconds)
            raw_read_rates.append(read.cells / read.seconds)
            host.extend(read.host_samples)
            read_latencies.extend(read.latencies)
            attempted += read.cells
            failed += read.failed_cells
            failures += read.failures
            probes.catch_up()
        if rss is None:
            # After the first cycle, so the figure does not depend on how
            # many passes fit in the run (freed memory stays fragmented).
            rss = peak_rss_mb(probes.peak_mb)
    probes.top_up()
    return {
        "metrics": {
            "setup_s": statistics.median(probes.samples),
            "cells_per_s": statistics.median(cold_rates),
            "cached_cells_per_s": statistics.median(read_rates),
            "peak_rss_mb": rss,
        },
        "details": {
            "setup_s": summarize(probes.samples),
            "cells_per_s": summarize(cold_rates),
            "cached_cells_per_s": summarize(read_rates),
            "raw_setup_s": summarize(probes.raw),
            "raw_cells_per_s": summarize(raw_cold_rates),
            "raw_cached_cells_per_s": summarize(raw_read_rates),
            "raw_read_latency_s": summarize(read_latencies),
            "host_factor": summarize([t / hostspeed.NOMINAL_S for t in host]),
            "cycles": cycle,
            "wall_s": time.perf_counter() - start,
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    state = STATE_ROOT / f"run-{os.getpid()}"
    try:
        isolate(state)
        import gate  # noqa: PLC0415
        import workloads  # noqa: PLC0415

        workload = workloads.workloads(args.seed)[args.workload]
        pins = gate.load_pins()[workload.name]
        print("host: " + json.dumps(host_record(), sort_keys=True))
        print(f"workload: {workload.name} ({workload.cell_count()} cells) — {workload.why}")
        if args.trace:
            import replay  # noqa: PLC0415

            outcome = replay.trace(workload, pins, state)
            units = replay.PER_LAYER_UNITS
        else:
            print(f"pinned to CPU {hostspeed.pin()}")
            outcome = measure(workload, pins, args.seconds, state / "cache")
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            STATE_ROOT.rmdir()
        except OSError:
            pass
    for name, detail in outcome["details"].items():
        print(f"detail: {name} {json.dumps(detail, sort_keys=True)}")
    for problem in outcome["failures"][:20]:
        print(f"FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
