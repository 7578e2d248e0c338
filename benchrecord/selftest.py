"""Self-tests of the benchmark.

Usage (from the root of a checkout): ``python3 benchrecord/selftest.py``
(a few minutes: it makes a tiny-window run and a traced run of every
workload).  Exits 0 when every check passes.

* Negative cases: a wrong pin, a tampered witness walk, an improper
  colouring and a replay mismatch must each count as a failure.
* Tiny-window runs of every workload, untraced and traced: the last
  line is the result object, its metric names and units are exactly
  those of ``BENCHMARK.json``, and nothing failed.
* A directory holding only ``BENCHMARK.json`` and the benchmark's own
  files makes the benchmark exit non-zero without a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
    sys.stdout.write(("ok    " if condition else "FAIL  ") + message + "\n")


def negative_cases(state) -> None:
    run.isolate(state)
    import gate  # noqa: PLC0415
    import replay  # noqa: PLC0415
    import workloads  # noqa: PLC0415

    workload = workloads.workloads(seed=0)["campaign-n5"]
    spec = dataclasses.replace(
        workload.campaign, schemes=("degree-one", "revealing"), n_values=(3, 4)
    )
    small = dataclasses.replace(workload, campaign=spec)
    pins = gate.load_pins()["campaign-n5"]
    workloads.reset_disk(state / "cache")
    good = workloads.run_pass(small, pins, read=False, keep_verdicts=True)
    check(good.failed_cells == 0 and good.cells == 8, "a correct pass has no failures")

    wrong = {
        label: dict(pin, fingerprint="0" * 32) for label, pin in pins.items()
    }
    workloads.reset_disk(state / "cache")
    bad = workloads.run_pass(small, wrong, read=False)
    check(bad.failed_cells == bad.cells, "a wrong pin fails every cell")

    backend = workloads.expected_backend()
    # The longest k=2 witness walk (a one-view walk is a loop).
    hiding = max(
        (v for v in good.verdicts.values() if v.hiding and v.k == 2),
        key=lambda v: len(v.witness),
    )
    label = next(k for k, v in good.verdicts.items() if v is hiding)
    digest = good.digests[label]
    check(
        not workloads.gate_verdict(label, hiding, digest, pins, backend, False, None),
        "an untampered witness walk passes",
    )
    walk = hiding.witness
    index, edges = hiding.ngraph.index, hiding.ngraph.edges
    stranger = next(
        view
        for view in hiding.ngraph.views
        if (index[walk[1]], index[view]) not in edges
        and (index[view], index[walk[1]]) not in edges
    )
    for name, tampered in (
        ("dropped step", walk[:-2] + walk[-1:]),
        ("even length", walk[:2] + walk[:1]),
        ("non-edge step", walk[:2] + (stranger,) + walk[:1]),
        ("missing walk", None),
    ):
        verdict = dataclasses.replace(hiding, witness=tampered)
        problems = workloads.gate_verdict(label, verdict, digest, pins, backend, False, None)
        check(bool(problems), f"a tampered witness walk ({name}) fails")

    colourable = next(
        v for v in good.verdicts.values() if v.hiding is False and v.ngraph.edges
    )
    label = next(k for k, v in good.verdicts.items() if v is colourable)
    a, b = next(iter(colourable.ngraph.edges))
    improper = dict(colourable.coloring)
    improper[b] = improper[a]
    verdict = dataclasses.replace(colourable, coloring=improper)
    check(
        bool(gate.check_certificate(label, verdict)), "an improper colouring fails"
    )

    replayed = hiding.legacy
    expected = replay.verdict_content(hiding)
    check(
        not replay.compare("cell", expected, hiding.k, hiding.ngraph, replayed),
        "an identical replay matches",
    )
    shorter = dataclasses.replace(
        hiding.ngraph, views=hiding.ngraph.views[:-1], edges=set(hiding.ngraph.edges)
    )
    check(
        bool(replay.compare("cell", expected, hiding.k, shorter, replayed)),
        "a replay with a missing view is a mismatch",
    )
    flipped = dataclasses.replace(replayed, hiding=not replayed.hiding)
    check(
        bool(replay.compare("cell", expected, hiding.k, hiding.ngraph, flipped)),
        "a replay with the other verdict is a mismatch",
    )


def benchmark_file() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def tiny_runs(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=str(run.ROOT), timeout=180,
            )
            check(done.returncode == 0, f"{what} exits 0")
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                check(False, f"{what} ends with a result object")
                continue
            check(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{what} result has exactly the four keys",
            )
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace], f"{what} metric names and units match")
            check(
                result["failed"] == 0 and result["correct"] and result["attempted"] >= 1,
                f"{what} has failed=0 (attempted {result['attempted']})",
            )


def bare_directory(state) -> None:
    bare = state / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    command = benchmark_file()["command"]
    done = subprocess.run(
        [sys.executable if c == "python3" else c for c in command]
        + ["--workload", "even-cycle-n8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(bare), timeout=180,
    )
    check(
        done.returncode != 0 and '"correct"' not in done.stdout,
        "without the program the benchmark exits non-zero and prints no result",
    )


def main() -> int:
    state = run.STATE_ROOT / f"selftest-{os.getpid()}"
    try:
        negative_cases(state)
        bare_directory(state)
        tiny_runs(benchmark_file())
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            run.STATE_ROOT.rmdir()
        except OSError:
            pass
    sys.stdout.write(f"{len(FAILURES)} failed\n")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
