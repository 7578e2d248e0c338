"""Record ``pins.json``: the decision-fingerprint digest and hiding flag
of every cell of every workload, from one cold pass each.

Usage: ``python3 benchrecord/make_pins.py``.  Run it only on a tree
whose verdicts are known good (the repository's tier-1 tests pin the
same fingerprints), and review the diff of ``pins.json`` by hand.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    state = run.STATE_ROOT / f"pins-{os.getpid()}"
    try:
        run.isolate(state)
        import workloads  # noqa: PLC0415

        pins = {}
        for name, workload in workloads.workloads(seed=0).items():
            workloads.reset_disk(state / "cache")
            result = workloads.run_pass(workload, {}, read=False, keep_verdicts=True)
            pins[name] = {
                label: {"fingerprint": result.digests[label], "hiding": verdict.hiding}
                for label, verdict in sorted(result.verdicts.items())
            }
            sys.stdout.write(f"{name}: {len(pins[name])} cells pinned\n")
    finally:
        shutil.rmtree(state, ignore_errors=True)
    with open(run.HERE / "pins.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
