"""Set-up probe: run in a fresh interpreter, print ``ready <KiB>`` once
the program can decide.

Usage: ``python3 probe.py <src-dir>``.  The parent times the interval
from starting this interpreter to reading ``ready``: interpreter start,
``import repro``, the scheme registry, the kernel capability probe and
plan resolution.  ``<KiB>`` is this interpreter's peak resident memory
(``VmHWM``, which starts afresh at exec; the kernel's figure for a
reaped child also counts the parent's pages the child shared before
exec).
"""

import sys

sys.path.insert(0, sys.argv[1])

from repro.core.registry import all_lcps  # noqa: E402
from repro.engine import ExecutionPlan, decide_hiding  # noqa: E402, F401
from repro.kernel import kernel_available  # noqa: E402

all_lcps()
kernel_available()
ExecutionPlan(workers=1, disk_cache=True).resolve()
with open("/proc/self/status", encoding="ascii") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
sys.stdout.write(f"ready {peak}\n")
sys.stdout.flush()
