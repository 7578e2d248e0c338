"""The three workloads and their cold and read passes.

A *cell* is one decision: one (scheme, n) in the decision workloads,
one campaign cell in ``campaign-n5``.  Every pass runs one process and
one client in a closed loop: the next decision starts when the previous
one returns.  All plans are serial (``workers=1``, set explicitly) and
take the engine's default route: ``auto`` with streaming, which is the
vectorized backend when numpy imports.

* A **cold pass** clears every in-process cache and warm state, starts
  from an empty disk tier, and writes it.
* A **read pass** makes the same decisions with the in-process tiers
  cleared again, so the disk tier the cold pass wrote answers them.

The ``--seed`` only permutes the scheme order; ``n`` stays ascending
within a sweep family so warm starts still apply.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign import CampaignSpec, run_campaign
from repro.core.registry import make_lcp, scheme_names
from repro.engine import ExecutionPlan, RunContext, clear_engine_state, decide_hiding
from repro.graphs.encoding import clear_canonical_cache
from repro.graphs.families import clear_family_cache
from repro.kernel import clear_kernel_tables, kernel_available
from repro.perf import CONFIG, GLOBAL_STATS, clear_shared_caches
from repro.symmetry import clear_automorphism_cache, clear_orderly_cache

import gate
import hostspeed

#: Full sweeps: every per-instance layer does its work, and verdicts
#: cover the whole of V(D, n).
FULL_SWEEP = ExecutionPlan(workers=1, early_exit=False, disk_cache=True)

#: The campaign's base plan: default early exit and warm start.
CAMPAIGN_PLAN = ExecutionPlan(workers=1, disk_cache=True)


@dataclass(frozen=True)
class Decision:
    """One cell of a decision workload."""

    scheme: str
    n: int

    def label(self) -> str:
        return f"{self.scheme} n={self.n}"


@dataclass
class Workload:
    name: str
    why: str
    #: Decision workloads: the (scheme, n) cells in order.
    decisions: tuple[Decision, ...] = ()
    #: Campaign workload: the spec ``run_campaign`` executes.
    campaign: CampaignSpec | None = None
    #: Read passes after each cold pass.
    reads_per_cold: int = 1
    #: Reads of each decision per read pass (decision workloads).
    read_repeats: int = 1
    #: How far its cold and read times follow the host's speed phases
    #: (see ``hostspeed``).
    cold_sensitivity: float = hostspeed.SENSITIVITY
    read_sensitivity: float = hostspeed.SENSITIVITY

    def sensitivity(self, read: bool) -> float:
        return self.read_sensitivity if read else self.cold_sensitivity

    @property
    def plan(self) -> ExecutionPlan:
        return self.campaign.plan if self.campaign is not None else FULL_SWEEP

    def cell_count(self) -> int:
        if self.campaign is not None:
            return len(list(self.campaign.cells()))
        return len(self.decisions)


def workloads(seed: int) -> dict[str, Workload]:
    order = scheme_names()
    random.Random(seed).shuffle(order)
    return {
        "schemes-n6": Workload(
            name="schemes-n6",
            why="every registry scheme as a full sweep at n=6: views, kernel, "
            "V(D,n) insertion and the disk tier do most of the work",
            decisions=tuple(Decision(s, 6) for s in order),
        ),
        "even-cycle-n8": Workload(
            name="even-cycle-n8",
            why="one full even-cycle sweep at n=8: generation and the "
            "yes-instance filter dominate, views and disk are nearly idle",
            decisions=(Decision("even-cycle", 8),),
            # A read takes ~1 ms; many samples per cycle keep it steady.
            reads_per_cold=4,
            read_repeats=50,
            read_sensitivity=1.0,
        ),
        "campaign-n5": Workload(
            name="campaign-n5",
            why="run_campaign over 7 schemes x n 3..5 x k {2,3}: many small "
            "decisions, early exit, warm start, off-native k, small disk entries",
            campaign=CampaignSpec(
                schemes=tuple(order),
                n_values=(3, 4, 5),
                k_values=(2, 3),
                plan=CAMPAIGN_PLAN,
            ),
            reads_per_cold=3,
            cold_sensitivity=0.75,
            read_sensitivity=0.75,
        ),
    }


def expected_backend() -> str:
    return "vectorized" if kernel_available() else "streaming"


def clear_in_process() -> None:
    """Drop every in-process cache and warm state."""
    clear_shared_caches()
    clear_family_cache()
    clear_canonical_cache()
    clear_automorphism_cache()
    clear_orderly_cache()
    clear_kernel_tables()
    clear_engine_state()
    GLOBAL_STATS.reset()


def reset_disk(cache_dir: Path) -> None:
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)


@dataclass
class PassResult:
    """One timed pass: its decision time and the gate's outcome."""

    seconds: float
    cells: int
    #: Per-cell decision seconds (decision workloads) or the pass time.
    latencies: list[float] = field(default_factory=list)
    #: label -> digest, for the read passes' comparison.
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    #: Verdicts of the pass, kept only when asked for (traced run).
    verdicts: dict = field(default_factory=dict)
    failed_cells: int = 0
    #: The pass time in reference seconds (see ``hostspeed``).
    reference_seconds: float = 0.0
    #: The host-speed samples bracketing the timed decisions.
    host_samples: list[float] = field(default_factory=list)


def _decide_one(decision: Decision, plan: ExecutionPlan, ctx: RunContext):
    lcp = make_lcp(decision.scheme)
    start = time.perf_counter()
    verdict = decide_hiding(lcp, decision.n, plan, ctx=ctx)
    return verdict, time.perf_counter() - start


def run_pass(
    workload: Workload,
    pins: dict,
    *,
    read: bool,
    cold_digests: dict[str, str] | None = None,
    keep_verdicts: bool = False,
    ctx: RunContext | None = None,
    repeats: int = 1,
) -> PassResult:
    """One cold or read pass of *workload*, gated outside the timing.

    The caller prepares the disk tier (empty for a cold pass, written
    for a read pass); in-process state is cleared here, and between
    *repeats* of a decision workload's read pass.
    """
    clear_in_process()
    gc.collect()
    ctx = ctx if ctx is not None else RunContext.isolated()
    with CONFIG.overridden(streaming=True):
        if workload.campaign is not None:
            return _campaign_pass(workload, pins, ctx, read, cold_digests, keep_verdicts)
        return _decision_pass(
            workload, pins, ctx, read, cold_digests, keep_verdicts, repeats
        )


def _decision_pass(workload, pins, ctx, read, cold_digests, keep, repeats) -> PassResult:
    """Each decision is bracketed by host samples (consecutive decisions
    share one), except that the short repeats of a batched read pass
    share a single bracket."""
    timed = []
    latencies = []
    samples = [hostspeed.sample()]
    reference = 0.0
    for repeat in range(repeats):
        if repeat:
            clear_in_process()
            ctx = RunContext.isolated()
        for decision in workload.decisions:
            try:
                verdict, seconds = _decide_one(decision, workload.plan, ctx)
            except Exception as exc:  # noqa: BLE001 — a failed decision is counted
                timed.append((decision, None, f"{type(exc).__name__}: {exc}"))
                continue
            latencies.append(seconds)
            timed.append((decision, verdict, None))
            if repeats == 1:
                samples.append(hostspeed.sample())
                reference += hostspeed.scale(
                    seconds, samples[-2], samples[-1], workload.sensitivity(read)
                )
    if repeats > 1:
        samples.append(hostspeed.sample())
        reference = hostspeed.scale(
            sum(latencies), samples[0], samples[-1], workload.sensitivity(read)
        )
    result = PassResult(
        seconds=sum(latencies),
        cells=repeats * len(workload.decisions),
        latencies=latencies,
        reference_seconds=reference,
        host_samples=samples,
    )
    backend = expected_backend()
    for decision, verdict, error in timed:
        label = decision.label()
        if verdict is None:
            problems = [f"{label}: raised {error}"]
        else:
            fingerprint = gate.digest(verdict)
            result.digests[label] = fingerprint
            problems = gate_verdict(
                label, verdict, fingerprint, pins, backend, read, cold_digests
            )
            if keep:
                result.verdicts[label] = verdict
        if problems:
            result.failed_cells += 1
            result.failures.extend(problems)
    return result


def gate_verdict(label, verdict, fingerprint, pins, backend, read, cold_digests) -> list[str]:
    problems = gate.check_pin(label, fingerprint, verdict.hiding, pins)
    problems += gate.check_certificate(label, verdict)
    problems += gate.check_route(label, verdict.provenance, backend, read)
    if read and cold_digests is not None and cold_digests.get(label) != fingerprint:
        problems.append(f"{label}: read-pass fingerprint differs from the cold pass")
    return problems


def _campaign_pass(workload, pins, ctx, read, cold_digests, keep) -> PassResult:
    before = hostspeed.sample()
    start = time.perf_counter()
    run = run_campaign(workload.campaign, ctx=ctx)
    seconds = time.perf_counter() - start
    after = hostspeed.sample()
    result = PassResult(
        seconds=seconds,
        cells=len(run.results),
        latencies=[seconds],
        reference_seconds=hostspeed.scale(
            seconds, before, after, workload.sensitivity(read)
        ),
        host_samples=[before, after],
    )
    backend = expected_backend()
    for cell_result in run.results:
        cell = cell_result.cell
        label = cell.label()
        if not cell_result.ok:
            result.failed_cells += 1
            result.failures.append(f"{label}: {cell_result.error}")
            continue
        result.digests[label] = cell_result.fingerprint
        # The cell's verdict, from the memory tier run_campaign filled:
        # the same object, so its certificate can be checked here.
        hits_before = _memo_hits(ctx)
        verdict = decide_hiding(
            make_lcp(cell.scheme), cell.n, cell.plan(run.plan), k=cell.k, r=cell.r, ctx=ctx
        )
        problems = []
        if _memo_hits(ctx) != hits_before + 1:
            problems.append(f"{label}: verdict not recoverable from the memory tier")
        problems += gate_verdict(
            label, verdict, cell_result.fingerprint, pins, backend, read, cold_digests
        )
        if keep:
            result.verdicts[label] = verdict
        if problems:
            result.failed_cells += 1
            result.failures.extend(problems)
    return result


def _memo_hits(ctx: RunContext) -> int:
    return sum(
        value for name, value in ctx.stats.counters.items() if name.endswith("_memo_hits")
    )
