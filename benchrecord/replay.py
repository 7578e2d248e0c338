"""The traced run: per-layer numbers from an outside-in replay.

Nothing under ``src/`` is instrumented.  Instead every decision of the
workload is replayed stage by stage through each layer's public
functions, with the benchmark timing the calls it makes into each
layer:

==========================  ==============================================
layer                       replayed through
==========================  ==============================================
generation                  ``repro.graphs.families.all_graphs_exactly``
                            (orderly generation, ``repro.symmetry`` and
                            ``repro.kernel.generate``)
yes-instance filter         ``LCP.is_yes_instance`` (``repro.certification``)
labeled instances           ``repro.neighborhood.aviews.labeled_yes_instances``
                            (orbit pruning, unanimity kernel)
view extraction             ``repro.perf.cache.default_layout_cache``
decoder acceptance          ``repro.perf.cache.memoized_decide``
V(D, n) insertion           ``NeighborhoodGraph.add_view_tracked`` /
                            ``add_edge_tracked``
colouring decision          ``StreamingHidingEngine`` events + ``verdict``
disk tier                   ``repro.engine.DiskVerdictStore``
==========================  ==============================================

The replay mirrors the engine's streaming backend, warm starts and
early exit included, and must reproduce every decision's instances,
views, edges, witness, colouring and verdict; a mismatch counts the
decision as failed.  The same run measures the engine, campaign, pool
and tracing layers with whole passes of the public entry points.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.campaign import CampaignSpec, run_campaign
from repro.certification.lcp import parametrized
from repro.core.registry import make_lcp
from repro.engine import DiskVerdictStore, RunContext, decide_hiding
from repro.engine.backends import disk_key
from repro.graphs.families import all_graphs_exactly, graph_family_predicate
from repro.neighborhood.aviews import labeled_yes_instances, symmetry_pruning_effective
from repro.neighborhood.streaming import StreamingHidingEngine
from repro.perf import CONFIG, PerfStats
from repro.perf.cache import default_layout_cache, memoized_decide
from repro.perf.persist import encode_view
from repro.perf.pool import shared_pool
from repro.symmetry import SymmetryAccount

import gate
import hostspeed
import workloads

#: Per-layer metrics and their units.
PER_LAYER_UNITS = {
    "symmetry.generate_s": "s",
    "symmetry.graphs": "count",
    "certification.filter_s": "s",
    "certification.yes_ratio": "ratio",
    "aviews.enumerate_s": "s",
    "aviews.instances": "count",
    "aviews.base_prune_ratio": "ratio",
    "views.extract_s": "s",
    "views.layout_hit_ratio": "ratio",
    "kernel.labelings": "count",
    "kernel.table_hit_ratio": "ratio",
    "certification.accept_s": "s",
    "certification.memo_hit_ratio": "ratio",
    "ngraph.insert_s": "s",
    "ngraph.views": "count",
    "ngraph.edges": "count",
    "hiding.decide_s": "s",
    "store.write_s": "s",
    "store.read_s": "s",
    "store.bytes": "bytes",
    "store.hit_ratio": "ratio",
    "verdict.fingerprint_s": "s",
    "engine.overhead_s": "s",
    "engine.coverage": "ratio",
    "campaign.overhead_s": "s",
    "campaign.warm_start_ratio": "ratio",
    "campaign.early_exit_ratio": "ratio",
    "pool.sharded_speedup": "x",
    "pool.chunked_speedup": "x",
    "pool.shards": "count",
    "pool.steals": "count",
    "obs.trace_overhead_ratio": "ratio",
}

#: Layer times the replay attributes; their sum over a decision is
#: compared with the untraced decision time (``engine.coverage``).
LAYER_TIMES = (
    "generate",
    "filter",
    "enumerate",
    "extract",
    "accept",
    "insert",
    "decide",
    "store_write",
)

POOL_WORKERS = 2


@dataclass(frozen=True)
class Cell:
    """One decision as ``decide_hiding`` receives it."""

    label: str
    scheme: str
    n: int
    plan: object
    k: int | None = None
    r: int | None = None


def cells_of(workload) -> list[Cell]:
    if workload.campaign is None:
        return [
            Cell(d.label(), d.scheme, d.n, workload.plan) for d in workload.decisions
        ]
    spec = workload.campaign
    return [
        Cell(c.label(), c.scheme, c.n, c.plan(spec.plan), c.k, c.r)
        for c in spec.cells()
    ]


@dataclass
class Layers:
    """Per-layer seconds and counts, summed over decisions."""

    seconds: dict = field(default_factory=lambda: dict.fromkeys(LAYER_TIMES, 0.0))
    graphs: int = 0
    yes_graphs: int = 0
    instances: int = 0
    bases_total: int = 0
    bases_pruned: int = 0
    views: int = 0
    edges: int = 0
    store_read: float = 0.0
    store_bytes: int = 0

    def layer_sum(self) -> float:
        return sum(self.seconds.values())


@dataclass
class _WarmState:
    n: int
    engine: StreamingHidingEngine
    verdict: object


def _replay_decision(lcp, n: int, plan, stats: PerfStats, warm: dict, layers: Layers):
    """Replay one decision of the streaming backend; returns the
    replayed graph and legacy verdict for the caller to compare."""
    seconds = layers.seconds
    family = (lcp.name, lcp.k, lcp.radius) if plan.warm_start and lcp.anonymous else None
    state = warm.get(family) if family is not None else None
    if state is not None and state.n <= n and state.engine.witness_found:
        # The engine's warm-witness shortcut: no sweep.
        return state.engine.ngraph, state.verdict
    if state is not None and state.n <= n:
        engine = state.engine.clone()
        lo = state.n
    else:
        engine = StreamingHidingEngine(
            lcp.k, lcp.radius, not lcp.anonymous, early_exit=plan.early_exit, stats=stats
        )
        lo = 0
    pruned = symmetry_pruning_effective(lcp, plan.symmetry)
    account = SymmetryAccount() if pruned else None
    predicate = graph_family_predicate(plan.graph_family)

    def yes_graphs():
        for size in range(lo + 1, n + 1):
            start = time.perf_counter()
            family_graphs = list(all_graphs_exactly(size, mutable=False))
            seconds["generate"] += time.perf_counter() - start
            layers.graphs += len(family_graphs)
            for graph in family_graphs:
                start = time.perf_counter()
                keep = (predicate is None or predicate(graph)) and lcp.is_yes_instance(graph)
                seconds["filter"] += time.perf_counter() - start
                if keep:
                    layers.yes_graphs += 1
                    yield graph

    instances = labeled_yes_instances(
        lcp,
        yes_graphs(),
        port_limit=plan.port_limit,
        id_order_types=plan.id_order_types,
        id_bound=n,
        include_all_accepted_labelings=plan.include_all_accepted_labelings,
        labeling_limit=plan.labeling_limit,
        symmetry=plan.symmetry if pruned else "off",
        account=account,
        kernel="batch" if plan.backend == "vectorized" else None,
        kernel_labeling_limit=plan.kernel_labeling_limit,
        stats=stats,
        alphabet_limit=plan.alphabet_limit,
    )
    ngraph = engine.ngraph
    decide = memoized_decide(lcp.decoder, stats=stats)
    layouts = default_layout_cache()
    include_ids = not lcp.anonymous
    scanned = 0
    stopped = False
    clock = time.perf_counter
    # build_neighborhood_graph's one-slot edge-list cache: labelings of one base
    # arrive consecutively and share the graph object.
    last_graph = None
    last_edges: list = []
    while not stopped:
        upstream = seconds["generate"] + seconds["filter"]
        t0 = clock()
        instance = next(instances, None)
        t1 = clock()
        seconds["enumerate"] += (t1 - t0) - (seconds["generate"] + seconds["filter"] - upstream)
        if instance is None:
            break
        scanned += 1
        views = layouts.labeled_views(instance, lcp.radius, include_ids, stats=stats)
        t2 = clock()
        seconds["extract"] += t2 - t1
        votes = {v: decide(view) for v, view in views.items()}
        t3 = clock()
        seconds["accept"] += t3 - t2
        consumer = 0.0
        indices = {}
        for v, accepted in votes.items():
            if not accepted:
                continue
            idx, created = ngraph.add_view_tracked(views[v], instance, v)
            indices[v] = idx
            if created:
                c0 = clock()
                engine.on_view(idx, views[v])
                consumer += clock() - c0
                if engine.done:
                    stopped = True
                    break
        if not stopped:
            if instance.graph is not last_graph:
                last_graph = instance.graph
                last_edges = last_graph.edges
            for u, v in last_edges:
                if votes.get(u) and votes.get(v):
                    if ngraph.add_edge_tracked(indices[u], indices[v], instance, (u, v)):
                        c0 = clock()
                        engine.on_edge(indices[u], indices[v])
                        consumer += clock() - c0
                        if engine.done:
                            stopped = True
                            break
        seconds["insert"] += (clock() - t3) - consumer
        seconds["decide"] += consumer
    layers.instances += scanned
    ngraph.instances_scanned += scanned
    if account is not None:
        ngraph.instances_scanned += account.instances_suppressed
        layers.bases_total += account.bases_total
        layers.bases_pruned += account.bases_pruned
    start = clock()
    replayed = engine.verdict(exhaustive=True)
    seconds["decide"] += clock() - start
    if family is not None:
        warm[family] = _WarmState(n, engine, replayed)
    return ngraph, replayed


def content(k: int, hiding, witness, coloring, ngraph, instances: int) -> tuple:
    """A decision's full content: verdict, witness, colouring, every view
    and edge of the graph, and the instance count — as a digest plus the
    counts a mismatch message names."""
    payload = {
        "k": k,
        "hiding": hiding,
        "witness": None if witness is None else [encode_view(v) for v in witness],
        "coloring": None if coloring is None else sorted(coloring.items()),
        "views": [encode_view(v) for v in ngraph.views],
        "edges": sorted(ngraph.edges),
        "instances": instances,
    }
    text = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(text).hexdigest(), hiding, instances, ngraph.order, ngraph.size


def verdict_content(verdict) -> tuple:
    return content(
        verdict.k,
        verdict.hiding,
        verdict.witness,
        verdict.coloring,
        verdict.ngraph,
        verdict.provenance.instances_scanned,
    )


def compare(label: str, expected: tuple, k: int, ngraph, replayed) -> list[str]:
    """The replay must reproduce the engine's decision exactly."""
    got = content(
        k, replayed.hiding, replayed.odd_cycle, replayed.coloring, ngraph,
        ngraph.instances_scanned,
    )
    if got == expected:
        return []
    return [
        f"{label}: replay mismatch: engine (hiding, instances, views, edges) = "
        f"{expected[1:]}, replay = {got[1:]}"
        + (", content differs" if got[1:] == expected[1:] else "")
    ]


def _direct_pass(cells, pins, ctx=None, plan_of=None, gated=True, pool_workers=1):
    """Every cell through ``decide_hiding`` in order (one client, cold
    caches), each call timed in reference seconds; returns the times,
    verdicts and gate problems.  With *pool_workers* > 1 a shared pool
    is opened, cold, before the timing starts."""
    workloads.clear_in_process()
    gc.collect()
    ctx = ctx if ctx is not None else RunContext.isolated()
    times, verdicts, problems = {}, {}, []
    backend = workloads.expected_backend()
    with CONFIG.overridden(streaming=True), shared_pool(pool_workers):
        before = hostspeed.sample()
        for cell in cells:
            plan = plan_of(cell.plan) if plan_of is not None else cell.plan
            lcp = make_lcp(cell.scheme)
            start = time.perf_counter()
            verdict = decide_hiding(lcp, cell.n, plan, k=cell.k, r=cell.r, ctx=ctx)
            seconds = time.perf_counter() - start
            after = hostspeed.sample()
            times[cell.label] = hostspeed.scale(seconds, before, after)
            verdicts[cell.label] = verdict
            before = after
    if gated:
        for cell in cells:
            verdict = verdicts[cell.label]
            problems += workloads.gate_verdict(
                cell.label, verdict, gate.digest(verdict), pins, backend, False, None
            )
    return times, verdicts, problems


def _timed(fn, *args):
    """``fn(*args)`` and its time in reference seconds."""
    before = hostspeed.sample()
    start = time.perf_counter()
    value = fn(*args)
    seconds = time.perf_counter() - start
    return value, hostspeed.scale(seconds, before, hostspeed.sample())


def _digest_equal(cells, reference: dict, verdicts: dict, what: str) -> list[str]:
    return [
        f"{cell.label}: {what} fingerprint differs from the serial decision"
        for cell in cells
        if gate.digest(verdicts[cell.label]) != reference[cell.label]
    ]


def trace(workload, pins: dict, state: Path) -> dict:
    cells = cells_of(workload)
    cache_dir = state / "cache"
    failures: list[str] = []
    failed_labels: set[str] = set()

    def fail(problems: list[str]) -> None:
        failures.extend(problems)
        failed_labels.update(p.split(": ", 1)[0] for p in problems)

    # Untraced cold decisions: the reference for the replay and coverage.
    all_cpus = os.sched_getaffinity(0)
    hostspeed.pin()
    workloads.reset_disk(cache_dir)
    untraced, verdicts, problems = _direct_pass(cells, pins)
    fail(problems)
    digests, fingerprint_s = _timed(
        lambda: {cell.label: gate.digest(verdicts[cell.label]) for cell in cells}
    )
    layers = Layers()
    _replay_store(cells, verdicts, layers, state / "replay-store")
    expected = {label: verdict_content(v) for label, v in verdicts.items()}
    # Only summaries outlive the reference pass, so the replay runs on a
    # heap of the same size as the engine's.
    del verdicts

    # A read pass over the disk tier the untraced pass wrote.
    read_ctx = RunContext.isolated()
    read = workloads.run_pass(
        workload, pins, read=True, cold_digests=digests, ctx=read_ctx
    )
    fail(read.failures)
    hits = read_ctx.stats.get("disk_hits")
    misses = read_ctx.stats.get("disk_misses")

    # The replay, cold, layer by layer; each decision's layer times are
    # scaled by the host samples bracketing it.
    stats = PerfStats()
    workloads.clear_in_process()
    gc.collect()
    warm: dict = {}
    with CONFIG.overridden(streaming=True):
        for cell in cells:
            lcp = parametrized(make_lcp(cell.scheme), k=cell.k, radius=cell.r)
            plan = cell.plan.resolve(CONFIG)
            raw = dict(layers.seconds)
            before = hostspeed.sample()
            with CONFIG.overridden(
                symmetry=plan.symmetry, generation_kernel=plan.generation_kernel
            ):
                ngraph, replayed = _replay_decision(lcp, cell.n, plan, stats, warm, layers)
            after = hostspeed.sample()
            for key, start in raw.items():
                layers.seconds[key] = start + hostspeed.scale(
                    layers.seconds[key] - start, before, after
                )
            layers.views += ngraph.order
            layers.edges += ngraph.size
            fail(compare(cell.label, expected[cell.label], lcp.k, ngraph, replayed))

    # The same decisions through a traced context.
    workloads.reset_disk(cache_dir)
    traced, _, _ = _direct_pass(
        cells, pins, ctx=RunContext.observed(), gated=False
    )

    # The same decisions through the campaign driver.
    workloads.reset_disk(cache_dir)
    campaign_s, campaign_results = _campaign_pass(workload)
    # Cell streams come out in the same order as the workload's cells.
    fail(
        [
            f"{cell.label}: campaign fingerprint differs"
            for cell, result in zip(cells, campaign_results)
            if result.fingerprint != digests[cell.label]
        ]
    )

    # Pool paths at two workers against serial, disk tier off, on every CPU.
    os.sched_setaffinity(0, all_cpus)
    pool = _pool_passes(cells, pins, digests)
    fail(pool.pop("failures"))

    untraced_s = sum(untraced.values())
    layer_sum = layers.layer_sum()
    counters = stats.counters
    table_hits = counters.get("kernel_table_hits", 0) + counters.get(
        "kernel_table_seed_hits", 0
    )
    warm_cells = sum(
        1
        for r in campaign_results
        if r.provenance["warm_started"] or r.provenance["warm_witness_hit"]
    )
    early_cells = sum(
        1 for r in campaign_results if r.provenance["early_exit"] and r.hiding
    )
    metrics = {
        "symmetry.generate_s": layers.seconds["generate"],
        "symmetry.graphs": layers.graphs,
        "certification.filter_s": layers.seconds["filter"],
        "certification.yes_ratio": _ratio(layers.yes_graphs, layers.graphs),
        "aviews.enumerate_s": layers.seconds["enumerate"],
        "aviews.instances": layers.instances,
        "aviews.base_prune_ratio": _ratio(layers.bases_pruned, layers.bases_total),
        "views.extract_s": layers.seconds["extract"],
        "views.layout_hit_ratio": _hit_ratio(counters, "layout_hits", "layout_misses"),
        "kernel.labelings": counters.get("kernel_labelings", 0),
        "kernel.table_hit_ratio": _ratio(
            table_hits, table_hits + counters.get("kernel_table_misses", 0)
        ),
        "certification.accept_s": layers.seconds["accept"],
        "certification.memo_hit_ratio": _hit_ratio(counters, "memo_hits", "memo_misses"),
        "ngraph.insert_s": layers.seconds["insert"],
        "ngraph.views": layers.views,
        "ngraph.edges": layers.edges,
        "hiding.decide_s": layers.seconds["decide"],
        "store.write_s": layers.seconds["store_write"],
        "store.read_s": layers.store_read,
        "store.bytes": layers.store_bytes,
        "store.hit_ratio": _ratio(hits, hits + misses),
        "verdict.fingerprint_s": fingerprint_s,
        "engine.overhead_s": untraced_s - layer_sum,
        "engine.coverage": _ratio(layer_sum, untraced_s),
        "campaign.overhead_s": campaign_s - untraced_s,
        "campaign.warm_start_ratio": _ratio(warm_cells, len(campaign_results)),
        "campaign.early_exit_ratio": _ratio(early_cells, len(campaign_results)),
        "obs.trace_overhead_ratio": _ratio(sum(traced.values()), untraced_s),
        **pool,
    }
    return {
        "metrics": metrics,
        "details": {
            "untraced_s": untraced_s,
            "replayed_layers_s": dict(layers.seconds, store_read=layers.store_read),
            "campaign_s": campaign_s,
            "traced_s": sum(traced.values()),
        },
        "attempted": len(cells),
        "failed": len(failed_labels),
        "failures": failures,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_ratio(counters: dict, hits: str, misses: str) -> float:
    h = counters.get(hits, 0)
    return _ratio(h, h + counters.get(misses, 0))


def _replay_store(cells, verdicts: dict, layers: Layers, directory: Path) -> None:
    """Write every verdict to, and read it back from, an empty disk tier."""
    workloads.reset_disk(directory)
    store = DiskVerdictStore()
    stats = PerfStats()
    with CONFIG.overridden(streaming=True, disk_cache_dir=str(directory)):
        keys = [
            disk_key(
                parametrized(make_lcp(cell.scheme), k=cell.k, radius=cell.r),
                cell.n,
                cell.plan.resolve(CONFIG),
            )
            for cell in cells
        ]

        def write():
            for cell, key in zip(cells, keys):
                store.store(key, verdicts[cell.label], stats=stats)

        def read():
            for key in keys:
                store.load(key, stats=stats)

        _, layers.seconds["store_write"] = _timed(write)
        layers.store_bytes = sum(
            path.stat().st_size for path in directory.rglob("*") if path.is_file()
        )
        _, layers.store_read = _timed(read)


def _campaign_pass(workload) -> tuple[float, tuple]:
    """The workload's decisions through ``run_campaign``, cold."""
    spec = workload.campaign
    if spec is None:
        spec = CampaignSpec(
            schemes=tuple(d.scheme for d in workload.decisions),
            n_values=tuple(sorted({d.n for d in workload.decisions})),
            plan=workload.plan,
        )
    workloads.clear_in_process()
    gc.collect()
    with CONFIG.overridden(streaming=True):
        run, seconds = _timed(run_campaign, spec, RunContext.isolated())
    return seconds, run.results


def _pool_passes(cells, pins, digests: dict) -> dict:
    """Serial against sharded and chunked at ``POOL_WORKERS`` workers,
    each cold with the disk tier off; parallel verdicts must match."""

    def serial(plan):
        return replace(plan, disk_cache=False)

    def sharded(plan):
        return replace(plan, disk_cache=False, workers=POOL_WORKERS, sharding="on")

    def chunked(plan):
        return replace(plan, disk_cache=False, workers=POOL_WORKERS, sharding="off")

    serial_s, _, _ = _direct_pass(cells, pins, plan_of=serial, gated=False)
    sharded_s, sharded_v, _ = _direct_pass(
        cells, pins, plan_of=sharded, gated=False, pool_workers=POOL_WORKERS
    )
    chunked_s, chunked_v, _ = _direct_pass(
        cells, pins, plan_of=chunked, gated=False, pool_workers=POOL_WORKERS
    )
    failures = _digest_equal(cells, digests, sharded_v, "sharded")
    failures += _digest_equal(cells, digests, chunked_v, "chunked")
    serial_total = sum(serial_s.values())
    return {
        "pool.sharded_speedup": _ratio(serial_total, sum(sharded_s.values())),
        "pool.chunked_speedup": _ratio(serial_total, sum(chunked_s.values())),
        "pool.shards": sum(v.provenance.shard_count or 0 for v in sharded_v.values()),
        "pool.steals": sum(v.provenance.steal_count or 0 for v in sharded_v.values()),
        "failures": failures,
    }
