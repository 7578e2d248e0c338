"""The correctness gate applied to every timed decision.

A decision passes when:

* its decision-fingerprint digest and hiding flag equal the pins in
  ``pins.json`` (recorded from a known-good tree, see ``make_pins.py``);
* its certificate checks out on the verdict's own ``V(D, n)`` without
  trusting the engine: an odd closed walk along edges for ``k = 2``
  hiding verdicts, a proper colouring with colours in ``0..k-1`` for
  non-hiding verdicts, and an exhaustive search finding no proper
  ``k``-colouring for ``k >= 3`` hiding verdicts;
* it ran on the expected route (backend, kernel, serial, unsharded);
* on read passes, it was served by the disk tier and its digest equals
  the one the cold pass produced.

Every check returns a list of problem strings; an empty list passes.
The gate runs outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Node budget of the exhaustive non-colourability search; every k >= 3
#: hiding verdict of the workloads stops at a prefix far below it.
MAX_SEARCH_VIEWS = 64


def load_pins(path: Path = PINS_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def digest(verdict) -> str:
    """The campaign driver's per-cell digest of a verdict's
    ``decision_fingerprint`` (first 32 hex digits of its SHA-256)."""
    return hashlib.sha256(verdict.decision_fingerprint()).hexdigest()[:32]


def check_pin(label: str, fingerprint: str | None, hiding, pins: dict) -> list[str]:
    pin = pins.get(label)
    if pin is None:
        return [f"{label}: no pin"]
    problems = []
    if fingerprint != pin["fingerprint"]:
        problems.append(f"{label}: fingerprint {fingerprint} != pinned {pin['fingerprint']}")
    if hiding != pin["hiding"]:
        problems.append(f"{label}: hiding={hiding} != pinned {pin['hiding']}")
    return problems


def _edge_set(ngraph) -> set:
    return {(i, j) if i <= j else (j, i) for i, j in ngraph.edges}


def check_certificate(label: str, verdict) -> list[str]:
    """Check the verdict's certificate against its own view graph."""
    g = verdict.ngraph
    k = verdict.k
    edges = _edge_set(g)
    if verdict.hiding is True:
        if k == 2:
            return _check_odd_walk(label, verdict.witness, g, edges)
        return _check_not_colorable(label, g.order, edges, k)
    if verdict.hiding is False:
        return _check_coloring(label, verdict.coloring, g.order, edges, k)
    return [f"{label}: inconclusive verdict"]


def _check_odd_walk(label: str, witness, g, edges: set) -> list[str]:
    if not witness:
        return [f"{label}: hiding k=2 verdict without a witness walk"]
    try:
        walk = [g.index[view] for view in witness]
    except KeyError:
        return [f"{label}: witness walk leaves V(D, n)"]
    # The engine reports the walk [v0, ..., vk] with the closing edge
    # vk -> v0 implicit; an explicitly closed walk repeats v0.
    if len(walk) > 1 and walk[0] == walk[-1]:
        walk = walk[:-1]
    if len(walk) % 2 == 0:
        return [f"{label}: witness walk has even length {len(walk)}"]
    for a, b in zip(walk, walk[1:] + walk[:1]):
        if ((a, b) if a <= b else (b, a)) not in edges:
            return [f"{label}: witness walk step {a}-{b} is not an edge"]
    return []


def _check_coloring(label: str, coloring, order: int, edges: set, k: int) -> list[str]:
    if coloring is None:
        return [f"{label}: non-hiding verdict without a colouring"]
    if set(coloring) != set(range(order)):
        return [f"{label}: colouring does not cover the {order} views"]
    if any(not (0 <= c < k) for c in coloring.values()):
        return [f"{label}: colouring uses a colour outside 0..{k - 1}"]
    for a, b in edges:
        if coloring[a] == coloring[b]:
            return [f"{label}: colouring is improper on edge {a}-{b}"]
    return []


def _check_not_colorable(label: str, order: int, edges: set, k: int) -> list[str]:
    if order > MAX_SEARCH_VIEWS:
        return [f"{label}: {order} views exceed the non-colourability search budget"]
    if any(a == b for a, b in edges):
        return []  # a loop admits no proper colouring
    neighbours: dict[int, list[int]] = {v: [] for v in range(order)}
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    colour: dict[int, int] = {}

    def extend(v: int) -> bool:
        if v == order:
            return True
        used = {colour[u] for u in neighbours[v] if u in colour}
        # Symmetry break: a new colour class opens at its lowest index.
        for c in range(min(k, max(colour.values(), default=-1) + 2)):
            if c not in used:
                colour[v] = c
                if extend(v + 1):
                    return True
                del colour[v]
        return False

    if extend(0):
        return [f"{label}: hiding k={k} verdict but V(D, n) is {k}-colourable"]
    return []


def check_route(label: str, provenance, expected_backend: str, read: bool) -> list[str]:
    """The route guard: backend, kernel, serial workers, no sharding;
    on read passes the disk tier must have served the decision."""
    problems = []
    if provenance.backend != expected_backend:
        problems.append(
            f"{label}: ran on backend {provenance.backend}, expected {expected_backend}"
        )
    if read:
        if not provenance.disk_cache_hit:
            problems.append(f"{label}: read pass not served by the disk tier")
        return problems
    if provenance.workers > 1:
        problems.append(f"{label}: ran with workers={provenance.workers}")
    if provenance.shard_count is not None:
        problems.append(f"{label}: ran sharded ({provenance.shard_count} shards)")
    computed = not (provenance.warm_witness_hit or provenance.memory_cache_hit)
    expected_kernel = "batch" if expected_backend == "vectorized" else None
    if computed and provenance.kernel != expected_kernel:
        problems.append(
            f"{label}: kernel {provenance.kernel}, expected {expected_kernel}"
        )
    return problems
