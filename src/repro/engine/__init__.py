"""The hiding-decision engine: one entrypoint, declarative plans.

This package puts every hiding decision (materialized sweep, streaming
early-exit sweep, either one serial or on the sharded process pool)
behind a single pipeline::

    plan = ExecutionPlan(backend="streaming", workers=4, disk_cache=True)
    verdict = decide_hiding(lcp, n=5, plan=plan)
    print(verdict.summary())
    print(verdict.provenance.summary())   # backend, cache tier, wall time

* :class:`ExecutionPlan` — *how* to decide: backend × workers ×
  early-exit/warm-start × cache tiers.  Unset fields resolve against the
  session's :class:`~repro.perf.config.PerfConfig`.
* :func:`decide_hiding` — *what* to decide; returns a :class:`Verdict`
  envelope (decision + canonical witness + graph + :class:`Provenance`).
* :class:`RunContext` — explicit config/stats/cache carriers for callers
  that must not touch process-wide state.
* :class:`VerdictStore` — the cache-tier protocol; memory and disk tiers
  ship, new tiers plug into a context.
* :func:`register_backend` — the backend registry; new sweep strategies
  plug in without touching any call site.

:func:`resolve_plan` translates the legacy keyword vocabulary
(``streaming=``/``workers=``/...) into a resolved plan — the one place
the streaming-vs-materialized routing decision lives.
"""

from .backends import (
    ENGINE_VERSION,
    Backend,
    MaterializedBackend,
    StreamingBackend,
    VectorizedBackend,
    available_backends,
    clear_warm_states,
    get_backend,
    register_backend,
)
from .context import RunContext, shared_memory_store
from .core import clear_engine_state, clear_memory_store, decide_hiding
from .plan import (
    BACKEND_AUTO,
    BACKEND_MATERIALIZED,
    BACKEND_STREAMING,
    BACKEND_VECTORIZED,
    ExecutionPlan,
    resolve_plan,
)
from .stores import DiskVerdictStore, MemoryVerdictStore, VerdictStore
from .verdict import Provenance, Verdict

__all__ = [
    "ENGINE_VERSION",
    "BACKEND_AUTO",
    "BACKEND_MATERIALIZED",
    "BACKEND_STREAMING",
    "BACKEND_VECTORIZED",
    "Backend",
    "DiskVerdictStore",
    "ExecutionPlan",
    "MaterializedBackend",
    "MemoryVerdictStore",
    "Provenance",
    "RunContext",
    "StreamingBackend",
    "VectorizedBackend",
    "Verdict",
    "VerdictStore",
    "available_backends",
    "clear_engine_state",
    "clear_memory_store",
    "clear_warm_states",
    "decide_hiding",
    "get_backend",
    "register_backend",
    "resolve_plan",
    "shared_memory_store",
]
