"""The process pool: exact parity of the sharded route with the serial one.

The sharded sweep (:mod:`repro.shard`) is the repository's one parallel
route.  For any worker count it must produce the *same graph content*
as the serial builder — same view list in the same order, same edge
set, same instance count, same decision bytes — and
``Provenance.workers`` must name the processes that actually scanned.
"""

from __future__ import annotations

import pytest

from repro.core import DegreeOneLCP, EvenCycleLCP
from repro.engine import ExecutionPlan, RunContext, decide_hiding
from repro.local.views import extract_all_views
from repro.perf import PerfStats, overridden


def _decide(lcp, n, stats=None, **overrides):
    fields = dict(
        backend="materialized", shard_depth=3, disk_cache=False, memory_cache=False
    )
    fields.update(overrides)
    ctx = RunContext(stats=stats if stats is not None else PerfStats())
    return decide_hiding(lcp, n, ExecutionPlan(**fields), ctx=ctx)


def _serial(lcp, n):
    return _decide(lcp, n, workers=1, sharding="off")


def _assert_identical(pooled, serial):
    p, s = pooled.ngraph, serial.ngraph
    assert p.views == s.views
    assert p.edges == s.edges
    assert p.index == s.index
    assert p.instances_scanned == s.instances_scanned
    assert pooled.witness == serial.witness
    assert pooled.decision_fingerprint() == serial.decision_fingerprint()
    s_cycle = s.find_odd_cycle()
    p_cycle = p.find_odd_cycle()
    assert (p_cycle is None) == (s_cycle is None)
    if s_cycle is not None:
        assert p_cycle == s_cycle


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("lcp_cls,n", [(DegreeOneLCP, 4), (DegreeOneLCP, 5), (EvenCycleLCP, 5)])
def test_parallel_matches_serial(workers, lcp_cls, n):
    lcp = lcp_cls()
    pooled = _decide(lcp, n, workers=workers, sharding="on")
    assert pooled.provenance.shard_count
    assert pooled.provenance.workers == workers
    _assert_identical(pooled, _serial(lcp, n))


def test_parallel_witnesses_point_at_parent_instances():
    """Witnesses of a pooled sweep are instances held by the parent that
    really realize what they witness: the recorded node's view is the
    view, and the recorded edge joins the two endpoint views."""
    lcp = DegreeOneLCP()
    pooled = _decide(lcp, 4, workers=2, sharding="on")
    assert pooled.provenance.workers == 2
    g = pooled.ngraph
    assert g.has_provenance
    include_ids = not lcp.anonymous
    for idx, (instance, node) in g.view_witness.items():
        views = extract_all_views(instance, lcp.radius, include_ids=include_ids)
        assert views[node] == g.views[idx]
    for (i, j), (instance, (u, v)) in g.edge_witness.items():
        assert instance.graph.has_edge(u, v)
        views = extract_all_views(instance, lcp.radius, include_ids=include_ids)
        assert {g.index[views[u]], g.index[views[v]]} == {i, j}


def test_tiny_input_falls_back_to_serial():
    """A sweep no deeper than the shard depth has no subtree to split: it
    runs serially, and its provenance says one process scanned."""
    lcp = EvenCycleLCP()
    tiny = _decide(lcp, 5, workers=4, sharding="on", shard_depth=5)
    assert tiny.provenance.shard_count is None
    assert tiny.provenance.workers == 1
    _assert_identical(tiny, _serial(lcp, 5))


def test_unpicklable_lcp_falls_back_to_serial():
    lcp = DegreeOneLCP()
    lcp._poison = lambda: None  # lambdas don't pickle
    stats = PerfStats()
    result = _decide(lcp, 4, stats=stats, workers=2, sharding="on")
    assert stats.get("parallel_fallbacks") == 1
    assert result.provenance.workers == 1
    _assert_identical(result, _serial(DegreeOneLCP(), 4))


def test_auto_dispatches_on_config_workers():
    """``CONFIG.workers`` reaches the pool: a full sweep on a plan that
    leaves workers and sharding unset takes the sharded route."""
    lcp = DegreeOneLCP()
    with overridden(workers=2, sharding="auto"):
        auto = _decide(lcp, 4)
    assert auto.provenance.shard_count
    assert auto.provenance.workers == 2
    _assert_identical(auto, _serial(lcp, 4))


def test_parallel_with_caches_disabled_still_matches():
    lcp = DegreeOneLCP()
    with overridden(layout_cache=False, decision_memo=False):
        serial = _serial(lcp, 4)
        pooled = _decide(lcp, 4, workers=2, sharding="on")
    _assert_identical(pooled, serial)
