"""Pre-engine compatibility: verdict-cache entries written before the
engine existed keep their content addresses and still load."""

from __future__ import annotations

import pytest

from repro.core import DegreeOneLCP
from repro.engine import ExecutionPlan, clear_engine_state, decide_hiding
from repro.perf import overridden
from repro.perf.persist import default_verdict_cache


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_engine_state()
    yield
    clear_engine_state()


def test_pre_engine_disk_entries_still_load(tmp_path):
    """A ``.repro_cache/`` body written by the pre-engine streaming
    driver (no ``witness`` key) still loads: key layout and body format
    are byte-compatible."""
    from repro.engine.backends import disk_key
    from repro.engine.stores import _body_from_verdict

    lcp = DegreeOneLCP()
    plan = ExecutionPlan(
        backend="streaming", warm_start=False, disk_cache=True, memory_cache=False
    ).resolve()
    with overridden(disk_cache_dir=str(tmp_path)):
        fresh = decide_hiding(lcp, 4, plan)
        key = disk_key(lcp, 4, plan)
        body = _body_from_verdict(fresh)
        # Streaming bodies must not carry the engine-only witness field,
        # and the key must keep the exact pre-engine vocabulary.
        assert "witness" not in body
        assert "backend" not in key
        assert key["engine_version"] == 1
        # Simulate a pre-engine entry: rewrite the body minus any
        # engine-era extras, then reload through the engine.
        cache = default_verdict_cache()
        assert cache.store(key, body)
        clear_engine_state()
        reloaded = decide_hiding(lcp, 4, plan)
    assert reloaded.provenance.disk_cache_hit is True
    assert reloaded.decision_fingerprint() == fresh.decision_fingerprint()
    assert reloaded.legacy.odd_cycle == fresh.legacy.odd_cycle
