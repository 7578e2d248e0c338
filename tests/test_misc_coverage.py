"""Coverage for the smaller corners: error hierarchy, wrappers, reprs,
and the odd defaults that the larger tests route around."""

import pytest

from repro.certification import (
    ConstantDecoder,
    FunctionDecoder,
    FunctionProver,
    LCP,
)
from repro.certification.prover import reject_promise
from repro.errors import (
    CertificationError,
    EdgeNotFoundError,
    ExperimentError,
    GraphError,
    IdentifierAssignmentError,
    LabelingError,
    NodeNotFoundError,
    PortAssignmentError,
    PromiseViolationError,
    RealizabilityError,
    ReproError,
    ViewError,
)
from repro.graphs import cycle_graph, path_graph
from repro.local import Instance, Labeling
from repro.local.messages import EdgeRecord, Message, NodeRecord


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_cls",
        [
            GraphError,
            PortAssignmentError,
            IdentifierAssignmentError,
            LabelingError,
            ViewError,
            PromiseViolationError,
            CertificationError,
            RealizabilityError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_cls):
        assert issubclass(error_cls, ReproError)

    def test_node_not_found_payload(self):
        error = NodeNotFoundError(42)
        assert error.node == 42
        assert "42" in str(error)

    def test_edge_not_found_payload(self):
        error = EdgeNotFoundError(1, 2)
        assert error.edge == (1, 2)


class TestWrappers:
    def test_function_prover_roundtrip(self):
        prover = FunctionProver(
            lambda instance: Labeling.uniform(instance.graph, "x"), name="constant"
        )
        instance = Instance.build(path_graph(3))
        labeling = prover.certify(instance)
        assert labeling.of(0) == "x"
        assert prover.name == "constant"
        assert len(list(prover.all_certifications(instance))) == 1

    def test_function_prover_all_fn(self):
        prover = FunctionProver(
            lambda instance: Labeling.uniform(instance.graph, 0),
            all_fn=lambda instance: iter(
                [Labeling.uniform(instance.graph, i) for i in (0, 1)]
            ),
        )
        instance = Instance.build(path_graph(2))
        assert len(list(prover.all_certifications(instance))) == 2

    def test_constant_decoder(self):
        from repro.local import extract_view

        instance = Instance.build(path_graph(2), labeling=Labeling.uniform(path_graph(2), "c"))
        view = extract_view(instance, 0, 1)
        assert ConstantDecoder(True).decide(view)
        assert not ConstantDecoder(False).decide(view)
        assert "True" in ConstantDecoder(True).name

    def test_function_decoder_name(self):
        decoder = FunctionDecoder(lambda view: True, name="custom")
        assert decoder.name == "custom"

    def test_reject_promise_helper(self):
        instance = Instance.build(path_graph(2))
        error = reject_promise(instance, "test reason")
        assert isinstance(error, PromiseViolationError)
        assert "test reason" in str(error)


class TestLCPBaseBehavior:
    def _minimal_lcp(self, k: int = 2) -> LCP:
        from repro.certification import EnumerativeLCP

        lcp = EnumerativeLCP(ConstantDecoder(True), ["c"], k=k)
        return lcp

    def test_yes_no_instances_k2(self):
        lcp = self._minimal_lcp()
        assert lcp.is_yes_instance(path_graph(3))
        assert not lcp.is_yes_instance(cycle_graph(5))
        assert lcp.is_no_instance(cycle_graph(5))
        assert not lcp.is_no_instance(path_graph(3))

    def test_k3_supported(self):
        lcp = self._minimal_lcp(k=3)
        from repro.graphs import complete_graph

        assert lcp.is_yes_instance(complete_graph(3))
        assert lcp.is_no_instance(complete_graph(4))

    def test_labeling_bits_is_max(self):
        from repro.core import ShatterLCP

        lcp = ShatterLCP()
        instance = Instance.build(path_graph(6))
        labeling = lcp.prover.certify(instance)
        per_node = [
            lcp.certificate_bits(labeling.of(v), instance.n, instance.id_bound)
            for v in instance.graph.nodes
        ]
        assert lcp.labeling_bits(labeling, instance.n, instance.id_bound) == max(per_node)


class TestMessages:
    def test_edge_record_canonical(self):
        a = EdgeRecord.canonical(1, 2, 0, 1)
        b = EdgeRecord.canonical(0, 1, 1, 2)
        assert a == b

    def test_message_size_units(self):
        record = NodeRecord(uid=0, ident=1, label=None)
        message = Message(
            sender_record=record,
            sender_port=1,
            node_records=frozenset({record}),
            edge_records=frozenset(),
        )
        assert message.size_units() == 2


class TestReprs:
    def test_instance_repr(self):
        assert "unlabeled" in repr(Instance.build(path_graph(2)))
        labeled = Instance.build(path_graph(2)).with_labeling(
            Labeling.uniform(path_graph(2), 0)
        )
        assert "labeled" in repr(labeled)

    def test_view_repr(self):
        from repro.local import extract_view

        view = extract_view(Instance.build(path_graph(2)), 0, 1)
        assert "View(" in repr(view)
        anon = view.anonymized()
        assert "anon" in repr(anon)

    def test_graph_repr(self):
        assert repr(path_graph(3)) == "Graph(order=3, size=2)"

    def test_port_and_id_reprs(self):
        from repro.local import IdentifierAssignment, PortAssignment

        assert "PortAssignment" in repr(PortAssignment.canonical(path_graph(2)))
        assert "max=2" in repr(IdentifierAssignment.canonical(path_graph(2)))


def test_public_surface_of_the_decision_packages():
    """Pin the public names of the packages every sweep goes through:
    each one imports, and ``__all__`` lists exactly these."""
    import repro.engine
    import repro.neighborhood
    import repro.perf
    import repro.shard
    from repro.engine import (
        BACKEND_AUTO,
        BACKEND_MATERIALIZED,
        BACKEND_STREAMING,
        BACKEND_VECTORIZED,
        ENGINE_VERSION,
        Backend,
        DiskVerdictStore,
        ExecutionPlan,
        MaterializedBackend,
        MemoryVerdictStore,
        Provenance,
        RunContext,
        StreamingBackend,
        VectorizedBackend,
        Verdict,
        VerdictStore,
        available_backends,
        clear_engine_state,
        clear_memory_store,
        clear_warm_states,
        decide_hiding,
        get_backend,
        register_backend,
        resolve_plan,
        shared_memory_store,
    )
    from repro.neighborhood import (
        UNKNOWN_VIEW,
        ExtractionDecoder,
        ExtractionOutcome,
        GraphConsumer,
        HidingVerdict,
        NeighborhoodGraph,
        StreamingHidingEngine,
        build_extraction_decoder,
        build_neighborhood_graph,
        clear_streaming_state,
        hiding_verdict_from_instances,
        hiding_verdict_on_witnesses,
        labeled_yes_instances,
        run_extraction,
        yes_instances_between,
        yes_instances_up_to,
    )
    from repro.perf import (
        CACHE_VERSION,
        CONFIG,
        GLOBAL_STATS,
        DecisionMemo,
        LRUCache,
        PerfConfig,
        PerfStats,
        PersistentVerdictCache,
        ViewLayoutCache,
        cache_dir,
        clear_shared_caches,
        configure,
        default_layout_cache,
        default_verdict_cache,
        layouts_for_instance,
        memoized_decide,
        overridden,
        shared_decision_memo,
    )
    from repro.shard import (
        Shard,
        ShardCheckpointStore,
        ShardQueue,
        ShardSpec,
        plan_shards,
        run_sharded_sweep,
        sharding_effective,
    )

    surface = {
        repro.engine: [
            BACKEND_AUTO, BACKEND_MATERIALIZED, BACKEND_STREAMING, BACKEND_VECTORIZED,
            ENGINE_VERSION, Backend, DiskVerdictStore, ExecutionPlan,
            MaterializedBackend, MemoryVerdictStore, Provenance, RunContext,
            StreamingBackend, VectorizedBackend, Verdict, VerdictStore,
            available_backends, clear_engine_state, clear_memory_store,
            clear_warm_states, decide_hiding, get_backend, register_backend,
            resolve_plan, shared_memory_store,
        ],
        repro.neighborhood: [
            UNKNOWN_VIEW, ExtractionDecoder, ExtractionOutcome, GraphConsumer,
            HidingVerdict, NeighborhoodGraph, StreamingHidingEngine,
            build_extraction_decoder, build_neighborhood_graph, clear_streaming_state,
            hiding_verdict_from_instances, hiding_verdict_on_witnesses,
            labeled_yes_instances, run_extraction, yes_instances_between,
            yes_instances_up_to,
        ],
        repro.perf: [
            CACHE_VERSION, CONFIG, GLOBAL_STATS, DecisionMemo, LRUCache, PerfConfig,
            PerfStats, PersistentVerdictCache, ViewLayoutCache, cache_dir,
            clear_shared_caches, configure, default_layout_cache,
            default_verdict_cache, layouts_for_instance, memoized_decide, overridden,
            shared_decision_memo,
        ],
        repro.shard: [
            Shard, ShardCheckpointStore, ShardQueue, ShardSpec, plan_shards,
            run_sharded_sweep, sharding_effective,
        ],
    }
    for module, objects in surface.items():
        for o in objects:
            assert o is not None
        assert len(module.__all__) == len(objects), module.__name__
        for name in module.__all__:
            assert getattr(module, name) is not None

    # The one pool route leaves no second builder behind: no extra
    # perf modules, and no config knob beyond these.
    import pkgutil
    from dataclasses import fields

    assert {m.name for m in pkgutil.iter_modules(repro.perf.__path__)} == {
        "cache", "config", "persist", "pool", "stats",
    }
    assert {f.name for f in fields(PerfConfig)} == {
        "layout_cache", "layout_cache_size", "decision_memo", "decision_memo_size",
        "family_cache", "canonical_cache", "canonical_cache_size", "workers",
        "streaming", "warm_start", "disk_cache", "disk_cache_dir", "symmetry",
        "kernel_block_size", "generation_kernel", "sharding", "shard_depth",
        "shard_checkpoints",
    }
