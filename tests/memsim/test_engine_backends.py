"""The pluggable backend registry and the unified run_system driver."""

import dataclasses
import json

import numpy as np
import pytest

from repro.config import SimConfig
from repro.core.context import RunRequest
from repro.core.system import run_system
from repro.errors import ConfigError, SimulationError
from repro.graph.generators import rmat_graph
from repro.memsim.backends import (
    BACKENDS,
    BaselineBackend,
    DynamicScratchpadBackend,
    GraphPimBackend,
    HierarchyBackend,
    LockedCacheBackend,
    OmegaBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.memsim.mapping import ScratchpadMapping


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(7, edge_factor=6, seed=11)


class TestRegistry:
    def test_all_variants_registered(self):
        assert set(backend_names()) >= {
            "baseline", "omega", "locked", "graphpim", "dynamic",
        }

    def test_get_backend_returns_class(self):
        assert get_backend("baseline") is BaselineBackend
        assert get_backend("omega") is OmegaBackend

    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            get_backend("tpu")

    def test_names_recorded_on_classes(self):
        for name in ("baseline", "omega", "locked", "graphpim", "dynamic"):
            assert get_backend(name).name == name

    @pytest.mark.parametrize("name,make", [
        ("baseline", lambda: BaselineBackend(SimConfig.scaled_omega())),
        ("omega", lambda: OmegaBackend(SimConfig.scaled_baseline(), None)),
        ("locked",
         lambda: LockedCacheBackend(SimConfig.scaled_omega(), None)),
        ("graphpim", lambda: GraphPimBackend(SimConfig.scaled_omega())),
        ("dynamic",
         lambda: DynamicScratchpadBackend(SimConfig.scaled_baseline(), 64)),
    ])
    def test_wrong_config_error_names_backend(self, name, make):
        with pytest.raises(SimulationError, match=f"backend '{name}'"):
            make()

    @pytest.mark.parametrize("make", [
        lambda cfg, m: OmegaBackend(cfg, m),
        lambda cfg, m: LockedCacheBackend(
            dataclasses.replace(cfg, use_pisc=False), m),
    ], ids=["omega", "locked"])
    def test_mapping_core_count_must_match_config(self, make):
        # A 32-pad mapping on a 16-core chip would home half the ops on
        # pads the replay never charges.
        cfg = SimConfig.scaled_omega(num_cores=16)
        with pytest.raises(ConfigError, match="32 pads .* 16 cores"):
            make(cfg, ScratchpadMapping(32, 4096, chunk_size=32))
        make(cfg, ScratchpadMapping(16, 4096, chunk_size=32))

    def test_register_backend_extension(self, graph):
        @register_backend("test-null")
        class NullBackend(HierarchyBackend):
            """Everything through the cache path, no scratchpads."""

        try:
            assert get_backend("test-null") is NullBackend
            report = run_system(
                graph, RunRequest("pagerank", backend="test-null"),
                SimConfig.scaled_baseline(),
            )
            assert report.backend == "test-null"
            assert report.cycles > 0
        finally:
            BACKENDS.pop("test-null", None)


class TestRunSystemBackends:
    @pytest.mark.parametrize("backend,config_factory", [
        ("baseline", SimConfig.scaled_baseline),
        ("omega", SimConfig.scaled_omega),
        (
            "locked",
            lambda: SimConfig.scaled_omega(
                use_pisc=False, use_source_buffer=False
            ),
        ),
        ("graphpim", SimConfig.scaled_baseline),
        ("dynamic", SimConfig.scaled_omega),
    ])
    def test_every_variant_runs(self, graph, backend, config_factory):
        report = run_system(
            graph, RunRequest("pagerank", backend=backend), config_factory()
        )
        assert report.backend == backend
        assert report.cycles > 0
        assert report.trace_events > 0
        assert report.replay_seconds > 0
        assert sum(report.stats.core_accesses) == report.trace_events

    def test_backend_inferred_from_config(self, graph):
        base = run_system(
            graph, RunRequest("pagerank"), SimConfig.scaled_baseline()
        )
        omega = run_system(
            graph, RunRequest("pagerank"), SimConfig.scaled_omega()
        )
        assert base.backend == "baseline"
        assert omega.backend == "omega"

    def test_unknown_backend_name_raises(self, graph):
        with pytest.raises(SimulationError, match="unknown backend"):
            run_system(
                graph, RunRequest("pagerank", backend="nope"),
                SimConfig.scaled_baseline(),
            )

    def test_locked_default_config(self, graph):
        """Without a config, ``locked`` runs the halved-L2 OMEGA split
        with no PISCs and no source buffers."""
        config = SimConfig.scaled_omega(
            use_pisc=False, use_source_buffer=False
        )
        request = RunRequest("pagerank", backend="locked")
        default = run_system(graph, request)
        explicit = run_system(graph, request, config)
        assert default.system == "locked-cache"
        assert default.cycles == explicit.cycles
        assert default.stats.as_dict() == explicit.stats.as_dict()
        assert default.hot_capacity == explicit.hot_capacity

    def test_graphpim_default_config(self, graph):
        """Without a config, ``graphpim`` keeps the baseline hierarchy."""
        request = RunRequest("pagerank", backend="graphpim")
        default = run_system(graph, request)
        explicit = run_system(graph, request, SimConfig.scaled_baseline())
        assert default.system == "graphpim"
        assert default.cycles == explicit.cycles
        assert default.stats.as_dict() == explicit.stats.as_dict()


class TestScalarFastEquivalence:
    """The inlined batch cache loop is exact vs the per-event path."""

    @pytest.mark.parametrize("algorithm", ["pagerank", "bfs"])
    @pytest.mark.parametrize("config_factory", [
        SimConfig.scaled_baseline, SimConfig.scaled_omega,
    ])
    def test_fast_loop_matches_scalar_loop(
        self, graph, algorithm, config_factory
    ):
        from repro.algorithms.registry import run_algorithm
        from repro.core.offload import microcode_for_algorithm
        from repro.core.system import DEFAULT_CHUNK_SIZE
        from repro.memsim.mapping import ScratchpadMapping
        from repro.memsim.scratchpad import hot_capacity_for

        config = config_factory()
        result = run_algorithm(
            algorithm, graph, num_cores=config.core.num_cores,
            chunk_size=DEFAULT_CHUNK_SIZE, trace=True,
        )

        def make():
            if not config.use_scratchpad:
                return BaselineBackend(config)
            hot = hot_capacity_for(
                config.scratchpad_total_bytes,
                result.engine.vtxprop_bytes_per_vertex(),
                graph.num_vertices,
            )
            mapping = ScratchpadMapping(
                config.core.num_cores, hot, chunk_size=DEFAULT_CHUNK_SIZE
            )
            return OmegaBackend(
                config, mapping, microcode_for_algorithm(algorithm)
            )

        fast = make().replay(result.trace)
        slow_backend = make()
        slow_backend.scalar_cache = True
        slow = slow_backend.replay(result.trace)

        fast_stats = fast.stats.as_dict()
        slow_stats = slow.stats.as_dict()
        assert fast_stats.keys() == slow_stats.keys()
        for key, fast_val in fast_stats.items():
            slow_val = slow_stats[key]
            if isinstance(fast_val, float):
                assert fast_val == pytest.approx(slow_val, rel=1e-9), key
            else:
                assert fast_val == slow_val, key
        assert np.allclose(
            fast.stats.core_mem_latency, slow.stats.core_mem_latency,
            rtol=1e-9,
        )
        assert np.allclose(
            fast.stats.core_serial_cycles, slow.stats.core_serial_cycles,
            rtol=1e-9,
        )
        for fast_cache, slow_cache in zip(
            fast.l1s + fast.l2_banks, slow.l1s + slow.l2_banks
        ):
            assert fast_cache._sets == slow_cache._sets
        assert fast.directory._lines == slow.directory._lines


class TestManifest:
    def test_run_manifest_written(self, graph, tmp_path):
        path = tmp_path / "manifest.json"
        config = SimConfig.scaled_omega()
        report = run_system(
            graph, RunRequest("pagerank", dataset="rmat7", manifest_path=path),
            config,
        )
        data = json.loads(path.read_text())
        assert data["schema"] == "omega-repro/run-manifest/v7"
        assert data["backend"] == "omega"
        assert data["dataset"] == "rmat7"
        assert data["config"]["hash"] == config.config_hash()
        assert data["workload"]["trace_events"] == report.trace_events
        assert data["replay"]["events_per_second"] > 0
        assert data["timing"]["total_cycles"] == report.cycles
        assert "event_counts" in data
        # Unsampled runs still carry the telemetry key (as null).
        assert data["telemetry"] is None

    def test_config_hash_stable_and_sensitive(self):
        a = SimConfig.scaled_omega()
        b = SimConfig.scaled_omega()
        assert a.config_hash() == b.config_hash()
        c = a.with_scratchpad_bytes(2048)
        assert a.config_hash() != c.config_hash()
