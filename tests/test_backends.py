"""Backend registry behaviour and python/numpy backend parity.

The numpy backend's contract is *exact* equality with the python loops —
every CoreResult counter and the LLC statistics, for every engine family,
cold and warm (its trace-pure memo caches must not leak between runs or
configurations).  These tests pin that contract, the closed-form L1 model
against the reference cache, the vectorized compactor against
SpatialCompactor, and the exact-fallback paths.
"""

import random
from dataclasses import asdict

import pytest

from repro.config import (
    BACKEND_ENV_VAR,
    CacheConfig,
    NextLineConfig,
    scaled_pif_config,
    scaled_shift_config,
    scaled_system,
)
from repro.errors import BackendError
from repro.sim import SimulationEngine, simulate
from repro.sim.backends import (
    available_backends,
    backend_names,
    get_backend,
    resolve_backend_name,
)
from repro.sim.cache import SetAssociativeCache
from repro.sim.prefetchers import Prefetcher, SpatialCompactor
from repro.workloads.generator import generate_traces
from repro.workloads.suite import scaled_workload, workload_by_name

np = pytest.importorskip("numpy")

from repro.sim.backends.numpy_backend import (  # noqa: E402
    _compactor_records,
    _LaneArrays,
)

SYSTEM = scaled_system()

ENGINE_KWARGS = {
    "none": {},
    "next_line": {},
    "pif": {"pif_config": scaled_pif_config(16)},
    "shift": {"shift_config": scaled_shift_config(16)},
}


def small_trace_set(workload="oltp_db2", seed=3, num_cores=3, blocks=1_500):
    spec = scaled_workload(workload_by_name(workload), 16)
    return generate_traces(
        spec, SYSTEM, seed=seed, num_cores=num_cores, blocks_per_core=blocks
    )


def run_pair(trace_set, engine, system=SYSTEM, **kwargs):
    python = simulate(trace_set, system, engine, backend="python", **kwargs)
    numpy_r = simulate(trace_set, system, engine, backend="numpy", **kwargs)
    return python, numpy_r


def assert_equal_results(python, numpy_r):
    assert [asdict(c) for c in python.cores] == [asdict(c) for c in numpy_r.cores]
    assert (python.llc is None) == (numpy_r.llc is None)
    if python.llc is not None:
        assert asdict(python.llc) == asdict(numpy_r.llc)
    assert python.storage_bytes_per_core == numpy_r.storage_bytes_per_core


class TestRegistry:
    def test_python_and_numpy_are_registered(self):
        assert "python" in backend_names()
        assert "numpy" in backend_names()
        assert "python" in available_backends()
        assert "numpy" in available_backends()  # guaranteed by importorskip

    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend_name(None) == "python"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend_name(None) == "numpy"
        assert resolve_backend_name("python") == "python"

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("fortran")

    def test_env_selects_engine_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        engine = SimulationEngine(system=SYSTEM)
        assert engine.backend.name == "numpy"

    def test_get_backend_accepts_instance(self):
        instance = get_backend("python")
        assert get_backend(instance) is instance


class TestL1ClosedForm:
    @pytest.mark.parametrize("assoc", [1, 2])
    @pytest.mark.parametrize("num_sets", [1, 2, 16])
    def test_hit_flags_match_reference_cache(self, assoc, num_sets):
        rng = random.Random(assoc * 100 + num_sets)
        addresses = [rng.randrange(0, 64) for _ in range(2_000)]
        arrays = _LaneArrays(addresses, num_sets, assoc)
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=num_sets * assoc * 64, associativity=assoc)
        )
        expected = []
        for address in addresses:
            if cache.access(address):
                expected.append(True)
            else:
                expected.append(False)
                cache.insert(address)
        assert arrays.l1_hit.tolist() == expected

    def test_associativity_above_two_is_rejected(self):
        from repro.sim.backends.numpy_backend import _Unsupported

        with pytest.raises(_Unsupported):
            _LaneArrays([1, 2, 3], 4, 4)


class TestCompactorVectorization:
    @pytest.mark.parametrize(
        "pattern",
        [
            "random",
            "sequential_runs",
            "descending",  # adversarial for the fixpoint: gentle slopes
            "tight_loop",
        ],
    )
    def test_record_stream_matches_reference(self, pattern):
        rng = random.Random(hash(pattern) & 0xFFFF)
        if pattern == "random":
            addresses = [rng.randrange(0, 500) for _ in range(3_000)]
        elif pattern == "sequential_runs":
            addresses = []
            base = 0
            while len(addresses) < 3_000:
                base = rng.randrange(0, 400)
                addresses.extend(range(base, base + rng.randrange(1, 30)))
        elif pattern == "descending":
            addresses = [3_000 - i for i in range(3_000)]
        else:
            addresses = [10 + (i % 20) for i in range(3_000)]
        reference = SpatialCompactor(8)
        expected = []
        for position, address in enumerate(addresses):
            record = reference.feed(address)
            if record is not None:
                expected.append((position, record[0], record[1]))
        pos, trig, mask, final_trigger, final_mask = _compactor_records(
            np.asarray(addresses, dtype=np.int64), 8, None, 0
        )
        assert list(zip(pos, trig, mask)) == expected
        assert final_trigger == reference._trigger
        assert final_mask == reference._mask

    def test_resumed_compactor_state(self):
        addresses = [5, 6, 7, 100, 101, 3, 4]
        reference = SpatialCompactor(8)
        reference.feed(40)
        reference.feed(42)
        expected = []
        for position, address in enumerate(addresses):
            record = reference.feed(address)
            if record is not None:
                expected.append((position, record[0], record[1]))
        pos, trig, mask, final_trigger, final_mask = _compactor_records(
            np.asarray(addresses, dtype=np.int64), 8, 40, 0b10
        )
        assert list(zip(pos, trig, mask)) == expected
        assert final_trigger == reference._trigger
        assert final_mask == reference._mask


class TestBackendParity:
    @pytest.mark.parametrize("engine", ["none", "next_line", "pif", "shift"])
    def test_counters_and_llc_match(self, engine):
        trace_set = small_trace_set()
        python, numpy_r = run_pair(trace_set, engine, **ENGINE_KWARGS[engine])
        assert_equal_results(python, numpy_r)

    @pytest.mark.parametrize("engine", ["none", "next_line", "pif", "shift"])
    def test_warm_cache_runs_stay_exact(self, engine):
        """Second and third numpy runs replay the memoized pure core; they
        must equal both the cold run and the python backend."""
        trace_set = small_trace_set(seed=7)
        python, cold = run_pair(trace_set, engine, **ENGINE_KWARGS[engine])
        warm = simulate(
            trace_set, SYSTEM, engine, backend="numpy", **ENGINE_KWARGS[engine]
        )
        warm2 = simulate(
            trace_set, SYSTEM, engine, backend="numpy", **ENGINE_KWARGS[engine]
        )
        for numpy_r in (cold, warm, warm2):
            assert_equal_results(python, numpy_r)

    def test_consolidated_shift_parity(self):
        spec_names = ("oltp_db2", "web_search")
        from repro.experiments.cells import CellSpec, consolidation_mix_for, system_for_cell
        from repro.workloads.consolidation import generate_consolidated_traces

        cell = CellSpec(
            workload="+".join(spec_names),
            engine="shift",
            num_cores=4,
            blocks_per_core=1_000,
            consolidation=spec_names,
        )
        sys_config = system_for_cell(cell)
        mix = consolidation_mix_for(cell, sys_config)
        trace_set = generate_consolidated_traces(
            mix, sys_config, seed=0, blocks_per_core=1_000
        )
        groups = [tuple(r) for _, r in mix.core_ranges()]
        python, numpy_r = run_pair(
            trace_set,
            "shift",
            system=sys_config,
            shift_config=scaled_shift_config(16),
            shift_groups=groups,
        )
        assert_equal_results(python, numpy_r)

    def test_next_line_degree_above_one(self):
        trace_set = small_trace_set(seed=11)
        python, numpy_r = run_pair(
            trace_set, "next_line", next_line_config=NextLineConfig(degree=3)
        )
        assert_equal_results(python, numpy_r)

    def test_next_line_overflow_falls_back_exactly(self):
        """A tiny prefetch buffer forces FIFO evictions, which break the
        per-block decoupling; the numpy backend must detect it and produce
        the python results anyway."""
        trace_set = small_trace_set(seed=5)
        from repro.sim.prefetchers import make_prefetcher

        results = {}
        for backend in ("python", "numpy"):
            prefetcher = make_prefetcher(
                "next_line", SYSTEM, next_line_config=NextLineConfig(degree=4)
            )
            engine = SimulationEngine(
                system=SYSTEM,
                prefetcher=prefetcher,
                prefetch_buffer_blocks=4,
                backend=backend,
            )
            results[backend] = engine.run(trace_set)
        assert_equal_results(results["python"], results["numpy"])
        evicted = sum(c.prefetches_unused for c in results["python"].cores)
        assert evicted > 0, "test needs real evictions to exercise the fallback"

    def test_custom_prefetcher_uses_python_loops(self):
        class EveryOther(Prefetcher):
            name = "every_other"

            def on_access(self, core_id, block_address, outcome):
                return [block_address + 2] if outcome != 0 else []

        trace_set = small_trace_set(seed=9, num_cores=2, blocks=800)
        results = {}
        for backend in ("python", "numpy"):
            engine = SimulationEngine(
                system=SYSTEM, prefetcher=EveryOther(), backend=backend
            )
            results[backend] = engine.run(trace_set)
        assert_equal_results(results["python"], results["numpy"])

    def test_no_llc_runs_match(self):
        trace_set = small_trace_set(seed=13, num_cores=2, blocks=800)
        for engine in ("none", "next_line", "pif"):
            python = simulate(
                trace_set,
                SYSTEM,
                engine,
                model_llc=False,
                backend="python",
                **ENGINE_KWARGS[engine],
            )
            numpy_r = simulate(
                trace_set,
                SYSTEM,
                engine,
                model_llc=False,
                backend="numpy",
                **ENGINE_KWARGS[engine],
            )
            assert_equal_results(python, numpy_r)
