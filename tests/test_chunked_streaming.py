"""Chunked out-of-core streaming must be invisible in every report byte.

Property tests sample random chunk geometries — including the degenerate
edges: chunk size 1 (every access its own chunk, exercised only on tiny
traces to keep the per-chunk overhead small), chunk equal to and beyond
the trace length, prime sizes whose boundaries inevitably split OS-noise
handler runs mid-flight — and assert ``ExperimentReport.to_json`` byte
equality against the monolithic run, serially and with
``REPRO_WORKERS=2``.  The warm-state tests snapshot a
half-run simulation at a random boundary, restore it through JSON, and
require the numpy backend's vectorized replay of the remaining window to
match the Python loops on every observable — counters, LLC statistics and
the written-back shared state — while its warm-state memos prove the
vectorized path (not the fallback) actually ran.  The chunk loop itself
carries live objects across boundaries; a JSON-roundtripped continuation
must equal that live one on both backends, which proves the checkpoints
are complete.  The unit tests pin the checkpoint layer underneath:
``snapshot()``/``restore()`` round-trips through JSON for the L1, the
prefetch buffer, the shared LLC and every prefetcher family, plus the
geometry validation each ``restore`` performs.
See ARCHITECTURE.md ("Chunked streaming") for why these invariants define
the feature.
"""

import json
import random
from dataclasses import asdict

import pytest

from repro.config import CacheConfig, scaled_shift_config, scaled_system
from repro.errors import PrefetcherError, SimulationError
from repro.experiments import run_experiment
from repro.experiments.cells import CellSpec, run_cell
from repro.results import result_cache_key
from repro.sim import simulate
from repro.sim.backends import get_backend
from repro.sim.cache import PrefetchBuffer, SetAssociativeCache
from repro.sim.engine import (
    DEFAULT_PREFETCH_BUFFER_BLOCKS,
    CoreResult,
    SimulationEngine,
)
from repro.sim.llc import SharedLLC
from repro.sim.prefetchers import (
    MISS,
    NullPrefetcher,
    PIFPrefetcher,
    SHIFTPrefetcher,
    make_prefetcher,
)
from repro.workloads.generator import generate_traces
from repro.workloads.suite import WORKLOAD_NAMES, scaled_workload, workload_by_name

SYSTEM = scaled_system()

#: Fixed seeds make the sampled geometries reproducible in CI.
PROPERTY_SEEDS = (11, 12, 13)


def _roundtrip(state):
    """Checkpoints serialize state through JSON; so do the tests."""
    return json.loads(json.dumps(state))


def _same_simulation(a, b):
    assert [asdict(c) for c in a.cores] == [asdict(c) for c in b.cores]
    assert asdict(a.llc) == asdict(b.llc)


def random_config(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "workloads": rng.sample(list(WORKLOAD_NAMES), rng.randint(1, 2)),
        "num_cores": rng.choice([1, 2, 4]),
        "blocks_per_core": rng.choice([500, 900]),
        "seed": rng.randint(0, 10_000),
    }


class TestChunkingInvariance:
    """Reports are byte-identical for every chunk geometry."""

    @pytest.mark.parametrize("config_seed", PROPERTY_SEEDS)
    def test_random_chunk_geometry_byte_identical(self, config_seed):
        config = random_config(config_seed)
        rng = random.Random(config_seed * 77)
        monolithic = run_experiment(**config)
        length = config["blocks_per_core"]
        # Prime sizes guarantee boundaries that split OS-noise handler runs
        # (the generator splices them throughout); the edges pin chunk ==
        # length and chunk > length (both must route to the monolithic path).
        for chunk in (rng.choice([7, 13]), rng.randint(2, length - 1), length, length + 50):
            chunked = run_experiment(chunk_blocks=chunk, **config)
            assert chunked.to_json() == monolithic.to_json(), f"chunk={chunk}"

    def test_chunk_size_one_on_a_tiny_trace(self):
        """Every access its own chunk — a checkpoint at every step."""
        config = {
            "workloads": ["oltp_db2"],
            "num_cores": 2,
            "blocks_per_core": 60,
            "seed": 3,
        }
        monolithic = run_experiment(**config)
        chunked = run_experiment(chunk_blocks=1, **config)
        assert chunked.to_json() == monolithic.to_json()

    def test_uneven_lanes_drop_out_of_later_chunks(self):
        """Lanes shorter than a chunk's start are excluded, not padded."""
        spec = scaled_workload(workload_by_name("web_frontend"), 16)
        trace_set = generate_traces(
            spec, SYSTEM, seed=8, num_cores=3, blocks_per_core=900
        )
        trimmed = trace_set.traces[0].window(0, 250)
        uneven = type(trace_set)(
            traces=[trimmed, trace_set.traces[1], trace_set.traces[2]],
            seed=trace_set.seed,
            name="uneven",
        )
        config = scaled_shift_config(16)
        mono = simulate(uneven, SYSTEM, "shift", shift_config=config)
        chunked = simulate(
            uneven, SYSTEM, "shift", shift_config=config, chunk_blocks=300
        )
        _same_simulation(mono, chunked)

    def test_backends_agree_under_chunking(self):
        """Chunks execute on the engine's own backend — the numpy backend
        resumes each window from the restored warm state — so chunked
        numpy, chunked python and monolithic numpy must all produce the
        same report for the same cell."""
        pytest.importorskip("numpy")
        config = random_config(21)
        chunked_python = run_experiment(
            backend="python", chunk_blocks=111, **config
        )
        chunked_numpy = run_experiment(backend="numpy", chunk_blocks=111, **config)
        monolithic_numpy = run_experiment(backend="numpy", **config)
        assert chunked_python.to_json() == chunked_numpy.to_json()
        assert chunked_python.to_json() == monolithic_numpy.to_json()

    def test_parallel_workers_byte_identical(self, monkeypatch, tmp_path):
        config = random_config(31)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_CHUNK_BLOCKS", raising=False)
        monolithic = run_experiment(**config)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        chunked_parallel = run_experiment(
            chunk_blocks=97, trace_cache=tmp_path, **config
        )
        assert chunked_parallel.to_json() == monolithic.to_json()

    def test_chunk_blocks_joins_the_result_cache_key(self):
        """Chunked and monolithic cells must not share a cache entry —
        otherwise the chunking-invariance CI checks would only ever test
        whichever geometry ran first."""
        cell = CellSpec(workload="oltp_db2", engine="shift", num_cores=2)
        chunked = CellSpec(
            workload="oltp_db2", engine="shift", num_cores=2, chunk_blocks=64
        )
        assert result_cache_key(cell) != result_cache_key(chunked)

    def test_run_cell_honours_chunk_blocks(self):
        base = dict(
            workload="web_search", engine="pif", num_cores=2, blocks_per_core=400
        )
        mono = run_cell(CellSpec(**base))
        chunked = run_cell(CellSpec(chunk_blocks=53, **base))
        _same_simulation(mono, chunked)

    def test_invalid_chunk_blocks_rejected(self):
        trace_set = generate_traces(
            scaled_workload(workload_by_name("oltp_db2"), 16),
            SYSTEM,
            seed=1,
            num_cores=1,
            blocks_per_core=50,
        )
        with pytest.raises(SimulationError, match="chunk_blocks"):
            simulate(trace_set, SYSTEM, "none", chunk_blocks=0)


class TestCheckpointRoundTrips:
    """snapshot() -> JSON -> restore() into a fresh object is exact."""

    def test_l1_cache_roundtrip(self):
        cache = SetAssociativeCache(CacheConfig(size_bytes=2048, associativity=2))
        for address in (0, 64, 128, 4096, 64, 8192):
            cache.access(address)
        twin = SetAssociativeCache(CacheConfig(size_bytes=2048, associativity=2))
        twin.restore(_roundtrip(cache.snapshot()))
        assert twin.snapshot() == cache.snapshot()
        # LRU order survived: the same accesses hit/miss identically.
        assert twin.access(64) == cache.access(64)

    def test_l1_cache_restore_validates_geometry(self):
        cache = SetAssociativeCache(CacheConfig(size_bytes=2048, associativity=2))
        with pytest.raises(SimulationError, match="sets"):
            cache.restore([[1]])

    def test_prefetch_buffer_roundtrip_and_rebase(self):
        buffer = PrefetchBuffer(capacity=4)
        buffer.insert(10, issued_at=5)
        buffer.insert(11, issued_at=7)
        buffer.rebase_timestamps(7)
        snap = _roundtrip(buffer.snapshot())
        twin = PrefetchBuffer(capacity=4)
        twin.restore(snap)
        assert twin.snapshot() == buffer.snapshot()
        # Rebased stamps may go negative; FIFO order survived the roundtrip.
        assert snap["blocks"] == [[10, -2], [11, 0]]

    def test_shared_llc_roundtrip_keeps_pins_and_counters(self):
        llc = SharedLLC(SYSTEM.llc, num_cores=2)
        llc.pin_region(100, num_blocks=4)
        for block in (1, 2, 3, 1, 102):
            llc.access_demand(block)
        snap = _roundtrip(llc.snapshot())
        twin = SharedLLC(SYSTEM.llc, num_cores=2)
        twin.restore(snap)
        assert twin.snapshot() == llc.snapshot()
        assert twin.pinned_blocks == 4
        assert twin.is_pinned(102)

    def test_shared_llc_restore_validates_geometry(self):
        llc = SharedLLC(SYSTEM.llc, num_cores=2)
        bad = llc.snapshot()
        bad["sets"] = bad["sets"][:-1]
        with pytest.raises(SimulationError, match="sets"):
            llc.restore(bad)

    def test_stateless_prefetcher_rejects_foreign_state(self):
        prefetcher = NullPrefetcher()
        prefetcher.restore(_roundtrip(prefetcher.snapshot()))  # {} is fine
        with pytest.raises(PrefetcherError, match="unexpected"):
            prefetcher.restore({"history": []})

    def test_history_restore_validates_capacity(self):
        config = scaled_shift_config(16)
        shift = SHIFTPrefetcher(num_cores=2, config=config)
        snap = shift.snapshot()
        snap["history"]["records"].append([1, 2])
        with pytest.raises(PrefetcherError):
            shift.restore(_roundtrip(snap))

    @pytest.mark.parametrize("family", ["pif", "shift"])
    def test_prefetcher_mid_run_roundtrip_resumes_exactly(self, family):
        """Warm a prefetcher mid-trace, serialize, restore into a fresh
        instance, and finish the trace on both: identical final state."""
        trace_set = generate_traces(
            scaled_workload(workload_by_name("oltp_db2"), 16),
            SYSTEM,
            seed=6,
            num_cores=2,
            blocks_per_core=400,
        )

        def make():
            if family == "pif":
                return PIFPrefetcher(num_cores=2)
            return SHIFTPrefetcher(num_cores=2, config=scaled_shift_config(16))

        reference = make()
        resumed = make()
        lanes = [trace.addresses for trace in trace_set.traces]
        for step, (b0, b1) in enumerate(zip(*lanes)):
            if step == 200:
                resumed.restore(_roundtrip(reference.snapshot()))
            targets = (reference,) if step < 200 else (reference, resumed)
            issued = [
                (p.on_access(0, b0, MISS), p.on_access(1, b1, MISS))
                for p in targets
            ]
            # Post-restore, both instances must issue the same prefetches at
            # every step — the property the chunked engine's exactness
            # guarantee reduces to.
            assert all(pair == issued[0] for pair in issued)
        assert resumed.snapshot() == reference.snapshot()


#: Every engine family the warm-state vectorized replay must cover,
#: including consolidated SHIFT (two logical histories over the core set).
WARM_FAMILIES = ("none", "next_line", "pif", "shift", "shift_groups")


def _family_prefetcher(family: str):
    if family == "shift_groups":
        half = SYSTEM.num_cores // 2
        groups = [
            list(range(half)),
            list(range(half, SYSTEM.num_cores)),
        ]
        return make_prefetcher(
            "shift", SYSTEM, shift_config=scaled_shift_config(16), shift_groups=groups
        )
    if family == "shift":
        return make_prefetcher("shift", SYSTEM, shift_config=scaled_shift_config(16))
    return make_prefetcher(family, SYSTEM)


def _warm_boundary_run(backend_name, family, trace_set, split, roundtrip=True):
    """Warm a run to ``split`` on the Python loops, then replay the
    remaining window once on ``backend_name``.

    Mirrors one ``_run_chunked`` boundary: rebased buffer timestamps, then
    — with ``roundtrip`` — a checkpoint through JSON with the public
    snapshot/restore APIs into fresh cache/buffer/LLC objects and the
    prefetcher restored in place; without it, the live objects carry on
    as in ``_run_chunked``.  Returns every observable of the second window
    — per-core counters, LLC statistics and the written-back shared
    state — for comparison.
    """
    prefetcher = _family_prefetcher(family)
    engine = SimulationEngine(SYSTEM, prefetcher=prefetcher, backend=backend_name)
    cores = sorted(trace_set.traces, key=lambda t: t.core_id)
    length = cores[0].num_accesses
    caches = {t.core_id: SetAssociativeCache(SYSTEM.l1i) for t in cores}
    buffers = {
        t.core_id: PrefetchBuffer(DEFAULT_PREFETCH_BUFFER_BLOCKS) for t in cores
    }
    miss_latency = SYSTEM.llc_demand_latency_cycles()
    inflight = {
        t.core_id: max(
            1,
            round(miss_latency * SYSTEM.core.base_ipc / t.instructions_per_block),
        )
        for t in cores
    }
    llc = engine._build_llc(trace_set)
    warm_stats = {t.core_id: CoreResult(core_id=t.core_id) for t in cores}
    lanes = [
        (t.core_id, t.window(0, split), caches[t.core_id], buffers[t.core_id],
         warm_stats[t.core_id])
        for t in cores
    ]
    get_backend("python").run(lanes, inflight, prefetcher, llc)
    for buffer in buffers.values():
        buffer.rebase_timestamps(split)
    if roundtrip:
        llc = _checkpoint_roundtrip(caches, buffers, prefetcher, llc)
    chunk_stats = {t.core_id: CoreResult(core_id=t.core_id) for t in cores}
    lanes = [
        (t.core_id, t.window(split, length), caches[t.core_id],
         buffers[t.core_id], chunk_stats[t.core_id])
        for t in cores
    ]
    get_backend(backend_name).run(lanes, inflight, prefetcher, llc)
    return {
        "counters": {cid: asdict(stats) for cid, stats in chunk_stats.items()},
        "llc_stats": asdict(llc.stats()),
        "llc_state": llc.snapshot(),
        "caches": {cid: c.snapshot() for cid, c in caches.items()},
        "buffers": {cid: b.snapshot() for cid, b in buffers.items()},
        "prefetcher": prefetcher.snapshot(),
    }


def _checkpoint_roundtrip(caches, buffers, prefetcher, llc):
    """Serialize all engine state through JSON and restore it: caches and
    buffers into fresh objects (replaced in their dicts), the prefetcher in
    place.  Returns the fresh LLC."""
    state = _roundtrip(
        {
            "caches": {str(cid): c.snapshot() for cid, c in caches.items()},
            "buffers": {str(cid): b.snapshot() for cid, b in buffers.items()},
            "prefetcher": prefetcher.snapshot(),
            "llc": llc.snapshot(),
        }
    )
    for core_id in caches:
        fresh_cache = SetAssociativeCache(SYSTEM.l1i)
        fresh_cache.restore(state["caches"][str(core_id)])
        caches[core_id] = fresh_cache
        fresh_buffer = PrefetchBuffer(DEFAULT_PREFETCH_BUFFER_BLOCKS)
        fresh_buffer.restore(state["buffers"][str(core_id)])
        buffers[core_id] = fresh_buffer
    prefetcher.restore(state["prefetcher"])
    fresh_llc = SharedLLC(SYSTEM.llc, SYSTEM.num_cores)
    fresh_llc.restore(state["llc"])
    return fresh_llc


def _warm_trace_set(config_seed, family, salt=0):
    """A random all-core trace set and boundary for one family's case.

    ``salt`` keeps test classes on distinct traces, so one class cannot
    pre-fill the content-keyed numpy memos another class probes."""
    rng = random.Random(config_seed * 1009 + sum(map(ord, family)) + salt)
    spec = scaled_workload(workload_by_name(rng.choice(WORKLOAD_NAMES)), 16)
    blocks = rng.choice([400, 600])
    trace_set = generate_traces(
        spec,
        SYSTEM,
        seed=rng.randint(0, 10_000),
        num_cores=SYSTEM.num_cores,
        blocks_per_core=blocks,
    )
    return trace_set, rng.randint(50, blocks - 50)


class TestCheckpointCompleteness:
    """The chunk loop carries live objects; a JSON checkpoint must lose
    nothing they carry."""

    @pytest.mark.parametrize("backend_name", ["python", "numpy"])
    @pytest.mark.parametrize("family", WARM_FAMILIES)
    @pytest.mark.parametrize("config_seed", PROPERTY_SEEDS)
    def test_roundtripped_continuation_equals_live(
        self, backend_name, family, config_seed
    ):
        if backend_name == "numpy":
            pytest.importorskip("numpy")
        trace_set, split = _warm_trace_set(config_seed, family, salt=1)
        live = _warm_boundary_run(backend_name, family, trace_set, split, roundtrip=False)
        restored = _warm_boundary_run(backend_name, family, trace_set, split)
        assert restored == live


class TestWarmStateVectorizedReplay:
    """The numpy backend must resume exactly from a restored checkpoint —
    and must do so on its vectorized paths, not the Python fallback."""

    @pytest.mark.parametrize("family", WARM_FAMILIES)
    @pytest.mark.parametrize("config_seed", PROPERTY_SEEDS)
    def test_warm_numpy_chunk_matches_python(self, family, config_seed):
        pytest.importorskip("numpy")
        from repro.sim.backends import numpy_backend as nb

        trace_set, split = _warm_trace_set(config_seed, family)
        reference = _warm_boundary_run("python", family, trace_set, split)

        def warm_overlays():
            return {key for key in nb._ARRAY_CACHE if len(key) == 4}

        solver_cache = {
            "none": nb._ARRAY_CACHE,
            "next_line": nb._NEXT_LINE_CACHE,
            "pif": nb._STREAM_CACHE,
            "shift": nb._STREAM_CACHE,
            "shift_groups": nb._STREAM_CACHE,
        }[family]
        overlays_before = warm_overlays()
        solver_before = set(solver_cache)
        warm = _warm_boundary_run("numpy", family, trace_set, split)
        assert warm == reference
        # The memo probe: a vectorized warm replay inserts new warm L1
        # overlays and family solver entries; the Python fallback touches
        # neither.  This keeps the warm path honest — a silently widened
        # _Unsupported bailout would fail here, not just run slow.  New
        # keys, not sizes: a memo at its LRU cap evicts one entry per
        # insertion, so its size need not grow.
        assert warm_overlays() - overlays_before
        if family != "none":
            assert set(solver_cache) - solver_before

    @pytest.mark.parametrize("config_seed", PROPERTY_SEEDS)
    def test_warm_numpy_random_chunk_geometry_byte_identical(self, config_seed):
        pytest.importorskip("numpy")
        config = random_config(config_seed)
        rng = random.Random(config_seed * 131)
        monolithic = run_experiment(backend="python", **config)
        for chunk in (rng.choice([61, 89]), rng.randint(40, 300)):
            chunked = run_experiment(backend="numpy", chunk_blocks=chunk, **config)
            assert chunked.to_json() == monolithic.to_json(), f"chunk={chunk}"

    def test_warm_numpy_chunks_with_workers_byte_identical(
        self, monkeypatch, tmp_path
    ):
        pytest.importorskip("numpy")
        config = random_config(47)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_CHUNK_BLOCKS", raising=False)
        monolithic = run_experiment(backend="python", **config)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        chunked_parallel = run_experiment(
            backend="numpy", chunk_blocks=103, trace_cache=tmp_path, **config
        )
        assert chunked_parallel.to_json() == monolithic.to_json()
