"""Property test: experiment reports are byte-identical across backends.

Randomized small systems (core count, seed, workload subset, trace length,
history budget, LLC slice) run through :func:`repro.experiments.run_experiment`
under the ``python`` and ``numpy`` backends; ``ExperimentReport.to_json()``
must agree byte for byte, serially and with ``REPRO_WORKERS=2``.

The SHIFT-specific cases pin the epoch-split solver's hard edges: history
wraparound mid-epoch, a non-zero trainer core (the delayed-visibility path),
consolidated groups with unequal lane lengths including empty and
single-access lanes (epochs of length 0 and 1), and the parallel-worker
path through the vectorized replay.  Each direct-simulation case asserts
the numpy backend actually took the vectorized path (the solution memo is
populated) so parity cannot silently come from the Python fallback.

The numpy backend runs PIF and SHIFT on one compiled stream-lane kernel
(PIF as one history group per core, with an index a quarter of its
history or any other size).  The kernel is pinned against the python
backend on seeded random SHIFT configurations (stream count, lookahead,
buffer capacity, region width with dense masks, trainer core,
consolidated groups, warm chunked resumes) and PIF configurations
(history and index capacities, index 4..history), comparing every
counter, the LLC statistics, the prefetcher snapshot (index FIFO and
owner insertion order included), the prefetch buffers' FIFO order and
the L1 contents, and asserting the kernel actually ran.
:func:`kernel_differential` runs the same cases on a larger seed budget
(CI's bench job).  Every ``_Unsupported`` raise in the stream solver —
int64 headroom for PIF and SHIFT, and for PIF more restored streams than
stream buffers, outstanding sets the owner map disagrees with, and
counters beyond int64 — is forced and checked to leave prefetcher,
buffer, L1, stats and LLC state unchanged.

The python backend's PIF runs on the same stream loop as SHIFT, with one
history group per core; seeded random PIF configurations (history and
index capacities, index smaller than history included, stream geometry,
buffer capacity, uneven lanes, chunked runs) pin it against the generic
round-robin loop that a ``PIFPrefetcher`` subclass runs.
"""

import contextlib
import copy
import dataclasses
import functools
import random
from dataclasses import asdict

import pytest

from repro.config import (
    CacheConfig,
    PIFConfig,
    SHIFTConfig,
    SpatialRegionConfig,
    StreamBufferConfig,
    scaled_shift_config,
    scaled_system,
)
from repro.errors import SimulationError
from repro.experiments import run_experiment
from repro.sim import CoreResult, PrefetchBuffer, SetAssociativeCache, SimulationEngine
from repro.sim import prefetchers
from repro.sim.backends import get_backend
from repro.sim.prefetchers import (
    ConsolidatedSHIFTPrefetcher,
    PIFPrefetcher,
    SHIFTPrefetcher,
    _Stream,
)
from repro.workloads.generator import generate_traces
from repro.workloads.suite import WORKLOAD_NAMES, scaled_workload, workload_by_name
from repro.workloads.trace import CoreTrace, TraceSet

pytest.importorskip("numpy")

from repro.sim.backends import numpy_backend  # noqa: E402

#: Fixed seeds make the sampled configurations reproducible in CI.
PROPERTY_SEEDS = (1, 2, 3, 4, 5)


def random_config(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "workloads": rng.sample(list(WORKLOAD_NAMES), rng.randint(1, 2)),
        "num_cores": rng.choice([1, 2, 3, 4]),
        "blocks_per_core": rng.choice([400, 700, 1_100]),
        "seed": rng.randint(0, 10_000),
        "history_entries": rng.choice([None, 8 * 1024, 64 * 1024]),
        "llc_kb_per_core": rng.choice([None, 256, 1_024]),
    }


@pytest.mark.parametrize("config_seed", PROPERTY_SEEDS)
def test_reports_byte_identical_across_backends(config_seed):
    config = random_config(config_seed)
    python_report = run_experiment(backend="python", **config)
    numpy_report = run_experiment(backend="numpy", **config)
    assert python_report.to_json() == numpy_report.to_json()


def test_reports_byte_identical_with_parallel_workers(tmp_path):
    config = random_config(99)
    serial = run_experiment(backend="python", **config)
    for backend in ("python", "numpy"):
        parallel = run_experiment(
            backend=backend, workers=2, trace_cache=tmp_path, **config
        )
        assert serial.to_json() == parallel.to_json()


def test_reports_byte_identical_under_backend_env(monkeypatch, tmp_path):
    """REPRO_BACKEND routes whole experiments (including worker processes)
    through the numpy backend without changing a byte of the report."""
    config = random_config(123)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    baseline = run_experiment(**config)
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    via_env = run_experiment(**config)
    assert baseline.to_json() == via_env.to_json()


def _assert_same_simulation(python_result, numpy_result):
    assert [asdict(c) for c in python_result.cores] == [
        asdict(c) for c in numpy_result.cores
    ]
    assert asdict(python_result.llc) == asdict(numpy_result.llc)


def _run_shift_pair(make_prefetcher, trace_set, system):
    """Simulate with fresh prefetchers per backend; the numpy run must take
    the vectorized epoch-split path, not the exact Python fallback."""
    prefetchers, results = {}, {}
    numpy_backend._STREAM_CACHE.clear()
    for backend in ("python", "numpy"):
        prefetchers[backend] = make_prefetcher()
        engine = SimulationEngine(
            system=system, prefetcher=prefetchers[backend], backend=backend
        )
        results[backend] = engine.run(trace_set)
    assert numpy_backend._STREAM_CACHE, "numpy run fell back to the Python loops"
    _assert_same_simulation(results["python"], results["numpy"])
    return prefetchers


class TestShiftEpochSplitEdges:
    """Hard edges of the vectorized SHIFT replay (see module docstring)."""

    def test_history_wraparound_mid_epoch(self):
        """A 16-record history against a 4-core trace overwrites the ring
        many times over; stale-position reads must resolve identically."""
        system = scaled_system()
        config = scaled_shift_config(16, history_entries=256)  # 16 records
        trace_set = generate_traces(
            scaled_workload(workload_by_name("oltp_db2"), 16),
            system,
            seed=21,
            num_cores=4,
            blocks_per_core=1_200,
        )
        prefetchers = _run_shift_pair(
            lambda: SHIFTPrefetcher(num_cores=4, config=config), trace_set, system
        )
        reference = prefetchers["python"]
        assert reference._history.writes > config.history_entries
        # The solver's write-back leaves the shared state exactly where the
        # python loops leave it, so a later resumed run stays exact too.
        for backend in ("numpy",):
            candidate = prefetchers[backend]
            assert candidate._history._records == reference._history._records
            assert candidate._history.writes == reference._history.writes
            assert candidate._index._entries == reference._index._entries

    def test_nonzero_trainer_core(self):
        """Cores below the trainer see an append one step late (delta=1);
        only a non-default trainer exercises that path."""
        system = scaled_system()
        trace_set = generate_traces(
            scaled_workload(workload_by_name("web_search"), 16),
            system,
            seed=17,
            num_cores=3,
            blocks_per_core=900,
        )
        _run_shift_pair(
            lambda: SHIFTPrefetcher(
                num_cores=3, config=scaled_shift_config(16), trainer_core=2
            ),
            trace_set,
            system,
        )

    def test_consolidated_unequal_lanes_and_degenerate_epochs(self):
        """Handcrafted consolidated groups: lane lengths 900/1/700/1
        (single-access lanes are the shortest the trace layer allows), plus
        a region-alternating burst in the trainer feed that emits a record
        on every access — epochs of length 0 and 1 between consecutive
        appends."""
        rng = random.Random(42)

        def stream(length, base):
            addresses = []
            while len(addresses) < length:
                start = base + rng.randrange(0, 300)
                addresses.extend(range(start, start + rng.randrange(1, 12)))
            return addresses[:length]

        trainer0 = stream(840, 0)
        for i in range(60):  # alternate far regions: one record per access
            trainer0.append(0 if i % 2 else 2_048)
        lanes = [
            CoreTrace(0, trainer0),
            CoreTrace(1, stream(1, 0)),
            CoreTrace(2, stream(700, 10_000)),
            CoreTrace(3, stream(1, 10_000)),
        ]
        trace_set = TraceSet(traces=lanes)
        system = scaled_system(num_cores=4)
        _run_shift_pair(
            lambda: ConsolidatedSHIFTPrefetcher(
                groups=[(0, 1), (2, 3)],
                config=scaled_shift_config(16, history_entries=512),
            ),
            trace_set,
            system,
        )

    def test_serial_vs_env_workers_byte_identical(self, monkeypatch, tmp_path):
        """REPRO_WORKERS=2 fans shift cells over worker processes; their
        vectorized replays must reproduce the serial python report."""
        params = {
            "workloads": ["oltp_db2"],
            "engines": ["none", "shift"],
            "num_cores": 4,
            "blocks_per_core": 700,
            "seed": 5,
        }
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial_python = run_experiment(backend="python", **params)
        serial_numpy = run_experiment(backend="numpy", **params)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel_numpy = run_experiment(
            backend="numpy", trace_cache=tmp_path, **params
        )
        assert serial_python.to_json() == serial_numpy.to_json()
        assert serial_python.to_json() == parallel_numpy.to_json()


# ---------------------------------------------------------------------------
# Compiled stream-lane kernel vs the python backend

KERNEL_SEEDS = tuple(range(24))


def _dense_traces(rng, num_cores, length, region):
    """Per-core traces of recurring 'functions': runs of consecutive blocks
    up to two regions long (dense masks), drawn from one shared pool so the
    trainer's history predicts the other cores, plus scattered noise."""
    pool = [
        (rng.randrange(0, 40_000), rng.randint(1, 2 * region))
        for _ in range(rng.randint(8, 40))
    ]
    traces = []
    for core_id in range(num_cores):
        addresses = []
        while len(addresses) < length:
            if rng.random() < 0.1:
                addresses.append(rng.randrange(0, 60_000))
                continue
            base, run = pool[min(int(rng.expovariate(0.15)), len(pool) - 1)]
            addresses.extend(range(base, base + run))
        traces.append(CoreTrace(core_id, addresses[: rng.randint(length // 2, length)]))
    return TraceSet(traces=traces)


def _kernel_case(seed):
    rng = random.Random(seed)
    num_cores = rng.randint(1, 4)
    region = rng.choice([2, 3, rng.randint(4, 61), 62])
    config = SHIFTConfig(
        history_entries=rng.choice([16, 64, 512]),
        spatial_region=SpatialRegionConfig(region_blocks=region),
        stream_buffer=StreamBufferConfig(
            num_streams=rng.randint(1, 8),
            capacity_records=rng.randint(1, 12),
            lookahead_records=rng.randint(1, 16),
        ),
        virtualized=rng.random() < 0.7,
        records_per_llc_block=rng.randint(1, 12),
    )
    system = scaled_system(num_cores=num_cores)
    if rng.random() < 0.3:
        l1 = system.l1i
        system = dataclasses.replace(
            system, l1i=CacheConfig(size_bytes=l1.size_bytes, associativity=1)
        )
    if num_cores > 1 and rng.random() < 0.4:
        cut = rng.randint(1, num_cores - 1)
        cores = rng.sample(range(num_cores), num_cores)
        groups = [sorted(cores[:cut]), sorted(cores[cut:])]

        def make():
            return ConsolidatedSHIFTPrefetcher(groups=groups, config=config)

    else:
        trainer = rng.randrange(num_cores)

        def make():
            return SHIFTPrefetcher(num_cores, config=config, trainer_core=trainer)

    trace_set = _dense_traces(rng, num_cores, rng.choice([300, 900, 1_500]), region)
    chunk = rng.choice([None, rng.randint(1, 40), rng.randint(41, 700)])
    return system, make, trace_set, rng.randint(1, 300), chunk


def _drive(backend, system, prefetcher, trace_set, buffer_blocks, chunk):
    """Run ``trace_set`` through ``backend`` in ``chunk``-step windows the
    way the chunked engine does (fresh per-chunk stats, rebased buffer
    timestamps, live state carried across) and return every observable."""
    cores = sorted(trace_set.traces, key=lambda t: t.core_id)
    caches = {t.core_id: SetAssociativeCache(system.l1i) for t in cores}
    buffers = {t.core_id: PrefetchBuffer(buffer_blocks) for t in cores}
    totals = {t.core_id: CoreResult(core_id=t.core_id) for t in cores}
    evicted = {t.core_id: 0 for t in cores}
    inflight = {t.core_id: 3 + t.core_id for t in cores}
    llc = SimulationEngine(system, prefetcher=prefetcher)._build_llc(trace_set)
    max_len = max(t.num_accesses for t in cores)
    step = chunk or max_len
    for start in range(0, max_len, step):
        stop = min(start + step, max_len)
        live = [t for t in cores if t.num_accesses > start]
        stats = {t.core_id: CoreResult(core_id=t.core_id) for t in live}
        for t in live:
            buffers[t.core_id].evicted_unused = 0
        lanes = [
            (t.core_id, t.window(start, stop), caches[t.core_id],
             buffers[t.core_id], stats[t.core_id])
            for t in live
        ]
        backend.run(lanes, inflight, prefetcher, llc)
        for t in live:
            total, delta = totals[t.core_id], stats[t.core_id]
            for name in ("demand_hits", "prefetch_hits", "late_hits", "misses",
                         "prefetches_issued", "llc_hits", "memory_misses"):
                setattr(total, name, getattr(total, name) + getattr(delta, name))
            evicted[t.core_id] += buffers[t.core_id].evicted_unused
        for buffer in buffers.values():
            buffer.rebase_timestamps(stop - start)
    return {
        "cores": [asdict(totals[t.core_id]) for t in cores],
        "llc": asdict(llc.stats()),
        # Includes each stream engine's owner map in insertion order.
        "prefetcher": prefetcher.snapshot(),
        "buffers": [list(buffers[t.core_id]._blocks.items()) for t in cores],
        "evicted": evicted,
        "l1": [caches[t.core_id].snapshot() for t in cores],
    }


def _counting_numpy_backend():
    """A NumPyBackend whose compiled lane kernel counts its calls."""
    backend = numpy_backend.NumPyBackend()
    kernel = backend._stream_lane
    calls = []

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    backend._stream_lane = counted
    return backend, calls


class _OffsetsOnDemand:
    """The python loops' mask -> offsets table, entry by entry: at region
    widths above ~20 blocks the full table (2**(R-1) entries) cannot be
    built, so the reference computes each entry when asked instead."""

    def __init__(self, region_blocks):
        self._offsets = range(1, region_blocks)

    def __getitem__(self, mask):
        return tuple(offset for offset in self._offsets if mask >> (offset - 1) & 1)


@contextlib.contextmanager
def _wide_region_offsets(region):
    """Serve ``region``'s offsets on demand while the python reference runs."""
    tables = prefetchers._EXPAND_TABLES
    if region <= 16 or region in tables:
        yield
        return
    tables[region] = _OffsetsOnDemand(region)
    try:
        yield
    finally:
        del tables[region]


def check_kernel_case(family, seed):
    """One seeded kernel-parity case: ``family`` ("pif" or "shift") through
    the numpy backend's compiled stream lane and through the python
    backend, compared on every observable :func:`_drive` returns.  Raises
    AssertionError on a mismatch or when the numpy run never reached the
    kernel (parity from the Python fallback proves nothing).

    Returns False, having compared nothing, when the simulator rejects the
    sampled system itself (a virtualized history too large to pin in a
    small LLC) — on either backend alike."""
    if family == "shift":
        system, make, trace_set, buffer_blocks, chunk = _kernel_case(seed)
    else:
        system, num_cores, config, trace_set, buffer_blocks, chunk = _pif_case(seed)
        make = functools.partial(PIFPrefetcher, num_cores, config)
    try:
        SimulationEngine(system, prefetcher=make())._build_llc(trace_set)
    except SimulationError:
        return False
    numpy_backend._STREAM_CACHE.clear()
    backend, calls = _counting_numpy_backend()
    with _wide_region_offsets(make().config.spatial_region.region_blocks):
        reference = _drive(
            get_backend("python"), system, make(), trace_set, buffer_blocks, chunk
        )
        candidate = _drive(backend, system, make(), trace_set, buffer_blocks, chunk)
    assert calls, f"{family} seed {seed}: the numpy run never reached the compiled kernel"
    assert candidate == reference, f"{family} seed {seed}: numpy diverged from python"
    return True


def kernel_differential(seeds):
    """:func:`check_kernel_case` for PIF and SHIFT on every seed in ``seeds``
    (a larger budget than tier-1 runs, for CI); prints a one-line summary
    and fails on the first mismatch."""
    compared = rejected = 0
    for seed in seeds:
        for family in ("pif", "shift"):
            if check_kernel_case(family, seed):
                compared += 1
            else:
                rejected += 1
    print(
        f"stream kernel differential OK: {compared} cases matched, "
        f"{rejected} sampled systems rejected by the simulator"
    )


class TestShiftLaneKernelParity:
    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_kernel_matches_python_backend(self, seed):
        assert check_kernel_case("shift", seed)


#: Small stream prefetchers for the refusal cases: SHIFT's index is as
#: large as its history, PIF's a quarter of it.
STREAM_FAMILIES = {
    "shift": lambda num_cores: SHIFTPrefetcher(
        num_cores, config=scaled_shift_config(16, history_entries=256)
    ),
    "pif": lambda num_cores: PIFPrefetcher(
        num_cores, PIFConfig(history_entries=64, index_entries=16)
    ),
}


def _observe(prefetcher, lanes, llc):
    return (
        prefetcher.state_key(),
        [(lane[2].state_key(), lane[3].state_key(), asdict(lane[4])) for lane in lanes],
        llc.snapshot(),
    )


def _warm_second_chunk(prefetcher, traces, system, split):
    """Run ``traces[:split]`` on the python backend, so the second chunk
    starts from restored state worth protecting; returns that chunk's
    lanes, the LLC and the in-flight windows."""
    caches = {t.core_id: SetAssociativeCache(system.l1i) for t in traces.traces}
    buffers = {t.core_id: PrefetchBuffer(64) for t in traces.traces}
    llc = SimulationEngine(system, prefetcher=prefetcher)._build_llc(traces)
    inflight = {t.core_id: 3 for t in traces.traces}

    def lanes_for(start, stop):
        return [
            (t.core_id, t.window(start, stop), caches[t.core_id],
             buffers[t.core_id], CoreResult(core_id=t.core_id))
            for t in traces.traces
        ]

    get_backend("python").run(lanes_for(0, split), inflight, prefetcher, llc)
    stop = max(t.num_accesses for t in traces.traces)
    return lanes_for(split, stop), llc, inflight


class TestStreamSolverRefusals:
    """Every ``_Unsupported`` raise in the stream solver comes before its
    first write: the refused run leaves prefetcher, buffer, L1, stats and
    LLC state exactly as it found them, so the Python fallback starts
    from the true state."""

    @pytest.mark.parametrize("family", sorted(STREAM_FAMILIES))
    def test_int64_headroom_guard_refuses_before_any_write(self, family):
        """Triggers within region_blocks of the int64 limit would overflow
        trigger + offset in C: the solver refuses (after a warm first chunk,
        so there is restored state to protect), nothing changes, and the
        backend's exact Python fallback matches the python backend."""
        top = 2**63 - 1
        rng = random.Random(7)
        traces = TraceSet(
            traces=[
                CoreTrace(core, [top - rng.randrange(0, 40) for _ in range(400)])
                for core in range(2)
            ]
        )
        system = scaled_system(num_cores=2)
        make = functools.partial(STREAM_FAMILIES[family], 2)
        prefetcher = make()
        lanes, llc, inflight = _warm_second_chunk(prefetcher, traces, system, 200)
        before = _observe(prefetcher, lanes, llc)
        backend = numpy_backend.NumPyBackend()
        with pytest.raises(numpy_backend._Unsupported, match="int64 max"):
            numpy_backend._run_stream(
                backend._stream_lane, lanes, inflight, prefetcher, llc
            )
        assert _observe(prefetcher, lanes, llc) == before
        assert _drive(backend, system, make(), traces, 64, 200) == _drive(
            get_backend("python"), system, make(), traces, 64, 200
        )

    @pytest.mark.parametrize(
        "site, match",
        [
            ("streams", "more restored streams than stream buffers"),
            ("outstanding", "stream outstanding sets disagree"),
            ("int64", "beyond int64"),
        ],
    )
    def test_pif_state_refusals_leave_state_untouched(self, site, match):
        """Restored PIF state the kernel cannot hold — more streams than
        stream buffers, an outstanding set the owner map disagrees with, a
        counter beyond int64 — is refused before any write, and the
        backend's fallback then matches the python backend."""
        rng = random.Random(11)
        traces = _dense_traces(rng, 2, 600, 8)
        system = scaled_system(num_cores=2)
        prefetcher = STREAM_FAMILIES["pif"](2)
        lanes, llc, inflight = _warm_second_chunk(prefetcher, traces, system, 300)
        engine = prefetcher._streams[1]
        num_streams = prefetcher.config.stream_buffer.num_streams
        if site == "streams":
            engine._streams.extend(
                _Stream(0) for _ in range(num_streams + 1 - len(engine._streams))
            )
        elif site == "outstanding":
            if not engine._streams:
                engine._streams.append(_Stream(0))
            engine._streams[-1].outstanding.add(-1)  # a block no owner entry names
        else:
            engine.dispatches = 2**64
        before = _observe(prefetcher, lanes, llc)
        twin = copy.deepcopy((prefetcher, lanes, llc))
        backend = numpy_backend.NumPyBackend()
        with pytest.raises(numpy_backend._Unsupported, match=match):
            numpy_backend._run_stream(
                backend._stream_lane, lanes, inflight, prefetcher, llc
            )
        assert _observe(prefetcher, lanes, llc) == before
        backend.run(lanes, inflight, prefetcher, llc)
        get_backend("python").run(twin[1], inflight, twin[0], twin[2])
        assert _observe(prefetcher, lanes, llc) == _observe(*twin)


#: Seeds of the python-PIF vs generic-loop cases.
PIF_SEEDS = tuple(range(16))


class _GenericPIF(PIFPrefetcher):
    """Not the exact built-in type, so every backend runs the generic
    round-robin loop through ``on_access``."""


def _pif_case(seed):
    rng = random.Random(seed)
    num_cores = rng.randint(1, 4)
    region = rng.choice([2, 3, 8, 16])
    history = rng.randint(16, 512)
    config = PIFConfig(
        history_entries=history,
        index_entries=rng.choice([4, rng.randint(4, history), history]),
        spatial_region=SpatialRegionConfig(region_blocks=region),
        stream_buffer=StreamBufferConfig(
            num_streams=rng.randint(1, 8),
            capacity_records=rng.randint(1, 12),
            lookahead_records=rng.randint(1, 16),
        ),
    )
    system = scaled_system(num_cores=num_cores)
    trace_set = _dense_traces(rng, num_cores, rng.choice([300, 900, 1_500]), region)
    chunk = rng.choice([None, rng.randint(1, 40), rng.randint(41, 700)])
    return system, num_cores, config, trace_set, rng.randint(1, 300), chunk


class TestPIFStreamLaneParity:
    @pytest.mark.parametrize("seed", PIF_SEEDS)
    def test_python_pif_matches_generic_loop(self, seed):
        system, num_cores, config, trace_set, buffer_blocks, chunk = _pif_case(seed)
        python = get_backend("python")
        fast = _drive(
            python, system, PIFPrefetcher(num_cores, config), trace_set,
            buffer_blocks, chunk,
        )
        generic = _drive(
            python, system, _GenericPIF(num_cores, config), trace_set,
            buffer_blocks, chunk,
        )
        assert fast == generic

    @pytest.mark.parametrize("seed", PIF_SEEDS)
    def test_numpy_pif_kernel_matches_python_backend(self, seed):
        """The numpy backend runs PIF on the compiled stream lane, one
        history group per core, with an exact bounded index."""
        assert check_kernel_case("pif", seed)
