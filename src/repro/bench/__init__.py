"""Micro-benchmark harness: the python backend against the numpy one.

One benchmark, ``hotloop``, emits ``BENCH_hotloop.json`` so performance
becomes part of the repo's recorded trajectory: per-engine simulation time
(none / next-line / PIF / SHIFT) on a single workload trace, ``python``
versus ``numpy`` backend (warm-cache, best-of-repeats), isolating the
:mod:`repro.sim._fastpath` / :mod:`repro.sim.backends` gains from trace
generation and driver overhead.  The result also carries a
``trace_generation`` section (cold vectorized generation vs warm
memory-mapped cache loads per suite entry, plus the v2-pickle old-vs-new
load ratio), so trace production is part of the same regression wall as
replay, and a ``trace_scale`` section (peak chunked simulation memory on
10x vs 100x traces plus exact chunked-vs-monolithic report equality), so
the out-of-core chunked-streaming bound of ARCHITECTURE.md is part of it
too.

:func:`check_against` is the CI bench-regression gate: it compares a fresh
hotloop run's *speedup ratios* against the committed ``BENCH_hotloop.json``
and fails on a >15% relative drop (ratios, unlike seconds, transfer across
machines).  Run with ``python -m repro.bench --quick`` for a CI-sized
smoke version, or ``--check-against BENCH_hotloop.json`` for the gate.
"""

# repro: allow-file[determinism] timing harness: perf_counter/strftime feed
# only the measurement fields of BENCH_*.json, never simulation results
from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, List

from ..config import scaled_pif_config, scaled_shift_config
from ..experiments.cells import system_for
from ..workloads.generator import generate_traces
from ..workloads.suite import WORKLOAD_NAMES, scaled_workload, workload_by_name

#: Workload subset used by ``--quick`` (OLTP and web: the two extremes).
QUICK_WORKLOADS = ("oltp_db2", "web_search")

#: Trace length per core for ``--quick`` (scaled default is 7500).
QUICK_BLOCKS = 3000

def _bench_trace_generation(
    quick: bool, seed: int, repeats: int
) -> Dict[str, object]:
    """Per-suite-entry trace production: cold generation vs warm cache loads.

    *Cold* is a full vectorized generation of the entry's trace set;
    *warm* is a :class:`~repro.workloads.trace_cache.TraceCache` load of the
    binary entry (a JSON sidecar read plus a read-only ``mmap`` of the
    column file) — the steady state of sweeps and parallel workers.  The
    old-vs-new load ratio times a pickle round trip of the same trace set
    against the binary load: pickling is what the v2 cache did on every
    load in every worker process.
    """
    import pickle
    import tempfile

    from ..workloads.trace_cache import TraceCache, trace_cache_key

    names = list(QUICK_WORKLOADS if quick else WORKLOAD_NAMES)
    blocks = QUICK_BLOCKS if quick else None
    sys_config = system_for("scaled", 16)
    suite: Dict[str, object] = {}
    cold_total = warm_total = pickle_total = 0.0
    with tempfile.TemporaryDirectory(prefix="bench-trace-cache-") as tmp:
        cache = TraceCache(tmp, max_bytes=0)
        for name in names:
            spec = scaled_workload(workload_by_name(name), sys_config.scale)
            key = trace_cache_key(spec, sys_config, seed, None, blocks)
            trace_set = None
            cold_runs = []
            for _ in range(repeats):
                started = time.perf_counter()
                trace_set = generate_traces(
                    spec, sys_config, seed=seed, blocks_per_core=blocks
                )
                cold_runs.append(time.perf_counter() - started)
            cache.store(key, trace_set)
            warm_runs = []
            for _ in range(repeats):
                started = time.perf_counter()
                loaded = cache.load(key)
                warm_runs.append(time.perf_counter() - started)
            assert loaded is not None and loaded == trace_set
            # The v2 cache pickled list-backed traces: every load in every
            # worker process re-materialized each address as a Python int.
            # Rebuild that payload shape for an honest old-vs-new ratio.
            legacy_payload = pickle.dumps(
                [
                    (t.core_id, t.addresses, t.instructions_per_block, t.workload)
                    for t in trace_set.traces
                ],
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            pickle_runs = []
            for _ in range(repeats):
                started = time.perf_counter()
                pickle.loads(legacy_payload)
                pickle_runs.append(time.perf_counter() - started)
            cold, warm = min(cold_runs), min(warm_runs)
            cold_total += cold
            warm_total += warm
            pickle_total += min(pickle_runs)
            suite[name] = {
                "cold_seconds": round(cold, 4),
                "warm_seconds": round(warm, 6),
                "warm_speedup": round(cold / warm, 1) if warm else 0.0,
            }
    result: Dict[str, object] = {
        "description": "per-suite-entry trace production: cold vectorized "
        "generation vs warm binary-cache load (JSON sidecar + read-only mmap), "
        "plus the v2-era list-payload pickle deserialization for the "
        "old-vs-new load ratio",
        "config": {"workloads": names, "blocks_per_core": blocks, "repeats": repeats},
        "suite": suite,
        "cold_seconds": round(cold_total, 4),
        "warm_seconds": round(warm_total, 6),
        "warm_speedup": round(cold_total / warm_total, 1) if warm_total else 0.0,
        "pickle_load_seconds": round(pickle_total, 6),
        "old_vs_new_load_ratio": (
            round(pickle_total / warm_total, 2) if warm_total else 0.0
        ),
    }
    return result


def _bench_trace_scale(
    quick: bool, seed: int, workload: str = "oltp_db2"
) -> Dict[str, object]:
    """Out-of-core chunked streaming: peak memory must be flat in trace length.

    Simulates SHIFT with a fixed ``--chunk-blocks`` window on a 10x and a
    100x trace (``quick``: 5x and 20x, which keeps every gate but runs in a
    fifth of the time) and compares peak simulation memory
    (``tracemalloc``): ``peak_flatness`` is the long peak over the short
    one, which a healthy
    chunked path keeps near 1.0 — the working set is one window plus the
    serialized boundary checkpoint, both independent of trace length — and
    the CI gate caps at :data:`_GATE_TRACE_SCALE_FLATNESS_MAX`.  The long
    monolithic run, whose peak grows with the full trace (the Python loops
    materialize each lane's address list), is the contrast:
    ``monolithic_vs_chunked`` is the memory reduction chunking buys at
    this length, and ``chunked_matches_monolithic`` asserts the chunked
    report is exactly the monolithic one (counter-for-counter, on both
    backends when numpy is present) — the chunking-invariance contract of
    ARCHITECTURE.md.  Peaks are absolute bytes, so the flatness ratio
    transfers across machines the same way the speedup ratios do.

    The wall-clock side times the same long chunked run on the python
    loops against the numpy backend's warm-state vectorized replay
    (best-of-repeats, warm-cache — the steady state of sweeps, same
    rationale as the hotloop backend timings): ``chunked_numpy_speedup``
    is the full-run ratio at the canonical 1000-block window and carries
    an absolute CI floor (:data:`_GATE_CHUNKED_NUMPY_MIN_SPEEDUP`), and
    ``chunk_size_curve`` repeats the measurement at 500/1000/5000-block
    windows so the checkpoint-overhead vs vectorization-win tradeoff is
    visible: smaller windows mean more boundary state swaps per solved
    window, larger ones amortize them but solve more per memo entry.
    """
    import tracemalloc
    from dataclasses import asdict
    from functools import partial

    from ..sim import available_backends, simulate

    chunk_blocks = 1000
    mid_scale, large_scale = (5, 20) if quick else (10, 100)
    blocks_mid = chunk_blocks * mid_scale
    blocks_large = chunk_blocks * large_scale
    num_cores = 4
    timing_repeats = 1 if quick else 3
    curve_windows = (500, 1000, 5000)
    sys_config = system_for("scaled", 16, num_cores)
    shift_config = scaled_shift_config(sys_config.scale)
    spec = scaled_workload(workload_by_name(workload), sys_config.scale)
    mid = generate_traces(spec, sys_config, seed=seed, blocks_per_core=blocks_mid)
    large = generate_traces(spec, sys_config, seed=seed, blocks_per_core=blocks_large)

    def _run(trace_set, window, backend="python"):
        return simulate(
            trace_set,
            sys_config,
            "shift",
            backend=backend,
            chunk_blocks=window,
            shift_config=shift_config,
        )

    def _peak_of(thunk):
        tracemalloc.start()
        try:
            value = thunk()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return value, peak

    _mid_result, mid_peak = _peak_of(partial(_run, mid, chunk_blocks))
    chunked_result, chunked_peak = _peak_of(partial(_run, large, chunk_blocks))
    mono_result, mono_peak = _peak_of(partial(_run, large, None))

    def _same_report(a, b):
        return [asdict(c) for c in a.cores] == [asdict(c) for c in b.cores] and (
            asdict(a.llc) == asdict(b.llc)
        )

    matches = _same_report(chunked_result, mono_result)
    numpy_available = "numpy" in available_backends()
    curve = []
    chunked_numpy_speedup = None
    for window in curve_windows:
        # The gate window feeds the absolute chunked_numpy_speedup floor,
        # so it samples twice as deep: the warm numpy run is short enough
        # that a scheduler-noise burst can inflate every run in a shallow
        # best-of and push the ratio under the floor spuriously.
        repeats = timing_repeats * 2 if window == chunk_blocks else timing_repeats
        python_best = min(
            _timed(partial(_run, large, window)) for _ in range(repeats)
        )
        point = {
            "chunk_blocks": window,
            "python_seconds": round(python_best, 4),
        }
        if numpy_available:
            # Warm-cache best-of: the first repeat pays the memo fill, so
            # the numpy side always gets at least two runs (quick included)
            # — a cold-only ratio would gate the wrong thing.  It also
            # samples twice as deep as the python side: the warm runs are
            # ~6x shorter, so their best-of needs more draws to escape a
            # scheduler-noise burst.
            numpy_runs = [
                _timed_result(partial(_run, large, window, "numpy"))
                for _ in range(max(2, repeats * 2))
            ]
            numpy_best = min(seconds for seconds, _result in numpy_runs)
            point["numpy_seconds"] = round(numpy_best, 4)
            point["numpy_speedup"] = round(python_best / numpy_best, 3)
            matches = matches and _same_report(numpy_runs[-1][1], mono_result)
            if window == chunk_blocks:
                chunked_numpy_speedup = point["numpy_speedup"]
        curve.append(point)
    result = {
        "description": "out-of-core chunked streaming: SHIFT with a fixed "
        f"--chunk-blocks window on {mid_scale}x and {large_scale}x traces; peak "
        "tracemalloc bytes must be flat in trace length (peak_flatness, "
        f"CI-capped), the {large_scale}x "
        "monolithic run is the memory-reduction contrast, the chunked report "
        "must equal the monolithic one exactly on every backend, and the "
        "chunk-size curve times chunked python vs warm-state chunked numpy "
        "(best-of-repeats) per window size",
        "config": {
            "workload": workload,
            "engine": "shift",
            "seed": seed,
            "num_cores": num_cores,
            "chunk_blocks": chunk_blocks,
            "blocks_mid": blocks_mid,
            "blocks_large": blocks_large,
            "timing_repeats": timing_repeats,
            "curve_windows": list(curve_windows),
        },
        "chunked_mid_peak_bytes": mid_peak,
        "chunked_large_peak_bytes": chunked_peak,
        "monolithic_large_peak_bytes": mono_peak,
        "peak_flatness": round(chunked_peak / mid_peak, 3) if mid_peak else 0.0,
        "monolithic_vs_chunked": (
            round(mono_peak / chunked_peak, 2) if chunked_peak else 0.0
        ),
        "chunked_matches_monolithic": matches,
        "chunk_size_curve": curve,
    }
    if chunked_numpy_speedup is not None:
        result["chunked_numpy_speedup"] = chunked_numpy_speedup
    return result


def bench_hotloop(
    quick: bool = False, seed: int = 0, repeats: int = 3, workload: str = "oltp_db2"
) -> Dict[str, object]:
    """Per-engine simulation time on one trace, python vs. numpy backend.

    Backend timings are best-of-``repeats``: with ``repeats >= 2`` the
    numpy numbers are *warm-cache* throughput — the backend's trace-pure
    precomputations (hit flags, record streams, solved timelines) are
    memoized across runs of the same trace set, which is the steady state
    of sweeps and repeated ``--check`` invocations.  Exact-counter
    equality between the backends is asserted (``backends_match``).
    """
    sys_config = system_for("scaled", 16)
    spec = scaled_workload(workload_by_name(workload), sys_config.scale)
    blocks = QUICK_BLOCKS if quick else None
    trace_set = generate_traces(spec, sys_config, seed=seed, blocks_per_core=blocks)
    if quick:
        repeats = 1
    pif_config = scaled_pif_config(sys_config.scale)
    shift_config = scaled_shift_config(sys_config.scale)
    engine_kwargs = {
        "none": {},
        "next_line": {},
        "pif": {"pif_config": pif_config},
        "shift": {"shift_config": shift_config},
    }
    engines: Dict[str, object] = {}
    total_optimized = 0.0
    from dataclasses import asdict
    from functools import partial

    from ..sim import available_backends, simulate

    numpy_available = "numpy" in available_backends()
    backends_match = True
    total_numpy = 0.0
    for engine, kwargs in engine_kwargs.items():
        python_runs = [
            _timed_result(
                partial(simulate, trace_set, sys_config, engine, backend="python", **kwargs)
            )
            for _ in range(repeats)
        ]
        optimized_best = min(seconds for seconds, _result in python_runs)
        total_optimized += optimized_best
        engines[engine] = {"optimized_seconds": round(optimized_best, 4)}
        if numpy_available:
            # Warm numpy runs are 10-100x shorter than the python loops
            # they are compared against, so one scheduler-noise burst can
            # inflate a shallow best-of and swing the gated ratio; the
            # cheap side samples deeper to pin the denominator.
            numpy_runs = [
                _timed_result(
                    partial(simulate, trace_set, sys_config, engine, backend="numpy", **kwargs)
                )
                for _ in range(max(2, repeats * 3))
            ]
            numpy_best = min(seconds for seconds, _result in numpy_runs)
            total_numpy += numpy_best
            engines[engine]["numpy_seconds"] = round(numpy_best, 4)
            engines[engine]["numpy_speedup"] = round(optimized_best / numpy_best, 3)
            # Parity check against one (deterministic) run of each backend,
            # reusing results the timing loops already produced.
            python_result = python_runs[-1][1]
            numpy_result = numpy_runs[-1][1]
            if [asdict(c) for c in python_result.cores] != [
                asdict(c) for c in numpy_result.cores
            ] or asdict(python_result.llc) != asdict(numpy_result.llc):
                backends_match = False
    result: Dict[str, object] = {
        "benchmark": "hotloop",
        "description": "per-engine simulation of one workload trace: python "
        "vs numpy backend (warm-cache, best-of-repeats)",
        "config": {
            "workload": workload,
            "seed": seed,
            "blocks_per_core": blocks,
            "accesses": trace_set.total_accesses,
            "quick": quick,
            "repeats": repeats,
        },
        "engines": engines,
        "backend": {
            "numpy_available": numpy_available,
        },
    }
    if numpy_available:
        result["backend"]["backends_match"] = backends_match
        result["backend"]["total_numpy_speedup"] = round(total_optimized / total_numpy, 3)
    result["trace_generation"] = _bench_trace_generation(quick, seed, repeats)
    result["trace_scale"] = _bench_trace_scale(quick, seed)
    return result


def _timed(thunk) -> float:
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


def _timed_result(thunk):
    """Like :func:`_timed` but keeps the run's return value."""
    started = time.perf_counter()
    value = thunk()
    return time.perf_counter() - started, value


#: Relative headroom the bench-regression gate allows before failing.
DEFAULT_REGRESSION_TOLERANCE = 0.15

#: Config keys that must match for two hotloop runs to be comparable.
#: ``repeats``/``quick`` matter because warm-cache numpy timings need
#: ``repeats >= 2`` — a cold single-repeat run would false-fail against a
#: warm baseline.
_COMPARABLE_CONFIG_KEYS = ("workload", "seed", "blocks_per_core", "accesses", "repeats", "quick")

#: Per-engine numpy-vs-python ratios below this in the *baseline* are not
#: gated: they mark engines running through the exact Python fallback,
#: where the ratio is timing noise around 1.0, not a speedup that could
#: regress.
_GATE_MIN_BASELINE_SPEEDUP = 1.5

#: Engines with an *absolute* warm numpy-speedup floor, independent of the
#: committed baseline.  SHIFT graduated from the Python-fallback exemption
#: when the epoch-split solver landed (~20x measured); if a change knocks
#: it back onto the exact fallback the ratio collapses to ~1.0 and this
#: floor fails the gate even against a stale pre-solver baseline.
_GATE_ENGINE_MIN_SPEEDUP = {"shift": 8.0}

#: Ceiling on ``trace_scale.peak_flatness`` — chunked peak simulation
#: memory at 100x the trace length over the peak at 10x, same chunk
#: window.  A healthy chunked path sits near 1.0 (the working set is one
#: window plus the boundary checkpoint, independent of trace length); a
#: ratio above this ceiling means chunked streaming lost its bounded
#: working set and scales with the full trace again.  Absolute, not
#: baseline-relative: the bound is the contract.
_GATE_TRACE_SCALE_FLATNESS_MAX = 1.5

#: Absolute floor on ``trace_scale.chunked_numpy_speedup`` — the warm
#: full-run ratio of chunked python over chunked numpy at the canonical
#: 1000-block window.  Like the SHIFT hotloop floor, this is independent
#: of the committed baseline: if warm-state resumption regresses to the
#: exact Python fallback the ratio collapses to ~1.0 and CI fails even
#: against a stale baseline.  Only enforced where numpy is available.
_GATE_CHUNKED_NUMPY_MIN_SPEEDUP = 5.0

#: Cap applied to the committed trace-generation warm speedup before the
#: tolerance: warm loads are sub-millisecond mmap opens, so beyond ~10x
#: the ratio measures filesystem latency on the recording machine, not the
#: code path.  The clamped gate still enforces >= 8.5x at the default
#: tolerance — far above the 3x floor the refactor promises.
_GATE_TRACE_GEN_SPEEDUP_CAP = 10.0


def check_against(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_REGRESSION_TOLERANCE,
) -> List[str]:
    """Compare a fresh benchmark result against a committed baseline.

    Returns a list of regressions (empty = gate passes).  The gate
    compares *speedup ratios* — the per-engine warm-cache numpy-vs-python
    ratios — rather than absolute seconds, so it is portable across
    machines: a ratio that drops more than ``tolerance`` below the
    committed value means the numpy backend lost ground relative to the
    same-machine python reference it is measured against.  Ratios that do
    not measure a real speedup are excluded as pure timing noise: numpy
    ratios of Python-fallback engines sit below
    :data:`_GATE_MIN_BASELINE_SPEEDUP` in the baseline.  Engines listed
    in :data:`_GATE_ENGINE_MIN_SPEEDUP` additionally carry an *absolute*
    warm-speedup floor (SHIFT: 8x) that holds regardless of the committed
    baseline, so losing the vectorized path fails CI even if the baseline
    predates it.  The
    trace-generation warm speedup is gated against the committed value
    clamped to :data:`_GATE_TRACE_GEN_SPEEDUP_CAP` (the uncapped ratio is
    dominated by sub-millisecond load times).  The ``trace_scale`` section
    carries three absolute gates: ``chunked_matches_monolithic`` must be
    true (chunking invariance), ``peak_flatness`` must stay below
    :data:`_GATE_TRACE_SCALE_FLATNESS_MAX` (the out-of-core memory
    bound), and — where numpy is available — ``chunked_numpy_speedup``
    must clear :data:`_GATE_CHUNKED_NUMPY_MIN_SPEEDUP` (the warm-state
    vectorized chunked replay).  A backend divergence (``backends_match``
    gone false) always fails.
    """
    violations: List[str] = []
    if current.get("benchmark") != baseline.get("benchmark"):
        return [
            f"benchmark mismatch: current {current.get('benchmark')!r} vs "
            f"baseline {baseline.get('benchmark')!r}"
        ]
    current_config = dict(current.get("config", {}))
    baseline_config = dict(baseline.get("config", {}))
    for key in _COMPARABLE_CONFIG_KEYS:
        if key in baseline_config and current_config.get(key) != baseline_config[key]:
            violations.append(
                f"config.{key} differs (current {current_config.get(key)!r} vs "
                f"baseline {baseline_config[key]!r}); runs are not comparable"
            )
    if violations:
        return violations

    def _check_ratio(name: str, cur, base) -> None:
        if not isinstance(cur, (int, float)) or not isinstance(base, (int, float)):
            return
        floor = base * (1.0 - tolerance)
        if cur < floor:
            violations.append(
                f"{name} regressed: {cur} vs committed {base} "
                f"(floor {floor:.3f} at {tolerance:.0%} tolerance)"
            )

    baseline_backend = dict(baseline.get("backend", {}))
    current_backend = dict(current.get("backend", {}))
    if baseline_backend.get("numpy_available") and current_backend.get("numpy_available"):
        if current_backend.get("backends_match") is False:
            violations.append("backend.backends_match is false: backends diverged")
    elif baseline_backend.get("numpy_available") and not current_backend.get("numpy_available"):
        violations.append("baseline has numpy backend results but numpy is unavailable here")
    current_engines = dict(current.get("engines", {}))
    for engine, baseline_data in dict(baseline.get("engines", {})).items():
        current_data = current_engines.get(engine)
        if current_data is None:
            violations.append(f"engine {engine!r} missing from current results")
            continue
        baseline_ratio = baseline_data.get("numpy_speedup")
        if (
            isinstance(baseline_ratio, (int, float))
            and baseline_ratio >= _GATE_MIN_BASELINE_SPEEDUP
            and "numpy_speedup" in current_data
        ):
            _check_ratio(
                f"engines.{engine}.numpy_speedup",
                current_data.get("numpy_speedup"),
                baseline_ratio,
            )
        absolute_floor = _GATE_ENGINE_MIN_SPEEDUP.get(engine)
        if absolute_floor is not None and current_backend.get("numpy_available"):
            current_ratio = current_data.get("numpy_speedup")
            if not isinstance(current_ratio, (int, float)):
                violations.append(
                    f"engines.{engine}.numpy_speedup missing from current "
                    f"results (absolute floor {absolute_floor}x)"
                )
            elif current_ratio < absolute_floor:
                violations.append(
                    f"engines.{engine}.numpy_speedup below absolute floor: "
                    f"{current_ratio} vs required {absolute_floor}x "
                    "(vectorized path lost or regressed to the Python fallback)"
                )
    baseline_gen = baseline.get("trace_generation")
    if isinstance(baseline_gen, dict) and isinstance(
        baseline_gen.get("warm_speedup"), (int, float)
    ):
        current_gen = current.get("trace_generation")
        if not isinstance(current_gen, dict):
            violations.append("trace_generation section missing from current results")
        else:
            _check_ratio(
                "trace_generation.warm_speedup",
                current_gen.get("warm_speedup"),
                min(float(baseline_gen["warm_speedup"]), _GATE_TRACE_GEN_SPEEDUP_CAP),
            )
    if isinstance(baseline.get("trace_scale"), dict):
        current_scale = current.get("trace_scale")
        if not isinstance(current_scale, dict):
            violations.append("trace_scale section missing from current results")
        else:
            if current_scale.get("chunked_matches_monolithic") is not True:
                violations.append(
                    "trace_scale.chunked_matches_monolithic is false: the "
                    "chunked run's report diverged from the monolithic one"
                )
            ratio = current_scale.get("peak_flatness")
            if not isinstance(ratio, (int, float)):
                violations.append("trace_scale.peak_flatness missing from current results")
            elif ratio > _GATE_TRACE_SCALE_FLATNESS_MAX:
                violations.append(
                    f"trace_scale.peak_flatness above ceiling: {ratio} vs allowed "
                    f"{_GATE_TRACE_SCALE_FLATNESS_MAX} (chunked streaming "
                    "lost its bounded working set)"
                )
            if current_backend.get("numpy_available"):
                warm_ratio = current_scale.get("chunked_numpy_speedup")
                if not isinstance(warm_ratio, (int, float)):
                    violations.append(
                        "trace_scale.chunked_numpy_speedup missing from current "
                        f"results (absolute floor {_GATE_CHUNKED_NUMPY_MIN_SPEEDUP}x)"
                    )
                elif warm_ratio < _GATE_CHUNKED_NUMPY_MIN_SPEEDUP:
                    violations.append(
                        "trace_scale.chunked_numpy_speedup below absolute floor: "
                        f"{warm_ratio} vs required {_GATE_CHUNKED_NUMPY_MIN_SPEEDUP}x "
                        "(warm-state vectorized replay lost or regressed to the "
                        "Python fallback)"
                    )
    return violations


def write_bench_json(result: Dict[str, object], out_dir: "str | Path" = ".") -> Path:
    """Write one benchmark result to ``BENCH_<name>.json`` in ``out_dir``."""
    payload = dict(result)
    payload["created"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    payload["python"] = platform.python_version()
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    path = Path(out_dir) / f"BENCH_{result['benchmark']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


__all__ = [
    "QUICK_WORKLOADS",
    "QUICK_BLOCKS",
    "DEFAULT_REGRESSION_TOLERANCE",
    "bench_hotloop",
    "check_against",
    "write_bench_json",
]
