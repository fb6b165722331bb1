"""The multi-core trace-driven simulation loop.

Cores are stepped round-robin, one access per core per step, which keeps
shared structures (the SHIFT history and index) warming up concurrently with
the consumers — a sequential per-core loop would let the trainer finish its
whole trace before any other core issues a lookup, which is both unrealistic
and unfairly favourable.

How the replay is *executed* is delegated to a
:class:`~repro.sim.backends.Backend` (``backend=`` / ``--backend`` /
``REPRO_BACKEND``): the ``python`` backend runs the specialized loops of
:mod:`repro.sim._fastpath` with the cache, buffer and stream operations
inlined, the ``numpy`` backend replaces them with array passes where the
structure allows.  Results are bit-identical across all paths; the
regression tests pin every fast path to the generic loop
(:meth:`SimulationEngine._run_round_robin`) and the backends to each other.

Backends must leave the :class:`CoreResult` counters, the prefetch-buffer
contents, the prefetcher's mutable state, the LLC *and the L1 cache
objects* exactly as the reference loop would: the chunked engine
(:meth:`SimulationEngine._run_chunked`) carries all of them across every
window boundary and resumes the next window from that state, so final L1
contents are part of the backend contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import SystemConfig, scaled_system
from ..errors import SimulationError
from ..workloads.address_space import HISTORY_REGION_BASE, HISTORY_REGION_SPACING
from ..workloads.trace import TraceSet
from .backends import Backend, get_backend
from .cache import PrefetchBuffer, SetAssociativeCache
from .llc import LLCStats, SharedLLC
from .prefetchers import (
    HIT,
    MISS,
    PREFETCH_HIT,
    ConsolidatedSHIFTPrefetcher,
    Prefetcher,
    SHIFTPrefetcher,
    make_prefetcher,
)

#: Default per-core prefetch-buffer capacity in blocks (4 streams x 12
#: records x ~5 blocks per record, rounded up).
DEFAULT_PREFETCH_BUFFER_BLOCKS = 256


@dataclass
class CoreResult:
    """Per-core statistics of one simulation run.

    ``prefetch_hits`` counts demand accesses served by a prefetch that had
    fully arrived; ``late_hits`` counts accesses that found their block still
    in flight, which hides only part of the miss latency.  A late hit is
    accounted as half a miss (see :attr:`effective_misses`), matching the
    half-latency charge of the timing model.

    When the shared LLC is modelled, every demand miss is classified:
    ``llc_hits`` were served by the LLC, ``memory_misses`` went to main
    memory (``llc_hits + memory_misses == misses``).  Runs without an LLC
    model (``model_llc=False``) leave both at 0.
    """

    core_id: int
    accesses: int = 0
    instructions: int = 0
    demand_hits: int = 0
    prefetch_hits: int = 0
    late_hits: int = 0
    misses: int = 0
    prefetches_issued: int = 0
    prefetches_unused: int = 0
    history_block_reads: int = 0
    llc_hits: int = 0
    memory_misses: int = 0

    @property
    def effective_misses(self) -> float:
        """Misses with in-flight (late) prefetch hits counted at half weight."""
        return self.misses + 0.5 * self.late_hits

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def mpki(self) -> float:
        """Demand misses per kilo-instruction."""
        return 1000.0 * self.misses / self.instructions if self.instructions else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        useful = self.prefetch_hits + self.late_hits
        return useful / self.prefetches_issued if self.prefetches_issued else 0.0


@dataclass
class SimulationResult:
    """Results of simulating one trace set with one prefetcher."""

    prefetcher_name: str
    system: SystemConfig
    cores: List[CoreResult] = field(default_factory=list)
    #: Dedicated prefetcher storage per core (0 for baseline/next-line).
    storage_bytes_per_core: int = 0
    #: Shared-LLC statistics; None when the LLC was not modelled.
    llc: Optional[LLCStats] = None

    @property
    def total_accesses(self) -> int:
        return sum(c.accesses for c in self.cores)

    @property
    def total_misses(self) -> int:
        return sum(c.misses for c in self.cores)

    @property
    def total_effective_misses(self) -> float:
        return sum(c.effective_misses for c in self.cores)

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    @property
    def total_llc_hits(self) -> int:
        return sum(c.llc_hits for c in self.cores)

    @property
    def total_memory_misses(self) -> int:
        return sum(c.memory_misses for c in self.cores)

    @property
    def llc_hit_ratio(self) -> float:
        """LLC hit ratio over all instruction accesses (demand + prefetch)."""
        return self.llc.instruction_hit_ratio if self.llc is not None else 0.0

    @property
    def miss_ratio(self) -> float:
        return self.total_misses / self.total_accesses if self.total_accesses else 0.0

    @property
    def mpki(self) -> float:
        return (
            1000.0 * self.total_misses / self.total_instructions
            if self.total_instructions
            else 0.0
        )

    def coverage_vs(self, baseline: "SimulationResult") -> float:
        """Fraction of the baseline's (effective) misses this run eliminated."""
        if baseline.total_effective_misses == 0:
            return 0.0
        return 1.0 - self.total_effective_misses / baseline.total_effective_misses

    def by_core(self) -> Dict[int, CoreResult]:
        return {c.core_id: c for c in self.cores}


class SimulationEngine:
    """Runs a trace set through per-core L1-I caches with one prefetcher."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        prefetcher: Optional[Prefetcher] = None,
        prefetch_buffer_blocks: int = DEFAULT_PREFETCH_BUFFER_BLOCKS,
        model_llc: bool = True,
        backend: "str | Backend | None" = None,
        chunk_blocks: Optional[int] = None,
    ) -> None:
        self._system = system if system is not None else scaled_system()
        self._prefetcher = prefetcher if prefetcher is not None else Prefetcher()
        self._buffer_blocks = prefetch_buffer_blocks
        self._model_llc = model_llc
        self._backend = get_backend(backend)
        if chunk_blocks is not None and chunk_blocks < 1:
            raise SimulationError("chunk_blocks must be a positive block count")
        self._chunk_blocks = chunk_blocks

    @property
    def system(self) -> SystemConfig:
        return self._system

    @property
    def prefetcher(self) -> Prefetcher:
        return self._prefetcher

    @property
    def backend(self) -> Backend:
        return self._backend

    def run(self, trace_set: TraceSet) -> SimulationResult:
        system = self._system
        if trace_set.num_cores > system.num_cores:
            raise SimulationError(
                f"trace set has {trace_set.num_cores} cores but the system "
                f"only has {system.num_cores}"
            )
        prefetcher = self._prefetcher

        cores = sorted(trace_set.traces, key=lambda t: t.core_id)
        caches = {t.core_id: SetAssociativeCache(system.l1i) for t in cores}
        buffers = {t.core_id: PrefetchBuffer(self._buffer_blocks) for t in cores}
        results = {
            t.core_id: CoreResult(
                core_id=t.core_id,
                accesses=t.num_accesses,
                instructions=t.num_instructions,
            )
            for t in cores
        }
        # Lanes carry the CoreTrace itself: the numpy backend consumes its
        # columnar buffer zero-copy (and keys memos on its fingerprint),
        # the Python loops take the cached list view via address_list().
        lanes = [
            (t.core_id, t, caches[t.core_id], buffers[t.core_id], results[t.core_id])
            for t in cores
        ]
        # A prefetch needs the LLC round trip to arrive; expressed in demand
        # accesses of the issuing core (each access retires one block's worth
        # of instructions at base IPC).  A demand hit on a still-in-flight
        # prefetch is a *late* hit: only part of the latency is hidden.
        miss_latency = system.llc_demand_latency_cycles()
        inflight = {
            t.core_id: max(
                1,
                round(miss_latency * system.core.base_ipc / t.instructions_per_block),
            )
            for t in cores
        }

        llc = self._build_llc(trace_set) if self._model_llc else None

        max_len = max(t.num_accesses for t in cores)
        chunk_blocks = self._chunk_blocks
        if chunk_blocks is None or chunk_blocks >= max_len:
            self._backend.run(lanes, inflight, prefetcher, llc)
        else:
            self._run_chunked(
                cores, caches, buffers, results, inflight, prefetcher, llc,
                chunk_blocks, max_len,
            )

        for t in cores:
            lane_buffer = buffers[t.core_id]
            stats = results[t.core_id]
            stats.prefetches_unused = lane_buffer.evicted_unused + len(lane_buffer)
            stats.history_block_reads = prefetcher.history_block_reads(t.core_id)
        llc_stats: Optional[LLCStats] = None
        if llc is not None:
            llc.add_history_reads(sum(r.history_block_reads for r in results.values()))
            llc_stats = llc.stats()
        return SimulationResult(
            prefetcher_name=prefetcher.name,
            system=system,
            cores=[results[t.core_id] for t in cores],
            storage_bytes_per_core=prefetcher.storage_bytes_per_core(system.num_cores),
            llc=llc_stats,
        )

    def _run_chunked(
        self,
        cores,
        caches: Dict[int, SetAssociativeCache],
        buffers: Dict[int, PrefetchBuffer],
        results: Dict[int, CoreResult],
        inflight: Dict[int, int],
        prefetcher: Prefetcher,
        llc: Optional[SharedLLC],
        chunk_blocks: int,
        max_len: int,
    ) -> None:
        """Stream the traces through the backend in bounded windows.

        Every chunk covers the same global step range ``[start, stop)`` on
        every lane (zero-copy :meth:`~repro.workloads.trace.CoreTrace.window`
        views), so the round-robin interleaving — and with it every shared
        structure's access order — is exactly the monolithic one restricted
        to that window.  The live cache, buffer, prefetcher and LLC objects
        carry every piece of state across the boundary; nothing is
        serialized here.  (The tests prove the :meth:`snapshot`/
        :meth:`restore` checkpoints complete: a JSON-roundtripped
        continuation equals the live one.)

        Counter discipline: the fast paths *assign* per-core stats and
        ``evicted_unused`` (clobbering), so each chunk runs against fresh
        :class:`CoreResult` scratch and a zeroed eviction counter whose
        deltas are accumulated here; stream-engine counters and history
        write positions carry cumulatively through the live objects.
        Prefetch-issue timestamps are rebased at each boundary (chunk-local
        step counters restart at zero) so in-flight age classification is
        unchanged.

        Chunks execute on the engine's own backend.  The vectorized numpy
        backend resumes from restored warm state directly: restored L1
        contents seed its closed-form set recurrences as virtual pre-window
        accesses, restored buffers, compactors and history rings become
        each solver's starting point, and it materializes the final
        L1/buffer/LLC state the next chunk restores from (falling back to
        the exact Python loops per run where a structure is unsupported).
        Reports are unaffected: backends are pinned bit-identical to each
        other for every chunk geometry.
        """
        chunk_backend = self._backend
        evicted_acc = {t.core_id: 0 for t in cores}
        for start in range(0, max_len, chunk_blocks):
            stop = min(start + chunk_blocks, max_len)
            live = [t for t in cores if t.num_accesses > start]
            chunk_stats = {t.core_id: CoreResult(core_id=t.core_id) for t in live}
            for t in live:
                buffers[t.core_id].evicted_unused = 0
            lanes = [
                (
                    t.core_id,
                    t.window(start, stop),
                    caches[t.core_id],
                    buffers[t.core_id],
                    chunk_stats[t.core_id],
                )
                for t in live
            ]
            chunk_backend.run(lanes, inflight, prefetcher, llc)
            for t in live:
                core_id = t.core_id
                delta = chunk_stats[core_id]
                master = results[core_id]
                master.demand_hits += delta.demand_hits
                master.prefetch_hits += delta.prefetch_hits
                master.late_hits += delta.late_hits
                master.misses += delta.misses
                master.prefetches_issued += delta.prefetches_issued
                master.llc_hits += delta.llc_hits
                master.memory_misses += delta.memory_misses
                evicted_acc[core_id] += buffers[core_id].evicted_unused
                buffers[core_id].evicted_unused = 0
            if stop < max_len:
                span = stop - start
                for buffer in buffers.values():
                    buffer.rebase_timestamps(span)
        for core_id, evicted in evicted_acc.items():
            buffers[core_id].evicted_unused = evicted

    def _build_llc(self, trace_set: TraceSet) -> SharedLLC:
        """The run's shared LLC, with virtualized SHIFT histories pinned.

        History regions come from the trace set's address layouts (the
        ``HBBase`` windows of Section 4.2), so pinned history blocks can
        never alias instruction blocks; trace sets built without layouts
        fall back to the global history region base.
        """
        llc = SharedLLC(self._system.llc, self._system.num_cores)
        prefetcher = self._prefetcher

        def history_base(index: int) -> int:
            layouts = trace_set.layouts
            if index < len(layouts):
                return layouts[index].history.base
            return HISTORY_REGION_BASE + index * HISTORY_REGION_SPACING

        if isinstance(prefetcher, ConsolidatedSHIFTPrefetcher):
            if prefetcher.config.virtualized:
                blocks = prefetcher.history_llc_blocks_per_group
                for index in range(prefetcher.num_groups):
                    llc.pin_region(history_base(index), blocks)
        elif isinstance(prefetcher, SHIFTPrefetcher):
            if prefetcher.config.virtualized:
                llc.pin_region(history_base(0), prefetcher.config.history_llc_blocks)
        return llc

    @staticmethod
    def _run_round_robin(lanes, inflight, prefetcher, llc=None) -> None:
        """Generic loop over the public APIs, for custom prefetchers.

        This loop *defines* the round-robin semantics every fast path must
        reproduce, including the order in which cores' L1 misses and
        prefetch fetches reach the shared LLC: one access per core per
        step, lanes visited in core-id order, the demand classification of
        a miss preceding the prefetches it triggers.
        """
        from ._fastpath import address_list

        on_access = prefetcher.on_access
        lanes = [
            (core_id, address_list(addresses), cache, buffer, stats)
            for core_id, addresses, cache, buffer, stats in lanes
        ]
        max_len = max(len(addresses) for _, addresses, _, _, _ in lanes)
        for step in range(max_len):
            for core_id, addresses, cache, buffer, stats in lanes:
                if step >= len(addresses):
                    continue
                address = addresses[step]
                if cache.access(address):
                    outcome = HIT
                    stats.demand_hits += 1
                else:
                    issued_at = buffer.consume(address)
                    if issued_at is not None:
                        outcome = PREFETCH_HIT
                        if step - issued_at >= inflight[core_id]:
                            stats.prefetch_hits += 1
                        else:
                            stats.late_hits += 1
                    else:
                        outcome = MISS
                        stats.misses += 1
                        if llc is not None:
                            if llc.access_demand(address):
                                stats.llc_hits += 1
                            else:
                                stats.memory_misses += 1
                    cache.insert(address)
                for block in on_access(core_id, address, outcome):
                    if not cache.contains(block) and buffer.insert(block, step):
                        stats.prefetches_issued += 1
                        if llc is not None:
                            llc.access_prefetch(block)


def simulate(
    trace_set: TraceSet,
    system: Optional[SystemConfig] = None,
    prefetcher: "Prefetcher | str" = "none",
    model_llc: bool = True,
    backend: "str | Backend | None" = None,
    chunk_blocks: Optional[int] = None,
    **factory_kwargs,
) -> SimulationResult:
    """Convenience wrapper: simulate ``trace_set`` with a named prefetcher.

    ``backend`` selects the execution strategy (``python`` / ``numpy``; see
    :mod:`repro.sim.backends`); results are identical on every backend.
    ``chunk_blocks`` bounds how many accesses per core are in flight at
    once (out-of-core streaming over windowed trace views, state carried
    across chunk boundaries; see ARCHITECTURE.md); reports are identical
    for every chunk geometry, including ``None`` (monolithic).
    """
    sys_config = system if system is not None else scaled_system()
    if isinstance(prefetcher, str):
        prefetcher = make_prefetcher(prefetcher, sys_config, **factory_kwargs)
    engine = SimulationEngine(
        system=sys_config,
        prefetcher=prefetcher,
        model_llc=model_llc,
        backend=backend,
        chunk_blocks=chunk_blocks,
    )
    return engine.run(trace_set)


__all__ = [
    "CoreResult",
    "SimulationResult",
    "SimulationEngine",
    "simulate",
    "DEFAULT_PREFETCH_BUFFER_BLOCKS",
]
