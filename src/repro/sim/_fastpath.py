"""Specialized simulation loops for the built-in prefetcher engines.

The generic loop in :mod:`repro.sim.engine` pays for a method call per cache
access, per buffer probe and per prefetcher decision — in CPython that is
most of the simulation's wall clock.  This module provides loops specialized
per engine family that inline those operations on the underscore attributes
of :class:`~repro.sim.cache.SetAssociativeCache`,
:class:`~repro.sim.cache.PrefetchBuffer` and the stream machinery of
:mod:`repro.sim.prefetchers`, with every loop-invariant lookup hoisted into
locals:

* :func:`run_baseline` — no prefetcher: a pure cache hit/miss loop;
* :func:`run_next_line` — the tagged next-N-line engine, fully inlined;
* :func:`run_stream_shared` — the stream engines: PIF, SHIFT and
  consolidated SHIFT.  They differ only in who owns a history (see
  ``history_groups()``): PIF gives every core a private one, so each core
  is a group of one and its own trainer; SHIFT shares one history per
  group that a single trainer core writes.  Each lane runs as a generator,
  keeping its hot state in locals across steps, and the driver resumes
  them round-robin, so shared histories see exactly the generic loop's
  interleaving.

Shared-LLC modelling: the LLC's LRU state is shared by all cores, so the
order in which L1 misses and prefetch fetches reach it is semantically
load-bearing even for engines whose *prefetcher* state is per-core.  The
per-core loops (baseline, next-line) therefore record their LLC requests as
``(step, address, is_demand)`` events and :func:`_replay_llc` replays the
merged streams in exactly the round-robin order of the generic loop
(step-major, lanes in core-id order, a miss's demand classification before
the prefetches it triggers).  L1 and prefetcher behaviour is unaffected —
the LLC sits below the L1s and only classifies misses.  The stream lanes
already run round-robin and access the LLC inline.

Every loop is behaviour-pinned to the generic round-robin loop
(:meth:`~repro.sim.engine.SimulationEngine._run_round_robin`), which drives
the public prefetcher APIs: the regression tests assert exact equality of
all per-core counters and the LLC statistics.  Any semantic change here
that is not mirrored there is a bug.

These loops are the ``python`` backend of :mod:`repro.sim.backends` — the
reference implementation every other backend (e.g. the vectorized
``numpy`` one) is pinned against, and the exact fallback those backends
use where their assumptions do not hold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from .cache import PrefetchBuffer, SetAssociativeCache
from .prefetchers import (
    ConsolidatedSHIFTPrefetcher,
    PIFPrefetcher,
    SHIFTPrefetcher,
    _expand_offsets,
    _Stream,
)

if TYPE_CHECKING:  # engine imports this module; avoid the runtime cycle.
    from .engine import CoreResult
    from .llc import SharedLLC

#: One simulation lane: (core id, trace, cache, buffer, stats).  The trace
#: element is a :class:`~repro.workloads.trace.CoreTrace` (the columnar IR)
#: when built by the engine, but any plain int sequence works — every loop
#: normalizes through :func:`address_list`.
Lane = Tuple[int, "CoreTrace | List[int]", SetAssociativeCache, PrefetchBuffer, "CoreResult"]

#: One recorded LLC request of a per-core loop: (step, address, is_demand).
LLCEvent = Tuple[int, int, bool]

if TYPE_CHECKING:
    from ..workloads.trace import CoreTrace


def address_list(addresses) -> List[int]:
    """The plain-``list`` view of a lane's trace.

    A :class:`~repro.workloads.trace.CoreTrace` exposes its columnar buffer
    as a cached list through ``.addresses`` (materialized once per trace);
    raw sequences pass through untouched.  The CPython loops iterate the
    list — identical speed to the pre-columnar representation.
    """
    view = getattr(addresses, "addresses", None)
    return addresses if view is None else view


def _replay_llc(
    llc: "SharedLLC | None",
    per_lane: List[Tuple["CoreResult", List[LLCEvent]]],
) -> None:
    """Replay recorded LLC requests in the generic loop's round-robin order.

    ``per_lane`` pairs each lane's stats with its LLC events in lane
    (core-id) order; each lane's events are already step-sorted, so the
    merged order — step-major, lane order within a step, recording order
    within a (lane, step) — is exactly the order the generic round-robin
    loop would have issued them in.  The LLC operations are inlined on the
    underscore attributes (``SharedLLC.access_demand`` / ``access_prefetch``
    semantics), like every other fast path.
    """
    if llc is None:
        return
    sets = llc._sets
    num_sets = llc._num_sets
    avail = llc._avail
    banks = llc._banks
    bank_accesses = llc.bank_accesses
    pinned = llc._pinned
    demand_hits = demand_misses = prefetch_hits = prefetch_misses = 0
    lanes = [(stats, events, len(events)) for stats, events in per_lane]
    pointers = [0] * len(lanes)
    remaining = sum(end for _, _, end in lanes)
    step = 0
    while remaining:
        for lane_index, (stats, events, end) in enumerate(lanes):
            pos = pointers[lane_index]
            while pos < end and events[pos][0] == step:
                _, address, is_demand = events[pos]
                pos += 1
                remaining -= 1
                set_index = address % num_sets
                bank_accesses[set_index % banks] += 1
                lines = sets[set_index]
                if address in pinned:
                    hit = True
                elif address in lines:
                    if lines[0] != address:
                        lines.remove(address)
                        lines.insert(0, address)
                    hit = True
                else:
                    lines.insert(0, address)
                    if len(lines) > avail[set_index]:
                        lines.pop()
                    hit = False
                if is_demand:
                    if hit:
                        demand_hits += 1
                        stats.llc_hits += 1
                    else:
                        demand_misses += 1
                        stats.memory_misses += 1
                elif hit:
                    prefetch_hits += 1
                else:
                    prefetch_misses += 1
            pointers[lane_index] = pos
        step += 1
    llc.demand_hits += demand_hits
    llc.demand_misses += demand_misses
    llc.prefetch_hits += prefetch_hits
    llc.prefetch_misses += prefetch_misses


def run_baseline(lanes: List[Lane], llc: "SharedLLC | None" = None) -> None:
    """No-prefetch loop: every access is a demand hit or a demand miss."""
    per_lane: List[Tuple["CoreResult", List[LLCEvent]]] = []
    for _core_id, addresses, cache, _buffer, stats in lanes:
        addresses = address_list(addresses)
        sets = cache._sets
        num_sets = cache._num_sets
        assoc = cache._associativity
        events: List[LLCEvent] = []
        record = events.append
        track_llc = llc is not None
        demand_hits = 0
        misses = 0
        step = 0
        for address in addresses:
            lines = sets[address % num_sets]
            if address in lines:
                if lines[0] != address:
                    lines.remove(address)
                    lines.insert(0, address)
                demand_hits += 1
            else:
                misses += 1
                if track_llc:
                    record((step, address, True))
                lines.insert(0, address)
                if len(lines) > assoc:
                    lines.pop()
            step += 1
        stats.demand_hits = demand_hits
        stats.misses = misses
        per_lane.append((stats, events))
    _replay_llc(llc, per_lane)


def run_next_line(
    lanes: List[Lane],
    inflight: Dict[int, int],
    degree: int,
    llc: "SharedLLC | None" = None,
) -> None:
    """Tagged next-N-line loop: issue on every miss and prefetch-buffer hit."""
    per_lane: List[Tuple["CoreResult", List[LLCEvent]]] = []
    for core_id, addresses, cache, buffer, stats in lanes:
        addresses = address_list(addresses)
        sets = cache._sets
        num_sets = cache._num_sets
        assoc = cache._associativity
        bmap = buffer._blocks
        bcap = buffer._capacity
        bpop = bmap.pop
        bpopitem = bmap.popitem
        blen = len(bmap)
        inflight_c = inflight[core_id]
        events: List[LLCEvent] = []
        record = events.append
        track_llc = llc is not None
        demand_hits = prefetch_hits = late_hits = misses = 0
        issued = evicted = 0
        step = 0
        for address in addresses:
            lines = sets[address % num_sets]
            if address in lines:
                if lines[0] != address:
                    lines.remove(address)
                    lines.insert(0, address)
                demand_hits += 1
            else:
                issued_at = bpop(address, None)
                if issued_at is not None:
                    blen -= 1
                    if step - issued_at >= inflight_c:
                        prefetch_hits += 1
                    else:
                        late_hits += 1
                else:
                    misses += 1
                    if track_llc:
                        record((step, address, True))
                lines.insert(0, address)
                if len(lines) > assoc:
                    lines.pop()
                for block in range(address + 1, address + 1 + degree):
                    if block not in sets[block % num_sets] and block not in bmap:
                        bmap[block] = step
                        blen += 1
                        issued += 1
                        if track_llc:
                            record((step, block, False))
                        if blen > bcap:
                            bpopitem(last=False)
                            blen -= 1
                            evicted += 1
            step += 1
        stats.demand_hits = demand_hits
        stats.prefetch_hits = prefetch_hits
        stats.late_hits = late_hits
        stats.misses = misses
        stats.prefetches_issued = issued
        buffer.evicted_unused = evicted
        per_lane.append((stats, events))
    _replay_llc(llc, per_lane)


def _passive_lane(
    addresses: List[int],
    cache: SetAssociativeCache,
    stats: "CoreResult",
    llc: "SharedLLC | None" = None,
) -> Iterator[None]:
    """A lane with no stream engine (a core outside every SHIFT group)."""
    sets = cache._sets
    num_sets = cache._num_sets
    assoc = cache._associativity
    llc_demand = llc.access_demand if llc is not None else None
    demand_hits = 0
    misses = 0
    llc_hits = memory_misses = 0
    for address in addresses:
        lines = sets[address % num_sets]
        if address in lines:
            if lines[0] != address:
                lines.remove(address)
                lines.insert(0, address)
            demand_hits += 1
        else:
            misses += 1
            if llc_demand is not None:
                if llc_demand(address):
                    llc_hits += 1
                else:
                    memory_misses += 1
            lines.insert(0, address)
            if len(lines) > assoc:
                lines.pop()
        yield
    stats.demand_hits = demand_hits
    stats.misses = misses
    stats.llc_hits = llc_hits
    stats.memory_misses = memory_misses


def _stream_lane(
    addresses: List[int],
    cache: SetAssociativeCache,
    buffer: PrefetchBuffer,
    stats: "CoreResult",
    engine,
    history,
    index,
    compactor,
    is_trainer: bool,
    region_blocks: int,
    num_streams: int,
    lookahead: int,
    outstanding_cap: int,
    records_per_llc_block: int,
    inflight_c: int,
    llc: "SharedLLC | None" = None,
) -> Iterator[None]:
    """One core of a stream engine, resumed round-robin per access.

    The generator keeps all per-core state in frame locals; only the
    history/index state is read through the owning objects, because the
    group's trainer lane (for PIF, this lane itself) mutates it between
    this lane's resumptions.  The shared LLC is accessed inline — these
    lanes already run in the round-robin order that defines the LLC's
    semantics.
    """
    offsets_table = _expand_offsets(region_blocks)
    llc_demand = llc.access_demand if llc is not None else None
    llc_prefetch = llc.access_prefetch if llc is not None else None
    records = history._records
    hist_cap = history._capacity
    index_entries = index._entries
    index_capacity = index._capacity
    index_get = index_entries.get
    index_move_to_end = index_entries.move_to_end
    index_popitem = index_entries.popitem
    streams = engine._streams
    owner = engine._owner
    owner_pop = owner.pop
    dispatches = engine.dispatches
    record_reads = engine.record_reads
    llc_reads = engine.llc_block_reads
    sets = cache._sets
    num_sets = cache._num_sets
    assoc = cache._associativity
    bmap = buffer._blocks
    bcap = buffer._capacity
    bpop = bmap.pop
    bpopitem = bmap.popitem
    blen = len(bmap)
    trigger = compactor._trigger if is_trainer else None
    mask = compactor._mask if is_trainer else 0
    demand_hits = prefetch_hits = late_hits = misses = 0
    llc_hits = memory_misses = 0
    issued = evicted = 0
    step = 0
    for address in addresses:
        if is_trainer:
            # SpatialCompactor.feed + HistoryBuffer.append + IndexTable.put.
            if trigger is None:
                trigger = address
                mask = 0
            else:
                offset = address - trigger
                if 0 <= offset < region_blocks:
                    if offset:
                        mask |= 1 << (offset - 1)
                else:
                    next_pos = history._next_pos
                    records[next_pos % hist_cap] = (trigger, mask)
                    if trigger in index_entries:
                        index_entries[trigger] = next_pos
                        index_move_to_end(trigger)
                    else:
                        index_entries[trigger] = next_pos
                        if len(index_entries) > index_capacity:
                            index_popitem(last=False)
                    history._next_pos = next_pos + 1
                    trigger = address
                    mask = 0
        lines = sets[address % num_sets]
        if address in lines:
            if lines[0] != address:
                lines.remove(address)
                lines.insert(0, address)
            demand_hits += 1
            is_miss = False
        else:
            issued_at = bpop(address, None)
            if issued_at is not None:
                blen -= 1
                if step - issued_at >= inflight_c:
                    prefetch_hits += 1
                else:
                    late_hits += 1
                is_miss = False
            else:
                misses += 1
                is_miss = True
                if llc_demand is not None:
                    if llc_demand(address):
                        llc_hits += 1
                    else:
                        memory_misses += 1
            lines.insert(0, address)
            if len(lines) > assoc:
                lines.pop()
        if is_miss:
            # StreamEngine.on_miss, inlined against the shared history.
            stale = owner_pop(address, None)
            if stale is not None:
                stale.outstanding.discard(address)
            pos = index_get(address)
            if pos is not None:
                next_pos = history._next_pos
                if 0 <= pos < next_pos and pos >= next_pos - hist_cap:
                    stream = _Stream(pos)
                    if len(streams) >= num_streams:
                        retired = streams.pop(0)
                        for block in retired.outstanding:
                            owner_pop(block, None)
                        retired.outstanding.clear()
                    streams.append(stream)
                    dispatches += 1
                    blocks: List[int] = []
                    spos = pos
                    for _ in range(lookahead):
                        if spos < 0 or spos >= next_pos or spos < next_pos - hist_cap:
                            break
                        record = records[spos % hist_cap]
                        if record is None:
                            break
                        if records_per_llc_block:
                            llc_block = spos // records_per_llc_block
                            if llc_block != stream.last_llc_block:
                                stream.last_llc_block = llc_block
                                llc_reads += 1
                        spos += 1
                        record_reads += 1
                        rec_trigger, rec_mask = record
                        blocks.append(rec_trigger)
                        for offset in offsets_table[rec_mask]:
                            blocks.append(rec_trigger + offset)
                    stream.next_pos = spos
                    outstanding = stream.outstanding
                    for block in blocks:
                        if block not in owner:
                            owner[block] = stream
                            outstanding.add(block)
                            if (
                                block != address
                                and block not in sets[block % num_sets]
                                and block not in bmap
                            ):
                                bmap[block] = step
                                blen += 1
                                issued += 1
                                if llc_prefetch is not None:
                                    llc_prefetch(block)
                                if blen > bcap:
                                    bpopitem(last=False)
                                    blen -= 1
                                    evicted += 1
        else:
            # StreamEngine.on_consume, inlined against the shared history.
            stream = owner_pop(address, None)
            if stream is not None:
                outstanding = stream.outstanding
                outstanding.discard(address)
                if len(outstanding) < outstanding_cap:
                    spos = stream.next_pos
                    next_pos = history._next_pos
                    if 0 <= spos < next_pos and spos >= next_pos - hist_cap:
                        record = records[spos % hist_cap]
                        if record is not None:
                            if records_per_llc_block:
                                llc_block = spos // records_per_llc_block
                                if llc_block != stream.last_llc_block:
                                    stream.last_llc_block = llc_block
                                    llc_reads += 1
                            stream.next_pos = spos + 1
                            record_reads += 1
                            rec_trigger, rec_mask = record
                            if rec_trigger not in owner:
                                owner[rec_trigger] = stream
                                outstanding.add(rec_trigger)
                                if (
                                    rec_trigger not in sets[rec_trigger % num_sets]
                                    and rec_trigger not in bmap
                                ):
                                    bmap[rec_trigger] = step
                                    blen += 1
                                    issued += 1
                                    if llc_prefetch is not None:
                                        llc_prefetch(rec_trigger)
                                    if blen > bcap:
                                        bpopitem(last=False)
                                        blen -= 1
                                        evicted += 1
                            for offset in offsets_table[rec_mask]:
                                block = rec_trigger + offset
                                if block not in owner:
                                    owner[block] = stream
                                    outstanding.add(block)
                                    if (
                                        block not in sets[block % num_sets]
                                        and block not in bmap
                                    ):
                                        bmap[block] = step
                                        blen += 1
                                        issued += 1
                                        if llc_prefetch is not None:
                                            llc_prefetch(block)
                                        if blen > bcap:
                                            bpopitem(last=False)
                                            blen -= 1
                                            evicted += 1
        step += 1
        yield
    stats.demand_hits = demand_hits
    stats.prefetch_hits = prefetch_hits
    stats.late_hits = late_hits
    stats.misses = misses
    stats.llc_hits = llc_hits
    stats.memory_misses = memory_misses
    stats.prefetches_issued = issued
    buffer.evicted_unused = evicted
    if is_trainer:
        compactor._trigger = trigger
        compactor._mask = mask
    engine.dispatches = dispatches
    engine.record_reads = record_reads
    engine.llc_block_reads = llc_reads


def resolve_stream_roles(lanes: List[Lane], prefetcher):
    """Resolve each lane's role against the shared history groups.

    Returns ``(groups, roles)``: ``groups`` is
    ``prefetcher.history_groups()`` and ``roles[i]`` is
    ``(group_index, stream_engine, is_trainer)`` for ``lanes[i]``, or
    ``None`` for a passive lane (a core outside every group).  Both the
    python round-robin driver and the numpy epoch solver resolve roles
    here, so the backends can never disagree about which lane trains or
    consumes which history.
    """
    groups = prefetcher.history_groups()
    group_of_core: Dict[int, int] = {}
    for group_index, group in enumerate(groups):
        for core_id in group.core_ids:
            group_of_core[core_id] = group_index
    streams = prefetcher._streams
    roles = []
    for core_id, _addresses, _cache, _buffer, _stats in lanes:
        group_index = group_of_core.get(core_id)
        if group_index is None:
            roles.append(None)
        else:
            roles.append(
                (group_index, streams[core_id], core_id == groups[group_index].trainer_core)
            )
    return groups, roles


def run_stream_shared(
    lanes: List[Lane],
    inflight: Dict[int, int],
    prefetcher: "PIFPrefetcher | SHIFTPrefetcher | ConsolidatedSHIFTPrefetcher",
    llc: "SharedLLC | None" = None,
) -> None:
    """Stream-engine loop: lanes advance round-robin, one access per core
    per step, each replaying its history group (PIF: its own)."""
    config = prefetcher._config
    region_blocks = config.spatial_region.region_blocks
    num_streams = config.stream_buffer.num_streams
    lookahead = config.stream_buffer.lookahead_records
    outstanding_cap = config.stream_buffer.capacity_records * region_blocks
    groups, roles = resolve_stream_roles(lanes, prefetcher)
    generators: List[Iterator[None]] = []
    for (core_id, addresses, cache, buffer, stats), role in zip(lanes, roles):
        addresses = address_list(addresses)
        if role is None:
            generators.append(_passive_lane(addresses, cache, stats, llc))
            continue
        group_index, engine, is_trainer = role
        group = groups[group_index]
        generators.append(
            _stream_lane(
                addresses,
                cache,
                buffer,
                stats,
                engine,
                group.history,
                group.index,
                group.compactor,
                is_trainer,
                region_blocks,
                num_streams,
                lookahead,
                outstanding_cap,
                engine._records_per_llc_block,
                inflight[core_id],
                llc,
            )
        )
    # Round-robin driver: resume each live lane once per step; lanes whose
    # traces are exhausted drop out, exactly like the generic loop's skip.
    lengths = {len(addresses) for _, addresses, _, _, _ in lanes}
    if len(lengths) == 1:
        # Equal-length traces (the common case): no lane ever drops out, so
        # drive a fixed number of rounds and then flush the write-backs that
        # run when each generator falls off its trace loop.
        for _ in range(lengths.pop()):
            for generator in generators:
                next(generator)
        for generator in generators:
            try:
                next(generator)
            except StopIteration:
                pass
        return
    active = generators
    while active:
        alive: List[Iterator[None]] = []
        append = alive.append
        for generator in active:
            try:
                next(generator)
            except StopIteration:
                continue
            append(generator)
        active = alive


__all__ = [
    "address_list",
    "run_baseline",
    "run_next_line",
    "run_stream_shared",
]
