"""Instruction prefetcher engines.

All engines implement the :class:`Prefetcher` interface: the simulation loop
calls :meth:`Prefetcher.on_access` for every retire-order demand access with
its outcome (cache hit, prefetch-buffer hit, or miss) and receives a list of
block addresses to prefetch for that core.

The temporal-streaming machinery (PIF and SHIFT) is built from four pieces,
mirroring Sections 4.1–4.2 of the paper:

* :class:`SpatialCompactor` — folds the retire-order block stream into
  *spatial region records* ``(trigger block, bit vector)``;
* :class:`HistoryBuffer` — a circular buffer of records with absolute write
  positions, so stale index pointers are detected after wrap-around;
* :class:`IndexTable` — maps a trigger block to the most recent history
  position where a record with that trigger was written;
* :class:`StreamEngine` — per-core stream buffers that replay the history:
  an index hit on a miss dispatches a stream with ``lookahead_records``
  records, and each prefetch-buffer hit advances its stream by one record.

PIF instantiates all four per core; SHIFT shares one history and one index
among all cores, trains them from a single designated core, and (when
``virtualized``) accounts the LLC blocks read to fetch history records.
:class:`ConsolidatedSHIFTPrefetcher` models the consolidation experiment of
Section 5.5: one logical SHIFT per co-scheduled workload, splitting the
shared history capacity between the stacks.

Performance notes: :mod:`repro.sim._fastpath` inlines the hot paths of these
classes into specialized simulation loops, reaching into the underscore
attributes directly.  The classes here stay the single source of truth for
*semantics* — the regression tests pin the fast paths to the generic
round-robin loop that drives them through :meth:`Prefetcher.on_access`.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..config import (
    NextLineConfig,
    PIFConfig,
    SHIFTConfig,
    StreamBufferConfig,
    SystemConfig,
)
from ..errors import PrefetcherError
from .cache import digest_state

#: Demand-access outcomes passed to :meth:`Prefetcher.on_access`.
HIT = 0
MISS = 1
PREFETCH_HIT = 2

#: A spatial region record: (trigger block address, neighbour bit mask).
Record = Tuple[int, int]

#: Per-``region_blocks`` lookup tables mapping a neighbour bit mask to the
#: tuple of block offsets it encodes, so record expansion in the hot loop is
#: a table lookup instead of a bit-scan (masks are at most 2**(R-1) values).
_EXPAND_TABLES: Dict[int, List[Tuple[int, ...]]] = {}


def _expand_offsets(region_blocks: int) -> List[Tuple[int, ...]]:
    """The offset table for ``region_blocks``-wide spatial regions."""
    table = _EXPAND_TABLES.get(region_blocks)
    if table is None:
        table = [
            tuple(
                offset
                for offset in range(1, region_blocks)
                if mask & (1 << (offset - 1))
            )
            for mask in range(1 << (region_blocks - 1))
        ]
        _EXPAND_TABLES[region_blocks] = table
    return table


class Prefetcher:
    """Base class: never prefetches."""

    name = "none"

    def on_access(self, core_id: int, block_address: int, outcome: int) -> List[int]:
        """Observe one retire-order access; return blocks to prefetch."""
        return []

    def history_block_reads(self, core_id: int) -> int:
        """LLC blocks read for history records on behalf of ``core_id``."""
        return 0

    def storage_bytes_per_core(self, num_cores: int) -> int:
        """Dedicated prefetcher storage per core (the paper's ~14x metric).

        Per-core engines report their private history + index cost; shared
        engines report the aggregate cost divided by ``num_cores``.  Stream
        buffers are common to all temporal-streaming engines and excluded.
        """
        return 0

    def snapshot(self) -> dict:
        """Serialize all mutable engine state as plain JSON-safe values.

        The contract is that :meth:`restore` of a ``json.dumps`` roundtrip
        of this continues bit-for-bit as if never paused; the chunked-engine
        tests prove it at chunk boundaries.  Stateless engines return ``{}``.
        """
        return {}

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot` in place (inverse of ``snapshot``)."""
        if state:
            raise PrefetcherError(f"{self.name}: unexpected snapshot state {state!r}")

    def state_digest(self) -> str:
        """Content digest of :meth:`snapshot` (see
        :func:`~repro.sim.cache.digest_state`).

        Two prefetchers with equal snapshots digest equally, so the numpy
        backend can key its warm-state memos on ``(window fingerprint,
        state digest)`` and replay a cached solution exactly.
        """
        return digest_state(self.snapshot())

    def state_key(self) -> tuple:
        """All mutable state as a hashable tuple.

        The cheap exact form of :meth:`state_digest`: two prefetchers share
        a key iff their snapshots are equal, but building nested tuples
        from the live structures skips the JSON serialization entirely,
        which matters on the chunked hot path where the numpy backend keys
        a memo lookup on this at every chunk.  Stateless engines return
        ``()``; subclasses with mutable state must override in lockstep
        with :meth:`snapshot`.
        """
        return ()


class NullPrefetcher(Prefetcher):
    """Explicit no-prefetch baseline."""


class NextLinePrefetcher(Prefetcher):
    """Tagged next-N-line prefetcher.

    Issues on misses and on first use of a prefetched block, which lets it
    run ahead through sequential basic-block runs but gives it nothing at
    control-flow discontinuities — the weakness the paper's Figure 6 shows.
    """

    name = "next_line"

    def __init__(self, config: Optional[NextLineConfig] = None) -> None:
        self._config = config if config is not None else NextLineConfig()
        self._degree = self._config.degree

    @property
    def config(self) -> NextLineConfig:
        return self._config

    def on_access(self, core_id: int, block_address: int, outcome: int) -> List[int]:
        if outcome == HIT:
            return []
        return list(range(block_address + 1, block_address + 1 + self._degree))


class SpatialCompactor:
    """Folds a retire-order block stream into spatial region records."""

    __slots__ = ("_region_blocks", "_trigger", "_mask")

    def __init__(self, region_blocks: int) -> None:
        if region_blocks < 2:
            raise PrefetcherError("a spatial region must cover at least 2 blocks")
        self._region_blocks = region_blocks
        self._trigger: Optional[int] = None
        self._mask = 0

    def feed(self, block_address: int) -> Optional[Record]:
        """Consume one access; return a completed record when a region closes."""
        trigger = self._trigger
        if trigger is None:
            self._trigger = block_address
            self._mask = 0
            return None
        offset = block_address - trigger
        if 0 <= offset < self._region_blocks:
            if offset > 0:
                self._mask |= 1 << (offset - 1)
            return None
        record = (trigger, self._mask)
        self._trigger = block_address
        self._mask = 0
        return record

    def flush(self) -> Optional[Record]:
        """Close and return the open region, if any."""
        if self._trigger is None:
            return None
        record = (self._trigger, self._mask)
        self._trigger = None
        self._mask = 0
        return record

    def snapshot(self) -> dict:
        """Serialize the open region (trigger + accumulated mask)."""
        return {"trigger": self._trigger, "mask": self._mask}

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot` in place."""
        trigger = state["trigger"]
        self._trigger = None if trigger is None else int(trigger)
        self._mask = int(state["mask"])

    def state_key(self) -> tuple:
        """The open region as a hashable tuple (cheap exact snapshot key)."""
        return (self._trigger, self._mask)


def expand_record(record: Record, region_blocks: int) -> List[int]:
    """Block addresses covered by a record, trigger first."""
    trigger, mask = record
    blocks = [trigger]
    for offset in _expand_offsets(region_blocks)[mask]:
        blocks.append(trigger + offset)
    return blocks


class HistoryBuffer:
    """Circular record buffer addressed by monotonically increasing positions."""

    __slots__ = ("_capacity", "_records", "_next_pos")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise PrefetcherError("history buffer needs a positive capacity")
        self._capacity = capacity
        self._records: List[Optional[Record]] = [None] * capacity
        self._next_pos = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def writes(self) -> int:
        return self._next_pos

    def append(self, record: Record) -> int:
        """Store a record, overwriting the oldest; returns its position."""
        pos = self._next_pos
        self._records[pos % self._capacity] = record
        self._next_pos = pos + 1
        return pos

    def valid(self, pos: int) -> bool:
        return 0 <= pos < self._next_pos and pos >= self._next_pos - self._capacity

    def get(self, pos: int) -> Optional[Record]:
        """Return the record at ``pos`` or None if overwritten / never written."""
        if not self.valid(pos):
            return None
        return self._records[pos % self._capacity]

    def snapshot(self) -> dict:
        """Serialize the ring contents and the absolute write position."""
        return {
            "records": [
                None if record is None else [record[0], record[1]]
                for record in self._records
            ],
            "next_pos": self._next_pos,
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; records come back as tuples."""
        records = state["records"]
        if len(records) != self._capacity:
            raise PrefetcherError(
                f"history snapshot has {len(records)} slots, "
                f"expected {self._capacity}"
            )
        self._records = [
            None if record is None else (int(record[0]), int(record[1]))
            for record in records
        ]
        self._next_pos = int(state["next_pos"])

    def state_key(self) -> tuple:
        """Ring contents and write position as a hashable tuple (cheap
        exact snapshot key; records are already tuples)."""
        return (tuple(self._records), self._next_pos)


class IndexTable:
    """Bounded trigger-block → history-position map with FIFO replacement."""

    __slots__ = ("_capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise PrefetcherError("index table needs a positive capacity")
        self._capacity = capacity
        self._entries: OrderedDict[int, int] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, trigger: int, pos: int) -> None:
        entries = self._entries
        if trigger in entries:
            entries[trigger] = pos
            entries.move_to_end(trigger)
            return
        entries[trigger] = pos
        if len(entries) > self._capacity:
            entries.popitem(last=False)

    def get(self, trigger: int) -> Optional[int]:
        return self._entries.get(trigger)

    def snapshot(self) -> dict:
        """Serialize entries in FIFO order (replacement order is load-bearing)."""
        return {"entries": [[trigger, pos] for trigger, pos in self._entries.items()]}

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`, reproducing the FIFO insertion order."""
        entries = state["entries"]
        if len(entries) > self._capacity:
            raise PrefetcherError(
                f"index snapshot has {len(entries)} entries, "
                f"capacity is {self._capacity}"
            )
        self._entries = OrderedDict(
            (int(trigger), int(pos)) for trigger, pos in entries
        )

    def state_key(self) -> tuple:
        """Entries in FIFO order as a hashable tuple (cheap exact snapshot
        key; replacement order is load-bearing, so it is part of the key)."""
        return tuple(self._entries.items())


class _Stream:
    """One active temporal stream: its read cursor and outstanding blocks."""

    __slots__ = ("next_pos", "outstanding", "last_llc_block")

    def __init__(self, next_pos: int) -> None:
        self.next_pos = next_pos
        self.outstanding: set[int] = set()
        self.last_llc_block = -1


class StreamEngine:
    """Per-core stream buffers replaying a (possibly shared) history."""

    __slots__ = (
        "_history",
        "_index",
        "_config",
        "_region_blocks",
        "_records_per_llc_block",
        "_streams",
        "_owner",
        "dispatches",
        "record_reads",
        "llc_block_reads",
    )

    def __init__(
        self,
        history: HistoryBuffer,
        index: IndexTable,
        stream_config: StreamBufferConfig,
        region_blocks: int,
        records_per_llc_block: int = 0,
    ) -> None:
        self._history = history
        self._index = index
        self._config = stream_config
        self._region_blocks = region_blocks
        self._records_per_llc_block = records_per_llc_block
        self._streams: List[_Stream] = []
        self._owner: Dict[int, _Stream] = {}
        self.dispatches = 0
        self.record_reads = 0
        self.llc_block_reads = 0

    def _read_record(self, stream: _Stream) -> List[int]:
        record = self._history.get(stream.next_pos)
        if record is None:
            return []
        if self._records_per_llc_block:
            llc_block = stream.next_pos // self._records_per_llc_block
            if llc_block != stream.last_llc_block:
                stream.last_llc_block = llc_block
                self.llc_block_reads += 1
        stream.next_pos += 1
        self.record_reads += 1
        return expand_record(record, self._region_blocks)

    def _track(self, stream: _Stream, blocks: List[int]) -> List[int]:
        fresh = []
        owner = self._owner
        outstanding = stream.outstanding
        for block in blocks:
            if block not in owner:
                owner[block] = stream
                outstanding.add(block)
                fresh.append(block)
        return fresh

    def _retire_stream(self, stream: _Stream) -> None:
        for block in stream.outstanding:
            self._owner.pop(block, None)
        stream.outstanding.clear()

    def on_miss(self, block_address: int) -> List[int]:
        """Index lookup on a demand miss; dispatch a new stream on a hit."""
        # The block may have been tracked by a stream whose prefetch never
        # reached the demand (skipped or evicted); drop the stale claim.
        stale = self._owner.pop(block_address, None)
        if stale is not None:
            stale.outstanding.discard(block_address)
        pos = self._index.get(block_address)
        if pos is None or not self._history.valid(pos):
            return []
        stream = _Stream(pos)
        if len(self._streams) >= self._config.num_streams:
            self._retire_stream(self._streams.pop(0))
        self._streams.append(stream)
        self.dispatches += 1
        blocks: List[int] = []
        for _ in range(self._config.lookahead_records):
            blocks.extend(self._read_record(stream))
        prefetches = self._track(stream, blocks)
        # The trigger itself just missed; no point prefetching it.
        return [b for b in prefetches if b != block_address]

    def on_consume(self, block_address: int) -> List[int]:
        """Advance the stream tracking ``block_address`` by one record.

        Called on every non-miss demand access: the looked-ahead block may be
        served from the prefetch buffer or may already have been
        cache-resident when its prefetch was issued — either way the fetch
        stream has caught up by one block, so the stream reads ahead.
        """
        stream = self._owner.pop(block_address, None)
        if stream is None:
            return []
        stream.outstanding.discard(block_address)
        if len(stream.outstanding) >= self._config.capacity_records * self._region_blocks:
            return []
        return self._track(stream, self._read_record(stream))

    def snapshot(self) -> dict:
        """Serialize streams, block ownership and the accounting counters.

        Stream identity is positional: ``owner`` entries are
        ``(block, stream-slot)`` pairs referring into the serialized
        ``streams`` list, in insertion order.  The shared history/index are
        *not* included — they belong to the prefetcher that owns them.
        """
        slot_of = {id(stream): slot for slot, stream in enumerate(self._streams)}
        return {
            "streams": [
                {
                    "next_pos": stream.next_pos,
                    "outstanding": sorted(stream.outstanding),
                    "last_llc_block": stream.last_llc_block,
                }
                for stream in self._streams
            ],
            "owner": [
                [block, slot_of[id(stream)]] for block, stream in self._owner.items()
            ],
            "dispatches": self.dispatches,
            "record_reads": self.record_reads,
            "llc_block_reads": self.llc_block_reads,
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot` in place (history/index stay attached)."""
        streams: List[_Stream] = []
        for entry in state["streams"]:
            stream = _Stream(int(entry["next_pos"]))
            stream.outstanding = {int(block) for block in entry["outstanding"]}
            stream.last_llc_block = int(entry["last_llc_block"])
            streams.append(stream)
        self._streams = streams
        self._owner = {int(block): streams[slot] for block, slot in state["owner"]}
        self.dispatches = int(state["dispatches"])
        self.record_reads = int(state["record_reads"])
        self.llc_block_reads = int(state["llc_block_reads"])

    def state_key(self) -> tuple:
        """Streams, ownership and counters as a hashable tuple (cheap exact
        snapshot key; stream identity is positional, as in :meth:`snapshot`)."""
        slot_of = {id(stream): slot for slot, stream in enumerate(self._streams)}
        return (
            tuple(
                (stream.next_pos, tuple(sorted(stream.outstanding)), stream.last_llc_block)
                for stream in self._streams
            ),
            tuple(
                (block, slot_of[id(stream)]) for block, stream in self._owner.items()
            ),
            self.dispatches,
            self.record_reads,
            self.llc_block_reads,
        )


class HistoryGroup(NamedTuple):
    """One history domain of a stream prefetcher (PIF or SHIFT family).

    A uniform view over PIF (one private history per core, so every core
    is a group of one and its own trainer), plain SHIFT (one history for
    all cores) and consolidated SHIFT (one history per workload stack):
    ``core_ids`` are the cores whose stream engines replay this history,
    ``trainer_core`` is the single core whose compactor feed appends to
    it, and ``compactor``/``history``/``index`` are the mutable state
    itself.  Both backends resolve lane roles through
    ``history_groups()``, so they can never disagree about which core
    trains which history.
    """

    core_ids: Tuple[int, ...]
    trainer_core: int
    compactor: SpatialCompactor
    history: HistoryBuffer
    index: IndexTable


class PIFPrefetcher(Prefetcher):
    """Proactive Instruction Fetch: private history, index and streams per core."""

    name = "pif"

    def __init__(self, num_cores: int, config: Optional[PIFConfig] = None) -> None:
        if num_cores < 1:
            raise PrefetcherError("need at least one core")
        self._config = config if config is not None else PIFConfig()
        region_blocks = self._config.spatial_region.region_blocks
        self._compactors = [SpatialCompactor(region_blocks) for _ in range(num_cores)]
        self._histories = [HistoryBuffer(self._config.history_entries) for _ in range(num_cores)]
        self._indices = [IndexTable(self._config.index_entries) for _ in range(num_cores)]
        self._streams = [
            StreamEngine(
                self._histories[core],
                self._indices[core],
                self._config.stream_buffer,
                region_blocks,
            )
            for core in range(num_cores)
        ]

    @property
    def config(self) -> PIFConfig:
        return self._config

    def on_access(self, core_id: int, block_address: int, outcome: int) -> List[int]:
        record = self._compactors[core_id].feed(block_address)
        if record is not None:
            pos = self._histories[core_id].append(record)
            self._indices[core_id].put(record[0], pos)
        if outcome == MISS:
            return self._streams[core_id].on_miss(block_address)
        return self._streams[core_id].on_consume(block_address)

    def history_groups(self) -> List[HistoryGroup]:
        """One private history domain per core: each core trains its own."""
        return [
            HistoryGroup((core,), core, compactor, history, index)
            for core, (compactor, history, index) in enumerate(
                zip(self._compactors, self._histories, self._indices)
            )
        ]

    def storage_bytes_per_core(self, num_cores: int) -> int:
        return self._config.storage_bytes_per_core

    def snapshot(self) -> dict:
        """Serialize the private compactor/history/index/streams of every core."""
        return {
            "compactors": [c.snapshot() for c in self._compactors],
            "histories": [h.snapshot() for h in self._histories],
            "indices": [i.snapshot() for i in self._indices],
            "streams": [s.snapshot() for s in self._streams],
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot` in place."""
        for compactor, snap in zip(self._compactors, state["compactors"]):
            compactor.restore(snap)
        for history, snap in zip(self._histories, state["histories"]):
            history.restore(snap)
        for index, snap in zip(self._indices, state["indices"]):
            index.restore(snap)
        for engine, snap in zip(self._streams, state["streams"]):
            engine.restore(snap)

    def state_key(self) -> tuple:
        return (
            tuple(c.state_key() for c in self._compactors),
            tuple(h.state_key() for h in self._histories),
            tuple(i.state_key() for i in self._indices),
            tuple(s.state_key() for s in self._streams),
        )


class SHIFTPrefetcher(Prefetcher):
    """Shared History Instruction Fetch.

    One history buffer and one index serve every core; a single designated
    core generates the history (Section 4: "a single core generates the
    shared history on behalf of all cores executing the same workload").
    When ``config.virtualized`` is set, reads of history records are
    accounted as LLC block reads (``records_per_llc_block`` records per
    64-byte block), which the timing model charges unless
    ``zero_latency_history`` is set.
    """

    name = "shift"

    def __init__(
        self,
        num_cores: int,
        config: Optional[SHIFTConfig] = None,
        trainer_core: int = 0,
    ) -> None:
        if num_cores < 1:
            raise PrefetcherError("need at least one core")
        if not (0 <= trainer_core < num_cores):
            raise PrefetcherError("trainer core out of range")
        self._config = config if config is not None else SHIFTConfig()
        self._trainer_core = trainer_core
        region_blocks = self._config.spatial_region.region_blocks
        self._compactor = SpatialCompactor(region_blocks)
        self._history = HistoryBuffer(self._config.history_entries)
        # The virtualized index lives in LLC tags and can track every history
        # entry, so the index capacity matches the history capacity.
        self._index = IndexTable(self._config.history_entries)
        records_per_block = (
            self._config.records_per_llc_block if self._config.virtualized else 0
        )
        self._streams = [
            StreamEngine(
                self._history,
                self._index,
                self._config.stream_buffer,
                region_blocks,
                records_per_llc_block=records_per_block,
            )
            for _ in range(num_cores)
        ]

    @property
    def config(self) -> SHIFTConfig:
        return self._config

    @property
    def trainer_core(self) -> int:
        return self._trainer_core

    def on_access(self, core_id: int, block_address: int, outcome: int) -> List[int]:
        if core_id == self._trainer_core:
            record = self._compactor.feed(block_address)
            if record is not None:
                pos = self._history.append(record)
                self._index.put(record[0], pos)
        if outcome == MISS:
            return self._streams[core_id].on_miss(block_address)
        return self._streams[core_id].on_consume(block_address)

    def history_block_reads(self, core_id: int) -> int:
        if self._config.zero_latency_history or not self._config.virtualized:
            return 0
        return self._streams[core_id].llc_block_reads

    def history_groups(self) -> List[HistoryGroup]:
        """The single shared-history domain: every core, one trainer."""
        return [
            HistoryGroup(
                tuple(range(len(self._streams))),
                self._trainer_core,
                self._compactor,
                self._history,
                self._index,
            )
        ]

    def storage_bytes_per_core(self, num_cores: int) -> int:
        total = self._config.storage_bytes_total
        return -(-total // max(1, num_cores))

    def snapshot(self) -> dict:
        """Serialize the shared compactor/history/index and per-core streams."""
        return {
            "compactor": self._compactor.snapshot(),
            "history": self._history.snapshot(),
            "index": self._index.snapshot(),
            "streams": [s.snapshot() for s in self._streams],
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot` in place."""
        self._compactor.restore(state["compactor"])
        self._history.restore(state["history"])
        self._index.restore(state["index"])
        for engine, snap in zip(self._streams, state["streams"]):
            engine.restore(snap)

    def state_key(self) -> tuple:
        return (
            self._compactor.state_key(),
            self._history.state_key(),
            self._index.state_key(),
            tuple(s.state_key() for s in self._streams),
        )


class _ShiftGroup:
    """One logical SHIFT instance serving a group of cores."""

    __slots__ = ("core_ids", "trainer_core", "compactor", "history", "index")

    def __init__(
        self,
        core_ids: Tuple[int, ...],
        region_blocks: int,
        history_entries: int,
    ) -> None:
        self.core_ids = core_ids
        self.trainer_core = min(core_ids)
        self.compactor = SpatialCompactor(region_blocks)
        self.history = HistoryBuffer(history_entries)
        self.index = IndexTable(history_entries)


class ConsolidatedSHIFTPrefetcher(Prefetcher):
    """SHIFT under workload consolidation (Section 5.5).

    Consolidated stacks have disjoint instruction footprints, so one shared
    history trained by one core would only ever help that core's co-runners.
    The paper's answer is one *logical* SHIFT per workload; with
    ``split_history`` (the default) the aggregate history budget is divided
    evenly between the stacks, modelling a fixed storage budget, otherwise
    every stack gets the full configured history.
    """

    name = "shift"

    def __init__(
        self,
        groups: Sequence[Sequence[int]],
        config: Optional[SHIFTConfig] = None,
        split_history: bool = True,
    ) -> None:
        if not groups:
            raise PrefetcherError("need at least one core group")
        self._config = config if config is not None else SHIFTConfig()
        self._split_history = split_history
        region_blocks = self._config.spatial_region.region_blocks
        entries = self._config.history_entries
        if split_history:
            entries = max(16, entries // len(groups))
        self._group_entries = entries
        # One group's slice of the budget, as a SHIFTConfig so the storage
        # and LLC-block accounting reuse the config's single code path
        # (index_pointer_bits re-derived for the smaller history).
        self._group_config = dataclasses.replace(
            self._config, history_entries=entries, index_pointer_bits=None
        )
        seen: set[int] = set()
        self._groups: List[_ShiftGroup] = []
        self._group_of_core: Dict[int, _ShiftGroup] = {}
        for group in groups:
            core_ids = tuple(sorted(group))
            if not core_ids:
                raise PrefetcherError("core groups cannot be empty")
            overlap = seen.intersection(core_ids)
            if overlap:
                raise PrefetcherError(f"cores {sorted(overlap)} appear in two groups")
            seen.update(core_ids)
            shift_group = _ShiftGroup(core_ids, region_blocks, entries)
            self._groups.append(shift_group)
            for core_id in core_ids:
                self._group_of_core[core_id] = shift_group
        records_per_block = (
            self._config.records_per_llc_block if self._config.virtualized else 0
        )
        self._streams = {
            core_id: StreamEngine(
                group.history,
                group.index,
                self._config.stream_buffer,
                region_blocks,
                records_per_llc_block=records_per_block,
            )
            for core_id, group in self._group_of_core.items()
        }

    @property
    def config(self) -> SHIFTConfig:
        return self._config

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    @property
    def history_entries_per_group(self) -> int:
        return self._group_entries

    @property
    def history_llc_blocks_per_group(self) -> int:
        """LLC blocks each group's virtualized history occupies."""
        return self._group_config.history_llc_blocks

    def on_access(self, core_id: int, block_address: int, outcome: int) -> List[int]:
        group = self._group_of_core.get(core_id)
        if group is None:
            return []
        if core_id == group.trainer_core:
            record = group.compactor.feed(block_address)
            if record is not None:
                pos = group.history.append(record)
                group.index.put(record[0], pos)
        if outcome == MISS:
            return self._streams[core_id].on_miss(block_address)
        return self._streams[core_id].on_consume(block_address)

    def history_block_reads(self, core_id: int) -> int:
        if self._config.zero_latency_history or not self._config.virtualized:
            return 0
        stream = self._streams.get(core_id)
        return stream.llc_block_reads if stream is not None else 0

    def history_groups(self) -> List[HistoryGroup]:
        """One shared-history domain per consolidated workload stack."""
        return [
            HistoryGroup(
                group.core_ids,
                group.trainer_core,
                group.compactor,
                group.history,
                group.index,
            )
            for group in self._groups
        ]

    def storage_bytes_per_core(self, num_cores: int) -> int:
        total = self._group_config.storage_bytes_total * len(self._groups)
        return -(-total // max(1, num_cores))

    def snapshot(self) -> dict:
        """Serialize every group's shared state and every core's streams.

        Stream engines are keyed by core id as ``[core_id, state]`` pairs
        (JSON objects cannot have integer keys).
        """
        return {
            "groups": [
                {
                    "compactor": group.compactor.snapshot(),
                    "history": group.history.snapshot(),
                    "index": group.index.snapshot(),
                }
                for group in self._groups
            ],
            "streams": [
                [core_id, engine.snapshot()]
                for core_id, engine in sorted(self._streams.items())
            ],
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot` in place."""
        for group, snap in zip(self._groups, state["groups"]):
            group.compactor.restore(snap["compactor"])
            group.history.restore(snap["history"])
            group.index.restore(snap["index"])
        for core_id, snap in state["streams"]:
            self._streams[int(core_id)].restore(snap)

    def state_key(self) -> tuple:
        return (
            tuple(
                (g.compactor.state_key(), g.history.state_key(), g.index.state_key())
                for g in self._groups
            ),
            tuple(
                (core_id, engine.state_key())
                for core_id, engine in sorted(self._streams.items())
            ),
        )


def make_prefetcher(
    name: str,
    system: SystemConfig,
    pif_config: Optional[PIFConfig] = None,
    shift_config: Optional[SHIFTConfig] = None,
    next_line_config: Optional[NextLineConfig] = None,
    shift_groups: Optional[Sequence[Sequence[int]]] = None,
) -> Prefetcher:
    """Factory mapping an engine name to a configured prefetcher instance.

    ``shift_groups`` selects the consolidated variant of SHIFT: one logical
    history per group of core ids, splitting the history budget evenly.
    """
    if name in ("none", "baseline"):
        return NullPrefetcher()
    if name in ("next_line", "nextline", "nl"):
        return NextLinePrefetcher(next_line_config)
    if name == "pif":
        return PIFPrefetcher(system.num_cores, pif_config)
    if name == "shift":
        if shift_groups is not None:
            return ConsolidatedSHIFTPrefetcher(shift_groups, shift_config)
        return SHIFTPrefetcher(system.num_cores, shift_config)
    raise PrefetcherError(
        f"unknown prefetcher {name!r}; known: none, next_line, pif, shift"
    )


__all__ = [
    "HIT",
    "MISS",
    "PREFETCH_HIT",
    "Record",
    "Prefetcher",
    "NullPrefetcher",
    "NextLinePrefetcher",
    "SpatialCompactor",
    "expand_record",
    "HistoryBuffer",
    "HistoryGroup",
    "IndexTable",
    "StreamEngine",
    "PIFPrefetcher",
    "SHIFTPrefetcher",
    "ConsolidatedSHIFTPrefetcher",
    "make_prefetcher",
]
