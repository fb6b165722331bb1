"""The compiled stream-lane event loop (C source and its ABI).

``stream_lane`` replays one stream lane — a PIF core against its private
history, or a SHIFT consumer against its group's shared one — over the
group's precomputed history-append schedule: the loop the numpy backend's
epoch split reduces both engines to (see
:mod:`repro.sim.backends.numpy_backend`).  It is
:meth:`repro.sim.prefetchers.StreamEngine.on_miss` / ``on_consume`` plus
the lane's prefetch-buffer FIFO, specialised to a frozen-between-appends
history, with these data-structure choices:

* the stream-owner map, the prefetch buffer and the lane's index view are
  one insertion-ordered int64 hash map (``omap``) with Python ``dict``
  semantics for the operations used — insertion order survives deletes,
  re-insertion moves a key to the end, and the oldest live entry pops in
  O(1) amortized — so snapshots and ``state_key()`` see the same owner
  order and buffer FIFO order as the Python loops;
* a stream's ``outstanding`` set always equals the blocks the owner map
  assigns to it, so streams carry only a count; the caller rebuilds the
  sets from the owner items;
* the index view is an exact :class:`~repro.sim.prefetchers.IndexTable`:
  it starts from the restored entries in FIFO order, and each append
  that becomes visible is a ``put`` — a trigger already present moves to
  the end, an overflow past ``index_cap`` pops the oldest entry — so an
  index smaller than the history (PIF's is a quarter of it) evicts
  exactly as the Python loops do.  A lookup is valid only inside the
  history validity window, as ``HistoryBuffer.valid`` checks it.

The kernel never writes its inputs.  Block addresses are formed as
``trigger + offset`` with ``offset < region_blocks`` and reduced modulo
the set count, so the caller must refuse triggers that are negative or
within ``region_blocks`` of the int64 limit beforehand.

ABI: ``int stream_lane(a, hit, other, setidx, n, init_m, init_o, num_sets,
group, state, out, p_cap, owner_cap)``.  ``a``/``other``/``setidx`` are
the lane's int64 columns (``hit`` as uint8), ``init_m``/``init_o`` the
L1 sets' restored MRU/co-resident tags.  ``group``, ``state`` and
``out`` are packed int64 arrays:

* ``group``: ``total, n_ring, n_index``, then the schedule's ``total``
  append steps, ``total`` triggers and ``total`` masks, then the ring's
  first ``n_ring`` slots as (trigger, mask) pairs, then the restored
  index's ``n_index`` entries as (trigger, position) pairs in FIFO order;
* ``state``: the :data:`STATE` scalars, then the restored streams'
  next positions and last LLC blocks in round-robin order, the owner
  map's blocks and stream slots in insertion order and the buffer's
  blocks and issue steps in FIFO order (each a column of its own);
* ``out`` (layout from :func:`out_layout`): the :data:`COUNTS` scalars,
  then ages, demand-miss steps and addresses (``n`` each), the final
  buffer columns (``max(buffer_cap, n_buffer)`` slots each), stream
  columns (``num_streams`` each) and owner columns (``owner_cap`` each)
  in the same orders as ``state``, and ``p_cap`` prefetch steps and
  addresses.

Returns 0 on success, 1 when ``p_cap`` or ``owner_cap`` was too small
(the counts then hold the sizes needed: rerun with them) and -1 when
memory ran out.
"""

from __future__ import annotations

import ctypes
from typing import Dict, Optional

from . import _native

#: Scalars leading the ``state`` array, in order.
STATE = (
    "delta",
    "hist_cap",
    "index_cap",
    "num_streams",
    "lookahead",
    "outstanding_cap",
    "records_per_llc_block",
    "buffer_cap",
    "base_pos",
    "dispatches",
    "record_reads",
    "llc_reads",
    "evicted",
    "n_streams",
    "n_owner",
    "n_buffer",
)

#: Scalars leading the ``out`` array, in order.
COUNTS = (
    "misses",
    "issued",
    "evicted",
    "dispatches",
    "record_reads",
    "llc_reads",
    "n_ages",
    "n_buffer",
    "n_owner",
    "n_streams",
)


def out_layout(
    n: int, buffer_slots: int, num_streams: int, p_cap: int, owner_cap: int
) -> Dict[str, int]:
    """Offsets of the ``out`` regions (``size`` is the total length);
    mirrors the C side's ``out_*`` pointers."""
    offsets = {}
    at = 0
    for name, size in (
        ("counts", len(COUNTS)),
        ("ages", n),
        ("d_steps", n),
        ("d_addrs", n),
        ("buffer_blocks", buffer_slots),
        ("buffer_issued", buffer_slots),
        ("stream_pos", num_streams),
        ("stream_llc", num_streams),
        ("owner_blocks", owner_cap),
        ("owner_slots", owner_cap),
        ("p_steps", p_cap),
        ("p_addrs", p_cap),
    ):
        offsets[name] = at
        at += size
    offsets["size"] = at
    return offsets


SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* Insertion-ordered int64 -> int64 map: an append-only entry log (keys,
   values, dead flags) indexed by a linear-probing hash table of log
   positions.  Deletes mark the entry dead and backward-shift the probe
   run; a full log is compacted (and grown when dense), which keeps live
   entries in insertion order. */
typedef struct {
    i64 *key;
    i64 *val;
    unsigned char *dead;
    i64 *slot;
    int bits;
    i64 head, used, live, cap;
} omap;

static inline i64 om_home(const omap *m, i64 key)
{
    return (i64)(((uint64_t)key * 0x9E3779B97F4A7C15ull) >> (64 - m->bits));
}

static void om_free(omap *m)
{
    free(m->key);
    free(m->val);
    free(m->dead);
    free(m->slot);
    memset(m, 0, sizeof(*m));
}

/* (Re)allocate for `cap` entries, keeping live entries in order. */
static int om_resize(omap *m, i64 cap)
{
    int bits = 4;
    while (((i64)1 << bits) < 2 * cap)
        bits++;
    i64 nslots = (i64)1 << bits;
    i64 *key = malloc((size_t)cap * sizeof(i64));
    i64 *val = malloc((size_t)cap * sizeof(i64));
    unsigned char *dead = calloc((size_t)cap, 1);
    i64 *slot = malloc((size_t)nslots * sizeof(i64));
    if (!key || !val || !dead || !slot) {
        free(key);
        free(val);
        free(dead);
        free(slot);
        return -1;
    }
    i64 live = 0;
    for (i64 i = m->head; i < m->used; i++) {
        if (!m->dead[i]) {
            key[live] = m->key[i];
            val[live] = m->val[i];
            live++;
        }
    }
    om_free(m);
    m->key = key;
    m->val = val;
    m->dead = dead;
    m->slot = slot;
    m->bits = bits;
    m->cap = cap;
    m->used = m->live = live;
    memset(slot, 0xff, (size_t)nslots * sizeof(i64));
    for (i64 e = 0; e < live; e++) {
        i64 h = om_home(m, key[e]);
        while (slot[h] >= 0)
            h = (h + 1) & (nslots - 1);
        slot[h] = e;
    }
    return 0;
}

static int om_init(omap *m, i64 cap)
{
    memset(m, 0, sizeof(*m));
    return om_resize(m, cap < 16 ? 16 : cap);
}

/* Hash slot holding `key`, or -1. */
static inline i64 om_find(const omap *m, i64 key)
{
    i64 mask = ((i64)1 << m->bits) - 1;
    for (i64 h = om_home(m, key);; h = (h + 1) & mask) {
        i64 e = m->slot[h];
        if (e < 0)
            return -1;
        if (m->key[e] == key)
            return h;
    }
}

/* Append a key known to be absent. */
static inline int om_add(omap *m, i64 key, i64 val)
{
    if (m->used == m->cap) {
        /* Logs of maps that delete hold 4x their live entries, so an
           O(cap) compaction comes only every 3x-live appends. */
        i64 cap = 4 * m->live > m->cap ? 4 * m->live : m->cap;
        if (om_resize(m, cap) < 0)
            return -1;
    }
    i64 e = m->used++;
    m->key[e] = key;
    m->val[e] = val;
    m->dead[e] = 0;
    m->live++;
    i64 mask = ((i64)1 << m->bits) - 1;
    i64 h = om_home(m, key);
    while (m->slot[h] >= 0)
        h = (h + 1) & mask;
    m->slot[h] = e;
    return 0;
}

static inline void om_del(omap *m, i64 h)
{
    i64 mask = ((i64)1 << m->bits) - 1;
    m->dead[m->slot[h]] = 1;
    m->live--;
    i64 i = h;
    for (i64 j = (h + 1) & mask;; j = (j + 1) & mask) {
        i64 f = m->slot[j];
        if (f < 0)
            break;
        i64 k = om_home(m, m->key[f]);
        if (j > i ? (k <= i || k > j) : (k <= i && k > j)) {
            m->slot[i] = f;
            i = j;
        }
    }
    m->slot[i] = -1;
    while (m->head < m->used && m->dead[m->head])
        m->head++;
}

/* dict.pop(key, None): 1 and *val when present. */
static inline int om_pop(omap *m, i64 key, i64 *val)
{
    i64 h = om_find(m, key);
    if (h < 0)
        return 0;
    *val = m->val[m->slot[h]];
    om_del(m, h);
    return 1;
}

/* OrderedDict.popitem(last=False); the map is non-empty. */
static inline void om_pop_oldest(omap *m)
{
    om_del(m, om_find(m, m->key[m->head]));
}

typedef struct {
    /* lane's L1 contents: per-set MRU and co-resident */
    i64 *content_m, *content_o;
    i64 num_sets;
    /* history view: this chunk's appends, the restored ring's pairs */
    const i64 *rec_trigger, *rec_mask, *ring;
    i64 base_pos, hist_cap, visible, rpb;
    /* the lane's view of the index: trigger -> position, FIFO order */
    omap index;
    i64 index_cap;
    /* streams: physical slots, round-robin order, per-slot counts */
    i64 *spos, *sllc, *scount, *order;
    unsigned char *busy;
    i64 nstreams, num_streams, lookahead, outstanding_cap;
    /* buffer */
    omap owner, buf;
    i64 buffer_cap;
    /* outputs */
    i64 misses, issued, evicted, dispatches, record_reads, llc_reads;
    i64 *p_steps, *p_addrs, p_cap;
} lane_t;

/* Record at absolute history position `pos` (inside the visible window). */
static inline void read_record(const lane_t *L, i64 pos, i64 *trigger, i64 *mask)
{
    if (pos >= L->base_pos) {
        *trigger = L->rec_trigger[pos - L->base_pos];
        *mask = L->rec_mask[pos - L->base_pos];
    } else {
        *trigger = L->ring[2 * (pos % L->hist_cap)];
        *mask = L->ring[2 * (pos % L->hist_cap) + 1];
    }
}

static inline int in_window(const lane_t *L, i64 pos)
{
    return pos >= 0 && pos < L->visible && pos >= L->visible - L->hist_cap;
}

/* IndexTable.put: a present trigger moves to the end, an overflow pops
   the oldest entry. */
static inline int index_put(lane_t *L, i64 trigger, i64 pos)
{
    i64 h = om_find(&L->index, trigger);
    if (h >= 0)
        om_del(&L->index, h);
    if (om_add(&L->index, trigger, pos) < 0)
        return -1;
    if (L->index.live > L->index_cap)
        om_pop_oldest(&L->index);
    return 0;
}

static inline void count_llc_read(lane_t *L, i64 s, i64 pos)
{
    if (L->rpb) {
        i64 llc_block = pos / L->rpb;
        if (llc_block != L->sllc[s]) {
            L->sllc[s] = llc_block;
            L->llc_reads++;
        }
    }
}

/* StreamEngine._track for one block, then the prefetch issue filter
   (not L1-resident, not already buffered) and PrefetchBuffer.insert.
   on_miss's "not the missed block itself" needs no test of its own: a
   missed block is already its set's MRU when the streams run. */
static inline int track(lane_t *L, i64 s, i64 block, i64 step)
{
    if (om_find(&L->owner, block) >= 0)
        return 0;
    if (om_add(&L->owner, block, s) < 0)
        return -1;
    L->scount[s]++;
    i64 set = block % L->num_sets;
    if (block == L->content_m[set] || block == L->content_o[set])
        return 0;
    if (om_find(&L->buf, block) >= 0)
        return 0;
    if (om_add(&L->buf, block, step) < 0)
        return -1;
    if (L->issued < L->p_cap) {
        L->p_steps[L->issued] = step;
        L->p_addrs[L->issued] = block;
    }
    L->issued++;
    if (L->buf.live > L->buffer_cap) {
        om_pop_oldest(&L->buf);
        L->evicted++;
    }
    return 0;
}

static inline int track_record(lane_t *L, i64 s, i64 trigger, i64 mask, i64 step)
{
    if (track(L, s, trigger, step) < 0)
        return -1;
    for (uint64_t m = (uint64_t)mask; m; m &= m - 1) {
        if (track(L, s, trigger + 1 + __builtin_ctzll(m), step) < 0)
            return -1;
    }
    return 0;
}

static void retire(lane_t *L, i64 s)
{
    i64 left = L->scount[s];
    for (i64 e = L->owner.head; left > 0 && e < L->owner.used; e++) {
        if (!L->owner.dead[e] && L->owner.val[e] == s) {
            om_del(&L->owner, om_find(&L->owner, L->owner.key[e]));
            left--;
        }
    }
    L->scount[s] = 0;
    L->busy[s] = 0;
}

/* StreamEngine.on_miss against the visible slice of the history. */
static int on_miss(lane_t *L, i64 address, i64 step)
{
    i64 stale, pos;
    if (om_pop(&L->owner, address, &stale))
        L->scount[stale]--;
    i64 h = om_find(&L->index, address);
    if (h < 0)
        return 0;
    pos = L->index.val[L->index.slot[h]];
    if (!in_window(L, pos))
        return 0;
    if (L->nstreams >= L->num_streams) {
        retire(L, L->order[0]);
        memmove(L->order, L->order + 1, (size_t)(L->nstreams - 1) * sizeof(i64));
        L->nstreams--;
    }
    i64 s = 0;
    while (L->busy[s])
        s++;
    L->busy[s] = 1;
    L->order[L->nstreams++] = s;
    L->spos[s] = pos;
    L->sllc[s] = -1;
    L->scount[s] = 0;
    L->dispatches++;
    for (i64 k = 0; k < L->lookahead && in_window(L, L->spos[s]); k++) {
        i64 trigger, mask, at = L->spos[s];
        count_llc_read(L, s, at);
        L->spos[s] = at + 1;
        L->record_reads++;
        read_record(L, at, &trigger, &mask);
        if (track_record(L, s, trigger, mask, step) < 0)
            return -1;
    }
    return 0;
}

/* StreamEngine.on_consume against the visible slice of the history. */
static int on_consume(lane_t *L, i64 address, i64 step)
{
    i64 s;
    if (!om_pop(&L->owner, address, &s))
        return 0;
    if (--L->scount[s] >= L->outstanding_cap)
        return 0;
    i64 at = L->spos[s];
    if (!in_window(L, at))
        return 0;
    i64 trigger, mask;
    count_llc_read(L, s, at);
    L->spos[s] = at + 1;
    L->record_reads++;
    read_record(L, at, &trigger, &mask);
    return track_record(L, s, trigger, mask, step);
}

enum { S_DELTA, S_HIST_CAP, S_INDEX_CAP, S_NUM_STREAMS, S_LOOKAHEAD, S_OUTSTANDING_CAP,
       S_RPB, S_BUFFER_CAP, S_BASE_POS, S_DISPATCHES, S_RECORD_READS, S_LLC_READS, S_EVICTED,
       S_N_STREAMS, S_N_OWNER, S_N_BUFFER, S_COLUMNS };
enum { C_MISSES, C_ISSUED, C_EVICTED, C_DISPATCHES, C_RECORD_READS, C_LLC_READS,
       C_AGES, C_BUFFER, C_OWNER, C_STREAMS, C_COUNTS };

int stream_lane(const i64 *a, const unsigned char *hit, const i64 *other, const i64 *setidx,
               i64 n, const i64 *init_m, const i64 *init_o, i64 num_sets,
               const i64 *group, const i64 *state, i64 *out, i64 p_cap, i64 owner_cap)
{
    lane_t L;
    memset(&L, 0, sizeof(L));
    int rc = -1;
    i64 delta = state[S_DELTA];
    i64 n_streams = state[S_N_STREAMS], n_owner = state[S_N_OWNER], n_buf = state[S_N_BUFFER];
    const i64 *stream_pos = state + S_COLUMNS;
    const i64 *stream_llc = stream_pos + n_streams;
    const i64 *owner_blocks = stream_llc + n_streams;
    const i64 *owner_slots = owner_blocks + n_owner;
    const i64 *buf_blocks = owner_slots + n_owner;
    const i64 *buf_issued = buf_blocks + n_buf;
    i64 total = group[0], n_ring = group[1], n_index = group[2];
    const i64 *rec_step = group + 3;
    L.num_sets = num_sets;
    L.rec_trigger = rec_step + total;
    L.rec_mask = rec_step + 2 * total;
    L.ring = rec_step + 3 * total;
    const i64 *index_items = L.ring + 2 * n_ring;
    L.base_pos = state[S_BASE_POS];
    L.hist_cap = state[S_HIST_CAP];
    L.index_cap = state[S_INDEX_CAP];
    L.visible = L.base_pos;
    L.rpb = state[S_RPB];
    L.num_streams = state[S_NUM_STREAMS];
    L.lookahead = state[S_LOOKAHEAD];
    L.outstanding_cap = state[S_OUTSTANDING_CAP];
    L.buffer_cap = state[S_BUFFER_CAP];
    L.dispatches = state[S_DISPATCHES];
    L.record_reads = state[S_RECORD_READS];
    L.llc_reads = state[S_LLC_READS];
    L.evicted = state[S_EVICTED];
    /* out regions, in out_layout() order */
    i64 buffer_slots = L.buffer_cap > n_buf ? L.buffer_cap : n_buf;
    i64 *counts = out;
    i64 *ages = counts + C_COUNTS;
    i64 *d_steps = ages + n;
    i64 *d_addrs = d_steps + n;
    i64 *out_buf_blocks = d_addrs + n;
    i64 *out_buf_issued = out_buf_blocks + buffer_slots;
    i64 *out_stream_pos = out_buf_issued + buffer_slots;
    i64 *out_stream_llc = out_stream_pos + L.num_streams;
    i64 *out_owner_blocks = out_stream_llc + L.num_streams;
    i64 *out_owner_slots = out_owner_blocks + owner_cap;
    L.p_steps = out_owner_slots + owner_cap;
    L.p_addrs = L.p_steps + p_cap;
    L.p_cap = p_cap;

    L.content_m = malloc((size_t)num_sets * sizeof(i64));
    L.content_o = malloc((size_t)num_sets * sizeof(i64));
    L.spos = calloc((size_t)L.num_streams, sizeof(i64));
    L.sllc = calloc((size_t)L.num_streams, sizeof(i64));
    L.scount = calloc((size_t)L.num_streams, sizeof(i64));
    L.order = calloc((size_t)L.num_streams, sizeof(i64));
    L.busy = calloc((size_t)L.num_streams, 1);
    if (!L.content_m || !L.content_o || !L.spos || !L.sllc || !L.scount || !L.order
        || !L.busy || om_init(&L.owner, 4 * n_owner + 64) < 0
        || om_init(&L.buf, 4 * n_buf + 64) < 0
        /* each put appends at most one log entry: no compaction needed */
        || om_init(&L.index, n_index + total) < 0)
        goto done;
    memcpy(L.content_m, init_m, (size_t)num_sets * sizeof(i64));
    memcpy(L.content_o, init_o, (size_t)num_sets * sizeof(i64));
    for (i64 s = 0; s < n_streams; s++) {
        L.spos[s] = stream_pos[s];
        L.sllc[s] = stream_llc[s];
        L.order[s] = s;
        L.busy[s] = 1;
    }
    L.nstreams = n_streams;
    for (i64 i = 0; i < n_owner; i++) {
        if (om_add(&L.owner, owner_blocks[i], owner_slots[i]) < 0)
            goto done;
        L.scount[owner_slots[i]]++;
    }
    for (i64 i = 0; i < n_buf; i++)
        if (om_add(&L.buf, buf_blocks[i], buf_issued[i]) < 0)
            goto done;

    /* The index view: the restored entries (distinct triggers, FIFO
       order), then a put per append of this chunk as it becomes visible. */
    for (i64 i = 0; i < n_index; i++)
        if (om_add(&L.index, index_items[2 * i], index_items[2 * i + 1]) < 0)
            goto done;

    i64 appended = 0, n_ages = 0;
    for (i64 step = 0; step < n; step++) {
        /* Appends the trainer made by this step become visible. */
        for (; appended < total && rec_step[appended] + delta <= step; appended++)
            if (index_put(&L, L.rec_trigger[appended], L.base_pos + appended) < 0)
                goto done;
        L.visible = L.base_pos + appended;
        i64 address = a[step];
        int miss = 0;
        if (!hit[step]) {
            i64 issued_at;
            if (om_pop(&L.buf, address, &issued_at)) {
                ages[n_ages++] = step - issued_at;
            } else {
                d_steps[L.misses] = step;
                d_addrs[L.misses] = address;
                L.misses++;
                miss = 1;
            }
            L.content_m[setidx[step]] = address;
            L.content_o[setidx[step]] = other[step];
        }
        if ((miss ? on_miss(&L, address, step) : on_consume(&L, address, step)) < 0)
            goto done;
    }

    counts[C_MISSES] = L.misses;
    counts[C_ISSUED] = L.issued;
    counts[C_EVICTED] = L.evicted;
    counts[C_DISPATCHES] = L.dispatches;
    counts[C_RECORD_READS] = L.record_reads;
    counts[C_LLC_READS] = L.llc_reads;
    counts[C_AGES] = n_ages;
    counts[C_BUFFER] = L.buf.live;
    counts[C_OWNER] = L.owner.live;
    counts[C_STREAMS] = L.nstreams;
    if (L.issued > p_cap || L.owner.live > owner_cap) {
        rc = 1;
        goto done;
    }
    i64 k = 0;
    for (i64 e = L.buf.head; e < L.buf.used; e++) {
        if (!L.buf.dead[e]) {
            out_buf_blocks[k] = L.buf.key[e];
            out_buf_issued[k++] = L.buf.val[e];
        }
    }
    /* Owner values are physical slots; report round-robin positions. */
    for (i64 i = 0; i < L.nstreams; i++) {
        i64 s = L.order[i];
        out_stream_pos[i] = L.spos[s];
        out_stream_llc[i] = L.sllc[s];
        L.scount[s] = i;
    }
    k = 0;
    for (i64 e = L.owner.head; e < L.owner.used; e++) {
        if (!L.owner.dead[e]) {
            out_owner_blocks[k] = L.owner.key[e];
            out_owner_slots[k++] = L.scount[L.owner.val[e]];
        }
    }
    rc = 0;
done:
    free(L.content_m);
    free(L.content_o);
    free(L.spos);
    free(L.sllc);
    free(L.scount);
    free(L.order);
    free(L.busy);
    om_free(&L.owner);
    om_free(&L.buf);
    om_free(&L.index);
    return rc;
}
"""


def unavailable_reason() -> Optional[str]:
    """Why the kernel cannot be built or loaded here, or None."""
    return _native.unavailable_reason("stream_kernel", SOURCE)


def load():
    """The compiled ``stream_lane`` entry point, with its ctypes signature.

    Builds the shared object on first use (see :mod:`._native`); ctypes
    releases the GIL for the duration of every call.
    """
    library = _native.load_library("stream_kernel", SOURCE)
    function = library.stream_lane
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    function.argtypes = [
        ptr, ptr, ptr, ptr, i64,  # a, hit, other, setidx, n
        ptr, ptr, i64,  # init_m, init_o, num_sets
        ptr, ptr, ptr,  # group, state, out
        i64, i64,  # p_cap, owner_cap
    ]
    function.restype = ctypes.c_int
    return function
