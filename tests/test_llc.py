"""The shared-LLC model and its fast-path equivalence.

The LLC's LRU state is shared across cores, so the order of LLC accesses is
defined by the generic round-robin loop; every specialized loop in
:mod:`repro.sim._fastpath` (including the per-core loops, via event replay)
must reproduce its counters, its ``llc_hits`` / ``memory_misses``
classification and the aggregate :class:`~repro.sim.llc.LLCStats`
*exactly* — on equal-length lanes and on lanes that drop out early.
"""

from dataclasses import asdict

import pytest

from repro.config import (
    LLCConfig,
    scaled_pif_config,
    scaled_shift_config,
    scaled_system,
)
from repro.errors import SimulationError
from repro.sim import SharedLLC, SimulationEngine, simulate
from repro.sim.prefetchers import (
    ConsolidatedSHIFTPrefetcher,
    NextLinePrefetcher,
    NullPrefetcher,
    PIFPrefetcher,
    Prefetcher,
    SHIFTPrefetcher,
)
from repro.workloads.generator import WorkloadTraceGenerator, generate_traces
from repro.workloads.suite import scaled_workload, workload_by_name
from repro.workloads.trace import TraceSet

SYSTEM = scaled_system()


def tiny_llc(blocks=32, associativity=2, banks=4):
    config = LLCConfig(
        size_bytes_per_core=blocks * 64, associativity=associativity, banks=banks
    )
    return SharedLLC(config, num_cores=1)


class TestSharedLLC:
    def test_geometry_from_config(self):
        llc = SharedLLC(SYSTEM.llc, SYSTEM.num_cores)
        assert llc.total_blocks == SYSTEM.llc_total_blocks
        assert llc.num_sets * llc.associativity == llc.total_blocks
        assert llc.banks == SYSTEM.llc.banks

    def test_lru_eviction_order(self):
        llc = tiny_llc(blocks=2, associativity=2)  # one 2-way set
        assert not llc.access_demand(0)
        assert not llc.access_demand(1)
        assert llc.access_demand(0)  # 0 becomes MRU
        assert not llc.access_demand(2)  # evicts 1
        assert llc.contains(0) and llc.contains(2) and not llc.contains(1)

    def test_prefetch_fills_serve_later_demand(self):
        llc = tiny_llc()
        assert not llc.access_prefetch(7)
        assert llc.access_demand(7)
        assert llc.prefetch_misses == 1 and llc.demand_hits == 1

    def test_pinned_blocks_reduce_set_capacity(self):
        llc = tiny_llc(blocks=2, associativity=2)  # one set, two ways
        llc.pin_region(100, 1)
        assert llc.pinned_blocks == 1
        assert llc.contains(100)
        assert not llc.access_demand(0)
        assert not llc.access_demand(2)  # evicts 0: only one way remains
        assert not llc.contains(0)
        # The pinned block never leaves.
        assert llc.contains(100)

    def test_pin_region_must_leave_a_way_free(self):
        llc = tiny_llc(blocks=2, associativity=2)  # one set
        with pytest.raises(SimulationError):
            llc.pin_region(0, 2)

    def test_pinning_is_idempotent(self):
        llc = tiny_llc()
        llc.pin_region(0, 4)
        llc.pin_region(0, 4)
        assert llc.pinned_blocks == 4

    def test_accessing_a_pinned_block_always_hits(self):
        llc = tiny_llc(blocks=2, associativity=2)  # one set
        llc.pin_region(100, 1)
        assert llc.access_demand(100)
        assert llc.access_prefetch(100)
        # The hit must not insert a duplicate into the LRU ways: the one
        # remaining instruction way still holds a block across it.
        assert not llc.access_demand(0)
        assert llc.access_demand(100)
        assert llc.access_demand(0)

    def test_bank_accesses_accumulate(self):
        llc = tiny_llc(blocks=32, associativity=2, banks=4)
        for address in range(16):
            llc.access_demand(address)
        stats = llc.stats()
        assert sum(stats.bank_accesses) == 16
        assert len(stats.bank_accesses) == 4

    def test_stats_ratios(self):
        llc = tiny_llc()
        llc.access_demand(1)
        llc.access_demand(1)
        llc.access_prefetch(2)
        llc.add_history_reads(5)
        stats = llc.stats()
        assert stats.demand_hit_ratio == 0.5
        assert stats.instruction_hit_ratio == pytest.approx(1 / 3)
        assert stats.history_reads == 5


@pytest.fixture(scope="module")
def trace_set():
    spec = scaled_workload(workload_by_name("oltp_db2"), 16)
    return generate_traces(spec, SYSTEM, seed=2, num_cores=4, blocks_per_core=3_000)


@pytest.fixture(scope="module")
def uneven_trace_set():
    """Different per-core trace lengths exercise the lane drop-out paths."""
    spec = scaled_workload(workload_by_name("web_frontend"), 16)
    generator = WorkloadTraceGenerator(spec, SYSTEM, seed=9)
    traces = [
        generator.core_trace(0, 3_000),
        generator.core_trace(1, 1_500),
        generator.core_trace(2, 2_200),
    ]
    return TraceSet(traces=traces, seed=9, name="uneven")


def core_dicts(result):
    return [asdict(core) for core in result.cores]


def llc_dict(result):
    assert result.llc is not None
    return asdict(result.llc)


# The python backend dispatches on the exact prefetcher type, so any
# subclass runs the generic round-robin loop, the semantic reference the
# LLC-aware fast paths are pinned to.
class _GenericBaseline(Prefetcher):
    pass


class _GenericNextLine(NextLinePrefetcher):
    pass


class _GenericPIF(PIFPrefetcher):
    pass


class _GenericSHIFT(SHIFTPrefetcher):
    pass


class _GenericConsolidated(ConsolidatedSHIFTPrefetcher):
    pass


class TestLLCFastPathEquivalence:
    """Fast paths vs. the generic loop: full equality, LLC counters included."""

    def pairs(self, num_cores=4, groups=((0, 1), (2,))):
        """(fast, generic) prefetcher pairs; core 3 outside ``groups``
        stays passive under consolidated SHIFT."""
        pif = scaled_pif_config(16)
        shift = scaled_shift_config(16)
        return [
            (NullPrefetcher(), _GenericBaseline()),
            (NextLinePrefetcher(), _GenericNextLine()),
            (PIFPrefetcher(num_cores, pif), _GenericPIF(num_cores, pif)),
            (SHIFTPrefetcher(num_cores, shift), _GenericSHIFT(num_cores, shift)),
            (
                ConsolidatedSHIFTPrefetcher(groups, shift),
                _GenericConsolidated(groups, shift),
            ),
        ]

    def assert_pairs_match(self, trace_set, pairs):
        for fast, generic in pairs:
            fast_result = SimulationEngine(SYSTEM, fast).run(trace_set)
            generic_result = SimulationEngine(SYSTEM, generic).run(trace_set)
            name = type(fast).__name__
            assert core_dicts(fast_result) == core_dicts(generic_result), name
            assert llc_dict(fast_result) == llc_dict(generic_result), name

    def test_all_engine_families_match_generic_loop(self, trace_set):
        self.assert_pairs_match(trace_set, self.pairs())

    def test_uneven_lane_lengths_match_generic_loop(self, uneven_trace_set):
        """Lanes that run out early drop out of the round-robin on every
        path; the survivors' interleaving (and the LLC order) must not
        shift."""
        self.assert_pairs_match(
            uneven_trace_set, self.pairs(num_cores=3, groups=((0, 2), (1,)))
        )

    def test_classification_partitions_misses(self, trace_set):
        for engine, kwargs in (
            ("none", {}),
            ("next_line", {}),
            ("pif", {"pif_config": scaled_pif_config(16)}),
            ("shift", {"shift_config": scaled_shift_config(16)}),
        ):
            result = simulate(trace_set, SYSTEM, engine, **kwargs)
            for core in result.cores:
                assert core.llc_hits + core.memory_misses == core.misses

    def test_model_llc_false_restores_pr1_results(self, trace_set):
        result = simulate(trace_set, SYSTEM, "none", model_llc=False)
        assert result.llc is None
        assert all(c.llc_hits == 0 and c.memory_misses == 0 for c in result.cores)


class TestGenericLoopFallback:
    def test_shift_subclass_falls_back_to_generic_loop(self, trace_set):
        """Subclassed engines bypass the exact-type fast paths but must agree."""

        class TracingSHIFT(SHIFTPrefetcher):
            pass

        generic = SimulationEngine(
            SYSTEM, TracingSHIFT(SYSTEM.num_cores, scaled_shift_config(16))
        ).run(trace_set)
        fast = simulate(trace_set, SYSTEM, "shift", shift_config=scaled_shift_config(16))
        assert core_dicts(generic) == core_dicts(fast)

    def test_consolidated_shift_matches_generic_loop(self, trace_set):
        groups = [(0, 1), (2, 3)]
        config = scaled_shift_config(16)
        fast = SimulationEngine(SYSTEM, ConsolidatedSHIFTPrefetcher(groups, config)).run(
            trace_set
        )
        generic = SimulationEngine(SYSTEM, _GenericConsolidated(groups, config)).run(
            trace_set
        )
        assert core_dicts(fast) == core_dicts(generic)

    def test_consolidated_shift_only_trains_within_groups(self, trace_set):
        """A core outside every group gets no prefetches (passive lane)."""
        config = scaled_shift_config(16)
        result = SimulationEngine(
            SYSTEM, ConsolidatedSHIFTPrefetcher([(0, 1, 2)], config)
        ).run(trace_set)
        outside = result.by_core()[3]
        assert outside.prefetches_issued == 0
        assert outside.prefetch_hits == 0
        assert outside.demand_hits + outside.misses == outside.accesses


class TestHistoryVirtualization:
    def test_virtualized_shift_pins_its_history_blocks(self, trace_set):
        config = scaled_shift_config(16)
        result = simulate(trace_set, SYSTEM, "shift", shift_config=config)
        assert result.llc.pinned_blocks == config.history_llc_blocks
        assert result.llc.history_reads > 0

    def test_non_virtualized_shift_pins_nothing(self, trace_set):
        config = scaled_shift_config(16, virtualized=False)
        result = simulate(trace_set, SYSTEM, "shift", shift_config=config)
        assert result.llc.pinned_blocks == 0
        assert result.llc.history_reads == 0

    def test_consolidated_shift_pins_one_region_per_group(self, trace_set):
        config = scaled_shift_config(16)
        prefetcher = ConsolidatedSHIFTPrefetcher([(0, 1), (2, 3)], config)
        result = SimulationEngine(SYSTEM, prefetcher).run(trace_set)
        assert (
            result.llc.pinned_blocks
            == 2 * prefetcher.history_llc_blocks_per_group
        )

    def test_virtualization_barely_perturbs_llc_hit_ratio(self, trace_set):
        """Section 5.4: pinned history costs almost nothing in LLC hits."""
        pif = simulate(trace_set, SYSTEM, "pif", pif_config=scaled_pif_config(16))
        shift = simulate(trace_set, SYSTEM, "shift", shift_config=scaled_shift_config(16))
        assert pif.llc_hit_ratio - shift.llc_hit_ratio < 0.05

    def test_cold_misses_bound_memory_misses(self, trace_set):
        """Every distinct block's first LLC access must come from memory."""
        result = simulate(trace_set, SYSTEM, "none")
        assert result.total_memory_misses >= 1
        assert result.total_memory_misses >= len(
            {a for t in trace_set.traces for a in t.addresses}
        ) - result.llc.prefetch_misses
