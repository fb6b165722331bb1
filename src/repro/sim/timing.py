"""Stall-exposure timing model.

The paper's timing results come from cycle-accurate simulation; this model
uses the first-order approximation that drives them: a core retires at
``base_ipc`` until an uncovered instruction-fetch miss stalls the front end,
and ``stall_exposure`` of the miss latency reaches retirement (wider cores
hide more of it in the instruction window — Table I / Section 2.3).

With the shared LLC modelled (:mod:`repro.sim.llc`), every demand L1-I miss
is classified: an LLC hit costs the NoC round trip plus an LLC bank access
(:meth:`~repro.config.SystemConfig.llc_demand_latency_cycles`), a memory
miss additionally pays the off-chip access
(:meth:`~repro.config.SystemConfig.memory_demand_latency_cycles`).  Results
from runs without an LLC model (``model_llc=False``) carry no
classification and are charged uniformly at LLC latency.

For virtualized SHIFT, history records are *real* LLC reads of the pinned
history blocks (one bank access per 64-byte block of 12 records); each read
delays the stream's prefetches by an LLC bank access, which is what
:func:`core_timing` charges per ``history_block_reads``.  The NoC hop to
the bank overlaps with stream consumption and is not charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import CoreConfig, SystemConfig
from ..errors import SimulationError
from .engine import CoreResult, SimulationResult


@dataclass(frozen=True)
class CoreTiming:
    """Timing summary for one core."""

    core_id: int
    instructions: int
    cycles: float
    base_cycles: float
    stall_cycles: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def core_timing(
    result: CoreResult,
    system: SystemConfig,
    core: Optional[CoreConfig] = None,
) -> CoreTiming:
    """Timing for one core of one simulation run."""
    core_config = core if core is not None else system.core
    if result.instructions <= 0:
        raise SimulationError("core retired no instructions; cannot compute timing")
    base_cycles = result.instructions / core_config.base_ipc
    miss_latency = system.llc_demand_latency_cycles()
    memory_latency = system.memory_demand_latency_cycles()
    # Unclassified misses (no LLC model in the run) charge LLC latency.
    memory_misses = result.memory_misses
    llc_served = result.misses - memory_misses
    stall_cycles = core_config.stall_exposure * (
        llc_served * miss_latency
        + memory_misses * memory_latency
        + result.late_hits * 0.5 * miss_latency
        + result.history_block_reads * system.llc.hit_latency_cycles
    )
    return CoreTiming(
        core_id=result.core_id,
        instructions=result.instructions,
        cycles=base_cycles + stall_cycles,
        base_cycles=base_cycles,
        stall_cycles=stall_cycles,
    )


def system_timing(
    result: SimulationResult,
    system: Optional[SystemConfig] = None,
) -> List[CoreTiming]:
    """Per-core timing for a whole simulation run."""
    sys_config = system if system is not None else result.system
    return [core_timing(core_result, sys_config) for core_result in result.cores]


def aggregate_ipc(timings: List[CoreTiming]) -> float:
    """Aggregate IPC: total instructions over the slowest core's cycles."""
    if not timings:
        raise SimulationError("no core timings to aggregate")
    makespan = max(t.cycles for t in timings)
    if makespan <= 0:
        raise SimulationError("non-positive makespan")
    return sum(t.instructions for t in timings) / makespan


def weighted_speedup(
    result: SimulationResult,
    baseline: SimulationResult,
    system: Optional[SystemConfig] = None,
) -> float:
    """Mean per-core IPC ratio versus the no-prefetch baseline."""
    sys_config = system if system is not None else result.system
    base_by_core: Dict[int, CoreTiming] = {
        t.core_id: t for t in system_timing(baseline, sys_config)
    }
    ratios = []
    for timing in system_timing(result, sys_config):
        base = base_by_core.get(timing.core_id)
        if base is None:
            raise SimulationError(f"baseline lacks core {timing.core_id}")
        ratios.append(timing.ipc / base.ipc)
    return sum(ratios) / len(ratios)


__all__ = [
    "CoreTiming",
    "core_timing",
    "system_timing",
    "aggregate_ipc",
    "weighted_speedup",
]
