"""The pure-Python backend: the specialized loops of :mod:`repro.sim._fastpath`.

This backend is the reference implementation every other backend is pinned
against.  It dispatches on the exact prefetcher type — subclasses may
override ``on_access`` and must fall through to the generic round-robin
loop — and otherwise runs the inlined per-family loops.  PIF and both SHIFT
variants share one stream loop: they differ only in their history groups.
"""

from __future__ import annotations

from typing import Dict

from .. import _fastpath
from ..prefetchers import (
    ConsolidatedSHIFTPrefetcher,
    NextLinePrefetcher,
    NullPrefetcher,
    PIFPrefetcher,
    Prefetcher,
    SHIFTPrefetcher,
)
from .base import Backend


#: The stream engines, which all run on :func:`_fastpath.run_stream_shared`.
_STREAM_TYPES = (PIFPrefetcher, SHIFTPrefetcher, ConsolidatedSHIFTPrefetcher)


class PythonBackend(Backend):
    """Per-family inlined CPython loops."""

    name = "python"

    def run(self, lanes, inflight: Dict[int, int], prefetcher, llc=None) -> None:
        ptype = type(prefetcher)
        if ptype is NullPrefetcher or ptype is Prefetcher:
            _fastpath.run_baseline(lanes, llc)
        elif ptype is NextLinePrefetcher:
            _fastpath.run_next_line(lanes, inflight, prefetcher._degree, llc)
        elif ptype in _STREAM_TYPES:
            _fastpath.run_stream_shared(lanes, inflight, prefetcher, llc)
        else:
            # The generic loop lives on the engine because it *defines* the
            # round-robin semantics; imported lazily to avoid the module
            # cycle (engine imports backends at load time).
            from ..engine import SimulationEngine

            SimulationEngine._run_round_robin(lanes, inflight, prefetcher, llc)


__all__ = ["PythonBackend"]
