"""Pluggable execution backends for the simulation kernel.

The simulation *semantics* live in :mod:`repro.sim.prefetchers`,
:mod:`repro.sim.cache` and :mod:`repro.sim.llc`; a backend is purely an
execution strategy for replaying the traces through them.  Two ship here:

* ``python`` — the per-family inlined CPython loops of
  :mod:`repro.sim._fastpath` (the reference implementation);
* ``numpy`` — batch-vectorized array passes for every built-in engine
  family.  PIF's stream machinery runs as a Python event loop over the
  precomputed L1 outcomes; SHIFT's shared-history round-robin splits into
  independent per-lane event loops (epochs between the trainer's history
  appends) that run as a compiled C kernel, built once with the system C
  compiler and cached (:mod:`._native`).  Configurations outside these
  closed forms fall back, exactly, to the Python loops.

Backends never change results: every counter, the prefetcher's mutable
state, the prefetch-buffer contents and the LLC statistics are exactly
those of the reference round-robin loop, so experiment reports are
byte-identical across backends (``tests/test_backends.py`` pins this).
Selection is ``--backend`` / ``backend=`` > ``REPRO_BACKEND`` > ``python``.
"""

from typing import Optional

from .base import (
    Backend,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from .base import _missing_module_reason
from .python_backend import PythonBackend

register_backend("python", PythonBackend)


def _numpy_backend() -> Backend:
    from .numpy_backend import NumPyBackend

    return NumPyBackend()


def _numpy_unavailable() -> Optional[str]:
    """NumPy must be installed, and the stream-lane kernel cached or compilable."""
    why = _missing_module_reason("numpy")()
    if why is None:
        from . import _stream_kernel

        why = _stream_kernel.unavailable_reason()
    return why


register_backend("numpy", _numpy_backend, _numpy_unavailable)

__all__ = [
    "Backend",
    "PythonBackend",
    "available_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]
