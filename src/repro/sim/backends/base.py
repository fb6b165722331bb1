"""The :class:`Backend` interface and the backend registry.

A backend is an execution strategy for the per-run simulation kernel: it
receives the prepared lanes (one per core: trace, L1-I, prefetch buffer,
stats), the per-core in-flight windows, the prefetcher and the optional
shared LLC, and must leave every one of those objects in *exactly* the state
the reference round-robin loop would — backends are allowed to reorder and
batch work only where the reordering is provably unobservable.  Reports are
therefore byte-identical across backends; the parity tests in
``tests/test_backends.py`` enforce this for every engine family.

Selection precedence, implemented by :func:`resolve_backend_name`:

1. an explicit argument (``--backend`` on the CLIs, ``backend=`` in the
   library API);
2. the ``REPRO_BACKEND`` environment variable;
3. the ``python`` default.

Backends with unmet dependencies (``numpy`` without NumPy installed) are
registered but unavailable; requesting one raises :class:`BackendError`
with the reason instead of failing deep inside a run.
"""

from __future__ import annotations

import abc
import importlib.util
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ... import envvars
from ...config import DEFAULT_BACKEND
from ...errors import BackendError

if TYPE_CHECKING:
    from .._fastpath import Lane
    from ..llc import SharedLLC
    from ..prefetchers import Prefetcher


class Backend(abc.ABC):
    """One execution strategy for the simulation kernel."""

    #: Registry name; also what ``--backend`` / ``REPRO_BACKEND`` match.
    name: str = ""

    @abc.abstractmethod
    def run(
        self,
        lanes: "List[Lane]",
        inflight: Dict[int, int],
        prefetcher: "Prefetcher",
        llc: "SharedLLC | None" = None,
    ) -> None:
        """Simulate every lane, mutating stats/buffers/prefetcher/LLC in place.

        Must be observationally identical to
        :meth:`repro.sim.engine.SimulationEngine._run_round_robin`: all
        :class:`~repro.sim.engine.CoreResult` counters, the prefetch-buffer
        contents, the prefetcher's mutable state and the LLC statistics end
        up exactly as the reference loop leaves them.
        """


#: name -> (factory, availability probe).  The probe keeps optional-dependency
#: backends listed (for error messages and CLI help) without importing them.
_REGISTRY: Dict[str, Tuple[Callable[[], Backend], Callable[[], Optional[str]]]] = {}

#: Instantiated backends are stateless; cache one instance per name.
_INSTANCES: Dict[str, Backend] = {}


def register_backend(
    name: str,
    factory: Callable[[], Backend],
    unavailable_reason: Callable[[], Optional[str]] = lambda: None,
) -> None:
    """Register a backend factory under ``name``.

    ``unavailable_reason`` returns None when the backend can be built here,
    or a human-readable reason (e.g. a missing dependency) otherwise.
    """
    _REGISTRY[name] = (factory, unavailable_reason)


def backend_names() -> Tuple[str, ...]:
    """Every registered backend name, available or not."""
    return tuple(_REGISTRY)


def available_backends() -> Tuple[str, ...]:
    """Names of the backends that can actually run in this environment."""
    return tuple(name for name, (_, reason) in _REGISTRY.items() if reason() is None)


def resolve_backend_name(explicit: Optional[str] = None) -> str:
    """The effective backend name: explicit arg > ``REPRO_BACKEND`` > default."""
    if explicit:
        return explicit
    env = envvars.BACKEND.read()
    return env if env else DEFAULT_BACKEND


def get_backend(backend: "str | Backend | None" = None) -> Backend:
    """Resolve ``backend`` (a name, instance, or None) to a Backend instance."""
    if isinstance(backend, Backend):
        return backend
    name = resolve_backend_name(backend)
    cached = _INSTANCES.get(name)
    if cached is not None:
        return cached
    entry = _REGISTRY.get(name)
    if entry is None:
        raise BackendError(
            f"unknown backend {name!r}; known: {', '.join(backend_names())}"
        )
    factory, reason = entry
    why = reason()
    if why is not None:
        raise BackendError(f"backend {name!r} is unavailable: {why}")
    instance = factory()
    _INSTANCES[name] = instance
    return instance


def _missing_module_reason(module: str) -> Callable[[], Optional[str]]:
    """An availability probe requiring ``module`` to be importable."""

    def probe() -> Optional[str]:
        if importlib.util.find_spec(module) is None:
            return f"requires the {module!r} package, which is not installed"
        return None

    return probe


__all__ = [
    "Backend",
    "register_backend",
    "backend_names",
    "available_backends",
    "resolve_backend_name",
    "get_backend",
]
