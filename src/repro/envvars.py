"""Declared registry of every ``REPRO_*`` environment variable.

Every environment variable the package reads is declared here — name,
default, and one-line semantics — and every call site reads the raw value
through :meth:`EnvVar.read`.  This is the single source the ``--help``
epilogs and the README's environment-variable table reference, and the
``env-registry`` checker of :mod:`repro.analysis` enforces it statically:
an ``os.environ``/``os.getenv`` read anywhere else under ``src/repro``, or
a ``REPRO_*`` name spelled as a string literal outside this module, fails
the analysis gate.  A variable that exists in code but not in this registry
(or vice versa) therefore cannot drift past CI.

Value *parsing* (integer byte counts, worker counts, ...) stays at the call
sites, whose error messages name the variable and are pinned by tests; this
module owns only the names, defaults and documentation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable."""

    #: The environment name (``REPRO_*``); the only place it is spelled.
    name: str
    #: Human-readable effective default, for help text and docs.
    default: str
    #: One-line description, for help text and docs.
    description: str

    def read(self) -> Optional[str]:
        """The stripped value, or None when unset or blank.

        Unset and empty/whitespace-only values are deliberately equivalent:
        ``REPRO_X= python -m repro ...`` behaves like an unset variable,
        which is how every call site has always treated it.
        """
        raw = os.environ.get(self.name, "").strip()
        return raw or None


WORKERS = EnvVar(
    "REPRO_WORKERS",
    "unset (serial)",
    "fan experiment cells over N worker processes when --workers is not given",
)

BACKEND = EnvVar(
    "REPRO_BACKEND",
    "python",
    "simulation backend (python or numpy) when --backend is not given; "
    "reports are byte-identical across backends",
)

TRACE_CACHE_MAX_BYTES = EnvVar(
    "REPRO_TRACE_CACHE_MAX_BYTES",
    "268435456 (256 MB)",
    "LRU byte cap of the on-disk trace cache (0 disables the cap)",
)

RESULT_CACHE = EnvVar(
    "REPRO_RESULT_CACHE",
    "unset (batch CLIs: cache off; repro.serve: .result_cache)",
    "default result-cache directory when --result-cache is not given "
    "(--no-result-cache still wins)",
)

RESULT_CACHE_MAX_BYTES = EnvVar(
    "REPRO_RESULT_CACHE_MAX_BYTES",
    "67108864 (64 MB)",
    "LRU byte cap of the on-disk result cache (0 disables the cap)",
)

SERVE_RETAINED_JOBS = EnvVar(
    "REPRO_SERVE_RETAINED_JOBS",
    "256",
    "finished repro.serve jobs kept queryable before the oldest are pruned",
)

CHUNK_BLOCKS = EnvVar(
    "REPRO_CHUNK_BLOCKS",
    "unset (monolithic)",
    "stream each core's trace through the engine in windows of N blocks "
    "when --chunk-blocks is not given (out-of-core runs; reports are "
    "byte-identical for every chunk geometry, see ARCHITECTURE.md)",
)

#: Every declared variable, in documentation order.
REGISTRY: Tuple[EnvVar, ...] = (
    WORKERS,
    BACKEND,
    TRACE_CACHE_MAX_BYTES,
    RESULT_CACHE,
    RESULT_CACHE_MAX_BYTES,
    SERVE_RETAINED_JOBS,
    CHUNK_BLOCKS,
)


def by_name(name: str) -> EnvVar:
    """The registered variable called ``name`` (KeyError if undeclared)."""
    for var in REGISTRY:
        if var.name == name:
            return var
    raise KeyError(f"undeclared environment variable {name!r}")


def help_text(indent: str = "  ") -> str:
    """The registry rendered for an argparse epilog or README excerpt."""
    width = max(len(var.name) for var in REGISTRY)
    lines = [
        f"{indent}{var.name.ljust(width)}  {var.description} (default: {var.default})"
        for var in REGISTRY
    ]
    return "\n".join(lines)


__all__ = [
    "EnvVar",
    "REGISTRY",
    "WORKERS",
    "BACKEND",
    "TRACE_CACHE_MAX_BYTES",
    "RESULT_CACHE",
    "RESULT_CACHE_MAX_BYTES",
    "SERVE_RETAINED_JOBS",
    "CHUNK_BLOCKS",
    "by_name",
    "help_text",
]
