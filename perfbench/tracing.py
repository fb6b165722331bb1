"""Spans around the public entry points of each layer, recorded from outside
the package.

:class:`Tracer` replaces a fixed list of public functions with wrappers that
record a span per call (name, start, end, parent) on the calling thread, and
puts the original objects back on :meth:`Tracer.uninstall`.  Nothing inside
``src/repro`` changes, so the layers the benchmark can see are the ones whose
entry points are public; the L1-I closed form, the prefetcher solver and LLC
replay all run inside ``simulate`` and are not split here.

A span's *self time* is its duration minus the durations of its direct
children.  Children always run on the parent's thread, nested inside it, so
the self times of one operation's spans sum to the time its root spans cover.
Times use ``time.monotonic``, which on Linux is one clock for every process,
so the client and the server of ``serve_overlap`` can be lined up.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

ENGINES = ("none", "next_line", "pif", "shift")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    root: bool = True
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans from patched entry points; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        # simulate() bookkeeping: which cells ran before in this process,
        # the accesses simulated, and the cold PIF/SHIFT calls to re-time.
        self._cells_seen: set = set()
        self._keep: List[object] = []
        self.cold_s = 0.0
        self.repeat_s = 0.0
        self.accesses = 0
        self.cold_calls: List[Tuple[tuple, dict, object, float]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, tag: str = "") -> Span:
        stack = self._stack()
        span = Span(name, time.monotonic(), root=not stack, tag=tag)
        stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.monotonic()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration
        with self._lock:
            self.spans.append(span)

    # -- patching ------------------------------------------------------------

    def _wrap(self, original: Callable, name: str, on_call=None) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(span)
            if on_call is not None:
                on_call(span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point of :func:`patched_targets`.

        One function reachable under several names (``run_experiment`` is
        imported by ``repro.sweeps`` and ``repro.serve``) gets one wrapper.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: Dict[int, Callable] = {}
        for owner, attr, name in patched_targets():
            original = getattr(owner, attr)
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                on_call = self._on_simulate if name == "sim.simulate" else None
                wrapper = wrappers[id(original)] = self._wrap(original, name, on_call)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original object back, in reverse patch order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- simulate ------------------------------------------------------------

    def _on_simulate(self, span: Span, args: tuple, kwargs: dict, result) -> None:
        trace_set = args[0]
        system = args[1] if len(args) > 1 else kwargs.get("system")
        engine = args[2] if len(args) > 2 else kwargs.get("prefetcher", "none")
        span.tag = str(engine)
        factory = {
            key: value
            for key, value in kwargs.items()
            if key not in ("system", "prefetcher", "backend", "model_llc")
        }
        # A cell is (trace, engine, history, chunk): the same cell under
        # another system (an LLC sweep point) is a repeat.  The trace set is
        # identified by object: the trace memo hands the same object to
        # every run of one trace in the process, and keeping a reference
        # stops its id from being reused.
        key = (id(trace_set), repr(sorted(factory.items())), str(engine))
        self.accesses += result.total_accesses
        if key in self._cells_seen:
            self.repeat_s += span.self_s
            return
        self._cells_seen.add(key)
        self._keep.append(trace_set)
        self.cold_s += span.self_s
        if engine in ("pif", "shift"):
            self.cold_calls.append(((trace_set, system, engine), factory, result, span.self_s))

    def retime_python(self, simulate: Callable) -> Dict[str, object]:
        """Re-run every cold PIF and SHIFT cell on the ``python`` backend.

        Returns per-engine speedups (python time over the traced numpy
        self time of the same cells) and the number of cells whose python
        result differs from the numpy one.  Call it after :meth:`uninstall`
        with the original ``simulate``.
        """
        numpy_s = {"pif": 0.0, "shift": 0.0}
        python_s = {"pif": 0.0, "shift": 0.0}
        mismatches = 0
        for (trace_set, system, engine), factory, result, self_s in self.cold_calls:
            kwargs = dict(factory, backend="python")
            start = time.monotonic()
            reference = simulate(trace_set, system, engine, **kwargs)
            python_s[engine] += time.monotonic() - start
            numpy_s[engine] += self_s
            if reference != result:
                mismatches += 1
        return {
            "speedup": {
                engine: python_s[engine] / numpy_s[engine] if numpy_s[engine] else 0.0
                for engine in numpy_s
            },
            "mismatches": mismatches,
        }

    # -- summaries -----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Self time and call count per span name (and per engine for
        ``sim.simulate``, as ``sim.simulate:<engine>``)."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            names = [span.name] + ([f"{span.name}:{span.tag}"] if span.tag else [])
            for name in names:
                entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
                entry["self_s"] += span.self_s
                entry["calls"] += 1
        return out

    def summary(self) -> Dict[str, object]:
        """Everything a worker sends back to the orchestrator."""
        return {
            "totals": self.totals(),
            "cold_s": self.cold_s,
            "repeat_s": self.repeat_s,
            "accesses": self.accesses,
            "roots": [
                [span.name, span.start, span.end] for span in self.spans if span.root
            ],
        }


#: (module, class, attribute, span name) of every traced entry point; the
#: class is empty for module-level functions.
TARGETS = (
    ("repro.experiments", "", "run_experiment", "experiments.run_experiment"),
    ("repro.sweeps", "", "run_experiment", "experiments.run_experiment"),
    ("repro.serve", "", "run_experiment", "experiments.run_experiment"),
    ("repro.sweeps", "", "run_sweep", "sweeps.run_sweep"),
    ("repro.serve", "", "run_sweep", "sweeps.run_sweep"),
    ("repro.experiments.cells", "", "run_cell", "cells.run_cell"),
    ("repro.experiments.cells", "", "trace_set_for", "cells.trace_set_for"),
    ("repro.experiments.cells", "", "generate_traces", "workloads.generate_traces"),
    ("repro.experiments.cells", "", "simulate", "sim.simulate"),
    ("repro.workloads.trace_cache", "TraceCache", "load", "workloads.trace_cache_load"),
    ("repro.results", "ResultCache", "load", "results.load"),
    ("repro.results", "ResultCache", "store", "results.store"),
)


def patched_targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) of every entry point the tracer wraps."""
    targets = []
    for module, cls, attr, name in TARGETS:
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        targets.append((owner, attr, name))
    return targets


def union_s(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def layer_metrics(summary: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of one traced operation from a :meth:`Tracer.summary`."""
    totals = summary["totals"]

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    sim_s = self_s("sim.simulate")
    return {
        "workloads.generate_s": self_s("workloads.generate_traces"),
        "workloads.generate_calls": calls("workloads.generate_traces"),
        "workloads.trace_set_calls": calls("cells.trace_set_for"),
        "workloads.trace_cache_load_s": self_s("workloads.trace_cache_load"),
        **{f"sim.{engine}_s": self_s(f"sim.simulate:{engine}") for engine in ENGINES},
        "sim.cold_s": summary["cold_s"],
        "sim.repeat_s": summary["repeat_s"],
        "sim.maccess_per_s": summary["accesses"] / 1e6 / sim_s if sim_s else 0.0,
        "cells.self_s": self_s("cells.run_cell") + self_s("cells.trace_set_for"),
        "results.load_s": self_s("results.load"),
        "results.store_s": self_s("results.store"),
        "experiments.self_s": self_s("experiments.run_experiment"),
        "sweeps.self_s": self_s("sweeps.run_sweep"),
    }


#: Per-layer metrics that are self times of disjoint spans; they sum to no
#: more than the traced operation's run time.
SELF_TIME_METRICS = (
    "workloads.generate_s",
    "workloads.trace_cache_load_s",
    "sim.none_s",
    "sim.next_line_s",
    "sim.pif_s",
    "sim.shift_s",
    "cells.self_s",
    "results.load_s",
    "results.store_s",
    "experiments.self_s",
    "sweeps.self_s",
)
