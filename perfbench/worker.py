"""One process of the benchmark, started by ``run.py`` with a JSON spec.

Modes (``spec["mode"]``):

``op``
    Import the program, report ready, run one timed ``suite_cold``,
    ``llc_sweep`` or ``chunked_long`` operation on the numpy backend, and
    report its run time, peak RSS and report digest.
``fill``
    Generate the ``chunked_long`` trace set into a trace cache directory.
``serve``
    Run a ``repro.serve`` server (one job thread, numpy backend) until a
    line arrives on stdin, then report its peak RSS and cache counters.
``reference``
    Compute the reference digests of one workload and seed on the python
    backend, monolithic, with no trace or result cache.

Messages go to stdout as single lines starting with ``@bench ``.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import threading
import time

import specs

PREFIX = "@bench "


def emit(payload: dict) -> None:
    sys.stdout.write(PREFIX + json.dumps(payload) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program(module: str, backend: str = "numpy") -> dict:
    """Import the entry module a user of this workload imports, and the
    backend; fail loudly without numpy instead of timing python."""
    start = time.perf_counter()
    importlib.import_module(module)
    import numpy
    from repro.sim.backends import get_backend
    from repro.workloads.suite import WORKLOAD_NAMES

    get_backend(backend)
    if tuple(WORKLOAD_NAMES) != specs.SUITE_WORKLOADS:
        raise SystemExit(f"suite workloads changed: {WORKLOAD_NAMES}")
    return {"import_s": time.perf_counter() - start, "numpy": numpy.__version__}


def report_digests(workload: str, report) -> dict:
    out = {"report": specs.digest(report.to_json())}
    if workload == "suite_cold":
        out["rows"] = {
            row["workload"]: specs.row_digests(row) for row in report.to_dict()["rows"]
        }
    return out


def violations(workload: str, report) -> list:
    if workload == "suite_cold":
        return report.check_paper_ordering()
    if workload == "llc_sweep":
        return report.check()
    return []


def call(workload: str, size: str, seed: int, backend: str, **extra):
    """The operation's library call, looked up at call time so a traced
    run goes through the tracer's wrappers."""
    kwargs = specs.experiment_kwargs(workload, size, seed)
    if workload == "llc_sweep":
        import repro.sweeps as sweeps

        return sweeps.run_sweep(backend=backend, **kwargs, **extra)
    import repro.experiments as experiments

    return experiments.run_experiment(backend=backend, **kwargs, **extra)


def run_op(spec: dict) -> None:
    workload, size, seed = spec["workload"], spec["size"], spec["seed"]
    facts = import_program("repro.sweeps" if workload == "llc_sweep" else "repro.experiments")
    extra = {}
    if workload == "chunked_long":
        extra["chunk_blocks"] = specs.CONFIGS[size]["chunked_long"]["chunk_blocks"]
        extra["trace_cache"] = spec["trace_cache"]
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    emit({"event": "ready", "t": time.monotonic(), **facts})
    if spec.get("setup_only"):
        return
    start = time.perf_counter()
    try:
        report = call(workload, size, seed, "numpy", **extra)
    finally:
        run_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    result = {
        "event": "done",
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "digests": report_digests(workload, report),
        "violations": violations(workload, report),
    }
    if tracer is not None:
        result["trace"] = traced_summary(tracer)
    emit(result)


def traced_summary(tracer) -> dict:
    import repro.experiments.cells as cells

    summary = tracer.summary()
    summary["retime"] = tracer.retime_python(cells.simulate)
    return summary


def run_fill(spec: dict) -> None:
    from repro.experiments.cells import CellSpec, trace_set_for

    kwargs = specs.experiment_kwargs("chunked_long", spec["size"], spec["seed"])
    cell = CellSpec(
        workload=kwargs["workloads"][0],
        engine="none",
        seed=kwargs["seed"],
        num_cores=kwargs["num_cores"],
        blocks_per_core=kwargs["blocks_per_core"],
    )
    trace_set_for(cell, spec["trace_cache"])
    emit({"event": "filled"})


def run_serve(spec: dict) -> None:
    facts = import_program("repro.serve")
    from repro.serve import ExperimentService, make_server

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    service = ExperimentService(
        result_cache=spec["result_cache"], backend="numpy", job_threads=1
    )
    server = make_server("127.0.0.1", 0, service)
    service.start()
    thread = threading.Thread(target=server.serve_forever, name="bench-http", daemon=True)
    thread.start()
    emit({"event": "ready", "t": time.monotonic(), "port": server.server_address[1], **facts})
    try:
        sys.stdin.readline()
    finally:
        server.shutdown()
        thread.join(timeout=30)
        server.server_close()
        service.stop()
        if tracer is not None:
            tracer.uninstall()
    result = {
        "event": "done",
        "peak_rss_mb": peak_rss_mb(),
        "cache": service.result_cache.stats(),
    }
    if tracer is not None:
        result["trace"] = traced_summary(tracer)
    emit(result)


def run_reference(spec: dict) -> None:
    workload, size, seed = spec["workload"], spec["size"], spec["seed"]
    import_program("repro.sweeps", backend="python")
    report = call(workload, size, seed, "python")
    emit(
        {
            "event": "reference",
            "digests": report_digests(workload, report),
            "violations": violations(workload, report),
        }
    )


def main() -> None:
    spec = json.loads(sys.argv[1])
    modes = {"op": run_op, "fill": run_fill, "serve": run_serve, "reference": run_reference}
    modes[spec["mode"]](spec)


if __name__ == "__main__":
    main()
