"""Cold-process end-to-end benchmark of the SHIFT reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload llc_sweep --seed 0 --seconds 36 --trace 0

Every operation runs in a fresh process on the numpy backend, with every
``REPRO_*`` variable removed from its environment and fresh cache
directories under ``.bench_tmp/``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one extra
traced operation with ``--trace 1``).  See ``perfbench/README.md``.

Reference digests live in ``perfbench/reference.json``::

    python3 perfbench/run.py --self-check        # regenerate and compare
    python3 perfbench/run.py --write-reference   # regenerate and store
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import specs
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
DEFAULT_REFERENCE = BENCH_DIR / "reference.json"

#: A run ends within this many seconds of starting, whatever ``--seconds``.
HARD_LIMIT_S = 170.0

#: Set-up samples per run: the operations' own, topped up with processes
#: that exit as soon as they are ready.
MIN_SETUPS = 5

BATCH = ("suite_cold", "llc_sweep", "chunked_long")


class BenchError(Exception):
    """The program could not be measured at all (no result is printed)."""


def hermetic_env() -> Dict[str, str]:
    """The caller's environment without ``REPRO_*`` and with only the
    checkout's ``src`` on the import path."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.pop("PYTHONSTARTUP", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    """sha256 over ``src/`` (paths and bytes): identifies the code measured
    when the checkout is not a git repository."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


class Context:
    """Settings and shared state of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.size: str = args.size
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = hermetic_env()
        self.tmp_root = ROOT / ".bench_tmp" / f"pid-{os.getpid()}"
        self.reference_path = Path(args.reference)
        self.reference = load_reference(self.reference_path)
        self.numpy_version: Optional[str] = None

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def tmpdir(self) -> Path:
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="run-", dir=self.tmp_root))

    def spawn(self, spec: Dict[str, object], cwd: Path, stdin=None,
              stderr=subprocess.PIPE) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(spec)],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=stderr,
            cwd=cwd,
            env=self.env,
            text=True,
        )

    def expected(self, workload: str, seed: int) -> Dict[str, object]:
        """Stored reference digests of ``workload`` at ``seed``."""
        stored = self.reference.get(self.size, {}).get(workload, {}).get(str(seed))
        if stored is None:
            raise BenchError(f"{self.reference_path} has no reference for {workload} "
                             f"seed {seed} at size {self.size}")
        return stored


def messages(text: str) -> List[Dict[str, object]]:
    return [
        json.loads(line[len("@bench "):])
        for line in text.splitlines()
        if line.startswith("@bench ")
    ]


def finish(ctx: Context, proc: subprocess.Popen, stdin_text: Optional[str] = None):
    """Wait for a worker (killing it past the run's deadline)."""
    try:
        out, err = proc.communicate(stdin_text, timeout=ctx.remaining())
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        raise BenchError("a workload process exceeded the run's time limit") from None
    return proc.returncode, messages(out), err


def load_reference(path: Path) -> Dict[str, object]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def reference_jobs(args: argparse.Namespace, seeds: List[int]):
    workloads = [args.workload] if args.workload else list(BATCH)
    if "serve_overlap" in workloads:
        workloads = ["suite_cold"]
    return [(w, s) for s in seeds for w in workloads]


def compute_references(ctx: Context, jobs: List[tuple]) -> Dict[tuple, Dict[str, object]]:
    """Reference digests of (workload, seed) pairs: the python backend,
    monolithic, no caches, one fresh process per pair, two at a time."""
    results: Dict[tuple, Dict[str, object]] = {}
    pending = list(jobs)
    running: List[tuple] = []
    while pending or running:
        while pending and len(running) < 2:
            workload, seed = pending.pop(0)
            cwd = ctx.tmpdir()
            proc = ctx.spawn({"mode": "reference", "workload": workload, "size": ctx.size,
                              "seed": seed}, cwd)
            running.append((workload, seed, proc, cwd))
        workload, seed, proc, cwd = running.pop(0)
        code, msgs, err = finish(ctx, proc)
        shutil.rmtree(cwd, ignore_errors=True)
        if code != 0 or not msgs:
            raise BenchError(f"reference run of {workload} seed {seed} failed:\n{err}")
        if msgs[-1]["violations"]:
            raise BenchError(f"{workload} seed {seed} fails its check on the python backend: "
                             f"{msgs[-1]['violations']}")
        results[(workload, seed)] = msgs[-1]["digests"]
        print(f"  {workload} seed {seed}: {msgs[-1]['digests']['report'][:16]}", file=sys.stderr)
    return results


# -- one operation -------------------------------------------------------------


def fill_trace_cache(ctx: Context, seed: int, cwd: Path) -> str:
    """Generate the ``chunked_long`` traces into a fresh cache in a
    separate process; returns the cache directory."""
    directory = str(cwd / "traces")
    fill = ctx.spawn({"mode": "fill", "size": ctx.size, "seed": seed,
                      "trace_cache": directory}, cwd)
    code, msgs, err = finish(ctx, fill)
    if code != 0 or not msgs:
        raise BenchError(f"trace-cache fill failed:\n{err}")
    return directory


def setup_probe(ctx: Context, workload: str, seed: int) -> float:
    """Set-up time of one more fresh workload process that exits as soon
    as it is ready (the server is told to stop at once)."""
    cwd = ctx.tmpdir()
    try:
        spawn = time.monotonic()
        if workload == "serve_overlap":
            spec = {"mode": "serve", "result_cache": str(cwd / "results"), "trace": False}
            proc = ctx.spawn(spec, cwd, stdin=subprocess.PIPE)
            code, msgs, err = finish(ctx, proc, "stop\n")
        else:
            spec = {"mode": "op", "workload": workload, "size": ctx.size, "seed": seed,
                    "setup_only": True}
            if workload == "chunked_long":
                spec["trace_cache"] = fill_trace_cache(ctx, seed, cwd)
            code, msgs, err = finish(ctx, ctx.spawn(spec, cwd))
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    ready = next((m for m in msgs if m["event"] == "ready"), None)
    if code != 0 or ready is None:
        raise BenchError(f"the {workload} process did not start:\n{err}")
    return ready["t"] - spawn


def batch_op(ctx: Context, workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """One fresh-process ``suite_cold`` / ``llc_sweep`` / ``chunked_long`` call."""
    expected = ctx.expected(workload, seed)
    cwd = ctx.tmpdir()
    try:
        spec = {"mode": "op", "workload": workload, "size": ctx.size, "seed": seed,
                "trace": trace}
        spawn = time.monotonic()
        if workload == "chunked_long":
            spec["trace_cache"] = fill_trace_cache(ctx, seed, cwd)
        code, msgs, err = finish(ctx, ctx.spawn(spec, cwd))
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    ready = next((m for m in msgs if m["event"] == "ready"), None)
    if ready is None:
        raise BenchError(f"the {workload} process did not start:\n{err}")
    ctx.numpy_version = ready["numpy"]
    done = next((m for m in msgs if m["event"] == "done"), None)
    op = {"seed": seed, "setup_s": ready["t"] - spawn, "import_s": ready["import_s"]}
    if code != 0 or done is None:
        print(f"error: {workload} seed {seed} failed:\n{err}", file=sys.stderr)
        return {**op, "attempted": 1, "failed": 1}
    failed = 0
    if done["digests"]["report"] != expected["report"]:
        print(f"error: {workload} seed {seed}: report digest differs from the reference",
              file=sys.stderr)
        failed = 1
    if done["violations"]:
        print(f"error: {workload} seed {seed}: {done['violations']}", file=sys.stderr)
        failed = 1
    op.update(
        run_s=done["run_s"],
        peak_rss_mb=done["peak_rss_mb"],
        latencies=[op["setup_s"] + done["run_s"]],
        attempted=1,
    )
    if trace:
        op["trace"] = done["trace"]
        if done["trace"]["retime"]["mismatches"]:
            print(f"error: {workload} seed {seed}: python re-run differs from numpy",
                  file=sys.stderr)
            failed = 1
        op["covered_s"] = sum(end - start for _, start, end in done["trace"]["roots"])
    op["failed"] = failed
    return op


def request(port: int, method: str, path: str, body: Optional[dict] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def serve_job(ctx: Context, port: int, params: dict, poll_s: float) -> Dict[str, object]:
    """Submit one job, poll its status every ``poll_s``, fetch the result."""
    start = time.monotonic()
    job = {"start": start, "polls": 0, "error": None}
    status, body = request(port, "POST", "/submit", {"kind": "experiment", "params": params})
    if status != 200:
        job["error"] = f"submit returned {status}: {body}"
        return job
    job_id = body["job"]
    while True:
        time.sleep(poll_s)
        status, body = request(port, "GET", f"/status/{job_id}")
        job["polls"] += 1
        if status != 200:
            job["error"] = f"status returned {status}: {body}"
            return job
        if body["status"] in ("done", "failed"):
            break
        if time.monotonic() > ctx.deadline:
            job["error"] = "job did not finish before the run's time limit"
            return job
    status, body = request(port, "GET", f"/result/{job_id}")
    job["end"] = time.monotonic()
    if status != 200 or body.get("status") != "done":
        job["error"] = f"result returned {status}: {body.get('error')}"
        return job
    rows_ref = ctx.expected("suite_cold", params["seed"])["rows"]
    job["error"] = specs.check_served_report(body["report"], params, rows_ref)
    return job


def serve_op(ctx: Context, seed: int, trace: bool) -> Dict[str, object]:
    """One ``serve_overlap`` session: a fresh server and a closed-loop client."""
    jobs_plan = specs.serve_jobs(seed, ctx.size)
    for trace_seed in sorted({job["params"]["seed"] for job in jobs_plan}):
        ctx.expected("suite_cold", trace_seed)
    poll_s = float(specs.CONFIGS[ctx.size]["serve_overlap"]["poll_interval_s"])
    cwd = ctx.tmpdir()
    proc = None
    # The server's stderr goes to a file: nobody reads a pipe during the
    # session, and a full pipe would block the server.
    errlog = open(cwd / "server.err", "w+")
    try:
        spec = {"mode": "serve", "result_cache": str(cwd / "results"), "trace": trace}
        spawn = time.monotonic()
        proc = ctx.spawn(spec, cwd, stdin=subprocess.PIPE, stderr=errlog)
        line = proc.stdout.readline()
        if not line.startswith("@bench "):
            proc.kill()
            proc.communicate()
            errlog.seek(0)
            raise BenchError(f"the server did not start:\n{line}{errlog.read()}")
        ready = json.loads(line[len("@bench "):])
        ctx.numpy_version = ready["numpy"]
        session_start = time.monotonic()
        jobs = []
        for planned in jobs_plan:
            try:
                job = serve_job(ctx, ready["port"], planned["params"], poll_s)
            except (OSError, http.client.HTTPException, ValueError) as error:
                job = {"error": f"{type(error).__name__}: {error}", "polls": 0}
            jobs.append(job)
        run_s = time.monotonic() - session_start
        code, msgs, _ = finish(ctx, proc, "stop\n")
        errlog.seek(0)
        err = errlog.read()
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
        errlog.close()
        shutil.rmtree(cwd, ignore_errors=True)
    done = next((m for m in msgs if m["event"] == "done"), None)
    if code != 0 or done is None:
        raise BenchError(f"the server failed:\n{err}")
    failed = [job for job in jobs if job["error"]]
    for job in failed[:5]:
        print(f"error: served job failed: {job['error']}", file=sys.stderr)
    ok = [job for job in jobs if not job["error"]]
    op = {
        "seed": seed,
        "setup_s": ready["t"] - spawn,
        "import_s": ready["import_s"],
        "run_s": run_s,
        "peak_rss_mb": done["peak_rss_mb"],
        "latencies": [job["end"] - job["start"] for job in jobs if "end" in job],
        "attempted": len(jobs),
        "failed": len(failed),
        "cache": done["cache"],
    }
    if trace:
        op["trace"] = done["trace"]
        if done["trace"]["retime"]["mismatches"]:
            op["failed"] += 1
        op["serve"] = serve_layers(ok, done["trace"]["roots"])
        # Coverage counts the server's own spans; HTTP handling, queueing
        # and the client's poll gaps are not spanned.
        op["covered_s"] = tracing.union_s(
            [(start, end) for _, start, end in done["trace"]["roots"]],
            session_start, session_start + run_s,
        )
    return op


def serve_layers(jobs: List[dict], roots: List[list]) -> Dict[str, float]:
    """Line the client's jobs up with the server's ``run_experiment`` spans."""
    spans = sorted((start, end) for name, start, end in roots
                   if name == "experiments.run_experiment")
    overhead, waits = [], []
    for job in jobs:
        inside = [(s, e) for s, e in spans if job["start"] <= s <= job["end"]]
        if not inside:
            continue
        overhead.append((job["end"] - job["start"]) - sum(e - s for s, e in inside))
        waits.append(inside[0][0] - job["start"])
    return {
        "serve.overhead_s": statistics.median(overhead) if overhead else 0.0,
        "serve.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "serve.polls_per_job": statistics.mean(job["polls"] for job in jobs) if jobs else 0.0,
    }


def run_op(ctx: Context, workload: str, seed: int, trace: bool) -> Dict[str, object]:
    if workload == "serve_overlap":
        return serve_op(ctx, seed, trace)
    return batch_op(ctx, workload, seed, trace)


# -- metrics -------------------------------------------------------------------


def end_to_end(ops: List[dict], setups: List[float]) -> Dict[str, Dict[str, object]]:
    timed = [op for op in ops if "run_s" in op]
    latencies = [value for op in timed for value in op["latencies"]]
    if not timed or not latencies:
        raise BenchError("no operation completed")
    return {
        "run_s": {"value": statistics.median(op["run_s"] for op in timed), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(op["peak_rss_mb"] for op in timed), "unit": "MB"},
        "job_p50_s": {"value": percentile(latencies, 0.5), "unit": "s"},
        "job_p90_s": {"value": percentile(latencies, 0.9), "unit": "s"},
    }


#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    ("proc.import_s", "s"),
    ("workloads.generate_s", "s"),
    ("workloads.generate_calls", "count"),
    ("workloads.trace_set_calls", "count"),
    ("workloads.trace_cache_load_s", "s"),
    ("sim.none_s", "s"),
    ("sim.next_line_s", "s"),
    ("sim.pif_s", "s"),
    ("sim.shift_s", "s"),
    ("sim.cold_s", "s"),
    ("sim.repeat_s", "s"),
    ("sim.maccess_per_s", "Maccess/s"),
    ("sim.pif_numpy_speedup", "x"),
    ("sim.shift_numpy_speedup", "x"),
    ("cells.self_s", "s"),
    ("results.load_s", "s"),
    ("results.store_s", "s"),
    ("results.hit_ratio", "ratio"),
    ("experiments.self_s", "s"),
    ("sweeps.self_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.polls_per_job", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.span_coverage", "ratio"),
)


def per_layer(ops: List[dict], traced: dict) -> Dict[str, Dict[str, object]]:
    untraced = [op["run_s"] for op in ops if "run_s" in op]
    summary = traced["trace"]
    values = tracing.layer_metrics(summary)
    speedup = summary["retime"]["speedup"]
    cache = traced.get("cache")
    lookups = (cache["hits"] + cache["misses"]) if cache else 0
    values.update(
        {
            "proc.import_s": statistics.median(op["import_s"] for op in ops + [traced]),
            "sim.pif_numpy_speedup": speedup["pif"],
            "sim.shift_numpy_speedup": speedup["shift"],
            "results.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "serve.overhead_s": 0.0,
            "serve.queue_wait_s": 0.0,
            "serve.polls_per_job": 0.0,
            **traced.get("serve", {}),
            "trace.run_s": traced["run_s"],
            "trace.overhead_s": traced["run_s"] - statistics.median(untraced),
            "trace.span_coverage": traced["covered_s"] / traced["run_s"],
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# -- commands ------------------------------------------------------------------


def measure(ctx: Context, args: argparse.Namespace) -> int:
    facts = machine_facts()
    # Warm-up, not counted: the first start in a checkout also compiles the
    # program's bytecode and pulls its files into the page cache.
    setup_probe(ctx, args.workload, specs.op_seed(args.seed, 0))
    start = time.monotonic()
    traced = None
    if args.trace:
        # With --trace 1 only the per-layer metrics are printed, so the
        # traced operation takes its share of the window first.
        traced = run_op(ctx, args.workload, specs.op_seed(args.seed, 0), trace=True)
    ops: List[dict] = []
    durations: List[float] = []
    while True:
        began = time.monotonic()
        ops.append(run_op(ctx, args.workload, specs.op_seed(args.seed, len(ops)), trace=False))
        durations.append(time.monotonic() - began)
        # Start another operation only if one of median length ends inside
        # the window: the run lasts --seconds, not --seconds plus one.
        if time.monotonic() - start + statistics.median(durations) > args.seconds:
            break
    setups = [op["setup_s"] for op in ops]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_probe(ctx, args.workload, ops[0]["seed"]))
    measured_s = time.monotonic() - start
    metrics = end_to_end(ops, setups)
    attempted = sum(op["attempted"] for op in ops + ([traced] if traced else []))
    failed = sum(op["failed"] for op in ops + ([traced] if traced else []))
    facts["numpy"] = ctx.numpy_version
    print(f"workload {args.workload}  seed {args.seed}  size {ctx.size}  "
          f"ops {len(ops)} in {measured_s:.1f} s  "
          f"workload seeds {[op['seed'] for op in ops]}")
    timed = sum("run_s" in op for op in ops)
    samples = sum(len(op.get("latencies", [])) for op in ops)
    for name, metric in metrics.items():
        count = f"of {samples} jobs" if name.startswith("job_") else f"median of {timed}"
        if name == "setup_s":
            count = f"median of {len(setups)}"
        print(f"  {name:<12} {metric['value']:12.4f} {metric['unit']:<3} ({count})")
    print(f"  {'fail_frac':<12} {failed / attempted:12.4f}   ({failed} of {attempted})")
    if traced is not None:
        metrics = per_layer(ops, traced)
        print("  traced operation (per layer):")
        for name, metric in metrics.items():
            print(f"    {name:<28} {metric['value']:12.4f} {metric['unit']}")
    record = {
        "machine": facts,
        "workload": args.workload,
        "seed": args.seed,
        "size": ctx.size,
        "ops": [{k: v for k, v in op.items() if k not in ("trace", "latencies")}
                for op in ops],
        "fail_frac": failed / attempted,
        "setups": setups,
    }
    if traced is not None:
        record["traced"] = {"seed": traced["seed"], "run_s": traced["run_s"]}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def write_reference(ctx: Context, args: argparse.Namespace) -> int:
    ctx.deadline = time.monotonic() + 3600.0
    seeds = (args.workload_seeds or
             list(specs.SEED_POOL) + [specs.HELD_OUT_SEED])
    results = compute_references(ctx, reference_jobs(args, seeds))
    for (workload, seed), digests in results.items():
        ctx.reference.setdefault(ctx.size, {}).setdefault(workload, {})[str(seed)] = digests
    ctx.reference_path.write_text(json.dumps(ctx.reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} reference entries to {ctx.reference_path}")
    return 0


def self_check(ctx: Context, args: argparse.Namespace) -> int:
    """Regenerate reference digests on the python backend and compare."""
    ctx.deadline = time.monotonic() + 3600.0
    seeds = args.workload_seeds or [specs.DEFAULT_SEED, specs.HELD_OUT_SEED]
    results = compute_references(ctx, reference_jobs(args, seeds))
    drift = 0
    for (workload, seed), digests in sorted(results.items()):
        stored = ctx.reference.get(ctx.size, {}).get(workload, {}).get(str(seed))
        if stored != digests:
            drift += 1
            print(f"DRIFT {workload} seed {seed}: stored reference "
                  f"{'missing' if stored is None else 'differs'}")
    print(f"self-check: {len(results) - drift} of {len(results)} reference entries match")
    return 1 if drift else 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed: picks the workload seeds of the run "
                             f"({specs.HELD_OUT_SEED}: every operation on that held-out seed)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="run operations while the next one is expected to end "
                             "within this many seconds (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run one traced operation first and print per-layer metrics")
    parser.add_argument("--size", choices=sorted(specs.CONFIGS), default="full",
                        help="tiny runs every code path in seconds (for tests)")
    parser.add_argument("--reference", default=str(DEFAULT_REFERENCE),
                        help="reference digest file")
    parser.add_argument("--workload-seeds", type=int, nargs="+", dest="workload_seeds",
                        help="seeds for --write-reference / --self-check")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--write-reference", action="store_true")
    group.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (args.write_reference or args.self_check) and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    ctx = Context(args)
    try:
        if args.write_reference:
            return write_reference(ctx, args)
        if args.self_check:
            return self_check(ctx, args)
        return measure(ctx, args)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.tmp_root, ignore_errors=True)
        try:
            ctx.tmp_root.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made


if __name__ == "__main__":
    sys.exit(main())
