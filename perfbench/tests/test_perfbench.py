"""Tests of the benchmark itself, on the ``tiny`` workload sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


def bench(*args: str, cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        env=env,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="session")
def tiny_reference(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("reference") / "tiny.json"
    proc = bench("--write-reference", "--size", "tiny", "--reference", str(path),
                 "--workload-seeds", "0", "1")
    assert proc.returncode == 0, proc.stderr
    return path


def tiny_run(reference: Path, workload: str, trace: int, env=None) -> dict:
    proc = bench("--workload", workload, "--size", "tiny", "--seconds", "0.1",
                 "--trace", str(trace), "--reference", str(reference), env=env)
    return result_of(proc)


@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(tiny_reference, workload):
    result = tiny_run(tiny_reference, workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_traced_run_self_times_fit_in_run_time(tiny_reference, workload):
    result = tiny_run(tiny_reference, workload, trace=1)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert result["correct"] is True
    assert set(metrics) == PER_LAYER
    self_total = sum(metrics[name] for name in tracing.SELF_TIME_METRICS)
    assert 0 < self_total <= metrics["trace.run_s"]
    # On serve_overlap, coverage counts the server's run_experiment spans,
    # and HTTP, queueing and poll gaps are not spanned: it falls short of 0.9.
    floor = 0.0 if workload == "serve_overlap" else 0.9
    assert floor < metrics["trace.span_coverage"] <= 1.0
    assert metrics["sim.cold_s"] + metrics["sim.repeat_s"] == pytest.approx(
        sum(metrics[f"sim.{engine}_s"] for engine in tracing.ENGINES)
    )


def tampered(reference: Path, tmp_path: Path) -> Path:
    """A copy of ``reference`` with every digest replaced."""

    def scramble(node):
        if isinstance(node, dict):
            return {key: scramble(value) for key, value in node.items()}
        return "0" * 64

    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(scramble(json.loads(reference.read_text()))))
    return path


@pytest.mark.parametrize("workload", ["suite_cold", "serve_overlap"])
def test_tampered_reference_fails_every_operation(tiny_reference, tmp_path, workload):
    result = tiny_run(tampered(tiny_reference, tmp_path), workload, trace=0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_self_check_detects_drift(tiny_reference, tmp_path):
    args = ["--self-check", "--size", "tiny", "--workload", "chunked_long",
            "--workload-seeds", "0"]
    assert bench(*args, "--reference", str(tiny_reference)).returncode == 0
    drifted = bench(*args, "--reference", str(tampered(tiny_reference, tmp_path)))
    assert drifted.returncode == 1
    assert "DRIFT chunked_long seed 0" in drifted.stdout


def test_served_report_missing_an_engine_fails_the_check():
    row = {"workload": "oltp_db2", "baseline_mpki": 1.0,
           "outcomes": {"pif": {"speedup": 1.1}, "shift": {"speedup": 1.2}}}
    params = {"workloads": ["oltp_db2"], "engines": ["none", "pif", "shift"], "seed": 0}
    rows_ref = {"oltp_db2": specs.row_digests(row)}
    assert specs.check_served_report({"rows": [row]}, params, rows_ref) is None
    for dropped in ({"pif": row["outcomes"]["pif"]}, {}):
        report = {"rows": [{**row, "outcomes": dropped}]}
        assert "do not match the requested engines" in specs.check_served_report(
            report, params, rows_ref)


def test_held_out_seed_runs_every_operation_and_needs_a_reference(tiny_reference):
    assert {specs.op_seed(specs.HELD_OUT_SEED, i) for i in range(10)} == {specs.HELD_OUT_SEED}
    assert {specs.op_seed(3, i) for i in range(8)} == set(specs.SEED_POOL)
    served = {job["params"]["seed"] for job in specs.serve_jobs(specs.HELD_OUT_SEED, "full")}
    assert specs.HELD_OUT_SEED in served and len(served) == 3
    # The tiny reference stores seeds 0 and 1 only: a run never computes one.
    proc = bench("--workload", "suite_cold", "--size", "tiny", "--seconds", "0.1",
                 "--seed", str(specs.HELD_OUT_SEED), "--reference", str(tiny_reference))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert "no reference for suite_cold seed 101" in proc.stderr


def test_tracer_restores_the_original_functions():
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in tracing.patched_targets()]
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            for owner, attr, original in originals:
                assert getattr(owner, attr) is not original
            import repro.experiments as experiments

            experiments.run_experiment(workloads=["oltp_db2"], num_cores=2,
                                       blocks_per_core=2000, backend="numpy")
            raise ZeroDivisionError
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original
    assert {span.name for span in tracer.spans} >= {
        "experiments.run_experiment", "cells.run_cell", "sim.simulate"}


def test_workload_processes_get_no_repro_variables(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "python")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    env = run.hermetic_env()
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_serve_plan_has_a_fixed_share_of_new_jobs():
    for seed in range(5):
        jobs = specs.serve_jobs(seed, "full")
        assert len(jobs) >= 100
        assert sum(job["new"] for job in jobs) * 5 == len(jobs)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "suite_cold", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]
