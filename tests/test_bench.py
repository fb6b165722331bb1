"""The bench harness, the bench-regression gate, and report formatting."""

import copy
import json

import pytest

from repro.bench import bench_hotloop, check_against, write_bench_json
from repro.experiments import format_report, run_experiment


@pytest.fixture(scope="module")
def quick_hotloop():
    """One ``bench_hotloop(quick=True)`` run shared by the harness tests
    (each run takes minutes; every test only reads the result)."""
    return bench_hotloop(quick=True)


class TestBenchHarness:
    def test_quick_hotloop_bench_covers_all_engines(self, tmp_path, quick_hotloop):
        result = quick_hotloop
        assert set(result["engines"]) == {"none", "next_line", "pif", "shift"}
        for data in result["engines"].values():
            assert data["optimized_seconds"] > 0
        path = write_bench_json(result, tmp_path)
        assert path.name == "BENCH_hotloop.json"

    def test_hotloop_records_backend_comparison_when_numpy_present(self, quick_hotloop):
        pytest.importorskip("numpy")
        result = quick_hotloop
        backend = result["backend"]
        assert backend["numpy_available"] is True
        assert backend["backends_match"] is True
        assert backend["total_numpy_speedup"] > 0
        for data in result["engines"].values():
            assert data["numpy_seconds"] > 0
            assert data["numpy_speedup"] > 0

    def test_hotloop_records_trace_generation_section(self, quick_hotloop):
        result = quick_hotloop
        generation = result["trace_generation"]
        assert set(generation["suite"]) == {"oltp_db2", "web_search"}
        for entry in generation["suite"].values():
            assert entry["cold_seconds"] > 0
            assert entry["warm_seconds"] > 0
        assert generation["cold_seconds"] > 0
        assert generation["warm_speedup"] > 1.0, "cache loads must beat generation"
        assert generation["old_vs_new_load_ratio"] > 0


def hotloop_fixture():
    return {
        "benchmark": "hotloop",
        "config": {"workload": "oltp_db2", "seed": 0, "blocks_per_core": None, "accesses": 120_000},
        "engines": {
            "none": {"numpy_speedup": 8.0},
            "pif": {"numpy_speedup": 10.0},
        },
        "backend": {
            "numpy_available": True,
            "backends_match": True,
            "total_numpy_speedup": 9.0,
        },
        "trace_generation": {
            "suite": {"oltp_db2": {"cold_seconds": 0.5, "warm_seconds": 0.005}},
            "cold_seconds": 0.5,
            "warm_seconds": 0.005,
            "warm_speedup": 100.0,
            "old_vs_new_load_ratio": 4.0,
        },
    }


class TestCheckAgainst:
    def test_identical_results_pass(self):
        baseline = hotloop_fixture()
        assert check_against(copy.deepcopy(baseline), baseline) == []

    def test_small_drift_within_tolerance_passes(self):
        baseline = hotloop_fixture()
        current = copy.deepcopy(baseline)
        current["engines"]["pif"]["numpy_speedup"] = 9.0
        assert check_against(current, baseline, tolerance=0.15) == []

    def test_regression_beyond_tolerance_fails(self):
        baseline = hotloop_fixture()
        current = copy.deepcopy(baseline)
        current["engines"]["none"]["numpy_speedup"] = 5.0  # 8.0 -> 5.0 is >15%
        violations = check_against(current, baseline)
        assert any("none" in violation for violation in violations)

    def test_backend_divergence_always_fails(self):
        baseline = hotloop_fixture()
        current = copy.deepcopy(baseline)
        current["backend"]["backends_match"] = False
        assert any("diverged" in v for v in check_against(current, baseline))

    def test_missing_engine_fails(self):
        baseline = hotloop_fixture()
        current = copy.deepcopy(baseline)
        del current["engines"]["pif"]
        assert any("missing" in v for v in check_against(current, baseline))

    def test_trace_generation_regression_fails(self):
        baseline = hotloop_fixture()
        current = copy.deepcopy(baseline)
        # The committed 100x is clamped to the 10x cap before the tolerance,
        # so 9.0 passes while 5.0 regresses.
        current["trace_generation"]["warm_speedup"] = 9.0
        assert check_against(current, baseline) == []
        current["trace_generation"]["warm_speedup"] = 5.0
        violations = check_against(current, baseline)
        assert any("trace_generation.warm_speedup" in v for v in violations)

    def test_missing_trace_generation_section_fails(self):
        baseline = hotloop_fixture()
        current = copy.deepcopy(baseline)
        del current["trace_generation"]
        violations = check_against(current, baseline)
        assert any("trace_generation" in v for v in violations)

    def test_incomparable_config_fails_early(self):
        baseline = hotloop_fixture()
        current = copy.deepcopy(baseline)
        current["config"]["accesses"] = 48_000
        current["engines"]["pif"]["numpy_speedup"] = 0.1  # not reported: configs differ
        violations = check_against(current, baseline)
        assert violations and all("not comparable" in v for v in violations)

    def test_benchmark_name_mismatch(self):
        baseline = hotloop_fixture()
        current = copy.deepcopy(baseline)
        current["benchmark"] = "other"
        assert any("benchmark mismatch" in v for v in check_against(current, baseline))

    def test_shift_absolute_floor(self):
        """SHIFT carries an absolute 8x floor that ignores the baseline: a
        collapse back to the Python fallback (~1.0) must fail even against a
        stale baseline recorded before the epoch-split solver existed."""
        baseline = hotloop_fixture()
        baseline["engines"]["shift"] = {"numpy_speedup": 0.99}
        current = copy.deepcopy(baseline)
        current["engines"]["shift"]["numpy_speedup"] = 20.0
        assert check_against(current, baseline) == []
        current["engines"]["shift"]["numpy_speedup"] = 1.0
        violations = check_against(current, baseline)
        assert any("absolute floor" in v and "shift" in v for v in violations)
        del current["engines"]["shift"]["numpy_speedup"]
        violations = check_against(current, baseline)
        assert any("shift" in v and "missing" in v for v in violations)
        # Without numpy there is no ratio to hold to the floor; the
        # numpy-unavailable violation is reported elsewhere.
        current["backend"]["numpy_available"] = False
        assert not any("absolute floor" in v for v in check_against(current, baseline))

    def test_chunked_numpy_absolute_floor(self):
        """The warm chunked-numpy full-run ratio carries an absolute 5x
        floor, independent of the baseline: a regression to the Python
        fallback (~1.0) must fail even against a stale baseline."""
        baseline = hotloop_fixture()
        baseline["trace_scale"] = {
            "chunked_matches_monolithic": True,
            "peak_flatness": 1.1,
            "chunked_numpy_speedup": 6.5,
        }
        current = copy.deepcopy(baseline)
        assert check_against(current, baseline) == []
        current["trace_scale"]["chunked_numpy_speedup"] = 1.2
        violations = check_against(current, baseline)
        assert any(
            "chunked_numpy_speedup" in v and "absolute floor" in v
            for v in violations
        )
        del current["trace_scale"]["chunked_numpy_speedup"]
        violations = check_against(current, baseline)
        assert any(
            "chunked_numpy_speedup" in v and "missing" in v for v in violations
        )
        # Without numpy there is no warm ratio to hold to the floor.
        current["backend"]["numpy_available"] = False
        assert not any(
            "chunked_numpy_speedup" in v for v in check_against(current, baseline)
        )

    def test_cli_gate_passes_against_own_output(self, tmp_path, capsys, quick_hotloop):
        from repro.bench.__main__ import main

        baseline_path = write_bench_json(quick_hotloop, tmp_path / "baseline")
        # Against its own (tolerance-relaxed) output the gate must pass:
        # quick single-repeat timings are noisy, so give wide headroom.
        code = main(
            [
                "--quick",
                "--out",
                str(tmp_path / "current"),
                "--check-against",
                str(baseline_path),
                "--regression-tolerance",
                "0.95",
            ]
        )
        assert code == 0
        assert "bench-regression gate passed" in capsys.readouterr().out


class TestReportAlignment:
    def test_every_column_is_aligned_under_its_header(self):
        report = run_experiment(
            workloads=["oltp_db2"], num_cores=2, blocks_per_core=1_500, seed=0
        )
        lines = format_report(report).splitlines()
        # Workload rows sit between the header rule and the storage footer.
        header, rows = lines[1], lines[3 : 3 + len(report.rows)]
        assert all(len(row) == len(header) for row in rows)
        # Each value cell must end exactly where its header column ends
        # (right-aligned 13-character cells under 13-character headers).
        for title in ("next_line cov", "next_line spd", "pif cov", "shift spd"):
            end = header.index(title) + len(title)
            for row in rows:
                cell = row[end - 13 : end]
                assert cell.strip(), f"empty cell under {title!r}"
                assert row[end - 14] == " ", f"cell under {title!r} overflows its column"
                assert not cell.startswith("  " * 6), f"cell under {title!r} misaligned"

    def test_base_mpki_column_alignment(self):
        report = run_experiment(
            workloads=["oltp_db2"], num_cores=2, blocks_per_core=1_500, seed=0
        )
        lines = format_report(report).splitlines()
        header, first_row = lines[1], lines[3]
        end = header.index("base MPKI") + len("base MPKI")
        assert first_row[end - 1].isdigit()
