"""Unit tests for the CI benchmark-regression gate (benchmarks/check_regression.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_MODULE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload))


@pytest.fixture()
def workspace(tmp_path):
    """A baselines file plus a healthy set of measured benchmarks."""
    baselines = tmp_path / "baselines.json"
    _write(baselines, {
        "BENCH_a.json": {"speedup": 3.0},
        "BENCH_b.json": {"speedup": 1.5, "requests_per_second": 100.0},
    })
    _write(tmp_path / "BENCH_a.json", {"status": "measured", "speedup": 12.4})
    _write(tmp_path / "BENCH_b.json",
           {"status": "measured", "speedup": 2.0, "requests_per_second": 18000.0})
    return tmp_path, baselines


class TestGate:
    def test_healthy_measurements_pass(self, workspace, capsys):
        tmp_path, baselines = workspace
        exit_code = check_regression.main(
            ["--baselines", str(baselines), "--dir", str(tmp_path)]
        )
        assert exit_code == 0
        assert "benchmark regression gate: ok" in capsys.readouterr().out

    def test_synthetic_ratio_drop_fails(self, workspace, capsys):
        """The acceptance scenario: a speedup below its committed floor must
        fail the gate."""
        tmp_path, baselines = workspace
        _write(tmp_path / "BENCH_a.json", {"status": "measured", "speedup": 2.4})
        exit_code = check_regression.main(
            ["--baselines", str(baselines), "--dir", str(tmp_path)]
        )
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "measured 2.4 < required 3" in out

    def test_skipped_benchmark_passes_with_reason(self, workspace, capsys):
        tmp_path, baselines = workspace
        _write(tmp_path / "BENCH_a.json",
               {"status": "skipped", "skip_reason": "runner has 1 core"})
        exit_code = check_regression.main(
            ["--baselines", str(baselines), "--dir", str(tmp_path)]
        )
        assert exit_code == 0
        assert "runner has 1 core" in capsys.readouterr().out

    def test_skip_lists_every_floored_metric_explicitly(self, workspace, capsys):
        """A skip must enumerate the floors it leaves unmeasured, one line
        each, so skipped coverage is visible in the gate's output."""
        tmp_path, baselines = workspace
        _write(tmp_path / "BENCH_b.json",
               {"status": "skipped", "skip_reason": "runner has 1 core"})
        exit_code = check_regression.main(
            ["--baselines", str(baselines), "--dir", str(tmp_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        skip_lines = [line for line in out.splitlines()
                      if line.strip().startswith(check_regression.SKIP)]
        assert len(skip_lines) == 2
        assert any("speedup" in line for line in skip_lines)
        assert any("requests_per_second" in line for line in skip_lines)

    def test_skip_without_reason_fails(self, workspace, capsys):
        """'skipped' with no recorded reason is a silent coverage hole, not
        a pass."""
        tmp_path, baselines = workspace
        _write(tmp_path / "BENCH_a.json", {"status": "skipped"})
        exit_code = check_regression.main(
            ["--baselines", str(baselines), "--dir", str(tmp_path)]
        )
        assert exit_code == 1
        assert "skipped without a recorded reason" in capsys.readouterr().out

    def test_missing_bench_file_fails(self, workspace):
        tmp_path, baselines = workspace
        (tmp_path / "BENCH_a.json").unlink()
        assert check_regression.main(
            ["--baselines", str(baselines), "--dir", str(tmp_path)]
        ) == 1

    def test_missing_metric_fails(self, workspace):
        tmp_path, baselines = workspace
        _write(tmp_path / "BENCH_b.json", {"status": "measured", "speedup": 2.0})
        assert check_regression.main(
            ["--baselines", str(baselines), "--dir", str(tmp_path)]
        ) == 1

    def test_empty_baselines_rejected(self, tmp_path):
        baselines = tmp_path / "baselines.json"
        _write(baselines, {})
        with pytest.raises(ValueError):
            check_regression.load_baselines(str(baselines))


def _bench_constant(module_file: str, name: str) -> float:
    """A MIN_* floor constant as the benchmark module itself defines it."""
    bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    spec = importlib.util.spec_from_file_location(
        module_file.removesuffix(".py"), bench_dir / module_file
    )
    module = importlib.util.module_from_spec(spec)
    # Some benchmark modules import siblings (e.g. profile_kernel); make the
    # benchmarks directory importable for the duration of the load, exactly
    # as pytest's rootdir-prepend collection does.
    sys.path.insert(0, str(bench_dir))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench_dir))
    return getattr(module, name)


class TestCommittedBaselines:
    def test_committed_floors_match_the_benchmarks_own_minimums(self):
        """The committed floors must agree with the MIN_* constants the
        benchmark files themselves assert, so the gate and the smoke tests
        can never disagree about what 'regressed' means."""
        committed = check_regression.load_baselines(str(check_regression.DEFAULT_BASELINES))
        expectations = {
            ("BENCH_batch_eval.json", "speedup"): (
                "test_batch_eval_speed.py", "MIN_SPEEDUP"),
            ("BENCH_parallel_eval.json", "speedup"): (
                "test_parallel_eval_speed.py", "MIN_SPEEDUP"),
            ("BENCH_kernel_sweep.json", "s2_row_events_per_second"): (
                "test_kernel_sweep.py", "MIN_S2_ROW_EVENTS_PER_SECOND"),
            ("BENCH_kernel_sweep.json", "s6_row_events_per_second"): (
                "test_kernel_sweep.py", "MIN_S6_ROW_EVENTS_PER_SECOND"),
            ("BENCH_kernel_sweep.json", "s2_pop80_row_events_per_second"): (
                "test_kernel_sweep.py", "MIN_S2_POP80_ROW_EVENTS_PER_SECOND"),
            ("BENCH_kernel_sweep.json", "s6_pop80_row_events_per_second"): (
                "test_kernel_sweep.py", "MIN_S6_POP80_ROW_EVENTS_PER_SECOND"),
            ("BENCH_generation_step.json", "reference_to_build_ratio"): (
                "test_generation_step.py", "MIN_REFERENCE_TO_BUILD_RATIO"),
            ("BENCH_generation_step.json", "build_speedup"): (
                "test_generation_step.py", "MIN_BUILD_SPEEDUP"),
            ("BENCH_decode_analysis.json", "decode_speedup"): (
                "test_decode_analysis.py", "MIN_DECODE_SPEEDUP"),
            ("BENCH_decode_analysis.json", "reanalyze_speedup"): (
                "test_decode_analysis.py", "MIN_REANALYZE_SPEEDUP"),
            ("BENCH_cold_start.json", "setup_speedup"): (
                "test_cold_start.py", "MIN_SETUP_SPEEDUP"),
        }
        for (bench_file, metric), (module_file, constant) in expectations.items():
            assert committed[bench_file][metric] == _bench_constant(module_file, constant), (
                f"{bench_file}:{metric} floor disagrees with "
                f"benchmarks/{module_file}:{constant}"
            )

    def test_gate_accepts_the_checked_in_bench_results(self):
        """The BENCH_*.json files committed at the repo root must pass their
        own gate (they are either healthy measurements or recorded skips)."""
        root = Path(__file__).resolve().parent.parent
        findings = check_regression.run(str(check_regression.DEFAULT_BASELINES), str(root))
        bad = [f for f in findings if f["status"] == check_regression.FAIL]
        assert not bad, bad
