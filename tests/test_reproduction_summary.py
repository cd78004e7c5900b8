"""``reproduction_summary.txt`` is a keyed merge: a bench replaces only its own lines.

Each case runs pytest in a subprocess on throwaway bench files that report
through the real ``report_lines`` fixture of ``benchmarks/conftest.py``
(loaded as a plugin), one session after another in the same directory, as
re-running single benches does.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.settings import SCALE_ENV_VAR

_REPO = Path(__file__).resolve().parent.parent


def _bench_source(*lines: str) -> str:
    appends = "".join(f"    report_lines.append({line!r})\n" for line in lines)
    return f"def test_bench(report_lines):\n{appends}"


def _run(workdir: Path, *bench_files: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(_REPO / "benchmarks"), str(_REPO / "src")]))
    env[SCALE_ENV_VAR] = "smoke"
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest", "-p", "no:cacheprovider",
         "--rootdir", str(workdir), *bench_files],
        cwd=workdir, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


def _summary(workdir: Path) -> str:
    return (workdir / ".bench-out" / "reproduction_summary.txt").read_text(encoding="utf-8")


def test_benches_run_in_turn_keep_each_others_lines(tmp_path):
    (tmp_path / "test_first.py").write_text(_bench_source("first result 1.0x"))
    (tmp_path / "test_second.py").write_text(_bench_source("second result A", "second result B"))
    _run(tmp_path, "test_first.py")
    _run(tmp_path, "test_second.py")
    lines = _summary(tmp_path).splitlines()
    for line in ("first result 1.0x", "second result A", "second result B"):
        assert line in lines
    assert "--- test_first.py::test_bench (scale=smoke)" in lines

    # A re-run replaces its own block and nothing else.
    (tmp_path / "test_first.py").write_text(_bench_source("first result 2.0x"))
    _run(tmp_path, "test_first.py")
    lines = _summary(tmp_path).splitlines()
    assert "first result 2.0x" in lines
    assert "first result 1.0x" not in lines
    assert "second result A" in lines and "second result B" in lines
    assert sum("test_first.py::test_bench" in line for line in lines) == 1


def test_bench_results_land_in_bench_out_not_the_working_directory(tmp_path):
    (tmp_path / "test_writer.py").write_text(
        "def test_bench(report_lines, write_bench_result):\n"
        "    write_bench_result('BENCH_writer.json', {'speedup': 2.5, 'status': 'measured'})\n"
        "    report_lines.append('writer result 2.5x')\n"
    )
    _run(tmp_path, "test_writer.py")
    result = tmp_path / ".bench-out" / "BENCH_writer.json"
    assert result.read_text(encoding="utf-8") == '{\n  "speedup": 2.5,\n  "status": "measured"\n}'
    assert "writer result 2.5x" in _summary(tmp_path).splitlines()
    # Nothing lands beside the committed results.
    assert not (tmp_path / "BENCH_writer.json").exists()
    assert not (tmp_path / "reproduction_summary.txt").exists()
