"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation by
running its registered scenario (:mod:`repro.experiments.runner`) through
:func:`repro.experiments.run_scenario`.  The fidelity/runtime
trade-off is controlled by the ``REPRO_SCALE`` environment variable
(``smoke`` / ``small`` / ``paper``).  When the variable is unset the harness
defaults to ``smoke`` so that ``pytest benchmarks/ --benchmark-only``
completes in a few minutes; export ``REPRO_SCALE=paper`` to re-run at the
paper's full group size and sampling budget.

Benches write their results (``BENCH_*.json`` and ``reproduction_summary.txt``)
into :data:`BENCH_OUT_DIR`, never over the results committed at the repo
root; docs/PERFORMANCE.md says how a committed result is updated.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Tuple

import pytest

from repro.experiments.settings import SCALE_ENV_VAR, get_scale

# Default the benchmark harness to the cheapest scale unless the user opted in
# to a bigger one explicitly.
os.environ.setdefault(SCALE_ENV_VAR, "smoke")


@pytest.fixture(scope="session")
def scale():
    """The experiment scale shared by every benchmark in the session."""
    return get_scale()


#: Where every bench result goes: a git-ignored directory under the working
#: directory, so a run never rewrites a committed result.
BENCH_OUT_DIR = ".bench-out"


def bench_out_path(name: str) -> str:
    """The path of result file *name* under :data:`BENCH_OUT_DIR` (created on demand)."""
    os.makedirs(BENCH_OUT_DIR, exist_ok=True)
    return os.path.join(BENCH_OUT_DIR, name)


@pytest.fixture
def write_bench_result():
    """``write(name, payload)``: save one bench's JSON result via :func:`bench_out_path`."""

    def write(name: str, payload: Dict[str, Any]) -> None:
        with open(bench_out_path(name), "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)

    return write


#: Written under :data:`BENCH_OUT_DIR`; see :func:`merge_summary`.
SUMMARY_FILE = "reproduction_summary.txt"
_RULE = "=" * 72
_HEADER = [_RULE, "Reproduction summary (paper vs measured)", _RULE]
#: Title line of one test's block: ``--- <pytest node id> (scale=<name>)``.
_TITLE = re.compile(r"^--- (?P<test_id>.+) \(scale=(?P<scale>[^()]*)\)$")


def _read_summary(path: str) -> Dict[str, Tuple[str, List[str]]]:
    """``{test id -> (scale name, lines)}`` of an existing summary file."""
    blocks: Dict[str, Tuple[str, List[str]]] = {}
    if not os.path.exists(path):
        return blocks
    lines: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            title = _TITLE.match(line)
            if title:
                lines = []
                blocks[title["test_id"]] = (title["scale"], lines)
            elif blocks:
                lines.append(line)
    return blocks


def merge_summary(path: str, results: Dict[str, List[str]], scale_name: str) -> List[str]:
    """Merge one session's ``{test id -> lines}`` into the summary at *path*.

    Each test owns one block, titled by its pytest node id and the scale it
    ran at; a session replaces only the blocks of the tests that ran in it,
    so a partial run leaves every other result in place.  Blocks are
    written sorted by test id.  Returns the written lines.
    """
    blocks = _read_summary(path)
    blocks.update((test_id, (scale_name, lines)) for test_id, lines in results.items())
    written = list(_HEADER)
    for test_id in sorted(blocks):
        block_scale, lines = blocks[test_id]
        written.append(f"--- {test_id} (scale={block_scale})")
        written.extend(lines)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(written) + "\n")
    return written


@pytest.fixture(scope="session")
def _session_results():
    """``{test id -> result lines}`` of this session, merged in at its end."""
    results: Dict[str, List[str]] = {}
    yield results
    if results:
        print("\n" + "\n".join(merge_summary(bench_out_path(SUMMARY_FILE), results, get_scale().name)))


@pytest.fixture
def report_lines(request, _session_results):
    """Collector for one test's human-readable result lines.

    At session end every test's lines are merged into
    ``reproduction_summary.txt`` under :data:`BENCH_OUT_DIR` (see
    :func:`merge_summary`) and the whole file is printed (visible with
    ``pytest -s``), so the measured values can be compared against
    EXPERIMENTS.md even when pytest captures stdout.
    """
    lines: List[str] = []
    yield lines
    if lines:
        _session_results[request.node.nodeid] = lines
