"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation by
running its registered scenario (:mod:`repro.experiments.runner`) through
:func:`repro.experiments.run_scenario`.  The fidelity/runtime
trade-off is controlled by the ``REPRO_SCALE`` environment variable
(``smoke`` / ``small`` / ``paper``).  When the variable is unset the harness
defaults to ``smoke`` so that ``pytest benchmarks/ --benchmark-only``
completes in a few minutes; export ``REPRO_SCALE=paper`` to re-run at the
paper's full group size and sampling budget.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.settings import SCALE_ENV_VAR, get_scale

# Default the benchmark harness to the cheapest scale unless the user opted in
# to a bigger one explicitly.
os.environ.setdefault(SCALE_ENV_VAR, "smoke")


@pytest.fixture(scope="session")
def scale():
    """The experiment scale shared by every benchmark in the session."""
    return get_scale()


@pytest.fixture(scope="session")
def report_lines():
    """Collector for human-readable result lines.

    The collected lines are printed at session end (visible with ``pytest -s``)
    and always written to ``reproduction_summary.txt`` in the working
    directory so the measured values can be compared against EXPERIMENTS.md
    even when pytest captures stdout.
    """
    lines: list[str] = []
    yield lines
    if not lines:
        return
    header = [
        "=" * 72,
        f"Reproduction summary (paper vs measured), scale={get_scale().name}",
        "=" * 72,
    ]
    print("\n" + "\n".join(header))
    for line in lines:
        print(line)
    with open("reproduction_summary.txt", "w", encoding="utf-8") as handle:
        handle.write("\n".join(header + lines) + "\n")
