"""Perf smoke: raw step rate of the batched bandwidth event-sweep kernel.

The parallel/rpc speed benches must skip-with-reason on core-starved runners
(a fleet timesharing one CPU cannot demonstrate a speedup), which would
leave the raw-speed pass ungated there.  This bench closes that hole: the
kernel's step rate is a single-core property, so it measures — and floors —
on every machine.  The unit is *row-events per second*: each of the ``pop``
individuals sees ~``group_size`` job-completion events, and each event is
one vectorized sweep step (see ``benchmarks/profile_kernel.py``, whose
measurement method this reuses, and docs/PERFORMANCE.md for the
methodology and the before/after table).

Two population sizes are timed.  Pop 512 spreads the kernel's fixed
per-step cost over many rows; pop 80 is the shape a search evaluates (MAGMA
scores 80 children per generation), where that fixed cost dominates — S2 at
G=20 and S6 at G=200 are the problems perfbench's ``search_small`` and
``search_large`` search.
"""

from __future__ import annotations

import json

from profile_kernel import measure_point

#: Pop-512 step-rate floors (row-events/s), set by this rule: sit ~3x under
#: the measured rate so shared runners with noisy neighbours do not flake,
#: while a regression back to the previous kernel's rate still trips the
#: gate.  They date from the column-by-column kernel (3.5M / 2.1M then); on
#: a 2-vCPU host pinned to one core the lane-sequence sweep measures ~8.3M
#: (S2) and ~3.9M (S6), so they now sit 4-7x under it.
MIN_S2_ROW_EVENTS_PER_SECOND = 1.2e6
MIN_S6_ROW_EVENTS_PER_SECOND = 0.7e6

#: Pop-80 (search-shape) floors, by the same rule.  On the same pinned host
#: the column-by-column kernel measured 1.47M (S2) and 1.15M (S6) and the
#: lane-sequence sweep 3.2M and 2.4M; inside a full unpinned test run the
#: sweep measured 1.9M and 1.6M.  That ~2.2x gain is less than the 3x margin,
#: so the two halves of the rule cannot both hold.  These floors keep the
#: noise half (~3x under the pinned rate), so they catch gross regressions
#: only; the recorded rates, not the floors, show a step-cost change.
MIN_S2_POP80_ROW_EVENTS_PER_SECOND = 1.0e6
MIN_S6_POP80_ROW_EVENTS_PER_SECOND = 0.8e6

POPULATION_SIZE = 512
SEARCH_POPULATION_SIZE = 80


def test_kernel_step_rate_floors(report_lines):
    points = {
        "s2": (measure_point("S2", 16.0, 20, POPULATION_SIZE), MIN_S2_ROW_EVENTS_PER_SECOND),
        "s6": (measure_point("S6", 256.0, 64, POPULATION_SIZE), MIN_S6_ROW_EVENTS_PER_SECOND),
        "s2_pop80": (
            measure_point("S2", 16.0, 20, SEARCH_POPULATION_SIZE),
            MIN_S2_POP80_ROW_EVENTS_PER_SECOND,
        ),
        "s6_pop80": (
            measure_point("S6", 256.0, 200, SEARCH_POPULATION_SIZE),
            MIN_S6_POP80_ROW_EVENTS_PER_SECOND,
        ),
    }

    record = {"population_size": POPULATION_SIZE, "search_population_size": SEARCH_POPULATION_SIZE}
    for key, (point, floor) in points.items():
        record[f"{key}_seconds"] = point["seconds"]
        record[f"{key}_row_events_per_second"] = point["row_events_per_second"]
        record[f"min_{key}_row_events_per_second"] = floor
    with open("BENCH_kernel_sweep.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    for pop, suffix in ((POPULATION_SIZE, ""), (SEARCH_POPULATION_SIZE, "_pop80")):
        s2, _ = points[f"s2{suffix}"]
        s6, _ = points[f"s6{suffix}"]
        report_lines.append(
            f"kernel step rate: S2 G={s2['group_size']} "
            f"{s2['row_events_per_second'] / 1e6:.2f}M ({s2['seconds'] * 1e3:.2f} ms), "
            f"S6 G={s6['group_size']} {s6['row_events_per_second'] / 1e6:.2f}M "
            f"({s6['seconds'] * 1e3:.2f} ms) row-events/s at pop {pop}"
        )

    for key, (point, floor) in points.items():
        assert point["row_events_per_second"] >= floor, (
            f"{key} kernel step rate {point['row_events_per_second']:.3g} row-events/s "
            f"below floor {floor:.3g}"
        )
