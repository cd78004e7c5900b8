"""Perf smoke: raw rate of the batched bandwidth-allocation kernel.

The parallel speed bench must skip-with-reason on core-starved runners
(worker processes timesharing one CPU cannot demonstrate a speedup), which
would leave the raw-speed pass ungated there.  This bench closes that hole: the
kernel's rate is a single-core property, so it measures — and floors — on
every machine.  The unit is *row-events per second*: each of the ``pop``
individuals has ``group_size`` job-completion events, whichever way the
kernel processes them (see ``benchmarks/profile_kernel.py``, whose
measurement method this reuses, and docs/PERFORMANCE.md for the
methodology and the before/after table).

Two population sizes are timed.  Pop 512 spreads the kernel's fixed
per-call cost over many rows; pop 80 is the shape a search evaluates (MAGMA
scores 80 children per generation), where that fixed cost dominates — S2 at
G=20 and S6 at G=200 are the problems perfbench's ``search_small`` and
``search_large`` search.
"""

from __future__ import annotations


from profile_kernel import measure_point

#: Floors, in row-events/s, measured on a 2-vCPU host over 16 runs of the
#: closed-form kernel and 8 of the per-event sweep it replaced (best of 5
#: calls each, unpinned; docs/PERFORMANCE.md).  Pop 80: the sweep read at
#: most 3.1M (S2) and 2.1M (S6, G=200), the closed form at least 5.6M and
#: 6.3M, so a 4.0M floor fails the sweep and clears the closed form.
MIN_S2_POP80_ROW_EVENTS_PER_SECOND = 4.0e6
MIN_S6_POP80_ROW_EVENTS_PER_SECOND = 4.0e6

#: Pop 512.  Here the sweep spread its per-step cost over many rows, and on
#: that host its range overlaps the closed form's lower tail: S2 (G=20) read
#: 4.8-8.0M against 4.6-9.2M, S6 (G=64) 2.6-3.5M against 3.5-9.0M.  No floor
#: fails the one and reliably clears the other, so these sit under the
#: closed form's slowest run and catch gross regressions only.
MIN_S2_ROW_EVENTS_PER_SECOND = 3.0e6
MIN_S6_ROW_EVENTS_PER_SECOND = 3.0e6

POPULATION_SIZE = 512
SEARCH_POPULATION_SIZE = 80


def test_kernel_step_rate_floors(report_lines, write_bench_result):
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
    write_bench_result("BENCH_kernel_sweep.json", record)
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
