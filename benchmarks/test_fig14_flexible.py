"""Fig. 14 — fixed versus flexible (configurable-shape) PE arrays.

Paper result: per-job no-stall latency improves with flexible arrays (the
shape is re-optimised per layer) at the price of a higher bandwidth
requirement, and end-to-end the flexible accelerator outperforms the fixed
one in every (accelerator, task, bandwidth) combination — by up to ~1/0.34x
in the most bandwidth-rich case.

The benchmark regenerates the per-job analysis and the MAGMA throughput for
fixed and flexible variants of the Small (S1) and Large (S3) accelerators and
checks that flexible is never slower per job and never loses end to end by
more than a small tolerance.
"""

from repro.experiments import run_scenario


def test_fig14_fixed_vs_flexible(benchmark, scale, report_lines):
    result = benchmark.pedantic(
        run_scenario, args=("fig14",), kwargs={"scale": scale, "seed": 0}, rounds=1, iterations=1
    )
    job_analysis = result["job_analysis"]
    throughput = result["throughput"]

    for panel, analysis in job_analysis.items():
        # Flexible arrays never increase the average no-stall latency.
        assert analysis["flexible_avg_latency"] <= analysis["fixed_avg_latency"] * 1.001, panel

    wins = 0
    comparisons = 0
    for panel, per_bw in throughput.items():
        for bw_label, row in per_bw.items():
            comparisons += 1
            ratio = row["fixed"] / row["flexible"] if row["flexible"] > 0 else float("inf")
            # Fixed never beats flexible by more than 10% at reduced scale.
            assert ratio < 1.10, (panel, bw_label, row)
            if row["flexible"] >= row["fixed"]:
                wins += 1
            report_lines.append(
                f"fig14 {panel:<13s} {bw_label:<8s} fixed={row['fixed']:.1f} "
                f"flexible={row['flexible']:.1f} GFLOP/s"
            )
    # Flexible wins (or ties) in the clear majority of scenarios, as in the paper.
    assert wins >= comparisons // 2
