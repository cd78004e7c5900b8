"""Fig. 13 — sub-accelerator combinations: S3 (Bigs, homogeneous) vs S4 (Bigs,
heterogeneous) vs S5 (BigLittle) under scarce and ample bandwidth.

Paper result: (a) the heterogeneous settings require less average bandwidth
but incur more no-stall latency than the homogeneous S3; (c) when bandwidth
is scarce (BW=1 GB/s) the settings with lower bandwidth demand win (S5 best,
then S4, then S3 at 0.81), while with ample bandwidth (BW=64 GB/s) all three
are effectively tied (the compute-richer settings no longer pay a penalty).

The benchmark regenerates the job analysis and the MAGMA throughput for the
three settings at both bandwidths and checks those relationships.
"""

from repro.experiments import run_scenario


def test_fig13_subaccelerator_combinations(benchmark, scale, report_lines):
    result = benchmark.pedantic(
        run_scenario,
        args=("fig13",),
        kwargs={"scale": scale, "seed": 0},
        rounds=1,
        iterations=1,
    )
    job_analysis = result["job_analysis"]
    normalized = result["normalized"]

    # (a)/(b): heterogeneous settings trade bandwidth demand for latency.
    for task in ("mix", "language"):
        assert job_analysis["S4"][task]["avg_required_bw_gbps"] < job_analysis["S3"][task]["avg_required_bw_gbps"]
        assert job_analysis["S4"][task]["avg_no_stall_latency_cycles"] >= job_analysis["S3"][task][
            "avg_no_stall_latency_cycles"
        ]
    # The BigLittle setting has the lowest bandwidth demand of the three.
    assert (
        job_analysis["S5"]["mix"]["avg_required_bw_gbps"]
        < job_analysis["S3"]["mix"]["avg_required_bw_gbps"]
    )

    # (c): at scarce bandwidth the lower-demand settings are competitive with
    # (or better than) the homogeneous Bigs; at ample bandwidth nobody is
    # dramatically ahead of S3.
    scarce = normalized[1.0]
    ample = normalized[64.0]
    assert scarce["S4"] >= scarce["S3"] * 0.95
    assert scarce["S5"] >= scarce["S3"] * 0.95
    assert ample["S3"] >= 0.8

    report_lines.append(
        "fig13 normalised throughput at BW=1:  "
        + ", ".join(f"{s}={scarce[s]:.2f}" for s in ("S3", "S4", "S5"))
    )
    report_lines.append(
        "fig13 normalised throughput at BW=64: "
        + ", ".join(f"{s}={ample[s]:.2f}" for s in ("S3", "S4", "S5"))
    )
