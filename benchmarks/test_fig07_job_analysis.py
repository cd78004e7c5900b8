"""Fig. 7 — per-job latency/bandwidth characteristics of the DNN models.

Paper reference values (HB / LB, averages across the task's models):

* Vision:          latency 1.7e5 / 2.8e6 cycles, required BW 0.9 / 0.037 GB/s
* Language:        latency 7.4e3 / 1.5e6 cycles, required BW 4.1 / 1.9e-4 GB/s
* Recommendation:  latency 1.9e2 / 7.6e5 cycles, required BW 150 / 1.1e-4 GB/s

The absolute values depend on the cost model; the benchmark checks the
orderings the paper's analysis relies on: recommendation jobs are the most
bandwidth-hungry and the shortest, vision jobs the most compute-heavy, and
the LB dataflow always trades much longer latency for much lower bandwidth.
"""

from repro.experiments import run_scenario


def test_fig7_job_analysis(benchmark, report_lines):
    result = benchmark.pedantic(run_scenario, args=("fig7",), rounds=1, iterations=1)
    per_task = result["per_task"]

    vision, language, recommendation = (
        per_task["vision"],
        per_task["language"],
        per_task["recommendation"],
    )

    # Required bandwidth ordering on the HB style (paper: recom >> lang > vision).
    assert recommendation["hb_required_bw_gbps"] > language["hb_required_bw_gbps"]
    assert recommendation["hb_required_bw_gbps"] > 2 * vision["hb_required_bw_gbps"]

    # Latency ordering on the HB style (paper: vision >> lang >> recom).
    assert vision["hb_latency_cycles"] > language["hb_latency_cycles"]
    assert language["hb_latency_cycles"] > recommendation["hb_latency_cycles"]

    # The LB style trades latency for bandwidth for every task type, and the
    # penalty is far harsher for language/recommendation than for vision.
    for task in (vision, language, recommendation):
        assert task["lb_latency_cycles"] > task["hb_latency_cycles"]
        assert task["lb_required_bw_gbps"] < task["hb_required_bw_gbps"]
    vision_slowdown = vision["lb_latency_cycles"] / vision["hb_latency_cycles"]
    language_slowdown = language["lb_latency_cycles"] / language["hb_latency_cycles"]
    assert language_slowdown > 5 * vision_slowdown

    for name, row in per_task.items():
        report_lines.append(
            f"fig7  {name:<15s} HB lat {row['hb_latency_cycles']:.3g} cyc, "
            f"HB bw {row['hb_required_bw_gbps']:.3g} GB/s | "
            f"LB lat {row['lb_latency_cycles']:.3g} cyc, LB bw {row['lb_required_bw_gbps']:.3g} GB/s"
        )
