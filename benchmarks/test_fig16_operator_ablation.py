"""Fig. 16 — ablation of MAGMA's genetic operators.

Paper result: with the mutation operator alone MAGMA's sample efficiency
collapses; adding crossover-gen recovers most of it, and the full operator
set (crossover-rg + crossover-accel) converges the fastest on both
(Vision, S2, BW=16) and (Mix, S3, BW=16).

The benchmark runs the three ablation levels with the same budget and checks
that adding operators never hurts the final value beyond noise, and that the
full MAGMA reaches the best (or tied-best) final throughput.
"""

from repro.experiments import run_scenario


def test_fig16_operator_ablation(benchmark, scale, report_lines):
    result = benchmark.pedantic(
        run_scenario, args=("fig16",), kwargs={"scale": scale, "seed": 0}, rounds=1, iterations=1
    )
    final_values = result["final_values"]
    curves = result["curves"]
    assert set(final_values) == {"vision_s2", "mix_s3"}

    for panel_name, panel in final_values.items():
        assert set(panel) == {"MAGMA-mut", "MAGMA-mut+gen", "MAGMA"}
        best = max(panel.values())
        # The full operator set is the best or within 10% of the best variant.
        assert panel["MAGMA"] >= 0.9 * best, (panel_name, panel)

        # Convergence curves are monotone best-so-far traces.
        for method, curve in curves[panel_name].items():
            values = curve.best_so_far
            assert all(b >= a for a, b in zip(values, values[1:])), (panel_name, method)

        report_lines.append(
            f"fig16 {panel_name:<10s} "
            + ", ".join(f"{m}={v:.1f}" for m, v in sorted(panel.items()))
        )
