"""Fig. 10 — exploration behaviour of the methods on (Mix, S2, BW=16).

Paper result: projected onto the first two principal components of the
sampled mappings, MAGMA covers a wide region early and then concentrates near
the optimum, reaching the same 254 GFLOP/s as a 1M-sample exhaustive search,
while PPO2 (101), PSO (68), CMA (19), and stdGA (16) converge to different,
worse local optima.

The benchmark records every sampled mapping per method, fits the shared PCA,
and checks that (i) every method's samples project into the common 2-D space,
(ii) MAGMA's reached throughput is at least as good as the other recorded
methods', and (iii) MAGMA gets within a reasonable factor of the best-effort
random reference.
"""

from repro.experiments import run_scenario


def test_fig10_exploration_pca(benchmark, scale, report_lines):
    result = benchmark.pedantic(
        run_scenario, args=("fig10",), kwargs={"scale": scale, "seed": 0}, rounds=1, iterations=1
    )
    reached = result["reached_gflops"]
    projections = result["projections"]

    assert "MAGMA" in reached and "Exhaustively Sampled" in reached
    for method, points in projections.items():
        assert points.ndim == 2 and points.shape[1] == 2, method
        assert points.shape[0] > 0, method

    searched_methods = [m for m in reached if m != "Exhaustively Sampled"]
    best_searched = max(searched_methods, key=lambda m: reached[m])
    # MAGMA is the best (or tied within 10%) among the recorded search methods.
    assert reached["MAGMA"] >= 0.9 * reached[best_searched]
    # And it lands within 2x of the best-effort exhaustive reference even at
    # reduced scale (the paper reports an exact match at full budget).
    assert reached["MAGMA"] >= 0.5 * reached["Exhaustively Sampled"]

    summary = ", ".join(f"{name}={value:.1f}" for name, value in sorted(reached.items()))
    report_lines.append(f"fig10 reached GFLOP/s: {summary}")
