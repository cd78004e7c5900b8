"""Benchmark regression gate for CI.

The benchmark smoke suite writes one ``BENCH_*.json`` per perf claim (batch
speedup, parallel speedup, service hit ratios...) into ``.bench-out/``.
This script compares the measured ratios against the committed floors in
``benchmarks/baselines.json`` and exits non-zero when any ratio has dropped
below its floor — turning "the README says 3x" into a gate a PR cannot
silently regress.

Rules:

* A benchmark whose payload says ``"status": "skipped"`` *and* records a
  ``skip_reason`` passes, listing every floored metric it skipped explicitly
  (constrained runners record *why* they could not measure — e.g. a
  single-core machine cannot demonstrate a multi-worker speedup).
* A skipped payload without a recorded reason fails: "skipped" must be an
  explicit decision, never a silent hole in coverage.
* A missing benchmark file fails: the gate must notice when a benchmark is
  deleted or silently stops running.
* A metric missing from a measured payload fails for the same reason.

Usage::

    python benchmarks/check_regression.py --dir .bench-out   # after the smoke suite
    python benchmarks/check_regression.py                    # the committed results at the root
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

#: Default committed floors, relative to the repo root.
DEFAULT_BASELINES = os.path.join(os.path.dirname(__file__), "baselines.json")

PASS, SKIP, FAIL = "ok", "skipped", "REGRESSION"


def load_baselines(path: str) -> Dict[str, Dict[str, float]]:
    """The committed ``{bench file -> {metric -> floor}}`` map."""
    with open(path, "r", encoding="utf-8") as handle:
        baselines = json.load(handle)
    if not isinstance(baselines, dict) or not baselines:
        raise ValueError(f"baselines file {path!r} must be a non-empty JSON object")
    return baselines


def check_bench(path: str, floors: Dict[str, float]) -> List[Dict[str, Any]]:
    """Compare one benchmark payload against its floors.

    Returns one finding per metric: ``{"file", "metric", "status", "value",
    "floor", "note"}``; a whole-file problem (missing/skipped) yields a
    single finding with ``metric=None``.
    """
    name = os.path.basename(path)
    if not os.path.exists(path):
        return [{
            "file": name, "metric": None, "status": FAIL,
            "value": None, "floor": None,
            "note": "benchmark result file missing — did the smoke suite run it?",
        }]
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("status") == "skipped":
        # List every floored metric the skip covers, so skipped floors are
        # visible one-by-one in the gate's output instead of hiding behind a
        # single per-file line; a skip with no recorded reason is a failure,
        # not a free pass.
        reason = payload.get("skip_reason")
        status = SKIP if reason else FAIL
        note = reason or "skipped without a recorded reason — record skip_reason or run it"
        return [{
            "file": name, "metric": metric, "status": status,
            "value": None, "floor": floor,
            "note": note,
        } for metric, floor in sorted(floors.items())]
    findings = []
    for metric, floor in sorted(floors.items()):
        value = payload.get(metric)
        if value is None:
            findings.append({
                "file": name, "metric": metric, "status": FAIL,
                "value": None, "floor": floor,
                "note": "metric missing from measured payload",
            })
        elif float(value) < float(floor):
            findings.append({
                "file": name, "metric": metric, "status": FAIL,
                "value": float(value), "floor": float(floor),
                "note": f"measured {float(value):.3g} < required {float(floor):.3g}",
            })
        else:
            findings.append({
                "file": name, "metric": metric, "status": PASS,
                "value": float(value), "floor": float(floor),
                "note": f"measured {float(value):.3g} >= required {float(floor):.3g}",
            })
    return findings


def run(baselines_path: str, directory: str) -> List[Dict[str, Any]]:
    """Check every baselined benchmark under *directory*."""
    findings: List[Dict[str, Any]] = []
    for bench_file, floors in sorted(load_baselines(baselines_path).items()):
        findings.extend(check_bench(os.path.join(directory, bench_file), floors))
    return findings


def write_step_summary(findings: List[Dict[str, Any]], path: str) -> None:
    """Append the gate's verdict to a GitHub Actions step summary file.

    Two markdown tables: every gated metric with its measured value vs
    floor, then — so constrained runners cannot silently hollow out the
    gate — a dedicated table of skipped floors with their recorded reasons.
    """
    def fmt(value: "float | None") -> str:
        return "—" if value is None else f"{float(value):.3g}"

    icon = {PASS: "✅", SKIP: "⏭️", FAIL: "❌"}
    lines = [
        "## Benchmark regression gate",
        "",
        "| | benchmark | metric | measured | floor |",
        "|---|---|---|---|---|",
    ]
    for finding in findings:
        lines.append(
            f"| {icon[finding['status']]} | {finding['file']} "
            f"| {finding['metric'] or '—'} "
            f"| {fmt(finding['value'])} | {fmt(finding['floor'])} |"
        )
    skipped = [finding for finding in findings if finding["status"] == SKIP]
    if skipped:
        lines += [
            "",
            "### Skipped floors",
            "",
            "These floors could not be measured on this runner; each skip",
            "records why.  The core-count-independent benches (kernel step",
            "rate, generation step) still gate above.",
            "",
            "| benchmark | metric | reason |",
            "|---|---|---|",
        ]
        for finding in skipped:
            lines.append(
                f"| {finding['file']} | {finding['metric'] or '—'} "
                f"| {finding['note']} |"
            )
    verdict = "FAILED" if any(f["status"] == FAIL for f in findings) else "ok"
    lines += ["", f"**Verdict:** {verdict}", ""]
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baselines", default=DEFAULT_BASELINES,
        help="committed {bench file -> {metric -> floor}} JSON",
    )
    parser.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json files: .bench-out after a bench "
        "run (default: the current directory, i.e. the committed results)",
    )
    args = parser.parse_args(argv)

    findings = run(args.baselines, args.dir)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        write_step_summary(findings, summary_path)
    width = max(len(f["file"]) for f in findings)
    failed = False
    for finding in findings:
        status = finding["status"]
        failed = failed or status == FAIL
        metric = finding["metric"] or "-"
        print(f"{status:>10}  {finding['file']:<{width}}  {metric:<22} {finding['note']}")
    if failed:
        print("\nbenchmark regression gate: FAILED", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
