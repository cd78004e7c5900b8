"""perfbench: end-to-end benchmark of MAGMA searches and the mapping service.

Run from the repository root:

    python3 perfbench/run.py --workload search_small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with the
program unmodified; ``--trace 1`` wraps every layer's entry points and
reports the per-layer metrics instead.  Human-readable lines come first; the
last line of standard output is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent


def _load_program() -> None:
    """Put the checkout's own sources first on the path, and insist on them."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _load_program()

    from harness import InvalidRun, join_children

    if args.workload == "service_mixed":
        from service_workload import run_service as run
    else:
        from search_workloads import run_search as run
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    except InvalidRun as error:
        print(f"perfbench: invalid run, not reported: {error}", file=sys.stderr)
        return 3
    finally:
        join_children()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [metric["name"] for metric in declared if metric["name"] not in outcome.metrics]
    if missing:
        raise SystemExit(f"perfbench: {args.workload} produced no value for {missing}")
    for line in outcome.lines:
        print(line)
    for metric in declared:
        print(f"  {metric['name']:<28} {outcome.metrics[metric['name']]:>16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": outcome.ledger.failed == 0,
        "attempted": outcome.ledger.attempted,
        "failed": outcome.ledger.failed,
        "metrics": {
            metric["name"]: {"value": outcome.metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
