"""Command-line front end for repro-lint.

Two equivalent entry points exist so the lint runs with or without the
package installed as a console script::

    repro-magma lint [paths...] [--select RPL1] [--format json] [--out f]
    python -m repro.tools.lint [paths...] [...]

Exit status is 1 when any unsuppressed finding remains (CI fails on it),
0 otherwise.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence


def default_paths() -> List[str]:
    """Lint the installed ``repro`` package itself when no path is given."""
    import repro

    return [str(Path(repro.__file__).resolve().parent)]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared lint options (used by both CLI entry points)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="PREFIX",
        help="only report codes matching these comma-separated prefixes "
        "(e.g. --select RPL1 for the determinism gate)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in text output",
    )
    parser.add_argument(
        "--list-codes",
        action="store_true",
        help="print every registered error code and exit",
    )


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    output_format: str = "text",
    out: Optional[str] = None,
    show_suppressed: bool = False,
    list_codes: bool = False,
) -> int:
    """Execute one lint run and print the report; returns the exit status."""
    # Imported here: every ``repro-magma`` process builds the ``lint``
    # parser, and only this command compiles the engine.
    from .engine import LintReport, all_codes, lint_paths

    if list_codes:
        for code, description in sorted(all_codes().items()):
            print(f"{code}  {description}")
        return 0
    resolved = list(paths) if paths else default_paths()
    report: LintReport = lint_paths(resolved, select=select)
    if out is not None:
        Path(out).write_text(report.to_json() + "\n", encoding="utf-8")
    if output_format == "json":
        print(report.to_json())
    else:
        print(report.to_text(show_suppressed=show_suppressed))
    return 1 if report.unsuppressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.tools.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant checkers for the repro codebase "
        "(see docs/STATIC_ANALYSIS.md)",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint(
        paths=args.paths,
        select=args.select,
        output_format=args.format,
        out=args.out,
        show_suppressed=args.show_suppressed,
        list_codes=args.list_codes,
    )
