"""repro-lint: AST-based invariant checkers (see docs/STATIC_ANALYSIS.md).

Public API::

    from repro.tools.lint import lint_source, lint_paths, Finding

    report = lint_paths(["src/repro"])          # whole tree
    report = lint_source(code, path="x.py")     # one in-memory module
    report.unsuppressed                         # findings that fail the build
"""

from repro._lazy import lazy_exports

__all__ = [
    "Checker",
    "Finding",
    "LintReport",
    "SourceFile",
    "all_codes",
    "lint_paths",
    "lint_source",
    "register",
    "registered_checkers",
]

# The engine loads on first use: every ``repro-magma`` process imports this
# package to build its ``lint`` parser, and only that command runs it.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {name: f"{__name__}.engine" for name in __all__})
