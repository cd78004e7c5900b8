"""repro-lint engine: files, findings, suppressions, and the checker registry.

The engine is deliberately stdlib-only (``ast`` + ``tokenize``): it parses
each source file once into a :class:`SourceFile` (AST, comment map, parent
links), runs every registered :class:`Checker` over it, and applies the
suppression comments before reporting.  Checkers are plugins: subclass
:class:`Checker`, declare stable ``RPLnnn`` codes, and decorate the class
with :func:`register` — the engine discovers the built-in checker modules on
first use and any externally imported checker joins the same registry.

Error-code layout (the full table lives in ``docs/STATIC_ANALYSIS.md``):

* ``RPL0xx`` — engine-owned (suppression hygiene, parse failures); these are
  never suppressible, because they police the suppression mechanism itself.
* ``RPL1xx`` — determinism (entropy outside the seed policy).
* ``RPL2xx`` — lock discipline (``guarded-by`` annotations).
* ``RPL3xx`` — pickle safety (no pickle deserialization in library code).
* ``RPL4xx`` — resource lifecycle (sockets, pools, files, subprocesses).
* ``RPL5xx`` — exception policy (bare/silent broad handlers).

Suppression syntax::

    something_flagged()  # repro-lint: disable=RPL101 — why this is fine
    # repro-lint: disable-file=RPL401 — whole-file waiver, put near the top

A ``disable``/``disable-file`` naming a code no checker registers is itself
an ``RPL001`` finding, so stale waivers cannot rot silently.
"""

from __future__ import annotations

import ast
import importlib
import io
import json
import re
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Type

#: Engine-owned codes; never suppressible.
ENGINE_CODES: Dict[str, str] = {
    "RPL001": "unknown error code in a repro-lint suppression comment",
    "RPL002": "file could not be parsed",
}

#: The built-in checker modules loaded into the registry on first use.
_CHECKER_MODULES: Tuple[str, ...] = (
    "determinism",
    "locks",
    "pickling",
    "resources",
    "excepts",
    "diagnostics",
)

_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<scope>-file)?\s*=\s*(?P<codes>[A-Z0-9,\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One reported invariant violation at a source position."""

    code: str
    message: str
    path: str
    line: int
    column: int
    checker: str
    suppressed: bool = False

    def render(self) -> str:
        """The canonical one-line text form (``path:line:col: CODE message``)."""
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.column}: {self.code}{tag} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the CI artifact is a list of these)."""
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "checker": self.checker,
            "suppressed": self.suppressed,
        }


class SourceFile:
    """One parsed source file: text, AST, comments, and parent links."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.tree = ast.parse(text)
        #: line number -> full comment text (``#`` included) on that line.
        self.comments: Dict[int, str] = {}
        try:
            for token in tokenize.generate_tokens(io.StringIO(text).readline):
                if token.type == tokenize.COMMENT:
                    self.comments[token.start[0]] = token.string
        except (tokenize.TokenError, IndentationError):
            # ast.parse accepted the file, so a tokenize hiccup only costs
            # comment-based features (annotations/suppressions), not the lint.
            pass
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    def comment(self, line: int) -> str:
        """The comment on *line*, or ``""``."""
        return self.comments.get(line, "")

    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child AST node -> parent node map (built lazily, cached)."""
        if self._parents is None:
            self._parents = {
                child: parent
                for parent in ast.walk(self.tree)
                for child in ast.iter_child_nodes(parent)
            }
        return self._parents


class Checker:
    """Base class for one invariant checker (a repro-lint plugin).

    Subclasses declare a short ``name``, a ``codes`` table mapping each
    stable ``RPLnnn`` code to its one-line description, and implement
    :meth:`check` yielding :class:`Finding` objects.  Register with the
    :func:`register` decorator.
    """

    name: str = "checker"
    codes: Mapping[str, str] = {}

    def check(self, src: SourceFile) -> Iterator[Finding]:
        """Yield every violation this checker sees in *src*."""
        raise NotImplementedError

    def finding(self, src: SourceFile, node: ast.AST, code: str, message: str) -> Finding:
        """Build a finding anchored at *node* (or line 1 for module-level)."""
        return Finding(
            code=code,
            message=message,
            path=src.path,
            line=int(getattr(node, "lineno", 1)),
            column=int(getattr(node, "col_offset", 0)) + 1,
            checker=self.name,
        )


_REGISTRY: List[Type[Checker]] = []


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a :class:`Checker` subclass to the registry."""
    if cls not in _REGISTRY:
        _REGISTRY.append(cls)
    return cls


def _load_builtin_checkers() -> None:
    for module in _CHECKER_MODULES:
        importlib.import_module(f"{__package__}.{module}")


def registered_checkers() -> List[Checker]:
    """Fresh instances of every registered checker (built-ins auto-loaded)."""
    _load_builtin_checkers()
    return [cls() for cls in _REGISTRY]


def all_codes() -> Dict[str, str]:
    """Every known error code (engine + checkers) with its description."""
    codes = dict(ENGINE_CODES)
    for checker in registered_checkers():
        codes.update(checker.codes)
    return codes


# ----------------------------------------------------------------------
# Shared AST utilities (used by several checkers)
# ----------------------------------------------------------------------
def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map every imported local name to the fully qualified name it binds.

    ``import numpy as np`` -> ``{"np": "numpy"}``; ``from numpy import
    random`` -> ``{"random": "numpy.random"}``; ``from numpy.random import
    default_rng as rng_ctor`` -> ``{"rng_ctor": "numpy.random.default_rng"}``.
    This is what lets checkers resolve aliased calls a regex lint misses.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports stay package-local; nothing to ban there
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def qualified_name(node: ast.expr, aliases: Mapping[str, str]) -> Optional[str]:
    """Resolve a ``Name``/``Attribute`` chain to its imported dotted name.

    ``np.random.rand`` with ``{"np": "numpy"}`` resolves to
    ``"numpy.random.rand"``; chains rooted in anything that is not an
    imported name (``self.rng.random``) resolve to ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def call_final_name(func: ast.expr) -> Optional[str]:
    """The last identifier of a call target (``a.b.c(...)`` -> ``"c"``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def _parse_suppressions(
    src: SourceFile, known_codes: Set[str]
) -> Tuple[Dict[int, Set[str]], Set[str], List[Finding]]:
    """Extract per-line and per-file suppression tokens, validating codes."""
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    errors: List[Finding] = []
    for line, comment in src.comments.items():
        match = _DISABLE_RE.search(comment)
        if match is None:
            continue
        tokens = {tok.strip() for tok in match.group("codes").split(",") if tok.strip()}
        for token in tokens:
            valid = token in known_codes or any(c.startswith(token) for c in known_codes)
            if not valid:
                errors.append(
                    Finding(
                        code="RPL001",
                        message=(
                            f"suppression names unknown code {token!r} "
                            f"(see docs/STATIC_ANALYSIS.md for the code table)"
                        ),
                        path=src.path,
                        line=line,
                        column=1,
                        checker="engine",
                    )
                )
        valid_tokens = {
            t for t in tokens
            if t in known_codes or any(c.startswith(t) for c in known_codes)
        }
        if match.group("scope"):
            per_file |= valid_tokens
        else:
            per_line.setdefault(line, set()).update(valid_tokens)
    return per_line, per_file, errors


def _matches(code: str, tokens: Iterable[str]) -> bool:
    return any(code == token or code.startswith(token) for token in tokens)


# ----------------------------------------------------------------------
# Reports and entry points
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding]
    files_scanned: int

    @property
    def unsuppressed(self) -> List[Finding]:
        """Findings that fail the build."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        """Findings waived by ``repro-lint: disable`` comments."""
        return [f for f in self.findings if f.suppressed]

    def summary_counts(self) -> Dict[str, int]:
        """Unsuppressed finding count per code."""
        counts: Dict[str, int] = {}
        for finding in self.unsuppressed:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_text(self, show_suppressed: bool = False) -> str:
        """Human-readable report (one line per finding plus a summary line)."""
        shown = self.findings if show_suppressed else self.unsuppressed
        lines = [finding.render() for finding in shown]
        lines.append(
            f"{self.files_scanned} file(s) scanned: "
            f"{len(self.unsuppressed)} finding(s), {len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-ready report (what CI uploads as an artifact)."""
        return {
            "files_scanned": self.files_scanned,
            "unsuppressed": len(self.unsuppressed),
            "suppressed": len(self.suppressed),
            "summary": self.summary_counts(),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def to_json(self) -> str:
        """The JSON report as a string."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _select_tokens(select: "str | Sequence[str] | None") -> Optional[List[str]]:
    if select is None:
        return None
    if isinstance(select, str):
        select = [select]
    tokens = [tok.strip() for item in select for tok in str(item).split(",") if tok.strip()]
    return tokens or None


def lint_source(
    text: str,
    path: str = "<memory>",
    select: "str | Sequence[str] | None" = None,
    checkers: Optional[Sequence[Checker]] = None,
) -> LintReport:
    """Lint one source text (the unit tests' entry point)."""
    active = list(checkers) if checkers is not None else registered_checkers()
    known = set(ENGINE_CODES)
    for checker in active:
        known.update(checker.codes)
    tokens = _select_tokens(select)

    try:
        src = SourceFile(path, text)
    except SyntaxError as error:
        finding = Finding(
            code="RPL002",
            message=f"file could not be parsed: {error.msg}",
            path=path,
            line=int(error.lineno or 1),
            column=int(error.offset or 1),
            checker="engine",
        )
        if tokens is not None and not _matches(finding.code, tokens):
            return LintReport(findings=[], files_scanned=1)
        return LintReport(findings=[finding], files_scanned=1)

    per_line, per_file, suppression_errors = _parse_suppressions(src, known)
    findings: List[Finding] = []
    for checker in active:
        for finding in checker.check(src):
            waivers = per_line.get(finding.line, set()) | per_file
            if finding.code not in ENGINE_CODES and _matches(finding.code, waivers):
                finding = replace(finding, suppressed=True)
            findings.append(finding)
    findings.extend(suppression_errors)
    if tokens is not None:
        findings = [f for f in findings if _matches(f.code, tokens)]
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return LintReport(findings=findings, files_scanned=1)


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Every ``.py`` file under *paths* (files taken as-is), sorted, no caches."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if "__pycache__" in candidate.parts:
                continue
            yield candidate


def lint_paths(
    paths: Sequence[str],
    select: "str | Sequence[str] | None" = None,
    checkers: Optional[Sequence[Checker]] = None,
) -> LintReport:
    """Lint every Python file under *paths* and merge the per-file reports."""
    active = list(checkers) if checkers is not None else registered_checkers()
    findings: List[Finding] = []
    scanned = 0
    for path in iter_python_files(paths):
        scanned += 1
        text = path.read_text(encoding="utf-8")
        report = lint_source(text, path=str(path), select=select, checkers=active)
        findings.extend(report.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return LintReport(findings=findings, files_scanned=scanned)
