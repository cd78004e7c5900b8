"""RPL4xx — resource lifecycle: sockets, pools, pipes, files, and processes close.

A leaked socket or process pool in the service tier survives the request
that created it, so every call that *creates* an OS-backed resource must
dispose of it along some visible path:

* created as a ``with`` context manager,
* closed immediately (``create_connection(...).close()``),
* bound to a name that later flows into ``with``, a ``.close()``-family
  call (typically in ``finally``), a ``return``/``yield``, or another call
  (ownership transfer — e.g. handing a socket to a handler thread),
* or stored on ``self``/a container (the owner's ``close()`` is in charge).

A creator whose result is bound but never disposed is RPL401; a creator
whose result is discarded outright is RPL402.  The analysis is lexical and
per-function — it proves the common leaks cheaply rather than chasing
aliasing through the heap.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Mapping, Optional, Tuple, Union

from .engine import (
    Checker,
    Finding,
    SourceFile,
    call_final_name,
    import_aliases,
    qualified_name,
    register,
)

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Fully qualified callables that return an owned OS resource.
QUALIFIED_CREATORS = frozenset(
    {
        "socket.socket",
        "socket.create_connection",
        "socket.create_server",
        "sqlite3.connect",
        "subprocess.Popen",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryFile",
        "urllib.request.urlopen",
        "multiprocessing.Pool",
        "multiprocessing.Pipe",
        "multiprocessing.Process",
    }
)
#: Method/constructor names that create resources regardless of module path
#: (``context.Pool(...)``, ``context.Pipe()``, ``listener.accept()``,
#: ``concurrent.futures`` pools).
NAME_CREATORS = frozenset(
    {
        "Popen",
        "Pool",
        "Pipe",
        "Process",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "NamedTemporaryFile",
        "TemporaryFile",
        "accept",
    }
)
#: Methods that count as disposing of a resource (``join`` reaps a process).
CLOSERS = frozenset({"close", "terminate", "shutdown", "release", "kill", "server_close", "join"})


@register
class ResourceLifecycleChecker(Checker):
    """Require a visible disposal path for every created OS resource."""

    name = "resources"
    codes: Mapping[str, str] = {
        "RPL401": "resource is bound to a name but never closed or transferred",
        "RPL402": "resource is created and discarded without being closed",
    }

    def check(self, src: SourceFile) -> Iterator[Finding]:
        aliases = import_aliases(src.tree)
        parents = src.parents()
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_creator(node, aliases):
                continue
            yield from self._check_creation(src, node, parents)

    # ------------------------------------------------------------------
    def _is_creator(self, call: ast.Call, aliases: Mapping[str, str]) -> bool:
        qual = qualified_name(call.func, aliases)
        if qual in QUALIFIED_CREATORS:
            return True
        if qual in {"io.open", "builtins.open"}:
            return True
        if (
            isinstance(call.func, ast.Name)
            and call.func.id == "open"
            and "open" not in aliases
        ):
            return True
        final = call_final_name(call.func)
        return final in NAME_CREATORS and qual is None

    def _check_creation(
        self, src: SourceFile, call: ast.Call, parents: Mapping[ast.AST, ast.AST]
    ) -> Iterator[Finding]:
        label = call_final_name(call.func) or "resource"
        # Climb from the call to its statement, classifying the usage.
        node: ast.AST = call
        while True:
            parent = parents.get(node)
            if parent is None:
                return
            if isinstance(parent, ast.withitem):
                return  # managed by the with-statement
            if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom, ast.Await)):
                return  # ownership moves to the caller
            if isinstance(parent, (ast.Call, ast.keyword)) and node is not call.func:
                return  # passed straight into another call (ownership transfer)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                grand = parents.get(parent)
                if parent.attr in CLOSERS and isinstance(grand, ast.Call):
                    return  # immediate .close() idiom
                yield self.finding(
                    src,
                    call,
                    "RPL402",
                    f"{label}() result is used and discarded without close() — "
                    "bind it and close it, or use a with-statement",
                )
                return
            if isinstance(parent, (ast.Assign, ast.AnnAssign)):
                yield from self._check_binding(src, call, parent, parents, label)
                return
            if isinstance(parent, ast.Expr):
                yield self.finding(
                    src,
                    call,
                    "RPL402",
                    f"{label}() result is discarded — the resource leaks until "
                    "garbage collection",
                )
                return
            if isinstance(parent, ast.stmt):
                return  # other statement positions (for-iter etc.): give benefit of doubt
            node = parent

    def _check_binding(
        self,
        src: SourceFile,
        call: ast.Call,
        assign: "ast.Assign | ast.AnnAssign",
        parents: Mapping[ast.AST, ast.AST],
        label: str,
    ) -> Iterator[Finding]:
        targets = assign.targets if isinstance(assign, ast.Assign) else [assign.target]
        names: List[str] = []
        for target in targets:
            kind, extracted = self._target_names(target)
            if kind == "transfer":
                return  # stored on self/a container: the owner closes it
            names.extend(extracted)
        if not names:
            return
        scope = self._enclosing_scope(assign, parents, src)
        for name in names:
            if name == "_":
                continue
            if self._is_disposed(scope, name):
                return
        yield self.finding(
            src,
            call,
            "RPL401",
            f"{label}() is bound to {names[0]!r} but {names[0]!r} never reaches a "
            "with-statement, close()/terminate(), return, or another call — "
            "close it in a finally block",
        )

    def _target_names(self, target: ast.expr) -> Tuple[str, List[str]]:
        """Classify an assignment target: local names vs ownership transfer."""
        if isinstance(target, ast.Name):
            return "names", [target.id]
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            return "transfer", []
        if isinstance(target, (ast.Tuple, ast.List)):
            names: List[str] = []
            for element in target.elts:
                kind, extracted = self._target_names(element)
                if kind == "transfer":
                    return "transfer", []
                names.extend(extracted)
            return "names", names
        if isinstance(target, ast.Starred):
            return self._target_names(target.value)
        return "names", []

    def _enclosing_scope(
        self, node: ast.AST, parents: Mapping[ast.AST, ast.AST], src: SourceFile
    ) -> ast.AST:
        current: Optional[ast.AST] = node
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = parents.get(current)
        return src.tree

    def _is_disposed(self, scope: ast.AST, name: str) -> bool:
        """True when *name* visibly reaches a disposal path inside *scope*."""
        for node in ast.walk(scope):
            if isinstance(node, ast.withitem):
                if isinstance(node.context_expr, ast.Name) and node.context_expr.id == name:
                    return True
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in CLOSERS
                    and isinstance(func.value, ast.Name)
                    and func.value.id == name
                ):
                    return True
                for argument in list(node.args) + [kw.value for kw in node.keywords]:
                    if any(
                        isinstance(sub, ast.Name) and sub.id == name
                        for sub in ast.walk(argument)
                    ):
                        return True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                # Only the object itself escaping counts — ``return sock`` is a
                # transfer, ``return sock.recv(1)`` still leaks the socket.
                if node.value is not None and _escapes_directly(node.value, name):
                    return True
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(target, (ast.Attribute, ast.Subscript)) for target in node.targets
                ) and (isinstance(node.value, ast.Name) and node.value.id == name):
                    return True
        return False


def _escapes_directly(value: ast.expr, name: str) -> bool:
    """True when *name* itself (not a derived value) is part of *value*."""
    if isinstance(value, ast.Name):
        return value.id == name
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return any(_escapes_directly(element, name) for element in value.elts)
    if isinstance(value, ast.Dict):
        return any(v is not None and _escapes_directly(v, name) for v in value.values)
    if isinstance(value, ast.Starred):
        return _escapes_directly(value.value, name)
    return False
