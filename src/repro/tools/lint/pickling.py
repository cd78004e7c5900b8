"""RPL3xx — no pickle deserialization in library code.

``pickle.loads`` on bytes a peer controls is remote code execution.  The
library's one network protocol, the ``tcp://`` store transport
(:mod:`repro.service.netstore`), carries JSON after a raw-bytes token
handshake, so no library module has a reason to unpickle anything.  This
checker keeps it that way: every reference to ``pickle.loads``/``load``/
``Unpickler`` (or the same names in the ``_pickle`` C module), through any
import alias, is RPL301 — a call, but also a decoder passed as a value
(``map(pickle.loads, frames)``) or an ``Unpickler`` subclass.  No annotation
exempts a function — a new wire format must be a non-executable one.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from .engine import Checker, Finding, SourceFile, import_aliases, qualified_name, register

#: pickle entry points that deserialize (the dangerous direction).
UNPICKLERS = frozenset(
    f"{module}.{name}" for module in ("pickle", "_pickle") for name in ("loads", "load", "Unpickler")
)


@register
class PickleChecker(Checker):
    """Flag every reference to a pickle deserializer."""

    name = "pickle"
    codes: Mapping[str, str] = {
        "RPL301": "pickle deserialization in library code",
    }

    def check(self, src: SourceFile) -> Iterator[Finding]:
        aliases = import_aliases(src.tree)
        for node in ast.walk(src.tree):
            # The outermost node of a dotted chain resolves to the whole name;
            # its inner parts (``pickle`` in ``pickle.loads``) never match.
            if not isinstance(node, (ast.Attribute, ast.Name)) or not isinstance(node.ctx, ast.Load):
                continue
            qual = qualified_name(node, aliases)
            if qual in UNPICKLERS:
                yield self.finding(
                    src,
                    node,
                    "RPL301",
                    f"{qual} executes code chosen by whoever wrote the bytes — "
                    "carry data as JSON (or raw bytes) instead",
                )
