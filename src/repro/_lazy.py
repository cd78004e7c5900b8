"""Names a package exports without importing their modules up front.

A package lists the public names whose modules only some processes run (the
process pool, the baseline optimizers, the experiment runners) as
``{name: module}`` and installs the ``__getattr__``/``__dir__`` pair this
returns.  The first ``package.name`` or ``from package import name`` then
imports the module and caches the value in the package namespace, so every
later lookup is an ordinary attribute read and returns the same object as
the home module.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, namespace: Dict[str, Any], homes: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair resolving *homes* on first access."""

    def __getattr__(name: str) -> Any:
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__
