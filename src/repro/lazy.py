"""Lazy package exports (PEP 562), so importing a package stays cheap.

A package lists what it re-exports as ``name -> defining module`` and
installs the two hooks this module builds: a name's module is imported on
its first access, and the value is then cached in the package namespace.
This is how ``import repro.metrics`` avoids the numpy-backed analyses and
``import repro`` avoids every subpackage.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Tuple


def lazy_exports(namespace: dict, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``; ``exports`` maps each lazy name to its module."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
