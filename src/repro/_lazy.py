"""Shared PEP 562 lazy re-export machinery for the package ``__init__`` files.

Keeping the exports lazy keeps ``import repro`` (and every subpackage under
it) cheap: the heavy modules, and SciPy with them, are only imported when
one of their names is first accessed.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Build the ``(__getattr__, __dir__)`` pair for a lazy package.

    ``exports`` maps attribute names to the module that defines them.  Usage::

        _EXPORTS = {"SimpleGraph": "repro.graph.simple_graph", ...}
        __all__ = list(_EXPORTS)
        __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
    """

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        # cache on the package so __getattr__ runs once per name
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__


__all__ = ["lazy_exports"]
