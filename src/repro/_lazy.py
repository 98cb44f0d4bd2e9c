"""Re-exported names resolved on first access (PEP 562).

A package ``__init__`` that re-exports names from its submodules binds
them with :func:`lazy_exports` instead of importing every submodule up
front, so ``import repro.cli`` loads only what the chosen command runs.
The package also imports the same names under ``if TYPE_CHECKING:``, which
keeps every name in ``__all__`` statically bound for linters and type
checkers.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module to the names the package re-exports from it.
    The first access to such a name imports its module and stores the
    value on the package, so every later access is a plain attribute read.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | home.keys())

    return __getattr__, __dir__
