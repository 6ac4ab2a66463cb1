"""Lazy package re-exports (PEP 562).

Every package ``__init__`` re-exports the public names of its submodules.
Importing those submodules eagerly made every process pay for the whole
package at boot: ``python -m repro.fleet``, which only routes, loaded the
HTML engine, the tree builder and the full extraction pipeline.  Instead
each package hands :func:`lazy_exports` one table of *source module ->
names it exports*; a name's source module is imported on first attribute
access (``repro.OminiExtractor``, ``from repro import OminiExtractor``,
``from repro import *``) and the value is cached on the package, so later
lookups are ordinary attribute reads.

Code inside ``src/`` imports from the defining submodules, never through
a package, so a process loads only the modules it runs and type checkers
never resolve a name through a package ``__getattr__``.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``table`` maps each source module -- the defining submodule, or a
    sub-package that resolves the name the same way -- to the names
    ``package`` re-exports from it.  Unknown names raise
    :class:`AttributeError`, so ``hasattr`` and the import system's
    submodule fallback keep working.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | owner.keys())

    return __getattr__, __dir__
