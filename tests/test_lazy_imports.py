"""Package ``__init__`` files re-export lazily (PEP 562).

Two contracts: the public API is unchanged (every ``__all__`` name,
``dir()``, ``hasattr`` and ``from pkg import *``), and a server entry
point loads only what it runs -- the fleet coordinator routes without the
extraction stack, and a thread-mode node extracts without the batch,
corpus, wrapper or HTTP-fetch machinery.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)

#: Entry module -> modules (and their submodules) it must not load.
FOOTPRINTS = {
    "repro.fleet.__main__": (
        "repro.html",
        "repro.tree.builder",
        "repro.core.pipeline",
        "repro.core.stages",
        "repro.serve.runtime",
        "repro.serve.procpool",
        "repro.corpus",
    ),
    "repro.serve.__main__": (
        "repro.corpus",
        "repro.wrapper",
        "repro.aggregate",
        "repro.eval",
        "repro.baselines",
        "repro.core.batch",
        "repro.fetch.http",
        "repro.fetch.cache",
        "repro.serve.procpool",
        "concurrent.futures",
        "urllib.request",
    ),
}


def _loaded_after_import(module: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter that imported ``module``."""
    code = (
        "import importlib, json, sys; "
        f"importlib.import_module({module!r}); "
        "print(json.dumps(sorted(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout)


@pytest.mark.parametrize("entry", sorted(FOOTPRINTS))
def test_entry_point_loads_only_what_it_runs(entry):
    loaded = _loaded_after_import(entry)
    assert entry in loaded
    dragged = sorted(
        name
        for name in loaded
        for banned in FOOTPRINTS[entry]
        if name == banned or name.startswith(banned + ".")
    )
    assert dragged == []


def _export_table(package) -> dict[str, str]:
    """Name -> source module, as handed to ``lazy_exports`` in the init."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            table = ast.literal_eval(node.args[1])
            return {name: module for module, names in table.items() for name in names}
    raise AssertionError(f"{package.__name__} does not call lazy_exports")


@pytest.mark.parametrize("name", PACKAGES)
def test_lazy_package_keeps_its_public_api(name):
    package = importlib.import_module(name)
    assert callable(vars(package).get("__getattr__"))
    table = _export_table(package)
    assert sorted(table) == sorted(package.__all__)

    listing = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        defining = getattr(value, "__module__", None)
        if not (isinstance(defining, str) and defining.startswith("repro.")):
            defining = table[export]  # a constant: its source module
        assert getattr(importlib.import_module(defining), export) is value, export
        assert export in listing

    assert not hasattr(package, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")

    namespace: dict[str, object] = {}
    exec(f"from {name} import *", namespace)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export), export
