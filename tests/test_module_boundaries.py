"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "isogeo"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_crossings(source: str) -> list:
    """(line, name) of every `from .mod import _name` (or from isogeo.mod) and
    every `mod._name` on a name an import bound to a module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").split(".")[0] == "isogeo"
            if ours and node.module in (None, "isogeo"):  # from . import flat: flat is a module
                modules.update(a.asname or a.name for a in node.names)
            found += [(node.lineno, a.name) for a in node.names if ours and _private(a.name)]
    found += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    assert private_crossings(path.read_text()) == []


def test_the_check_sees_each_kind_of_crossing():
    source = "\n".join([
        "from __future__ import annotations",
        "from .lengths import _integer_root, Exact",
        "from isogeo.spectrum import _damped",
        "from . import flat",
        "import numpy as np",
        "x = flat._census(3) + np._private + flat.__name__ + flat.public",
        "self._cache = Exact._hidden",
    ])
    assert private_crossings(source) == [(2, "_integer_root"), (3, "_damped"), (6, "flat._census"),
                                         (6, "np._private")]
