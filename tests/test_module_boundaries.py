"""No module of the package reaches into another module's private names, writes
a file outside the CLI's writer or states an invariant as an assert."""

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


def _writes(call: ast.Call) -> bool:
    """Does this call write a file: open(...) with a mode that can write (or a mode
    only known at run time), or a .write_text/.write_bytes call?"""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("write_text", "write_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


def calls(source: str, matches=_writes) -> list:
    """(line, enclosing function or None) of every call that matches; by default
    of every call that writes a file."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_the_cli_writer_writes_files():
    # --out is written in one place, by main; every subcommand returns its output
    writers = {(path.name, function) for path in SRC.glob("*.py") for _, function in calls(path.read_text())}
    assert writers == {("cli.py", "_write_output")}
    named = lambda call: isinstance(call.func, ast.Name) and call.func.id == "_write_output"
    assert [function for _, function in calls((SRC / "cli.py").read_text(), named)] == ["main"]


def test_the_write_check_sees_a_second_writer():
    source = "\n".join([
        "def _write_output(path):",
        "    with open(path, 'w', newline='') as fp: ...",
        "def _cmd_x(args):",
        "    with open(args.spectrum) as fp, open(args.generators, 'r') as gp: ...",
        "    open(args.out, mode='a')",
        "    Path(args.out).write_text('x')",
        "    def inner(mode):",
        "        return open(args.out, mode)",
        "fp = open('log', 'r+')",
    ])
    assert calls(source) == [(2, "_write_output"), (5, "_cmd_x"), (6, "_cmd_x"), (8, "inner"),
                                   (9, None)]


def asserts(source: str) -> list:
    """The line of every assert statement: python -O strips them, so an invariant raises."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_invariant_is_an_assert(path):
    assert asserts(path.read_text()) == []


def test_the_assert_check_sees_an_assert():
    source = "\n".join([
        "def f(x):",
        "    assert x > 0, 'positive'",
        "    if x:",
        "        assert (x, 'a tuple')",
        "    return 'assert x'",
    ])
    assert asserts(source) == [2, 4]
