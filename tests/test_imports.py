"""Lint: no unused top-level imports under ``src/``.

A stdlib-``ast`` stand-in for pyflakes' F401: a name bound by a
module-level ``import`` must be read somewhere in that module or listed
in its ``__all__``.  Package ``__init__.py`` files re-export by design
and are exempt.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for name, line in sorted(bound.items(), key=lambda kv: kv[1])
        if name not in read
    ]


def test_no_unused_top_level_imports():
    unused = [
        entry
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert unused == []
