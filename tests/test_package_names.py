"""Every function and class that noise_lab defines is used by noise_lab.

A name that only tests call belongs in the tests (``conftest.py`` holds such
helpers), so the package carries no code that no command path runs. The scan
reads the sources with ``ast``: a definition counts as used when its name
appears in package code as a plain name, an attribute or an imported name.
Dunder methods and the ``<group>__<name>`` suite checks, which the suite
collects by their decorator, are exempt.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "noise_lab"
SUITE_CHECK = re.compile(r"^[a-z]+__[a-z_]+$")


def _trees():
    return [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(SRC.glob("*.py"))]


def test_every_package_definition_is_referenced_by_package_code():
    defined, used = set(), set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2] for alias in node.names)
    exempt = {name for name in defined if name.startswith("__") or SUITE_CHECK.match(name)}
    assert sorted(defined - used - exempt) == []
