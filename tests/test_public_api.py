"""The package's public names, no configuration through the environment,
and no unused import."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import voxmi


def test_every_public_name_resolves_once():
    names = voxmi.__all__
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(voxmi, n)]
    assert not missing


def test_no_module_reads_the_environment():
    """Behaviour is set by arguments only: no module reads env variables."""
    package = Path(voxmi.__file__).parent
    readers = re.compile(r"\b(environ|getenv)\b")
    offenders = [
        f"{path.relative_to(package)}:{lineno}"
        for path in sorted(package.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if readers.search(line)
    ]
    assert not offenders


def test_no_module_imports_a_name_it_never_uses():
    """``__init__.py`` imports to re-export; every other module imports only
    what it reads."""
    package = Path(voxmi.__file__).parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(package)}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused
