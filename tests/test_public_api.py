"""The package's public names, no configuration through the environment,
no unused import, and one maker of an evaluation's histogram region."""

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


def test_only_an_evaluation_makes_its_own_region():
    """The histogram's fast route trusts a region of type ``_OwnRegion`` to
    be A's box cut by moved B's box, so only ``voxmi/mi.py`` names that
    type, and only ``PreparedScan.histogram`` makes one, once."""
    package = Path(voxmi.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.rglob("*.py"))}
    named = {name for name, tree in trees.items()
             for node in ast.walk(tree)
             if "_OwnRegion" in {getattr(node, field, None)
                                 for field in ("id", "attr", "name")}}
    assert named == {"mi.py"}
    made = [node for node in ast.walk(trees["mi.py"])
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_OwnRegion"]
    histogram, = [func for cls in trees["mi.py"].body
                  if isinstance(cls, ast.ClassDef)
                  and cls.name == "PreparedScan"
                  for func in cls.body
                  if getattr(func, "name", None) == "histogram"]
    assert len(made) == 1 and made[0] in ast.walk(histogram)
