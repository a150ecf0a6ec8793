"""The package's public names, and no configuration through the environment."""

from __future__ import annotations

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
