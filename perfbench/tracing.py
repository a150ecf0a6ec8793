"""In-memory span recorder that wraps library functions at their call sites.

A span is ``[name, start, end, parent, info]``: perf_counter seconds, the
index of the enclosing span (-1 at top level), and an optional probe value
taken from the call's arguments and result.  Wrapping replaces a module
attribute, so only calls that look the name up in that module are traced;
that is how ``voxmi.mi.voxelize`` (per evaluation) and
``voxmi.align.voxelize`` (scan A's preparation) are told apart.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module_name: str, attr: str, name: str, probe=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`restore`.

        A name the module no longer has is recorded in ``missing``; the
        metrics built on it are then reported as absent.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                self.spans[idx][4] = probe(args, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def restore(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "info": i}
                for n, s, e, p, i in self.spans]


@contextmanager
def counting(module_name: str, attr: str):
    """Count calls of ``module.attr`` without reading any clock."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    box = [0]

    def counted(*args, **kwargs):
        box[0] += 1
        return original(*args, **kwargs)

    setattr(module, attr, counted)
    try:
        yield box
    finally:
        setattr(module, attr, original)
