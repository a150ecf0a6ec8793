"""Shared fixtures."""

from __future__ import annotations

import importlib

import pytest


@pytest.fixture
def align_module():
    """The ``voxmi.align`` module, whose globals tests reach into.

    ``voxmi.align`` as an attribute of the package is the function, so
    ``import voxmi.align as m`` binds the function too.
    """
    return importlib.import_module("voxmi.align")
