"""Fixtures shared across the test suite."""

import pytest

from repro.vm import interpreter


@pytest.fixture(params=["tiered", "emit-all"])
def tiering(request, monkeypatch):
    """Run a test twice: under the codegen engine's tiering, and with
    every function emitted at its first call (``TIER_K = 0``), so that
    programs small enough to run on the tree-walker keep the emitter
    under test too."""
    if request.param == "emit-all":
        monkeypatch.setattr(interpreter, "TIER_K", 0)
    return request.param


@pytest.fixture
def emit_all(monkeypatch):
    """Emit every function at its first call (``TIER_K = 0``)."""
    monkeypatch.setattr(interpreter, "TIER_K", 0)
