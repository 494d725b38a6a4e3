"""Shared serve fixtures: one small trained state for the whole session."""

import socket

import pytest

from repro.experiments.context import ExperimentContext
from repro.obs.metrics import reset_metrics
from repro.serve.daemon import _Handler, resolve_serve_state

SCALE = 0.02


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_metrics()
    yield
    reset_metrics()


@pytest.fixture(scope="session")
def serve_state():
    """The resolved serving state at test scale (detector + rule lines)."""
    ctx = ExperimentContext.create(scale=SCALE)
    return resolve_serve_state(ctx)


class StubDetector:
    """A predict-only stand-in for reload/batcher tests that never need
    the real model: flags any source containing ``BAIT``."""

    def predict(self, sources):
        return ["BAIT" in source for source in sources]


@pytest.fixture
def stub_detector():
    return StubDetector()


@pytest.fixture
def nodelay_seen(monkeypatch):
    """``TCP_NODELAY`` of every socket a ``_Handler`` in this process accepts."""
    seen = []
    handle = _Handler.handle

    def recording_handle(self):
        seen.append(self.request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        return handle(self)

    monkeypatch.setattr(_Handler, "handle", recording_handle)
    return seen
