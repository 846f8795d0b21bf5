"""Shared fixtures: telemetry tests run with fully isolated telemetry state.

``set_trace_path``/``set_profiling`` (and the CLI flags built on them)
export ``REPRO_TRACE``/``REPRO_PROFILE`` process-wide so that fork-based
workers inherit them; each test here starts from a clean slate and
scrubs whatever it exported on the way out.
"""

from __future__ import annotations

import os

import pytest

from repro.telemetry import reset_metrics, reset_telemetry


@pytest.fixture(autouse=True)
def _isolated_telemetry(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    reset_telemetry()
    reset_metrics()
    yield
    # CLI handlers export telemetry env process-wide; scrub by hand so a
    # leak never crosses test boundaries (monkeypatch would faithfully
    # restore a pre-existing leak).
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_PROFILE", None)
    reset_telemetry()
    reset_metrics()
