"""Process-wide telemetry context: env-driven tracer/profiler resolution.

The runtime's existing configuration currency for fork/spawn workers is
environment variables (``REPRO_ENGINE``, ``REPRO_KERNEL``, ...);
telemetry follows the same pattern so pool workers and fabric workers
inherit the parent's choices without any new plumbing through pickled
task tuples:

* ``REPRO_TRACE=/path/to/file.jsonl`` — enable JSONL tracing.  All
  processes append to the same file (O_APPEND whole-line writes).
* ``REPRO_PROFILE=1`` — enable phase profiling.

``current_tracer()`` returns the shared :class:`~.trace.JsonlTracer`
(or the :data:`~.trace.NULL_TRACER`); ``current_profiler()`` returns
the shared :class:`~.profiler.PhaseProfiler` or ``None`` when off —
hot paths test ``is not None`` once per run.
"""

from __future__ import annotations

import logging
import os

from .profiler import PhaseProfiler
from .trace import NULL_TRACER, JsonlTracer

__all__ = [
    "ENV_TRACE",
    "ENV_PROFILE",
    "current_tracer",
    "current_profiler",
    "set_trace_path",
    "set_profiling",
    "reset_telemetry",
    "configure_logging",
]

ENV_TRACE = "REPRO_TRACE"
ENV_PROFILE = "REPRO_PROFILE"

_tracer = None  # resolved lazily; None means "look at the env again"
_tracer_path: str | None = None
_profiler: PhaseProfiler | None = None
_profiler_resolved = False


def current_tracer():
    """The process tracer: JSONL when ``REPRO_TRACE`` is set, else null."""
    global _tracer, _tracer_path
    path = os.environ.get(ENV_TRACE) or None
    if _tracer is None or path != _tracer_path:
        if _tracer is not None:
            _tracer.close()
        _tracer = JsonlTracer(path) if path else NULL_TRACER
        _tracer_path = path
    return _tracer


def current_profiler() -> PhaseProfiler | None:
    """The process profiler, or ``None`` when profiling is off."""
    global _profiler, _profiler_resolved
    enabled = os.environ.get(ENV_PROFILE, "") not in ("", "0")
    if not _profiler_resolved or enabled != (_profiler is not None):
        _profiler = PhaseProfiler() if enabled else None
        _profiler_resolved = True
    return _profiler


def set_trace_path(path) -> None:
    """Enable (or, with ``None``, disable) tracing for this process tree."""
    if path is None:
        os.environ.pop(ENV_TRACE, None)
    else:
        os.environ[ENV_TRACE] = str(path)
    current_tracer()


def set_profiling(enabled: bool) -> None:
    """Enable/disable phase profiling for this process tree."""
    if enabled:
        os.environ[ENV_PROFILE] = "1"
    else:
        os.environ.pop(ENV_PROFILE, None)
    current_profiler()


def reset_telemetry() -> None:
    """Drop cached tracer/profiler state (tests; after env manipulation)."""
    global _tracer, _tracer_path, _profiler, _profiler_resolved
    if _tracer is not None:
        _tracer.close()
    _tracer = None
    _tracer_path = None
    _profiler = None
    _profiler_resolved = False


#: logfmt-style layout so service log pipelines can parse without regex.
_LOG_FORMAT = 'ts=%(asctime)s level=%(levelname)s logger=%(name)s msg="%(message)s"'


def configure_logging(level: str | int = "WARNING") -> None:
    """Configure root logging with the repo's structured key=value format.

    Idempotent enough for CLI re-entry: an existing root handler is
    re-levelled rather than duplicated.
    """
    if isinstance(level, str):
        level = getattr(logging, level.upper(), logging.WARNING)
    root = logging.getLogger()
    if root.handlers:
        root.setLevel(level)
        for handler in root.handlers:
            handler.setLevel(level)
            handler.setFormatter(logging.Formatter(_LOG_FORMAT))
    else:
        logging.basicConfig(level=level, format=_LOG_FORMAT)
