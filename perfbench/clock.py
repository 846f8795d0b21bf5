"""Timing corrected for the host's speed at the moment of measurement.

On a shared host the same pure-Python loop runs up to ~1.6x slower for
seconds at a time, and the two cores drift independently, so a 25-second
median of wall times still moves by ~20% between runs.  Each timed
operation is therefore bracketed by a short fixed probe on the same
thread, and its wall time is scaled by ``REFERENCE_PROBE_S`` over the
probes' mean: the result is the operation's duration in *reference
seconds*, the time it would take on a host running the probe in
``REFERENCE_PROBE_S``.  The raw wall times are kept for the record.

Work that spans processes (the serve loop) is scaled instead by
:class:`HostSpeed`: probes run all through the loop by the client itself,
between requests, so a probe never delays a timed request.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

PROBE_STREAMS = 60
PROBE_ARRAY = 20_000
#: Probe time that defines a reference second (about this probe's median
#: on the 2-core Xeon the benchmark was sized on).
REFERENCE_PROBE_S = 0.0013


def probe(timer=perf_counter) -> float:
    """Time of a fixed mix of seeding, generator set-up and array work.

    Seeding and generator set-up are what the RNG layer spends its time
    on; in tests this probe tracked the drift of whole trials more closely
    than a pure-Python loop did.
    """
    start = timer()
    sequences = np.random.SeedSequence(7).spawn(PROBE_STREAMS)
    for sequence in sequences:
        np.random.default_rng(sequence)
    order = np.argsort(np.arange(PROBE_ARRAY)[::-1])
    np.cumsum(order)
    return timer() - start


class Timed:
    """Times one block: ``raw_s`` (wall) and ``ref_s`` (reference seconds)."""

    def __enter__(self) -> "Timed":
        self._before = probe()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = perf_counter() - self._start
        self.scale = REFERENCE_PROBE_S / ((self._before + probe()) / 2)
        self.ref_s = self.raw_s * self.scale


class HostSpeed:
    """The probe, run by :meth:`tick` at most every ``interval`` seconds."""

    def __init__(self, interval: float = 0.05):
        self.samples: list[float] = []
        self._interval = interval
        self._next = perf_counter()

    def tick(self) -> None:
        """Call between timed operations; probes when the interval is up."""
        if perf_counter() >= self._next:
            self.samples.append(probe())
            self._next = perf_counter() + self._interval

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over the sampled stretch."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)
