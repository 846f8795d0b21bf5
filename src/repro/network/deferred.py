"""Heavy modules the network layer imports on first use, and their preload.

networkx (the random graph families in :mod:`repro.network.graphs`) and
``scipy.sparse`` (transition matrices and spectral gaps in
:mod:`repro.network.random_walk`) take about half a second to import, and
most runs never build a random graph or estimate a mixing time.  So those
modules import them inside the functions that call them, and importing
``repro`` loads neither.

A forked worker starts with its parent's modules, but whatever it imports
itself dies with it.  Each parent that forks workers therefore calls
:func:`load_deferred_modules` just before it forks: it pays the import once,
and no forked job pays it again.  ``numpy.random`` and ``numpy.ma`` are on
the list because numpy loads them lazily too (``np.unique`` touches
``numpy.ma``), and only scipy's import chain would otherwise load them.
"""

from __future__ import annotations

import importlib

__all__ = ["DEFERRED_MODULES", "load_deferred_modules"]

DEFERRED_MODULES = (
    "networkx",
    "scipy.sparse",
    "scipy.sparse.linalg",
    "numpy.random",
    "numpy.ma",
)


def load_deferred_modules() -> None:
    """Import every module in :data:`DEFERRED_MODULES` (cheap once loaded)."""
    for name in DEFERRED_MODULES:
        importlib.import_module(name)
