"""Modules that load on first use, and their preload before a fork.

Two kinds of module load only when a run needs them:

- networkx (the random graph families in :mod:`repro.network.graphs`) and
  ``scipy.sparse`` (transition matrices and spectral gaps in
  :mod:`repro.network.random_walk`) take about half a second to import, and
  most runs never build a random graph or estimate a mixing time.  So those
  modules import them inside the functions that call them.
- every package's public names (:mod:`repro._lazy`): importing a package
  runs only its ``__init__``, so listing the catalogue loads no protocol
  driver, and a run of one protocol loads only that protocol's modules.

A forked worker starts with its parent's modules, but whatever it imports
itself dies with it, and where bytecode is not cached each import compiles
from source.  Each parent that forks workers therefore calls
:func:`load_deferred_modules` just before it forks: it pays the imports
once, every worker starts with every driver module loaded, and no forked
job pays an import.  ``numpy.random`` and ``numpy.ma`` are on the list
because numpy loads them lazily too (``np.unique`` touches ``numpy.ma``),
and only scipy's import chain would otherwise load them.
"""

from __future__ import annotations

import importlib

from repro._lazy import load_all_exports

__all__ = ["DEFERRED_MODULES", "load_deferred_modules"]

DEFERRED_MODULES = (
    "networkx",
    "scipy.sparse",
    "scipy.sparse.linalg",
    "numpy.random",
    "numpy.ma",
)


def load_deferred_modules() -> None:
    """Import every module in :data:`DEFERRED_MODULES` and the defining
    module of every package export (cheap once loaded)."""
    # The package's own modules first: loaded after networkx and scipy, they
    # leave a `repro serve` process about 1.8 MB larger.
    load_all_exports()
    for name in DEFERRED_MODULES:
        importlib.import_module(name)
