"""Package exports that import their defining module on first access.

Each package ``__init__`` hands :func:`lazy_exports` one table, defining
module → the public names it exports, and gets back the package's
``__all__`` and its PEP 562 ``__getattr__`` and ``__dir__``.  Importing a
package then runs only its ``__init__``: ``from repro.runtime import
SCENARIOS`` loads the catalogue and what it imports, not every protocol
driver, and a run of one protocol loads only that protocol's modules.

``__getattr__`` does not store what it resolves: it reads the defining
module's attribute on every access, so a function swapped on its defining
module (a test's monkeypatch, a benchmark's tracer) is what the package
hands out too, and putting the original back restores both.

A forked worker inherits its parent's modules, but whatever it imports
itself dies with it.  :func:`load_all_exports` imports the defining module
of every export, and the fork sites call it, through
:func:`repro.network.deferred.load_deferred_modules`, just before they fork.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["lazy_exports", "load_all_exports"]

# package → {exported name → defining module}, for every package imported.
_ORIGINS: dict[str, dict[str, str]] = {}


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``'s ``__init__``.

    ``exports`` maps each defining module to the names the package exports
    from it.  A name defined in a submodule of the same name (``walk_search``
    in ``repro.core.walk_search``) is bound now, after that submodule is
    imported: the first import of a submodule sets the package attribute of
    its name to the module, and only the first import does.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])
    for name, module in origin.items():
        if module == f"{package}.{name}":
            namespace[name] = getattr(importlib.import_module(module), name)
    _ORIGINS[package] = origin

    def __getattr__(name: str):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return sorted(origin), __getattr__, __dir__


def load_all_exports() -> None:
    """Import the defining module of every export of every package imported
    so far, ``repro`` included, and of every package those imports load
    (cheap once loaded)."""
    loaded: set[str] = set()
    while pending := _ORIGINS.keys() - loaded:
        for package in sorted(pending):
            for module in sorted(set(_ORIGINS[package].values())):
                importlib.import_module(module)
            loaded.add(package)
