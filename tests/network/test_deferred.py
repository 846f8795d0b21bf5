"""Deferred imports: ``repro`` loads no networkx or scipy.sparse, a package
loads its exports' modules on first access, and every fork site loads all of
them once in the parent before it forks.

Each check runs in a fresh interpreter, because this test process has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]


def loaded_after(script: str, tmp_path):
    """Run ``script`` in a fresh interpreter; it prints a JSON value last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_RESULT_CACHE"] = str(tmp_path / "default-cache")
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


HEAVY = ("networkx", "scipy.sparse", "scipy.sparse.linalg")
IMPORT_GUARD = f"""
import json, sys
import repro, repro.runtime, repro.serve, repro.cli, repro.fabric
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""


def test_importing_the_package_loads_no_heavy_module(tmp_path):
    assert loaded_after(IMPORT_GUARD, tmp_path) == []


# Each fork site runs an erdos-renyi scenario whose graphs only the forked
# workers build, so the parent has no reason of its own to load networkx.
WATCHED = ("networkx", "scipy.sparse.linalg", "numpy.random", "numpy.ma")
PRELUDE = f"""
import json, sys
from repro.runtime import Scenario, TopologySpec
before = [m for m in {WATCHED!r} if m in sys.modules]
scenario = Scenario(
    name="deferred/gnp",
    protocol="le-general/classical",
    topology=TopologySpec("erdos-renyi"),
    sizes=(64,),
    trials=2,
    seed=5,
)
"""
FORK_SITES = {
    "fan_out": """
from repro.runtime import run_scenario
run = run_scenario(scenario, jobs=2)
assert run.meta["jobs_resolved"] == 2
""",
    "run_fabric_sweep": """
from repro.fabric import run_fabric_sweep
run_fabric_sweep(scenario, "fabric", workers=1, timeout=120.0)
""",
}
EPILOGUE = f"""
after = [m for m in {WATCHED!r} if m in sys.modules]
print(json.dumps({{"before": before, "after": after}}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="fork sites fork on Linux only")
@pytest.mark.parametrize("site", sorted(FORK_SITES))
def test_fork_site_loads_deferred_modules_in_parent(site, tmp_path):
    loaded = loaded_after(PRELUDE + FORK_SITES[site] + EPILOGUE, tmp_path)
    assert loaded["before"] == []
    assert loaded["after"] == list(WATCHED)


SETUP = """
import json, sys
from repro.runtime import SCENARIOS, default_registry
assert default_registry().names() and SCENARIOS
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""
DRIVER_PACKAGES = (
    "repro.classical",
    "repro.core",
    "repro.quantum",
    "repro.fabric",
    "repro.serve",
)


def test_setup_loads_no_driver_module(tmp_path):
    """Building the registry and catalogue imports no protocol driver, no
    quantum model, no engine, and neither the fabric nor the server."""
    loaded = loaded_after(SETUP, tmp_path)
    assert "repro.runtime.registry" in loaded
    drivers = [
        name
        for name in loaded
        if name == "repro.network.engine"
        or any(name == p or name.startswith(p + ".") for p in DRIVER_PACKAGES)
    ]
    assert drivers == []


EXPORTS = """
import importlib, json, pkgutil, sys
import repro
from repro._lazy import _ORIGINS

# A submodule that shares its name with an export must not replace it.
import repro.core.walk_search, repro.core.agreement.quantum_agreement
assert callable(repro.core.walk_search), repro.core.walk_search
assert callable(repro.core.agreement.quantum_agreement)

packages = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
]
bad = []
for stage in ("first access", "after every submodule"):
    for name in packages:
        package = importlib.import_module(name)
        origin = _ORIGINS[name]
        if sorted(package.__all__) != sorted(origin):
            bad.append([stage, name, "__all__"])
        if not set(package.__all__) <= set(dir(package)):
            bad.append([stage, name, "dir"])
        star = {}
        exec(f"from {name} import *", star)
        for export in package.__all__:
            defined = getattr(importlib.import_module(origin[export]), export)
            if getattr(package, export) is not defined or star[export] is not defined:
                bad.append([stage, name, export])
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
print(json.dumps(bad))
"""


def test_every_export_resolves_to_its_defining_object(tmp_path):
    """Each package's ``__all__``, ``dir()`` and ``import *`` agree with its
    export table, and every name is the object its defining module holds,
    before and after every submodule of the package is imported."""
    assert loaded_after(EXPORTS, tmp_path) == []


PRELOAD = """
import json, sys
from repro.network import load_deferred_modules
load_deferred_modules()
from repro.runtime import Scenario, TopologySpec, default_registry, run_scenario
before = set(sys.modules)
registry = default_registry()
for name in registry.names():
    family = registry.get(name).topologies[0]
    scenario = Scenario(
        name=name, protocol=name, topology=TopologySpec(family),
        sizes=(16,), trials=1, seed=3,
    )
    run_scenario(scenario, jobs=1)
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
"""


def test_preload_leaves_no_protocol_trial_an_import(tmp_path):
    """After the fork-site preload, one small trial of every registered
    protocol imports no further ``repro`` module, so a forked worker never
    compiles a driver."""
    assert loaded_after(PRELOAD, tmp_path) == []
