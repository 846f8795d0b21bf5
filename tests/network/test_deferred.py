"""Deferred heavy imports: ``repro`` loads no networkx or scipy.sparse, and
every fork site loads them once in the parent before it forks.

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
