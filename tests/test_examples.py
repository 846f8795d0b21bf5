"""Every script under ``examples/`` runs to completion and prints something.

Each runs in a subprocess, from a temporary directory, against the result
store the suite pins for every test.  The examples import through the
package exports (``from repro import ...``, ``from repro.network import
graphs``, ``from repro.analysis import comparison_table``), so this also
drives those exports in a fresh interpreter.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(repro.__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
