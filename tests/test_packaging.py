"""The distribution's version is the package's ``__version__``."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_setup_version_matches_package_version():
    done = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == repro.__version__
