"""Packaging for the PODC 2025 quantum leader-election reproduction."""

import pathlib
import re

from setuptools import find_packages, setup

HERE = pathlib.Path(__file__).parent
README = HERE / "README.md"


def read_version() -> str:
    """``__version__`` from the package's ``__init__.py``, read as text.

    Importing the package would need numpy at build time.
    """
    source = (HERE / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"$', source, re.MULTILINE)
    if match is None:
        raise RuntimeError("no __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-quantum-le",
    version=read_version(),
    description=(
        "Reproduction of 'Quantum Communication Advantage for Leader "
        "Election and Agreement' (Dufoulon, Magniez, Pandurangan; PODC 2025)"
    ),
    long_description=README.read_text() if README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    url="https://arxiv.org/abs/2502.07416",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
        "networkx>=3.0",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Intended Audience :: Science/Research",
        "Topic :: Scientific/Engineering",
    ],
)
