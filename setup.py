"""Setuptools entry point.

Metadata lives here (rather than only in pyproject.toml) so that
editable installs work in offline environments whose pip cannot build
PEP 517 wheels (no `wheel` package available).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# One source for the version: the package's own ``__version__``.
_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'Operating Liquid-Cooled Large-Scale Systems' "
        "(HPCA 2021): synthetic Mira facility simulator, telemetry store, "
        "failure models, and the paper's analysis/prediction pipeline"
    ),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)
