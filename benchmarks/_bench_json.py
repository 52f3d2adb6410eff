"""The one writer of the ``BENCH_*.json`` files at the repo root.

Every file opens with the same stamp — the package version, the Python
version and the machine's ``cpu_count`` — so each figure reads against
the code and the box that produced it.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any, Dict

from repro import __version__

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_bench_json(name: str, results: Dict[str, Any]) -> Path:
    """Write ``BENCH_<name>.json``: the stamp, then ``results``."""
    report = {
        "version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        **results,
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
