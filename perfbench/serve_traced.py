"""Traced server launcher: wrappers first, then the shipped CLI.

Usage: ``python perfbench/serve_traced.py --spans FILE -- serve-http ...``

Installs the per-layer wrappers in this process, runs
``repro.cli.main`` with the remaining arguments, and writes the
recorded spans to ``FILE`` when the CLI returns (SIGINT stops
``serve-http`` cleanly).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import install_wrappers  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path = Path(argv[1])
    tracer = Tracer()
    install_wrappers(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[3:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
