"""Run one benchmark workload and print its metrics as the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 12 --trace 0

Workloads: ``dashboard``, ``ingest``, ``stream``, ``report`` (see
``perfbench/README.md``).  With ``--trace 0`` the result carries the
end-to-end metrics ``setup_s``, ``peak_rss_mb``, ``latency_ms`` and
``throughput_per_s``, each defined for the workload's own operation;
with ``--trace 1`` the wrappers of :mod:`perfbench.layers` are
installed and the result carries every per-layer metric plus the
traced run's own end-to-end metrics and figures.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment.  The run
builds nothing outside the checkout: caches, durability logs and spans
live under ``.bench_run/`` and are removed at exit.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS/OpenMP pools before anything imports numpy.
_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT))
from perfbench.harness import BLAS_ENV, END_TO_END, RUNS, SRC, Run, environment  # noqa: E402

os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import compileall  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

WORKLOADS = ("dashboard", "ingest", "stream", "report")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # Identical set-up work in every run: bytecode exists before timing.
    if not compileall.compile_dir(str(SRC / "repro"), quiet=1, workers=1):
        print("compiling src/repro failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), directory)
    for sub in ("tmp", "cache"):
        run.path(sub).mkdir()
    # The program's caches and temp files stay inside this run.
    os.environ["TMPDIR"] = str(run.path("tmp"))
    os.environ["REPRO_CACHE_DIR"] = str(run.path("cache"))
    tempfile.tempdir = None
    try:
        workload = importlib.import_module(f"perfbench.workloads.{args.workload}")
        if run.trace:
            from perfbench.layers import install_wrappers
            from perfbench.tracing import Tracer

            run.tracer = Tracer(spill_dir=run.directory)
            # HTTP workloads trace the program in its server only.
            install_wrappers(run.tracer, workload.TRACED_IN_PROCESS)
        outcome = workload.run(run)
        env = environment(run)
        env["figures"] = outcome.figures
        env["samples"] = outcome.samples
        env["notes"] = outcome.notes
        env["failures"] = dict(outcome.tally.reasons)
        env["failure_share"] = outcome.tally.failure_share
        print("environment " + json.dumps(env, sort_keys=True))
        if run.trace:
            from perfbench.layers import PER_LAYER, TRACED

            declared, values = PER_LAYER + TRACED, outcome.layer_metrics
        else:
            declared, values = END_TO_END, outcome.metrics
        result = {
            "correct": outcome.tally.failed == 0,
            "attempted": outcome.tally.attempted,
            "failed": outcome.tally.failed,
            "metrics": {
                name: {"value": values.get(name, 0.0), "unit": unit}
                for name, unit in declared
            },
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
