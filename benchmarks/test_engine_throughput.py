"""Engine throughput: steps-per-second of the vectorized hot path.

Unlike the ablation benchmarks (which time an *analysis* over the
canonical dataset), this benchmark times the facility simulation
itself: a 120-day run at hourly cadence and at the 300 s monitor
cadence the paper's predictor consumes.  Results are written to
``BENCH_engine.json`` at the repo root so throughput regressions are
visible in CI diffs.

The assertion floors are far below the measured throughput on a
development machine (>10k steps/s hourly); they exist to catch
order-of-magnitude regressions — e.g. a fallback to the scalar
per-step path — not scheduler jitter.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict

from _bench_json import write_bench_json
from repro.simulation import FacilityEngine, MiraScenario

#: Minimum acceptable throughput (steps/second).  The pre-vectorization
#: engine measured ~1.8k steps/s; the vectorized engine measures >10k.
MIN_STEPS_PER_SEC = 3000.0


def _timed_run(config) -> Dict[str, float]:
    engine = FacilityEngine(config)
    start = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - start
    steps = result.database.num_samples
    return {
        "dt_s": config.dt_s,
        "steps": steps,
        "seconds": round(elapsed, 4),
        "steps_per_sec": round(steps / elapsed, 1),
        "jobs_completed": result.jobs_completed,
    }


def test_engine_throughput():
    base = MiraScenario.demo(days=120, seed=11)
    default = _timed_run(base)
    hourly = _timed_run(dataclasses.replace(base, dt_s=3600.0))
    monitor = _timed_run(dataclasses.replace(base, dt_s=300.0))

    write_bench_json(
        "engine",
        {
            "scenario": "demo(days=120, seed=11)",
            "default_1800s": default,
            "hourly": hourly,
            "monitor_cadence_300s": monitor,
        },
    )

    print("\nengine throughput (120-day demo):")
    for label, row in (("default", default), ("hourly", hourly), ("300 s", monitor)):
        print(
            f"  {label:>7}: {row['steps']:>6} steps in {row['seconds']:.3f}s"
            f" -> {row['steps_per_sec']:.0f} steps/s"
        )

    assert default["steps"] == 120 * 48
    assert hourly["steps"] == 120 * 24
    assert monitor["steps"] == 120 * 24 * 12
    for row in (default, hourly, monitor):
        assert row["steps_per_sec"] > MIN_STEPS_PER_SEC
