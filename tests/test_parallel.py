"""The process-pool helpers: worker resolution, seeding, pmap."""

import os
import time

import numpy as np
import pytest

from repro.chaos import WorkerCrasher
from repro.parallel import (
    WORKERS_ENV,
    pmap,
    require_generator,
    resolve_workers,
    spawn_seeds,
    task_rngs,
)


def _square(x):
    return x * x


def _fail_on_seven(x):
    if x == 7:
        raise ValueError("seven is right out")
    return x


def _sleepy(x):
    time.sleep(1.2)
    return x


class TestResolveWorkers:
    def test_explicit_wins_even_above_core_count(self):
        assert resolve_workers(3) == 3
        assert resolve_workers((os.cpu_count() or 1) + 5) == (os.cpu_count() or 1) + 5

    def test_env_var_used_when_unspecified(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        assert resolve_workers(None) == 1

    def test_env_var_capped_at_cores(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "9999")
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_default_is_core_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_task_count_caps(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(8, max_tasks=3) == 3
        assert resolve_workers(None, max_tasks=0) == 1

    def test_bad_values_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv(WORKERS_ENV, "zero")
        with pytest.raises(ValueError):
            resolve_workers(None)
        monkeypatch.setenv(WORKERS_ENV, "-2")
        with pytest.raises(ValueError):
            resolve_workers(None)


class TestSeeding:
    def test_spawned_seeds_deterministic(self):
        a = [s.generate_state(4).tolist() for s in spawn_seeds(42, 5)]
        b = [s.generate_state(4).tolist() for s in spawn_seeds(42, 5)]
        assert a == b

    def test_spawned_streams_distinct(self):
        rngs = task_rngs(7, 4)
        draws = [r.standard_normal(8).tolist() for r in rngs]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert draws[i] != draws[j]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)

    def test_require_generator(self):
        rng = np.random.default_rng(0)
        assert require_generator(rng) is rng
        with pytest.raises(TypeError):
            require_generator(1234)
        with pytest.raises(TypeError):
            require_generator(np.random.RandomState(0))


class TestPmap:
    def test_serial_matches_parallel(self):
        items = list(range(20))
        assert pmap(_square, items, workers=1) == pmap(_square, items, workers=3)

    def test_order_preserved(self):
        assert pmap(_square, [3, 1, 2], workers=2) == [9, 1, 4]

    def test_empty(self):
        assert pmap(_square, [], workers=4) == []

    def test_error_propagates_serial(self):
        with pytest.raises(ValueError, match="seven"):
            pmap(_fail_on_seven, range(10), workers=1)

    def test_error_propagates_parallel(self):
        with pytest.raises(ValueError, match="seven"):
            pmap(_fail_on_seven, range(10), workers=2)

    def test_chunked(self):
        items = list(range(37))
        assert pmap(_square, items, workers=2, chunksize=5) == [
            x * x for x in items
        ]

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        assert pmap(_square, range(6)) == [x * x for x in range(6)]

    def test_negative_pool_retries_rejected(self):
        with pytest.raises(ValueError, match="pool_retries"):
            pmap(_square, range(4), workers=2, pool_retries=-1)


class TestPmapHardening:
    """Killed workers and wedged tasks degrade, not corrupt."""

    def test_killed_worker_resubmitted_to_fresh_pool(self, tmp_path):
        """A SIGKILLed worker breaks the pool; the retry completes the
        batch in order, including the chunk the dead worker held."""
        crasher = WorkerCrasher(_square, (3,), tmp_path)
        items = list(enumerate(range(12)))
        out = pmap(crasher, items, workers=3, chunksize=2)
        assert out == [x * x for x in range(12)]
        assert (tmp_path / "crashed-3").exists()

    def test_retry_budget_exhausted_falls_back_to_serial(self, tmp_path):
        """With zero pool retries the surviving chunks finish
        in-process (the marker makes the re-run side-effect free)."""
        crasher = WorkerCrasher(_square, (1,), tmp_path)
        items = list(enumerate(range(8)))
        out = pmap(crasher, items, workers=2, chunksize=1, pool_retries=0)
        assert out == [x * x for x in range(8)]

    def test_task_exception_beats_broken_pool(self, tmp_path):
        """A task that *raised* before a peer died still propagates —
        retries are for infrastructure failures, not bad inputs."""
        crasher = WorkerCrasher(_fail_on_seven, (2,), tmp_path)
        with pytest.raises(ValueError, match="seven"):
            pmap(
                crasher,
                list(enumerate(range(10))),
                workers=2,
                chunksize=1,
                pool_retries=2,
            )

    def test_timeout_raises_instead_of_hanging(self):
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="deadline"):
            pmap(_sleepy, range(4), workers=2, chunksize=1, timeout_s=0.1)
        # The pool was abandoned, not awaited: well under the 1.2s nap.
        assert time.monotonic() - start < 1.0

    def test_deadline_above_task_cost_passes(self):
        # 1.5s/task deadline comfortably covers the 1.2s nap, so the
        # same shape that times out above completes when given room.
        out = pmap(_sleepy, [1, 2], workers=2, chunksize=1, timeout_s=1.5)
        assert out == [1, 2]

    def test_serial_path_ignores_timeout(self):
        assert pmap(_sleepy, [5], workers=1, timeout_s=0.01) == [5]
