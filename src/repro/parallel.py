"""Process-pool parallelism with deterministic seeding.

The predictor pipeline (and, over time, the other analysis suites)
fans its outer loops — cross-validation folds, Bayesian-optimization
trials, the Fig 13 lead sweep — out over a :class:`ProcessPoolExecutor`.
This module centralizes the three things every call site needs:

* **one worker-count rule** (:func:`resolve_workers`): an explicit
  argument wins verbatim (so determinism tests can oversubscribe a
  small machine), otherwise the ``REPRO_WORKERS`` environment variable,
  otherwise all cores; the env/auto paths are capped at
  ``os.cpu_count()`` and everything is capped at the task count;
* **deterministic per-task randomness** (:func:`spawn_seeds` /
  :func:`task_rngs`): ``SeedSequence.spawn`` children derived from one
  master seed, so a task's stream depends only on its index — never on
  which worker ran it or in what order;
* **one chunked, order-preserving map** (:func:`pmap`) with a serial
  fallback at ``workers=1`` and first-error propagation, so results
  are bit-identical between the serial and parallel paths.  A task
  that needs several arguments takes them as one tuple.

Workers are ``fork`` children: each starts with a copy-on-write image
of the parent's memory, so a task may read data the parent held when
the pool started instead of receiving it through a pipe.  Where the
platform offers no ``fork`` start method, :func:`pmap` runs every
task in-process.  Mapped functions and their payloads are still
pickled per dispatch, so they must be module-level functions and
plain data, not closures.

The map is hardened against the two ways a pool dies in practice:

* a **killed worker** (OOM killer, SIGKILL, segfault) breaks the whole
  ``ProcessPoolExecutor``; :func:`pmap` harvests the chunks that
  completed, resubmits the rest to a fresh pool up to
  ``pool_retries`` times, and past that budget finishes the remaining
  chunks in-process — the caller sees complete, in-order results (or
  the task's own first exception, which still propagates);
* a **wedged task**: pass ``timeout_s`` (a per-task deadline) and the
  gather raises :class:`TimeoutError` instead of hanging forever,
  after abandoning the pool without waiting on the stuck worker.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(
    workers: Optional[int] = None, max_tasks: Optional[int] = None
) -> int:
    """The shared worker-count rule for every parallel entry point.

    Args:
        workers: Explicit request; honored verbatim (even above the
            core count, which the determinism tests rely on).
        max_tasks: Number of tasks available; the result never exceeds
            it (no point spawning idle workers).

    Returns:
        The number of workers to use, always >= 1.

    Raises:
        ValueError: on a non-positive request or a malformed
            ``REPRO_WORKERS`` value.
    """
    cores = os.cpu_count() or 1
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {raw!r}"
                ) from None
            if workers < 1:
                raise ValueError(f"{WORKERS_ENV} must be >= 1, got {workers}")
            workers = min(workers, cores)
        else:
            workers = cores
    else:
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
    if max_tasks is not None:
        workers = min(workers, max(1, int(max_tasks)))
    return workers


def require_generator(rng: np.random.Generator) -> np.random.Generator:
    """Insist on an explicit ``numpy`` Generator.

    The parallel pipeline reseeds per task; accepting ints or legacy
    ``RandomState`` objects would let a call site silently draw from a
    different stream than the serial path, which is exactly the
    divergence the explicit-Generator rule exists to prevent.

    Raises:
        TypeError: if ``rng`` is not a ``np.random.Generator``.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError(
            "rng must be a numpy Generator (e.g. np.random.default_rng(seed)); "
            f"got {type(rng).__name__}"
        )
    return rng


def spawn_seeds(seed: int, count: int) -> List[np.random.SeedSequence]:
    """``count`` independent child seed sequences from one master seed.

    Task ``i`` always receives the same child regardless of worker
    count or completion order, which is what keeps ``workers=1`` and
    ``workers=N`` runs bit-identical.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return list(np.random.SeedSequence(seed).spawn(count))


def task_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """Per-task generators over :func:`spawn_seeds` children."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, count)]


def _run_chunk(fn: Callable[[_T], _R], chunk: Sequence[_T]) -> List[_R]:
    """One dispatched unit of work: a contiguous slice of the items."""
    return [fn(item) for item in chunk]


def pmap(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    timeout_s: Optional[float] = None,
    pool_retries: int = 2,
) -> List[_R]:
    """Map ``fn`` over ``items`` on a process pool, preserving order.

    Falls back to a plain in-process loop when the resolved worker
    count is 1, when there is at most one item, or when the platform
    cannot ``fork``, so the serial path runs exactly the same code on
    exactly the same inputs.  The first exception raised by any task
    propagates to the caller and cancels the pool.

    Killed workers don't lose the batch: when the pool breaks (a
    worker was OOM-killed or segfaulted), completed chunks are
    harvested, the unfinished ones are resubmitted to a fresh pool up
    to ``pool_retries`` times, and past that budget they finish
    in-process — a lone bad worker degrades throughput, not
    correctness.  Note a chunk whose worker died mid-task is *re-run*
    on retry; tasks should be idempotent (every mapped task in this
    codebase is a pure function).

    Args:
        fn: A picklable (module-level) single-argument callable.
        items: Task payloads; must be picklable for ``workers > 1``.
        workers: See :func:`resolve_workers`.
        chunksize: Tasks per worker dispatch; defaults to roughly four
            dispatches per worker to amortize IPC on long task lists.
        timeout_s: Per-task deadline, seconds.  Waiting on a dispatched
            chunk is bounded by ``timeout_s * len(chunk)``; on expiry
            the pool is abandoned (without waiting on the stuck
            worker) and :class:`TimeoutError` is raised.  ``None``
            (the default) waits forever, and the serial path never
            times out.
        pool_retries: Fresh-pool resubmissions allowed after broken
            pools before falling back to in-process execution.

    Returns:
        ``[fn(item) for item in items]``, in input order.

    Raises:
        TimeoutError: when ``timeout_s`` expires for any chunk.
    """
    items = list(items)
    count = resolve_workers(workers, max_tasks=len(items))
    if (
        count <= 1
        or len(items) <= 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return [fn(item) for item in items]
    if pool_retries < 0:
        raise ValueError(f"pool_retries cannot be negative, got {pool_retries}")
    if chunksize is None:
        chunksize = max(1, len(items) // (count * 4))
    chunks = [items[i : i + chunksize] for i in range(0, len(items), chunksize)]
    results: List[Optional[List[_R]]] = [None] * len(chunks)
    pending = list(range(len(chunks)))
    broken_pools = 0
    while pending:
        pool = ProcessPoolExecutor(
            max_workers=min(count, len(pending)),
            mp_context=multiprocessing.get_context("fork"),
        )
        futures = {
            index: pool.submit(_run_chunk, fn, chunks[index]) for index in pending
        }
        broken = False
        try:
            for index in list(pending):
                future = futures[index]
                deadline = (
                    None if timeout_s is None else timeout_s * len(chunks[index])
                )
                try:
                    results[index] = future.result(timeout=deadline)
                except BrokenProcessPool:
                    broken = True
                    break
                except _FuturesTimeout:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise TimeoutError(
                        f"parallel chunk of {len(chunks[index])} task(s) "
                        f"exceeded its deadline ({timeout_s:g}s per task)"
                    ) from None
                pending.remove(index)
        finally:
            # A broken pool cannot be waited on; otherwise let queued
            # work cancel and running work finish.
            pool.shutdown(wait=not broken, cancel_futures=True)
        if not broken:
            break
        # Harvest whatever finished before the crash, then retry the rest.
        for index in list(pending):
            future = futures[index]
            if not future.done():
                continue
            exc = future.exception()
            if exc is None:
                results[index] = future.result()
                pending.remove(index)
            elif not isinstance(exc, BrokenProcessPool):
                raise exc  # the task's own failure still propagates
        broken_pools += 1
        if broken_pools > pool_retries and pending:
            for index in pending:
                results[index] = _run_chunk(fn, chunks[index])
            pending = []
    return [value for chunk_results in results for value in chunk_results]
