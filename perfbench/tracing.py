"""In-memory span tracing for the benchmark's traced runs.

A traced run installs wrappers around public functions of each layer
(see :mod:`perfbench.layers`); every wrapped call records one span:
name, start, end, parent span, trace id, wall time and thread-CPU time.
Spans stay in memory and are written once, when the process ends:

* the benchmark process and the traced server launcher call
  :meth:`Tracer.dump` themselves;
* forked pool workers inherit the wrappers, start an empty span list
  on their first span, and write it from a ``multiprocessing``
  finalizer when the worker exits.

While :meth:`Tracer.paused` is active the wrappers call straight
through and record nothing; the benchmark pauses around its own
reference builds, so spans hold only the measured work.
Workers forked while paused inherit the pause.

Nothing here imports the program; the wrappers work on any callable.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Header the load generators send and the handle wrapper reads.
TRACE_HEADER = "X-Trace-Id"


class Tracer:
    """Collects spans for one process.

    Args:
        spill_dir: Where forked child processes write their spans when
            they exit (``spans-<pid>.json``); ``None`` drops them.
    """

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        self.spans: List[Dict] = []
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        #: False while :meth:`paused`: wrapped calls record no span.
        self.enabled = True
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- trace context ------------------------------------------------------------

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (the benchmark's own work)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def set_trace(self, trace_id: Optional[str]) -> None:
        """Tag every later span on this thread with ``trace_id``."""
        self._local.trace = trace_id

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid == self._pid:
            return
        # First span in a forked child: start empty and write at exit.
        self._pid = pid
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        if self.spill_dir is not None:
            from multiprocessing import util

            util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self) -> None:
        if self.spans:
            self.dump(self.spill_dir / f"spans-{self._pid}.json")

    # -- recording ----------------------------------------------------------------

    def begin(self, name: str) -> Dict:
        """Open a span on this thread; close it with :meth:`end`."""
        self._check_fork()
        stack = self._stack()
        span = {
            "id": self._pid * 1_000_000_000 + next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else None,
            "trace": getattr(self._local, "trace", None),
            "cpu": time.thread_time(),
            "start": time.perf_counter(),
        }
        stack.append(span["id"])
        return span

    def end(self, span: Dict, **attrs) -> None:
        span["end"] = time.perf_counter()
        span["cpu"] = time.thread_time() - span["cpu"]
        span.update(attrs)
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add a finished span whose times were taken elsewhere."""
        if not self.enabled:
            return
        self._check_fork()
        span = {
            "id": self._pid * 1_000_000_000 + next(self._ids),
            "name": name,
            "parent": None,
            "trace": getattr(self._local, "trace", None),
            "cpu": 0.0,
            "start": start,
            "end": end,
            **attrs,
        }
        with self._lock:
            self.spans.append(span)

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``before(args, kwargs)`` runs first (a trace-id hook);
        ``after(result, args, kwargs)`` returns extra span attributes.  The
        wrapper keeps ``fn``'s module and qualified name, so pickling by
        reference still finds it after :func:`install` replaced ``fn``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span, error=True)
                raise
            self.end(span, **(after(result, args, kwargs) if after else {}))
            return result

        return traced

    # -- persistence --------------------------------------------------------------

    def dump(self, path: Path) -> None:
        with self._lock:
            spans = list(self.spans)
        Path(path).write_text(json.dumps(spans))


def load_spans(paths: Iterable[Path]) -> List[Dict]:
    """Every span from the given dump files (missing files are skipped)."""
    spans: List[Dict] = []
    for path in paths:
        if Path(path).is_file():
            spans.extend(json.loads(Path(path).read_text()))
    return spans


def install(patches: Sequence[Tuple[object, str, Callable[[Callable], Callable]]]) -> None:
    """Replace each ``owner.attr`` by ``factory(original)``, everywhere.

    ``owner`` is a module or a class.  Class attributes keep their
    ``classmethod``/``staticmethod`` kind.  For module functions, every
    loaded module that imported the function by name is patched too,
    so ``from x import f`` call sites are traced as well.
    """
    replaced: Dict[int, Tuple[Callable, Callable]] = {}
    for owner, attr, factory in patches:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(factory(raw.__func__)))
            continue
        wrapped = factory(raw)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            replaced[id(raw)] = (raw, wrapped)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]


# -- span arithmetic ------------------------------------------------------------------


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Dict]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children may overlap each other (threads, nested pools); the
    covered part is the union of their intervals, so overlap is never
    subtracted twice, and child time outside the parent is ignored.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_length(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }
