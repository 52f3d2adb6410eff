"""Process, server and environment plumbing shared by the workloads."""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.stats import Tally
from perfbench.tracing import TRACE_HEADER, Tracer

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run scratch space lives under here, inside the checkout.
RUNS = ROOT / ".bench_run"

#: BLAS/OpenMP pools pinned to one thread in every process.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclasses.dataclass
class Run:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    directory: Path
    tracer: Optional[Tracer] = None

    def path(self, name: str) -> Path:
        return self.directory / name

    def paused(self):
        """Context in which a traced run records no spans: the benchmark's
        own reference builds and archive copies."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def child_env(self) -> Dict[str, str]:
        """Environment for program processes: this process's (BLAS pinned,
        ``TMPDIR`` and ``REPRO_CACHE_DIR`` inside the run) plus ``src``."""
        return {**os.environ, "PYTHONPATH": str(SRC)}


#: The end-to-end metrics every untraced run reports, with their units.
#: Each workload defines them for its own operation (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
)


@dataclasses.dataclass
class Outcome:
    """What a workload measured.

    ``metrics`` holds the :data:`END_TO_END` values; ``figures`` holds the
    workload's own named figures (``cold_report_s``, ``query_p98_ms``...),
    which the environment line records and traced runs report per layer.
    """

    tally: Tally
    metrics: Dict[str, float]
    figures: Dict[str, float]
    #: Sample count behind each timed metric and figure.
    samples: Dict[str, int]
    notes: Dict = dataclasses.field(default_factory=dict)
    layer_metrics: Dict[str, float] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.metrics) != {name for name, _ in END_TO_END}:
            raise ValueError(f"end-to-end metrics {sorted(self.metrics)} are incomplete")


def traced_outcome(
    run: Run, outcome: Outcome, spans: List[Dict], facts: Dict[str, float]
) -> Outcome:
    """Attach the per-layer metrics of a traced run to ``outcome``.

    The traced run's own end-to-end metrics and figures ride along as
    ``traced.<name>`` so tracing overhead can be read against the
    untraced runs of the same workload.
    """
    from perfbench.layers import layer_metrics

    outcome.layer_metrics = layer_metrics(spans, facts)
    for name, value in {**outcome.metrics, **outcome.figures}.items():
        outcome.layer_metrics[f"traced.{name}"] = value
    return outcome


def arrays_match(a, b, tol: float = 1e-12) -> bool:
    """Exact for non-floats; floats within ``tol`` relative, NaN == NaN."""
    import numpy as np

    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind != "f" or b.dtype.kind != "f":
        return bool(np.array_equal(a, b))
    return bool(np.allclose(a, b, rtol=tol, atol=0.0, equal_nan=True))


def rollups_match(ours, reference) -> bool:
    """Two rollup stores hold the same buckets at every resolution."""
    mine, theirs = ours.get_state(), reference.get_state()
    if len(mine["levels"]) != len(theirs["levels"]):
        return False
    for a, b in zip(mine["levels"], theirs["levels"]):
        if a["resolution_s"] != b["resolution_s"]:
            return False
        if not (arrays_match(a["epoch"], b["epoch"]) and arrays_match(a["samples"], b["samples"])):
            return False
        if a["channels"].keys() != b["channels"].keys():
            return False
        for channel, fields in a["channels"].items():
            for name, values in fields.items():
                if not arrays_match(values, b["channels"][channel][name]):
                    return False
    return True


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current resident set, so the
    peak covers only what runs afterwards (not the benchmark's set-up)."""
    Path("/proc/self/clear_refs").write_text("5")


class TreeMemorySampler:
    """Peak memory of this process plus its child processes, in MB.

    A context manager around ``perfbench/memsample.py``, which sums the
    proportional set sizes of the tree every 25 ms; see there why PSS
    and why a separate process.
    """

    def __enter__(self) -> "TreeMemorySampler":
        self.peak_mb = 0.0
        self._proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "memsample.py"), str(os.getpid())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        return self

    def __exit__(self, *exc) -> None:
        # Forked workers hold copies of the pipe, so stop with a line
        # rather than by closing it.
        try:
            self._proc.stdin.write(b"stop\n")
            self._proc.stdin.flush()
            peak_kb = int(self._proc.stdout.readline())
        finally:
            self._proc.stdin.close()
            self._proc.stdout.close()
            self._proc.wait(timeout=30)
        self.peak_mb = peak_kb / 1024.0


def git_sha() -> str:
    """Commit of the checkout, when it is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(run: Run) -> Dict:
    import numpy

    import repro

    return {
        "version": repro.__version__,
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
    }


class HttpClient:
    """One keep-alive connection that times GETs to their parsed body."""

    def __init__(self, port: int, name: str) -> None:
        self.port = port
        self.name = name
        self.count = 0
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def get(self, path: str) -> Tuple[int, Optional[Dict], float, str]:
        """``(status, parsed body or None, seconds, trace id)``; never raises.

        Status 0 means a transport failure (the connection is reopened).
        """
        self.count += 1
        trace = f"{self.name}-{self.count}"
        begin = time.perf_counter()
        try:
            self._conn.request("GET", path, headers={TRACE_HEADER: trace})
            reply = self._conn.getresponse()
            raw = reply.read()
            status = reply.status
            body = json.loads(raw) if status == 200 else None
        except (OSError, http.client.HTTPException, ValueError):
            self._conn.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            status, body = 0, None
        return status, body, time.perf_counter() - begin, trace

    def close(self) -> None:
        self._conn.close()


class Server:
    """A ``repro serve-http`` process started by the benchmark.

    Traced runs start it through ``perfbench/serve_traced.py``, which
    installs the wrappers and then calls ``repro.cli.main`` in the same
    single process, so the process layout matches the untraced run.
    """

    def __init__(self, run: Run, args: List[str], tag: str) -> None:
        self.run = run
        self.tag = tag
        self.spans_path = run.path(f"spans-server-{tag}.json")
        if run.trace:
            command = [
                sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                "--spans", str(self.spans_path), "--", "serve-http", *args,
            ]
        else:
            command = [sys.executable, "-m", "repro", "serve-http", *args]
        self._stderr = open(run.path(f"server-{tag}.err"), "wb")
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=str(run.directory),
            env=run.child_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        try:
            self.port = self._read_port()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - begin

    def _read_port(self) -> int:
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace")
            if line.startswith("serving ") and "http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        raise RuntimeError(f"server {self.tag} exited before serving: {self.errors()}")

    def _await_health(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                reply = conn.getresponse()
                reply.read()
                if reply.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError(f"server {self.tag} never answered /healthz")

    def metrics(self) -> Dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def errors(self) -> str:
        self._stderr.flush()
        return self.run.path(f"server-{self.tag}.err").read_text(errors="replace")[-2000:]

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        self._stderr.close()
