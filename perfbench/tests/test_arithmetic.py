"""The benchmark's own arithmetic: self time, percentiles, failure shares.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import math
import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import tracing  # noqa: E402
from perfbench.stats import (  # noqa: E402
    Tally,
    min_samples,
    percentile,
    samples_beyond,
)
from perfbench.tracing import Tracer, covered_length, self_times  # noqa: E402


def _span(span_id, start, end, parent=None):
    return {"id": span_id, "name": "s", "start": start, "end": end, "parent": parent}


class TestSelfTime:
    def test_leaf_span_is_all_self(self):
        assert self_times([_span(1, 0.0, 2.0)]) == {1: 2.0}

    def test_nested_children_are_subtracted(self):
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 3.0, parent=1),
            _span(3, 5.0, 6.0, parent=1),
            _span(4, 1.5, 2.5, parent=2),
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(7.0)
        assert own[2] == pytest.approx(1.0)
        assert own[4] == pytest.approx(1.0)

    def test_overlapping_children_count_once(self):
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 2.0, 6.0, parent=1),
            _span(3, 4.0, 8.0, parent=1),
        ]
        assert self_times(spans)[1] == pytest.approx(4.0)

    def test_child_time_outside_the_parent_is_ignored(self):
        spans = [_span(1, 2.0, 4.0), _span(2, 1.0, 3.0, parent=1)]
        assert self_times(spans)[1] == pytest.approx(1.0)

    def test_covered_length_merges_touching_and_contained(self):
        assert covered_length([(0, 1), (1, 2), (0.5, 0.7), (5, 6)], 0, 10) == pytest.approx(3.0)
        assert covered_length([], 0, 1) == 0.0


class TestPercentiles:
    def test_sample_floor(self):
        assert min_samples(0.99) == 1000
        assert min_samples(0.5) == 20
        assert samples_beyond(1000, 0.99) == 10
        assert samples_beyond(999, 0.99) == 9

    def test_thin_sample_is_refused(self):
        with pytest.raises(ValueError, match="need 10"):
            percentile(list(range(999)), 0.99)
        with pytest.raises(ValueError):
            percentile(list(range(19)), 0.5)

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        assert percentile(values, 0.99) == 990
        assert percentile(list(reversed(values)), 0.5) == 500


class TestTally:
    def test_failures_count_against_attempts(self):
        tally = Tally()
        tally.ok(8)
        tally.fail("HTTP 429")
        assert tally.check(False, "answer differs") is False
        assert tally.check(True, "answer differs") is True
        assert (tally.attempted, tally.failed) == (11, 2)
        assert tally.failure_share == pytest.approx(2 / 11)
        assert dict(tally.reasons) == {"HTTP 429": 1, "answer differs": 1}

    def test_empty_tally_has_no_failure_share(self):
        assert Tally().failure_share == 0.0


class TestLayerMetrics:
    def test_pool_busy_share_and_http_self_time(self):
        from perfbench.layers import PER_LAYER, layer_metrics

        spans = [
            {"id": 1, "name": "pool.map", "start": 0.0, "end": 10.0, "parent": None,
             "workers": 2, "tasks": 4},
            {"id": 2, "name": "pool.chunk", "start": 0.0, "end": 6.0, "parent": None, "tasks": 3},
            {"id": 3, "name": "pool.chunk", "start": 1.0, "end": 5.0, "parent": None, "tasks": 1},
            {"id": 4, "name": "http.handle", "start": 0.0, "end": 0.004, "parent": None,
             "trace": "a", "status": 200},
            {"id": 5, "name": "http.parse", "start": 0.001, "end": 0.002, "parent": 4, "trace": "a"},
            {"id": 6, "name": "http.encode", "start": 0.002, "end": 0.003, "parent": 4, "trace": "a"},
            {"id": 7, "name": "http.encode", "start": 0.005, "end": 0.007, "parent": None, "trace": "a"},
        ]
        values = layer_metrics(spans, {"bus.chunks": 5})
        assert set(values) >= {name for name, _ in PER_LAYER}
        assert values["pool.tasks"] == 4
        assert values["pool.wall_s"] == pytest.approx(10.0)
        assert values["pool.busy_share"] == pytest.approx(10.0 / 20.0)
        assert values["http.handle_ms"] == pytest.approx(2.0)
        assert values["http.encode_ms"] == pytest.approx(3.0)
        assert values["http.requests"] == 1 and values["http.failed"] == 0
        assert values["bus.chunks"] == 5
        assert values["wal.append_ms"] == 0.0

    def test_unknown_fact_is_refused(self):
        from perfbench.layers import layer_metrics

        with pytest.raises(KeyError):
            layer_metrics([], {"no.such_metric": 1})

    def test_outcome_needs_every_end_to_end_metric(self):
        from perfbench.harness import END_TO_END, Outcome

        full = {name: 1.0 for name, _ in END_TO_END}
        Outcome(tally=Tally(), metrics=full, figures={}, samples={})
        with pytest.raises(ValueError, match="incomplete"):
            Outcome(tally=Tally(), metrics={"setup_s": 1.0}, figures={}, samples={})


def _double(x):
    return 2 * x


class TestWrappers:
    def test_wrapper_records_parent_trace_and_attrs(self):
        tracer = Tracer()
        outer = tracer.wrap(lambda: inner(), "outer")
        inner = tracer.wrap(lambda: 3, "inner", after=lambda result, args, kwargs: {"n": result})
        tracer.set_trace("t-1")
        assert outer() == 3
        by_name = {span["name"]: span for span in tracer.spans}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner"]["n"] == 3
        assert by_name["outer"]["trace"] == "t-1"
        assert by_name["outer"]["end"] >= by_name["inner"]["end"]
        assert all(span["cpu"] >= 0.0 for span in tracer.spans)

    def test_paused_tracer_records_nothing(self):
        tracer = Tracer()
        traced = tracer.wrap(abs, "abs")
        with tracer.paused():
            assert traced(-1) == 1
            tracer.record("queued", 0.0, 1.0)
        traced(-2)
        assert [span["name"] for span in tracer.spans] == ["abs"]
        assert tracer.enabled

    def test_error_spans_are_marked_and_reraised(self):
        tracer = Tracer()
        failing = tracer.wrap(lambda: 1 / 0, "boom")
        with pytest.raises(ZeroDivisionError):
            failing()
        assert tracer.spans[0]["error"] is True

    def test_installed_module_function_still_pickles_by_reference(self, monkeypatch):
        module = sys.modules[__name__]
        original = module._double
        monkeypatch.setattr(module, "_double", original)
        tracer = Tracer()
        tracing.install([(module, "_double", lambda fn: tracer.wrap(fn, "double"))])
        wrapped = module._double
        assert wrapped is not original
        assert pickle.loads(pickle.dumps(wrapped)) is wrapped
        assert wrapped(4) == 8
        assert [span["name"] for span in tracer.spans] == ["double"]

    def test_forked_worker_writes_its_own_spans_at_exit(self, tmp_path):
        import multiprocessing

        tracer = Tracer(spill_dir=tmp_path)
        traced = tracer.wrap(abs, "abs")
        traced(-1)
        context = multiprocessing.get_context("fork")
        child = context.Process(target=traced, args=(-2,))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        spilled = tracing.load_spans(tmp_path.glob("spans-*.json"))
        assert [span["name"] for span in spilled] == ["abs"]
        assert spilled[0]["id"] // 1_000_000_000 == child.pid
        assert len(tracer.spans) == 1

    def test_dump_and_load_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.record("queued", 1.0, 1.5, wait=0.5)
        tracer.dump(tmp_path / "spans.json")
        loaded = tracing.load_spans([tmp_path / "spans.json", tmp_path / "missing.json"])
        assert loaded[0]["name"] == "queued"
        assert math.isclose(loaded[0]["end"] - loaded[0]["start"], 0.5)
