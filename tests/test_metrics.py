"""The one counter type: atomic bumps, consistent copies, value semantics."""

from __future__ import annotations

import copy
import json
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.metrics import Counters, format_counts


class _Pair(Counters):
    """A two-field group for the tests."""

    #: Bumped together with ``right``.
    left: int
    right: int


class _Triple(Counters):
    left: int
    right: int
    depth: int


def _run_threads(target, count, timeout_s=60.0):
    """Start ``count`` threads on ``target`` with a short switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout_s)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestAtomicity:
    def test_concurrent_adds_are_exact(self):
        counters = _Pair()

        def bump():
            for _ in range(10_000):
                counters.add(left=1, right=2)

        _run_threads(bump, 8)
        assert counters.as_dict() == {"left": 80_000, "right": 160_000}

    def test_copy_never_sees_half_an_add(self):
        counters = _Pair()
        stop = threading.Event()
        torn = []

        def write():
            while not stop.is_set():
                counters.add(left=1, right=1)

        def read():
            for _ in range(5_000):
                snapshot = counters.copy()
                if snapshot.left != snapshot.right:
                    torn.append(snapshot)
            stop.set()

        writers = [threading.Thread(target=write) for _ in range(3)]
        for thread in writers:
            thread.start()
        try:
            _run_threads(read, 2)
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in writers)
        assert counters.left > 0
        assert torn == []

    def test_peak_keeps_the_high_water_mark(self):
        counters = _Triple()
        for depth in (3, 9, 4):
            counters.peak(depth=depth)
        assert counters.depth == 9


class TestValueSemantics:
    def test_fields_start_at_zero_in_declaration_order(self):
        assert _Triple().as_dict() == {"left": 0, "right": 0, "depth": 0}

    def test_copy_is_independent_and_equal(self):
        counters = _Pair(left=2, right=5)
        snapshot = counters.copy()
        assert snapshot == counters and snapshot is not counters
        counters.add(left=1)
        assert snapshot != counters
        assert snapshot.left == 2

    def test_equality_needs_the_same_group(self):
        assert _Pair() == _Pair()
        assert _Pair() != _Triple()
        assert _Pair() != {"left": 0, "right": 0}

    @pytest.mark.parametrize(
        "clone",
        [
            lambda c: pickle.loads(pickle.dumps(c)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_clones_keep_values_and_a_working_lock(self, clone):
        counters = _Triple(left=1, right=2, depth=3)
        restored = clone(counters)
        assert type(restored) is _Triple and restored == counters
        restored.add(left=1)
        assert restored.left == 2 and counters.left == 1

    def test_as_dict_renders_plain_ints(self):
        counters = _Pair()
        counters.add(left=np.int64(1), right=1)
        rendered = counters.as_dict()
        assert all(type(value) is int for value in rendered.values())
        assert json.loads(json.dumps(rendered)) == {"left": 1, "right": 1}

    def test_format_counts(self):
        assert format_counts(_Pair(left=1, right=2).as_dict()) == "left=1, right=2"
        assert format_counts({"hits": 1, "hit_rate": 0.5}) == "hits=1, hit_rate=0.500"
        assert repr(_Pair(left=1)) == "_Pair(left=1, right=0)"


class TestRejection:
    def test_unknown_field_rejected_everywhere(self):
        counters = _Pair()
        with pytest.raises(TypeError, match="bogus"):
            counters.add(left=1, bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            counters.peak(bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            _Pair(bogus=1)
        assert counters.as_dict() == {"left": 0, "right": 0}

    def test_assignment_rejected(self):
        counters = _Pair()
        with pytest.raises(AttributeError, match="add"):
            counters.left = 5
        assert counters.left == 0
