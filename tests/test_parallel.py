"""Tests for the ordered thread-pool map."""

import pytest

from ghostcomb import parallel


class RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records the pool size, runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recorder(monkeypatch):
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingExecutor)
    RecordingExecutor.sizes = []
    return RecordingExecutor


@pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2)])
def test_pool_clamped_to_items_and_cpus(recorder, monkeypatch, cpus, expected):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    out = parallel.map_ordered(lambda v: v * v, [1, 2, 3], threads=10**5)
    assert out == [1, 4, 9]
    assert recorder.sizes == [expected]


@pytest.mark.parametrize("threads, cpus", [(1, 8), (0, 8), (None, 8), (8, 1), (8, None)])
def test_serial_without_a_pool(recorder, monkeypatch, threads, cpus):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert parallel.map_ordered(str, [1, 2, 3], threads=threads) == ["1", "2", "3"]
    assert recorder.sizes == []


def test_single_item_runs_inline(recorder):
    assert parallel.map_ordered(str, [7], threads=4) == ["7"]
    assert recorder.sizes == []

