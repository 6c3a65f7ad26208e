"""Accounting rules of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import asyncio

import pytest

from ledger import Ledger, layer_metrics, percentile, tail_percentile
from served import open_loop

pytestmark = pytest.mark.bench_smoke


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_parent_self_time_is_total_minus_children():
    clock = FakeClock()
    ledger = Ledger(clock)

    def child():
        clock.now += 3.0

    wrapped_child = ledger.wrap("child", child)

    def parent():
        clock.now += 1.0
        wrapped_child()
        wrapped_child()
        clock.now += 2.0

    ledger.wrap("parent", parent)()
    assert ledger.calls == {"parent": 1, "child": 2}
    assert ledger.self_s == {"parent": 3.0, "child": 6.0}
    metrics = layer_metrics([ledger.to_dict()], 9.0, ("parent", "child"))
    assert metrics["parent.share"] == pytest.approx(1 / 3)
    assert metrics["child.self_ms"] == pytest.approx(6000.0)


def test_same_layer_nesting_is_not_double_counted():
    # StreamingPipeline.on_step calls drain: both are the pipeline layer.
    clock = FakeClock()
    ledger = Ledger(clock)

    def leaf():
        clock.now += 4.0

    wrapped_leaf = ledger.wrap("other", leaf)

    def inner():
        clock.now += 1.0
        wrapped_leaf()

    wrapped_inner = ledger.wrap("layer", inner)

    def outer():
        clock.now += 2.0
        wrapped_inner()

    ledger.wrap("layer", outer)()
    assert ledger.self_s == {"layer": 3.0, "other": 4.0}
    assert sum(ledger.self_s.values()) == clock.now


def test_spans_record_parent_and_key():
    clock = FakeClock()
    ledger = Ledger(clock)
    job = ledger.wrap("runner", lambda payload: None, span="runner.job")
    with ledger.span("tables.pass"):
        job({"spec": {"kind": "hlatch", "workload": "gcc"}})
    inner, outer = ledger.spans
    assert (outer["name"], outer["parent"]) == ("tables.pass", None)
    assert inner["parent"] == outer["id"]
    assert inner["key"] == "hlatch:gcc"


def test_install_and_restore_leave_classes_untouched():
    class Base:
        def step(self):
            return "base"

    class Derived(Base):
        def run(self):
            return "run"

    original_run = Derived.__dict__["run"]
    ledger = Ledger()
    ledger.patch(Derived, "run", "layer")
    ledger.patch(Derived, "step", "layer")  # inherited attribute
    assert Derived().run() == "run" and Derived().step() == "base"
    assert ledger.calls["layer"] == 2
    ledger.restore()
    assert Derived.__dict__["run"] is original_run
    assert "step" not in Derived.__dict__


@pytest.mark.parametrize("count, expected", [
    (9, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank_and_failures_sort_last():
    values = [5.0, 1.0, float("inf"), 3.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 100.0) == float("inf")


def test_open_loop_latency_counts_from_due_time():
    # One connection; stream 0 stalls the server for 0.3 s.  Stream 1 is
    # due 0.05 s in, so it must wait for the connection, and its latency
    # includes that wait even though its own service takes 0.01 s.
    async def run_stream(connection, index):
        await asyncio.sleep(0.3 if index == 0 else 0.01)
        return index

    records = asyncio.run(open_loop(run_stream, ["conn"], rate=20.0,
                                    seconds=0.2))
    assert [r.index for r in records] == [0, 1, 2, 3]
    first, second = records[0], records[1]
    assert second.due - first.due == pytest.approx(0.05)
    assert second.acquired - second.released >= 0.2
    assert second.latency >= 0.25
    assert second.end - second.acquired < 0.1
    # Every later stream is delayed by the stall as well.
    assert all(r.latency > 0.1 for r in records[1:])
