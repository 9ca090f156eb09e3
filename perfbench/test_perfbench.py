"""Fast tests of the benchmark's helpers, on synthetic inputs.

Run with ``python -m pytest perfbench/test_perfbench.py -q``.
"""

import math
import sys
import types

import pytest

from spans import Recorder, Span, Target, claimed_time, install, self_times
from spans import uninstall, union_length
from stats import (
    BISECT_STEPS,
    LADDER_FACTOR,
    LADDER_RUNGS,
    backlog_grows,
    due_times,
    find_max_rate,
    latencies_with_misses,
    open_loop_latency,
    percentile,
    rung_passes,
    supported_percentile,
    tail,
    tail_at,
)


# -- the percentile rule ----------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0),
    (19, None), (0, None),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_tail_labels_and_small_samples():
    values = list(range(1, 1001))  # 1..1000
    value, label = tail(values)
    assert label == "p99"
    assert value == pytest.approx(percentile(values, 99.0))
    # ten samples lie beyond the p99 of 1000 samples
    assert sum(1 for v in values if v > value) == 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max")
    # a requested level the sample cannot support falls back to the rule
    assert tail_at(list(range(200)), 99.0)[1] == "p95"
    assert tail_at(list(range(2000)), 99.0)[1] == "p99"


def test_percentile_interpolates_like_numpy():
    assert percentile([1, 2, 3, 4], 50.0) == 2.5
    assert percentile([5], 99.0) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


# -- self time from nested spans ---------------------------------------------
def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, thread=1)


def test_self_time_subtracts_children():
    spans = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "child", 1.0, 3.0, parent=1),
        _span(3, "child", 4.0, 8.0, parent=1),
        _span(4, "grandchild", 5.0, 6.0, parent=3),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 2.0 - 4.0)
    assert selfs[3] == pytest.approx(4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)


def test_overlapping_children_count_once():
    # children on other threads may overlap; their union is subtracted
    spans = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "a", 1.0, 5.0, parent=1),
        _span(3, "b", 3.0, 7.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0)
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_claimed_time_is_root_coverage_within_window():
    spans = [
        _span(1, "root", 1.0, 4.0),
        _span(2, "child", 2.0, 3.0, parent=1),
        _span(3, "root", 3.0, 6.0),
        _span(4, "root", 9.0, 12.0),
    ]
    assert claimed_time(spans, (0.0, 10.0)) == pytest.approx(5.0 + 1.0)


def test_recorder_merges_same_name_nesting_and_uninstalls():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(mod.leaf(x))

    mod.leaf, mod.outer = leaf, outer
    user.leaf = leaf  # as if `from fakepkg.mod import leaf`
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod,
                        "fakepkg.user": user})
    try:
        ticks = iter(range(100))
        recorder = Recorder(clock=lambda: float(next(ticks)))
        undo = install(recorder, [
            Target("layer.leaf", "fakepkg.mod:leaf",
                   lambda a, k, r: {"arg": a[0]}),
            Target("layer.outer", "fakepkg.mod:outer"),
        ], package="fakepkg")
        assert user.leaf is not leaf  # rebound in the importing module
        assert mod.outer(1) == 3
        names = [s.name for s in recorder.spans]
        assert names == ["layer.leaf", "layer.leaf", "layer.outer"]
        outer_span = recorder.spans[-1]
        assert all(s.parent == outer_span.sid for s in recorder.spans[:2])
        assert [s.attrs["arg"] for s in recorder.spans[:2]] == [1, 2]
        uninstall(undo)
        assert mod.leaf is leaf and user.leaf is leaf and mod.outer is outer
    finally:
        for name in ("fakepkg", "fakepkg.mod", "fakepkg.user"):
            sys.modules.pop(name, None)


# -- open-loop timing ---------------------------------------------------------
def test_latency_counts_from_due_time_and_reports_lag():
    # due at 1.0, the generator stalled and sent at 1.3, reply at 1.5
    latency, lag = open_loop_latency(1.0, 1.3, 1.5)
    assert latency == pytest.approx(0.5)
    assert lag == pytest.approx(0.3)
    # an early send is no negative lag; a missing reply has no latency
    assert open_loop_latency(2.0, 1.9, None) == (None, 0.0)


def test_misses_fail_every_latency_limit():
    values = latencies_with_misses([0.001, None, 0.002])
    assert values[1] == math.inf
    assert not rung_passes(max(values) * 1e3, False, limit_ms=1e9)


def test_due_times_are_evenly_spaced():
    dues = due_times(10.0, 4.0, 5)
    assert dues == pytest.approx([10.0, 10.25, 10.5, 10.75, 11.0])
    with pytest.raises(ValueError):
        due_times(0.0, 0.0, 3)


# -- the no-growing-backlog rule ---------------------------------------------
def test_flat_backlog_does_not_grow():
    noisy = [0, 1, 2, 1, 0, 3, 1, 0, 2, 1, 1, 0] * 20
    assert not backlog_grows(noisy, arrivals=len(noisy))


def test_rising_backlog_grows():
    rising = list(range(240))
    assert backlog_grows(rising, arrivals=len(rising))
    # a rise within the slack is not growth
    assert not backlog_grows([0] * 100 + [2] * 100, arrivals=200)


def test_a_rate_needs_the_limit_and_a_flat_backlog():
    assert rung_passes(9.0, False, limit_ms=10.0)
    assert not rung_passes(12.0, False, limit_ms=10.0)
    assert not rung_passes(5.0, True, limit_ms=10.0)


@pytest.mark.parametrize("capacity", [250.0, 700.0, 1111.0, 2000.0])
def test_rate_search_lands_within_its_resolution_below_the_knee(capacity):
    tried = []

    def passes(rate):
        tried.append(rate)
        return rate <= capacity

    found = find_max_rate(passes, base=200.0)
    resolution = LADDER_FACTOR ** (1.0 / 2 ** BISECT_STEPS)
    assert capacity / resolution <= found <= capacity
    assert found in tried
    # rungs stop at the first failure, then a fixed number of bisections
    assert sum(1 for r in tried if r > capacity) >= 1
    assert len(tried) <= LADDER_RUNGS + BISECT_STEPS


def test_rate_search_stops_at_the_top_rung():
    assert find_max_rate(lambda rate: True, base=200.0) == pytest.approx(
        200.0 * LADDER_FACTOR ** LADDER_RUNGS)
    assert find_max_rate(lambda rate: False, base=200.0) == 200.0


# -- the declared metrics ------------------------------------------------------
def test_every_metric_computed_from_spans_is_declared():
    from layers import per_layer_metrics
    from run import report

    metrics = report(per_layer_metrics([], (0.0, 1.0)), "per_layer",
                     default=0.0)
    assert all(m["unit"] for m in metrics.values())
    with pytest.raises(KeyError):
        report({"no.such.metric": 1.0}, "per_layer", default=0.0)
    with pytest.raises(KeyError):
        report({}, "end_to_end")
