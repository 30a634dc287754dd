"""SegmentedCache unit tests: budgets, scan resistance, admission."""

import pytest

from repro.errors import ParameterError
from repro.pipeline import SegmentedCache


def val(n):
    return b"x" * n


# ---------------------------------------------------------------------------
# construction and basic mechanics


def test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        SegmentedCache(-1)


def test_put_get_pop_roundtrip():
    c = SegmentedCache(1000)
    c.put("a", val(10))
    assert "a" in c
    assert c.get("a") == val(10)
    assert c.bytes == 10
    assert c.pop("a") == val(10)
    assert "a" not in c
    assert c.bytes == 0
    assert c.pop("missing") is None
    assert c.get("missing") is None
    assert c.stats.hits == 1 and c.stats.misses == 1


def test_overwrite_replaces_cost():
    c = SegmentedCache(1000)
    c.put("a", val(100))
    c.put("a", val(40))
    assert c.bytes == 40
    assert len(c) == 1
    assert c.get("a") == val(40)


def test_sizeof_hook_controls_cost():
    c = SegmentedCache(3, sizeof=lambda v: 1)  # entry-count budget
    for k in "abcd":
        c.put(k, val(100))
    assert len(c) <= 3


def test_peek_does_not_touch_recency():
    c = SegmentedCache(800)  # window budget 100
    c.put("a", val(40))
    c.put("b", val(40))
    freq = c._freq.estimate("a")
    assert c.peek("a") == val(40)
    assert c.peek("zz") is None
    assert c._freq.estimate("a") == freq  # no frequency credit
    assert c.stats.hits == c.stats.misses == 0
    # "a" stays the oldest window entry: the next overflow moves it on to
    # probation, not "b"
    c.put("c", val(40))
    assert c.keys() == ["b", "c", "a"]


# ---------------------------------------------------------------------------
# the budget invariant


def test_budget_never_exceeded():
    c = SegmentedCache(256)
    for i in range(200):
        c.put(i, val(1 + (i * 37) % 90))
        assert c.bytes <= 256
        if i % 3 == 0:
            c.get((i * 7) % 50)
            assert c.bytes <= 256
    assert c.bytes == sum(len(c.peek(k)) for k in c.keys())


def test_zero_budget_holds_nothing_after_shrink():
    c = SegmentedCache(0)
    c.put("a", val(10))
    # the shrink loops keep >=1 entry per segment to avoid livelock on
    # oversized values, but the budget is still respected for multi-entry
    # populations: a second insert displaces the first
    c.put("b", val(10))
    assert len(c) <= 1


# ---------------------------------------------------------------------------
# scan resistance (the reason this class exists)


def test_one_time_scan_cannot_flush_the_working_set():
    c = SegmentedCache(1000)
    hot = [f"hot{i}" for i in range(5)]
    for k in hot:
        c.put(k, val(100))
    for _ in range(10):  # establish frequency
        for k in hot:
            assert c.get(k) is not None
    # a full scan of 200 cold one-shot keys
    for i in range(200):
        c.put(f"scan{i}", val(100))
    survivors = sum(1 for k in hot if k in c)
    assert survivors == len(hot), "scan displaced the frequently-hit set"
    assert c.stats.rejections > 0  # the filter actually did the work


def test_cyclic_sweep_pins_a_stable_subset():
    """N-wide cyclic reuse with capacity < N: 2Q keeps a pinned subset hot."""

    c = SegmentedCache(800)
    for _ in range(8):
        for i in range(20):  # 20 x 100 B over an 800 B budget
            k = f"b{i}"
            if c.get(k) is None:
                c.put(k, val(100))
    assert c.stats.hits > 25


# ---------------------------------------------------------------------------
# sticky entries and the discard callback


def test_sticky_bypasses_admission_and_unstick_reverts():
    dropped = []
    c = SegmentedCache(400, on_discard=lambda k, v: dropped.append(k))
    for i in range(20):  # established, popular main region
        c.put(f"m{i}", val(100))
        for _ in range(5):
            c.get(f"m{i}")
    c.put("dirty", val(100), sticky=True)
    for i in range(20):  # pressure that would reject a normal newcomer
        c.put(f"n{i}", val(100))
    assert "dirty" in c, "sticky entry was lost to the admission filter"
    c.unstick("dirty")
    # once unstuck it competes normally: hotter newcomers push it out
    for i in range(40):
        c.put(f"p{i}", val(100))
        for _ in range(10):
            c.get(f"p{i}")
    assert "dirty" not in c
    assert "dirty" in dropped


def test_on_discard_fires_for_capacity_departures_only():
    dropped = []
    c = SegmentedCache(300, on_discard=lambda k, v: dropped.append((k, v)))
    c.put("a", val(100))
    c.pop("a")  # explicit removal: no callback
    assert dropped == []
    for i in range(10):
        c.put(i, val(100))
    assert len(dropped) >= 7  # the rest left for capacity reasons
    # every departed value is handed over intact
    assert all(v == val(100) for _, v in dropped)
    total = c.stats.evictions + c.stats.rejections
    assert total == len(dropped)
