"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import inputs  # noqa: E402
from perfbench.common import (  # noqa: E402
    LeakGuard,
    NullTracer,
    Tally,
    Tracer,
    tail,
    tail_percentile,
    within_bound,
)


# -- percentile rule: at least ten samples beyond the reported percentile ----


@pytest.mark.parametrize("n, expected", [
    (5000, 99.0), (1000, 99.0), (999, 90.0), (100, 90.0),
    (99, 50.0), (20, 50.0), (19, None), (0, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) >= 10 * 100


def test_tail_is_the_median_of_chunk_percentiles():
    """One slow stretch moves one chunk's p99, not the reported p99."""
    rng = np.random.default_rng(0)
    samples = list(rng.random(3000))
    samples[1000:1100] = [50.0] * 100  # a stall inside the second chunk
    p, value = tail(samples)
    assert p == 99.0
    per_chunk = [np.percentile(samples[i:i + 1000], 99) for i in (0, 1000, 2000)]
    assert per_chunk[1] == 50.0
    assert value == pytest.approx(np.median(per_chunk))
    assert value < 1.0


def test_tail_falls_back_to_median_and_says_so():
    samples = list(range(1, 11))  # too few even for the median rule
    p, value = tail(samples)
    assert p == 50.0
    assert value == pytest.approx(np.median(samples))
    p, value = tail(list(range(1000)))
    assert p == 99.0
    assert value == pytest.approx(np.percentile(np.arange(1000), 99))


# -- failed_frac accounting ---------------------------------------------------


def test_tally_counts_bound_violations_and_errors():
    t = Tally()
    x = np.linspace(0, 1, 50)
    assert t.check(x, x + 0.5e-10, 1e-10, "ok")
    assert not t.check(x, x + 2e-10, 1e-10, "bad")
    assert not t.check(x, x[:-1], 1e-10, "short")  # wrong size is a failure
    t.fail("refused: BUSY")
    t.ok(3)
    assert (t.attempted, t.failed) == (7, 3)
    assert t.failed_frac == pytest.approx(3 / 7)
    assert t.errors["refused: BUSY"] == 1


def test_within_bound_is_pointwise():
    x = np.zeros(10)
    y = x.copy()
    y[7] = 1e-10
    assert within_bound(x, y, 1e-10)
    y[7] = 1.0000001e-10
    assert not within_bound(x, y, 1e-10)


class _RefusingClient:
    """A gateway client whose every call is refused, alternately BUSY and
    DEADLINE; ``stop`` is set after ``limit`` calls."""

    def __init__(self, stop=None, limit=40):
        self.calls, self.stop, self.limit = 0, stop, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def _refuse(self, *args, **kwargs):
        from repro.errors import DeadlineExceeded, ServerBusyError

        self.calls += 1
        if self.stop is not None and self.calls >= self.limit:
            self.stop.set()
        if self.calls % 2:
            raise ServerBusyError("queue full")
        raise DeadlineExceeded("queue wait over deadline")

    get = put = _refuse


def test_refused_gateway_ops_count_as_failures():
    """A BUSY or DEADLINE reply is a failed operation, never a retry."""
    from perfbench import fleet

    ctx = SimpleNamespace(seed=1, tally=Tally())
    keys = inputs.quartet_keys(np.random.default_rng(0), 20)
    pool = np.zeros((4, inputs.BLOCK_ELEMS))
    client = _RefusingClient()
    fake = SimpleNamespace(client=lambda: client)
    values = fleet._preload(ctx, fake, keys, pool, np.random.default_rng(1))
    assert (ctx.tally.attempted, ctx.tally.failed) == (20, 20)
    assert values == [{}, {}]  # nothing refused counts as written

    stop = threading.Event()
    readers = fleet.Readers(ctx, SimpleNamespace(client=lambda: _RefusingClient(stop)),
                            keys, [{k: pool[0] for k in range(ci, 20, fleet.CLIENTS)}
                                   for ci in range(fleet.CLIENTS)])
    readers.stop = stop
    readers._run(0)
    assert ctx.tally.attempted == ctx.tally.failed == 20 + 40
    assert ctx.tally.failed_frac == 1.0
    assert readers.reads == [0, 0]


# -- seeded inputs ------------------------------------------------------------


def _digest(seed: int) -> str:
    rng = np.random.default_rng(seed)
    real = inputs.real_blocks(ROOT)
    h = hashlib.sha256()
    h.update(inputs.block_pool(rng, real, 300, synth_seed=seed).tobytes())
    h.update(repr(inputs.quartet_keys(rng, 100)).encode())
    h.update(inputs.zipf_ranks(rng, 50, 200).tobytes())
    return h.hexdigest()


def test_same_seed_same_bytes_other_seed_other_bytes():
    assert _digest(7) == _digest(7)
    assert _digest(7) != _digest(8)


def test_block_pool_mixes_real_and_synthetic_blocks():
    rng = np.random.default_rng(3)
    real = inputs.real_blocks(ROOT)
    pool = inputs.block_pool(rng, real, 400, synth_seed=3)
    assert pool.shape == (400, inputs.BLOCK_ELEMS)
    real_rows = {r.tobytes() for r in real}
    picked = [r.tobytes() for r in pool if r.tobytes() in real_rows]
    assert len(picked) == inputs.n_real(400, len(real)) == round(400 * 520 / 3000)
    assert len(set(picked)) == len(picked)  # no real block repeats


def test_stream_holds_every_real_block_once():
    real = inputs.real_blocks(ROOT)
    assert inputs.n_real(inputs.MIX_BLOCKS, len(real)) == len(real) == 520


def test_pack_unpack_stream_is_seeded():
    from perfbench.w_pack_unpack import make_stream

    a = make_stream(ROOT, 5)
    assert np.array_equal(a, make_stream(ROOT, 5))
    assert not np.array_equal(a, make_stream(ROOT, 6))


# -- tracing ------------------------------------------------------------------


def test_tracer_self_time_subtracts_children():
    import time

    tr = Tracer("t")
    with tr.span("outer", "bench"):
        time.sleep(0.02)
        with tr.span("inner", "core"):
            time.sleep(0.03)
    st = tr.self_times()
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent is None
    assert st["core"] == pytest.approx(inner.end - inner.start)
    assert st["bench"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
    shares = tr.shares(("core", "bench", "cluster"))
    assert shares["cluster"] == 0.0
    assert sum(shares.values()) == pytest.approx(1.0)


def test_traced_codec_spans_core_inside_the_caller():
    from repro import PaSTRICompressor

    tr = Tracer("t")
    codec = tr.wrap_codec(PaSTRICompressor(config=inputs.CONFIG))
    shaped = codec.reshaped(inputs.DIMS)
    block = np.linspace(0.0, 1e-6, inputs.BLOCK_ELEMS)
    with tr.span("store.get", "pipeline"):
        out = shaped.decompress(shaped.compress(block, 1e-10))
    assert within_bound(block, out, 1e-10)
    assert codec.name == "pastri"  # everything else passes through
    assert [(s.name, s.layer, s.parent) for s in tr.spans] == [
        ("store.get", "pipeline", None),
        ("codec.compress", "core", 0),
        ("codec.decompress", "core", 0),
    ]
    assert NullTracer().wrap_codec(codec) is codec


# -- leaks --------------------------------------------------------------------


def test_leak_guard_reports_what_is_left_in_its_temp_dir(tmp_path):
    guard = LeakGuard()
    guard.own_dir(str(tmp_path))
    assert guard.leaks(settle_s=0.0) == []
    (tmp_path / "tmpabc").mkdir()
    leaks = guard.leaks(settle_s=0.0)
    assert leaks == [f"temp entry {tmp_path / 'tmpabc'} left behind"]
