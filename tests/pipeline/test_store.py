"""Unit tests for the compressed ERI store (repro.pipeline.store).

The ``store`` fixture runs every test against both backends — the in-memory
dict and the container-backed spill-to-disk variant (with a budget small
enough that entries actually spill) — so the backends are behaviorally
interchangeable by construction.  Backend-specific tests (spill traffic,
save/load, the hot array cache) live in ``test_store_backends.py``.
"""

import numpy as np
import pytest

from repro.core import PaSTRICompressor
from repro.pipeline import CompressedERIStore, ContainerBackend
from tests.conftest import make_patterned_stream

EB = 1e-10


@pytest.fixture(params=["memory", "container"])
def store(request, tmp_path):
    backend = None
    if request.param == "container":
        backend = ContainerBackend(
            str(tmp_path / "spill.pstf"), memory_budget_bytes=2048
        )
    s = CompressedERIStore(
        PaSTRICompressor(dims=(6, 6, 6, 6)), error_bound=EB, backend=backend
    )
    yield s
    s.close()


def test_put_get_roundtrip(store, rng):
    block = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
    store.put((0, 1, 2, 3), block)
    out = store.get((0, 1, 2, 3))
    assert np.max(np.abs(out - block)) <= EB


def test_get_unknown_key_raises(store):
    with pytest.raises(KeyError):
        store.get("nope")


def test_get_or_compute_computes_once(store, rng):
    block = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
    calls = []

    def compute():
        calls.append(1)
        return block

    a = store.get_or_compute("k", compute)
    b = store.get_or_compute("k", compute)
    assert len(calls) == 1
    # every access — including the first — sees the decompressed value,
    # so reuse is bit-identical
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - block)) <= EB


def test_stats_accounting(store, rng):
    b1 = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
    b2 = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
    store.put("a", b1)
    store.put("b", b2)
    store.get("a")
    st = store.stats
    assert st.n_entries == 2 and st.puts == 2 and st.gets == 1
    assert st.original_bytes == b1.nbytes + b2.nbytes
    assert st.ratio > 5


def test_empty_store_ratio_is_zero():
    """No traffic must not divide by zero (PR 3 satellite fix)."""
    from repro.pipeline.store import StoreStats

    st = StoreStats()
    assert st.compressed_bytes == 0
    assert st.ratio == 0.0


def test_hit_rate_zero_traffic_guard():
    from repro.pipeline.store import StoreStats

    st = StoreStats()
    assert st.hit_rate == 0.0
    st.cache_hits = 3
    st.cache_misses = 1
    assert st.hit_rate == pytest.approx(0.75)


def test_hit_rate_tracks_live_store(rng):
    block = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
    s = CompressedERIStore(
        PaSTRICompressor(dims=(6, 6, 6, 6)), error_bound=EB, hot_cache_blocks=4
    )
    try:
        assert s.stats.hit_rate == 0.0
        s.put("k", block)
        s.get("k")  # miss: first decompression populates the hot cache
        s.get("k")  # hit
        s.get("k")  # hit
        assert s.stats.cache_hits == 2
        assert s.stats.cache_misses == 1
        assert s.stats.hit_rate == pytest.approx(2 / 3)
    finally:
        s.close()


def test_overwrite_replaces_accounting(store, rng):
    block = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
    store.put("k", block)
    first = store.stats.compressed_bytes
    store.put("k", block)
    assert store.stats.n_entries == 1
    assert store.stats.compressed_bytes == first


def test_contains_len_keys(store, rng):
    block = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
    store.put((1, 2, 3, 4), block)
    assert (1, 2, 3, 4) in store
    assert len(store) == 1
    assert list(store.keys()) == [(1, 2, 3, 4)]
