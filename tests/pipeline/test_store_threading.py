"""Concurrency regression: the store's coarse lock under thread hammering.

Eight threads interleave put/get/get_or_compute/contains against one shared
:class:`CompressedERIStore` (both backends).  Everything must round-trip
within the bound, and the :class:`StoreStats` counters must come out exactly
consistent with the operations performed — lost updates under the old
unlocked implementation showed up precisely here.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import PaSTRICompressor
from repro.pipeline import CompressedERIStore, ContainerBackend
from tests.conftest import make_patterned_stream

EB = 1e-10
DIMS = (2, 2, 3, 3)
N_THREADS = 8
OPS_PER_THREAD = 25


@pytest.fixture(params=["memory", "container"])
def store(request, tmp_path):
    backend = None
    if request.param == "container":
        # tiny budget: the threads force spills + disk reads concurrently
        backend = ContainerBackend(
            str(tmp_path / "spill.pstf"), memory_budget_bytes=512
        )
    s = CompressedERIStore(
        PaSTRICompressor(dims=DIMS), error_bound=EB, backend=backend,
        hot_cache_blocks=4,
    )
    yield s
    s.close()


def _blocks(n):
    rng = np.random.default_rng(1234)
    return [
        make_patterned_stream(rng, n_blocks=1, dims=DIMS, zero_blocks=0)
        for _ in range(n)
    ]


def test_8_threads_put_get_roundtrip_and_stats(store):
    blocks = _blocks(N_THREADS * OPS_PER_THREAD)
    barrier = threading.Barrier(N_THREADS)
    failures = []

    def worker(tid):
        barrier.wait()  # maximise interleaving
        for i in range(OPS_PER_THREAD):
            key = (tid, i)
            block = blocks[tid * OPS_PER_THREAD + i]
            store.put(key, block, dims=DIMS)
            out = store.get(key)
            err = float(np.max(np.abs(out - block)))
            if err > EB:
                failures.append((key, err))

    with ThreadPoolExecutor(N_THREADS) as ex:
        list(ex.map(worker, range(N_THREADS)))

    assert not failures, f"bound violated under concurrency: {failures[:3]}"
    total = N_THREADS * OPS_PER_THREAD
    # distinct keys: every put is a fresh entry, every get must be counted
    assert store.stats.puts == total
    assert store.stats.gets == total
    assert store.stats.n_entries == total
    assert len(store) == total
    assert store.stats.compressed_bytes > 0
    # re-read everything single-threaded: no entry was lost or torn
    for tid in range(N_THREADS):
        for i in range(OPS_PER_THREAD):
            block = blocks[tid * OPS_PER_THREAD + i]
            assert np.max(np.abs(store.get((tid, i)) - block)) <= EB


def test_threads_overwriting_shared_keys(store):
    """All threads fight over the same 4 keys; entry count must not drift."""
    blocks = _blocks(N_THREADS)
    barrier = threading.Barrier(N_THREADS)

    def worker(tid):
        barrier.wait()
        for i in range(OPS_PER_THREAD):
            key = i % 4
            store.put(key, blocks[tid], dims=DIMS)
            out = store.get(key)  # some thread's block, but a valid one
            assert out.shape == blocks[tid].shape

    with ThreadPoolExecutor(N_THREADS) as ex:
        list(ex.map(worker, range(N_THREADS)))

    total = N_THREADS * OPS_PER_THREAD
    assert store.stats.puts == total
    assert store.stats.gets == total
    assert store.stats.n_entries == 4  # overwrites never double-count
    assert len(store) == 4
    for key in range(4):
        out = store.get(key)
        assert any(np.max(np.abs(out - b)) <= EB for b in blocks)


def test_get_or_compute_under_contention(store):
    """Concurrent get_or_compute on one key computes at most once per miss."""
    block = _blocks(1)[0]
    calls = []
    barrier = threading.Barrier(N_THREADS)

    def compute():
        calls.append(1)
        return block

    def worker(_tid):
        barrier.wait()
        out = store.get_or_compute("shared", compute)
        assert np.max(np.abs(out - block)) <= EB

    with ThreadPoolExecutor(N_THREADS) as ex:
        list(ex.map(worker, range(N_THREADS)))

    # the coarse lock serializes the check-compute-put sequence
    assert len(calls) == 1
    assert store.stats.n_entries == 1


class _CountingCodec:
    """Lossless float64 passthrough that counts its decodes."""

    name = "counting"

    def __init__(self):
        self.decodes = 0
        self._lock = threading.Lock()

    def compress(self, data, error_bound):
        return np.asarray(data, dtype=np.float64).tobytes()

    def decompress(self, blob):
        with self._lock:
            self.decodes += 1
        return np.frombuffer(blob, dtype=np.float64).copy()


def test_racing_misses_decode_once_and_account_hot_bytes_exactly():
    """8 readers race over 4 cold keys: each key is decoded exactly once and
    the ``hot_bytes`` gauge equals the bytes actually resident, in every
    trial.  A reader arriving between the end of a decode and its cache
    insert must wait for the insert, not start a second decode."""
    n_keys, n_trials = 4, 200
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force thread switches inside get()
    try:
        for trial in range(n_trials):
            codec = _CountingCodec()
            store = CompressedERIStore(codec, EB, hot_cache_bytes=1 << 20)
            for k in range(n_keys):
                store.put(k, np.full(64, float(k)))
            barrier = threading.Barrier(N_THREADS)

            def reader(_tid):
                barrier.wait()
                for k in range(n_keys):
                    store.get(k)

            with ThreadPoolExecutor(N_THREADS) as ex:
                list(ex.map(reader, range(N_THREADS)))
            tier = store._hot_arrays
            resident = sum(tier.peek(k).nbytes for k in tier.keys())
            assert codec.decodes == n_keys, f"trial {trial}: duplicate decode"
            assert store.stats.hot_bytes == resident, f"trial {trial}"
            store.close()
    finally:
        sys.setswitchinterval(old)
