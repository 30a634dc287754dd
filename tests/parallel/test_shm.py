"""Shared-memory transport lifecycle: no orphans, identical fallback.

The hard guarantees under test (ISSUE 7 acceptance criteria):

* pool shutdown, worker crash, and KeyboardInterrupt all leave zero
  orphaned ``/dev/shm`` segments with our :data:`SEGMENT_PREFIX`;
* the pickling fallback produces byte-identical blobs to the
  shared-memory path.
"""

import glob
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.api import get_codec
from repro.parallel import shm
from repro.parallel.pool import CodecWorkerPool, shared_pool, shutdown_shared_pools

DIMS = (2, 2, 2, 2)
EB = 1e-10


def _segment_names() -> set[str]:
    return set(glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*"))


_BASELINE: set[str] = set()


def _dev_shm_orphans() -> list[str]:
    """Segments beyond the pre-test baseline (other processes — e.g. a
    concurrently running test session — may own live segments legitimately)."""
    return sorted(_segment_names() - _BASELINE)


@pytest.fixture(autouse=True)
def _clean_slate():
    global _BASELINE
    # earlier suite tests legitimately hold warm persistent pools (that's
    # the point of shared_pool); start each test from an empty ledger
    shutdown_shared_pools()
    assert shm.active_segments() == []
    _BASELINE = _segment_names()
    yield
    shutdown_shared_pools()
    assert shm.active_segments() == []
    assert not _dev_shm_orphans()


def _refuse_segments(monkeypatch) -> list[int]:
    """Make every segment creation fail as an exhausted ``/dev/shm`` does;
    returns the list the refused sizes are appended to."""
    refused: list[int] = []

    def no_space(size):
        refused.append(size)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(shm, "_new_segment", no_space)
    return refused


def _stream(n_blocks: int = 50, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    codec = get_codec("pastri", dims=DIMS)
    n = codec.spec.block_size * n_blocks
    return rng.normal(scale=1e-4, size=n) * np.exp(rng.normal(size=n))


class TestSegmentPool:
    def test_lease_roundtrip_and_reuse(self):
        pool = shm.ShmSegmentPool()
        data = np.arange(1000, dtype=np.float64)
        lease = pool.acquire(data.nbytes)
        ref = lease.put_array(data)
        with shm.mapped([ref]) as views:
            np.testing.assert_array_equal(views[0], data)
        name = lease.name
        lease.release()
        # same size class -> the very same warm segment comes back
        lease2 = pool.acquire(data.nbytes)
        assert lease2.name == name
        lease2.release()
        assert pool.close() == []
        assert shm.active_segments() == []

    def test_close_reports_stray_leases(self):
        pool = shm.ShmSegmentPool()
        lease = pool.acquire(1024)
        stray = pool.close()
        assert stray == [lease.name]
        assert not _dev_shm_orphans()  # reported AND unlinked

    def test_bytes_ref_roundtrip(self):
        pool = shm.ShmSegmentPool()
        blob = os.urandom(5000)
        lease = pool.acquire(len(blob))
        ref = lease.put_bytes(blob)
        with shm.mapped([ref]) as views:
            assert bytes(views[0]) == blob
        lease.release()
        pool.close()

    def test_overflow_rejected(self):
        pool = shm.ShmSegmentPool()
        lease = pool.acquire(64)
        with pytest.raises(Exception):
            lease.put_bytes(b"x" * (lease.capacity + 1))
        lease.release()
        pool.close()


class TestPoolLifecycle:
    def test_clean_shutdown_leaves_no_segments(self):
        pool = CodecWorkerPool("pastri", {"dims": list(DIMS)}, n_workers=2)
        data = _stream()
        blobs = pool.compress_batch([(data, EB, None)] * 3)
        arrays = pool.decompress_batch(blobs)
        for arr in arrays:
            assert np.max(np.abs(arr - data)) <= EB
        pool.close()
        assert shm.active_segments() == []
        assert not _dev_shm_orphans()

    def test_worker_crash_leaves_no_segments(self):
        pool = CodecWorkerPool("pastri", {"dims": list(DIMS)}, n_workers=2)
        # a corrupt blob makes the worker task raise; Pool.map re-raises here
        with pytest.raises(Exception):
            pool.decompress_batch([b"\x00" * 100])
        # the lease must have been released on the error path
        assert pool._shm.leaked == []
        pool.terminate()
        assert shm.active_segments() == []
        assert not _dev_shm_orphans()

    def test_fallback_blobs_byte_identical(self, monkeypatch):
        data = _stream()
        jobs = [(data, EB, None), (data * 0.5, EB, list(DIMS))]
        with CodecWorkerPool("pastri", {"dims": list(DIMS)}, 2) as p:
            via_shm = p.compress_batch(jobs)
        refused = _refuse_segments(monkeypatch)
        with CodecWorkerPool("pastri", {"dims": list(DIMS)}, 2) as p:
            via_pickle = p.compress_batch(jobs)
        assert refused  # the pickle path was taken
        assert via_shm == via_pickle
        # and both match the in-process codec exactly
        codec = get_codec("pastri", dims=DIMS)
        assert via_shm[0] == codec.compress(data, EB)

    def test_decompress_fallback_identical(self, monkeypatch, tmp_path):
        from repro.parallel.pool import parallel_decompress_container
        from repro.streamio import ContainerWriter

        data = _stream(seed=7)
        codec = get_codec("pastri", dims=DIMS)
        blobs = [codec.compress(data, EB)]
        parts = np.array_split(data, 3)
        path = str(tmp_path / "f.pstf")
        with ContainerWriter.create(path, codec, EB) as w:
            for part in parts:
                w.append(part)
        refused = _refuse_segments(monkeypatch)
        with CodecWorkerPool("pastri", {"dims": list(DIMS)}, 2) as p:
            out = p.decompress_batch(blobs)[0]
        assert refused
        np.testing.assert_array_equal(out, codec.decompress(blobs[0]))
        # a container load whose output segment is refused returns by pickle
        refused.clear()
        loaded = parallel_decompress_container(path, 2)
        assert refused
        expected = [codec.decompress(codec.compress(part, EB)) for part in parts]
        np.testing.assert_array_equal(loaded, np.concatenate(expected))

    def test_shared_pool_is_persistent(self):
        p1 = shared_pool("pastri", {"dims": list(DIMS)}, 2)
        p2 = shared_pool("pastri", {"dims": list(DIMS)}, 2)
        assert p1 is p2
        p3 = shared_pool("pastri", {"dims": list(DIMS)}, 3)
        assert p3 is not p1
        shutdown_shared_pools()
        p4 = shared_pool("pastri", {"dims": list(DIMS)}, 2)
        assert p4 is not p1  # closed pools are replaced, not resurrected


class TestInterrupt:
    def test_keyboard_interrupt_leaves_no_segments(self, tmp_path):
        """SIGINT mid-batch: the atexit sweep still clears every segment."""
        script = textwrap.dedent(
            f"""
            import os, signal, threading
            import numpy as np
            from repro.api import get_codec
            from repro.parallel.pool import CodecWorkerPool

            codec = get_codec("pastri", dims={DIMS!r})
            data = np.random.default_rng(0).normal(
                scale=1e-4, size=codec.spec.block_size * 400)
            pool = CodecWorkerPool("pastri", {{"dims": list({DIMS!r})}}, 2)
            # raise KeyboardInterrupt in the main thread mid-batch
            threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGINT)).start()
            try:
                for _ in range(100):
                    pool.compress_batch([(data, {EB}, None)] * 4)
            except KeyboardInterrupt:
                pass
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=120,
            capture_output=True, text=True,
        )
        assert "Traceback" not in proc.stderr, proc.stderr
        assert not _dev_shm_orphans()


class TestSharedOutput:
    def test_scatter_and_finish(self):
        out = shm.SharedOutput(10)
        with shm.mapped([out.ref(0, 4), out.ref(4, 6)]) as views:
            views[0][:] = np.arange(4)
            views[1][:] = np.arange(6) + 100.0
        result = out.finish()
        np.testing.assert_array_equal(result[:4], np.arange(4.0))
        np.testing.assert_array_equal(result[4:], np.arange(6.0) + 100.0)
        del result
        assert shm.active_segments() == []
        assert not _dev_shm_orphans()

    def test_abort_unlinks(self):
        out = shm.SharedOutput(100)
        out.abort()
        assert shm.active_segments() == []
        assert not _dev_shm_orphans()


class TestShipAdopt:
    def test_ownership_transfer(self):
        data = np.random.default_rng(1).normal(size=100_000)  # > SHIP_MIN_BYTES
        ref = shm.ship_array(data)
        arr = shm.adopt_array(ref)
        np.testing.assert_array_equal(arr, data)
        # adopt unlinked immediately: nothing on disk even while arr lives
        assert not _dev_shm_orphans()
        del arr


def _held_by(pid: int) -> list[str]:
    """Every fd target and file-backed mapping of process ``pid``."""
    fd_dir = f"/proc/{pid}/fd"
    held = []
    for fd in os.listdir(fd_dir):
        try:
            held.append(os.readlink(os.path.join(fd_dir, fd)))
        except OSError:  # closed between listdir and readlink
            pass
    with open(f"/proc/{pid}/maps") as fh:
        held.extend(line.split(None, 5)[5].strip() for line in fh
                    if len(line.split(None, 5)) == 6)
    return held


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
class TestWorkersHoldNothing:
    def test_no_container_or_output_outlives_its_load(self, tmp_path):
        """Pack+load cycles on one persistent pool, each container deleted
        afterwards: no worker keeps a container fd or mmap, nor a mapping
        of a finished ``SharedOutput`` segment."""
        import multiprocessing as mp

        from repro.parallel.pool import (
            parallel_compress_to_container,
            parallel_decompress_container,
        )

        data = _stream(n_blocks=64)
        block = get_codec("pastri", dims=DIMS).spec.block_size
        for i in range(5):
            path = str(tmp_path / f"c{i}.pstf")
            parallel_compress_to_container(
                "pastri", data, EB, 2, block, path,
                codec_kwargs={"dims": list(DIMS)}, n_frames=4,
            )
            out = parallel_decompress_container(path, 2)
            assert np.max(np.abs(out - data)) <= EB
            del out
            os.remove(path)

        workers = mp.active_children()
        assert len(workers) >= 2
        for proc in workers:
            stale = [
                h for h in _held_by(proc.pid)
                if str(tmp_path) in h
                or (shm.SEGMENT_PREFIX in h and h.endswith("(deleted)"))
            ]
            assert stale == [], f"worker {proc.pid} still holds {stale}"
