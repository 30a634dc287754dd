"""Zero-copy data-plane smoke test (``make scaling-smoke``).

Runs a 2-worker compress + decompress round-trip over the shared-memory
segment pool with telemetry on, then gates on the transport actually
being zero-copy and leak-free:

* the results are byte-identical to the in-process codec (and the
  decompressed stream honors the error bound);
* ``store.shm.bytes_borrowed`` >= ``store.shm.bytes_copied`` — the bulk
  of the traffic rode shared memory, not pickle;
* after ``shutdown_shared_pools()`` no segment survives: the in-process
  ledger is empty and ``/dev/shm`` holds no new ``pastri-shm-*`` entries.
"""

import glob
import os
import sys

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro import telemetry  # noqa: E402
from repro.api import get_codec  # noqa: E402
from repro.parallel import shm  # noqa: E402
from repro.parallel.pool import shared_pool, shutdown_shared_pools  # noqa: E402

DIMS = (2, 2, 2, 2)
EB = 1e-10
N_WORKERS = 2


def _dev_shm_segments() -> set[str]:
    return set(glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*"))


def main() -> int:
    codec = get_codec("pastri", dims=DIMS)
    rng = np.random.default_rng(42)
    # > SHIP_MIN_BYTES per stream, so decompressed results ride shm too
    n = codec.spec.block_size * 800
    data = rng.normal(scale=1e-4, size=n) * np.exp(rng.normal(size=n))

    baseline = _dev_shm_segments()

    telemetry.enable()
    telemetry.reset()

    pool = shared_pool("pastri", {"dims": list(DIMS)}, N_WORKERS)
    jobs = [(data, EB, None), (data * 0.25, EB, list(DIMS))]
    blobs = pool.compress_batch(jobs)
    arrays = pool.decompress_batch(blobs)

    # correctness first: identical to the in-process codec, bound honored
    for (src, _, _), blob, out in zip(jobs, blobs, arrays):
        if blob != codec.compress(src, EB):
            print("FAIL: pooled blob differs from in-process codec", file=sys.stderr)
            return 1
        if np.max(np.abs(out - src)) > EB:
            print("FAIL: error bound violated through the pool", file=sys.stderr)
            return 1

    snap = telemetry.metrics_snapshot()
    borrowed = snap.get("store.shm.bytes_borrowed", {}).get("value", 0)
    copied = snap.get("store.shm.bytes_copied", {}).get("value", 0)
    telemetry.disable()
    telemetry.reset()

    if borrowed < copied or borrowed == 0:
        print(
            f"FAIL: transport not zero-copy: borrowed={borrowed} B "
            f"< copied={copied} B",
            file=sys.stderr,
        )
        return 1

    shutdown_shared_pools()
    if shm.active_segments():
        print(f"FAIL: leaked segments: {shm.active_segments()}", file=sys.stderr)
        return 1
    orphans = sorted(_dev_shm_segments() - baseline)
    if orphans:
        print(f"FAIL: orphaned /dev/shm entries: {orphans}", file=sys.stderr)
        return 1

    mb = data.nbytes * len(jobs) / 1e6
    print(
        f"OK: {N_WORKERS}-worker shm round-trip ({mb:.1f} MB), byte-identical, "
        f"borrowed {borrowed} B >= copied {copied} B, zero leaked segments"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
