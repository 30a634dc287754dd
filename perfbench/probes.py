"""Per-layer probes for the traced run.

Each probe times calls into one layer's public functions from outside the
program, on the inputs of the workload being traced (:func:`layer_probes`
runs them all).  Every decode here is cold: it runs on a freshly
constructed codec, so the codec's per-instance parse memo can never serve
it.

Run as a script (``python3 perfbench/probes.py shm --root R --seed N``) it
is the shared-memory counter probe: a separate process that turns the
program's telemetry on, runs one 2-worker pack and unpack of the seed's
``pack_unpack`` input and prints the ``store.shm.*`` counters.  It runs
apart from the load-generating process because enabling telemetry there
would switch on the codec instrumentation and measure a different program.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import subprocess
import sys
import time

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import inputs  # noqa: E402
from perfbench.common import median  # noqa: E402

#: Frames per container: eight per worker at two workers, more than the
#: codec's two-entry parse memo holds, so no worker re-decodes a frame it
#: still has memoised.
FRAMES = 16
WORKERS = 2
PROFILE_MAX_BYTES = 8 << 20
BLOCK_PROBES = 200
REPS = 3

#: (metric, functions whose cumulative profiler time it sums)
DECODE_PROFILE = (
    ("core.prof.ecq_decode.share", ("_decode_events",)),
    ("core.prof.index_pass.share", ("_index_pass",)),
    ("core.prof.reconstruct.share", ("_reconstruct",)),
)
ENCODE_PROFILE = (
    ("core.prof.bit_emit.share", ("encode_ecq_rows_bits", "varlen_bits")),
)


def _codec():
    from repro import PaSTRICompressor

    return PaSTRICompressor(config=inputs.CONFIG)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def profile_shares(fn, groups) -> dict:
    """cProfile shares: for each group, the cumulative time of its functions
    (minus calls among them, so nesting is not counted twice) over the
    profile's total.  Profiler shares, not wall-time fractions."""
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    st = pstats.Stats(prof)
    total = st.total_tt or 1.0
    out = {}
    for metric, names in groups:
        cum = 0.0
        for (_, _, fname), (_, _, _, ct, callers) in st.stats.items():
            if fname not in names:
                continue
            cum += ct
            for (_, _, caller), (_, _, _, cct) in callers.items():
                if caller in names:
                    cum -= cct
        out[metric] = cum / total
    return out


def core_probes(stream: np.ndarray, blocks: np.ndarray, tally) -> dict:
    """``core.*``: whole-stream and per-block compress/decompress, plus the
    profiler shares of the codec's stages."""
    mb = stream.nbytes / 1e6
    blob = _codec().compress(stream, inputs.ERROR_BOUND)
    comp = median(_timed(lambda: _codec().compress(stream, inputs.ERROR_BOUND))
                  for _ in range(REPS))
    dec_times = []
    for _ in range(REPS):
        codec = _codec()
        t0 = time.perf_counter()
        out = codec.decompress(blob)
        dec_times.append(time.perf_counter() - t0)
        tally.check(stream, out, inputs.ERROR_BOUND, "core decompress probe")

    sample = blocks[np.abs(blocks).max(axis=1) > 0][:BLOCK_PROBES]
    codec = _codec()
    c_us, d_us, blobs = [], [], []
    for b in sample:
        t0 = time.perf_counter()
        blobs.append(codec.compress(b, inputs.ERROR_BOUND))
        c_us.append((time.perf_counter() - t0) * 1e6)
    for b, bl in zip(sample, blobs):
        fresh = _codec()
        t0 = time.perf_counter()
        out = fresh.decompress(bl)
        d_us.append((time.perf_counter() - t0) * 1e6)
        tally.check(b, out, inputs.ERROR_BOUND, "core block decompress probe")

    part = stream[: (PROFILE_MAX_BYTES // 8 // inputs.BLOCK_ELEMS) * inputs.BLOCK_ELEMS]
    part_blob = _codec().compress(part, inputs.ERROR_BOUND)
    out = {
        "core.compress.ms_per_mb": comp * 1e3 / mb,
        "core.decompress_cold.ms_per_mb": median(dec_times) * 1e3 / mb,
        "core.block_compress.us": median(c_us),
        "core.block_decompress.us": median(d_us),
    }
    out.update(profile_shares(lambda: _codec().decompress(part_blob), DECODE_PROFILE))
    out.update(profile_shares(lambda: _codec().compress(part, inputs.ERROR_BOUND),
                              ENCODE_PROFILE))
    return out


def streamio_probes(stream: np.ndarray, workdir: str) -> dict:
    """``streamio.*``: PSTF-v2 write and CRC-checked read of precompressed
    frames, without any codec work in the timed region."""
    from repro.parallel.pool import split_stream
    from repro.streamio import ContainerWriter, open_container

    codec = _codec()
    chunks = split_stream(stream, FRAMES, inputs.BLOCK_ELEMS)
    blobs = [codec.compress(c, inputs.ERROR_BOUND) for c in chunks]
    path = os.path.join(workdir, "streamio-probe.pstf")
    mb = stream.nbytes / 1e6

    def write():
        with ContainerWriter.create(path, codec, inputs.ERROR_BOUND) as w:
            for c, b in zip(chunks, blobs):
                w.append_blob(b, c.size)

    def read():
        with open_container(path) as r:
            for i in range(len(r)):
                r.read_blob(i)

    w = median(_timed(write) for _ in range(REPS))
    r = median(_timed(read) for _ in range(REPS))
    size = os.path.getsize(path)
    os.remove(path)
    return {
        "streamio.write.ms_per_mb": w * 1e3 / mb,
        "streamio.read.ms_per_mb": r * 1e3 / mb,
        "streamio.bytes_per_user_byte": size / stream.nbytes,
    }


def parallel_speedups(stream: np.ndarray, workdir: str, tally) -> dict:
    """``parallel.*.speedup``: the same pack/unpack call at 1 worker over
    the same call at :data:`WORKERS` workers (medians of :data:`REPS`)."""
    from repro.parallel.pool import (
        parallel_compress_to_container,
        parallel_decompress_container,
    )

    path = os.path.join(workdir, "speedup-probe.pstf")
    times = {}
    for n in (1, WORKERS):
        pack, unpack = [], []
        for _ in range(REPS):
            pack.append(_timed(lambda: parallel_compress_to_container(
                "pastri", stream, inputs.ERROR_BOUND, n, inputs.BLOCK_ELEMS,
                path, codec_kwargs={"config": inputs.CONFIG}, n_frames=FRAMES)))
            t0 = time.perf_counter()
            out = parallel_decompress_container(path, n)
            unpack.append(time.perf_counter() - t0)
            tally.check(stream, out, inputs.ERROR_BOUND, "speedup probe unpack")
            del out
        times[n] = (median(pack), median(unpack))
    os.remove(path)
    return {
        "parallel.pack.speedup": times[1][0] / times[WORKERS][0],
        "parallel.unpack.speedup": times[1][1] / times[WORKERS][1],
    }


def start_pool(stream: np.ndarray) -> None:
    """Create the shared 2-worker compress pool and run its first job."""
    from repro.parallel.pool import shared_pool

    first = stream[: WORKERS * inputs.BLOCK_ELEMS]
    pool = shared_pool("pastri", {"config": inputs.CONFIG}, WORKERS)
    pool.compress_batch([(first, inputs.ERROR_BOUND, None)] * WORKERS)


def pool_start(stream: np.ndarray) -> float:
    """Seconds from creating a fresh worker pool to its first finished job
    (median of :data:`REPS`)."""
    from repro.parallel.pool import shutdown_shared_pools

    times = []
    for _ in range(REPS):
        shutdown_shared_pools()
        times.append(_timed(lambda: start_pool(stream)))
    shutdown_shared_pools()
    return median(times)


def layer_probes(ctx, blocks: np.ndarray, own: dict) -> dict:
    """Every layer's per-layer metrics on a workload's blocks.

    ``own`` holds what the workload measured in its own loop: a workload
    that runs the store keeps its ``pipeline.*`` figures and the probe
    store cycle is skipped.  Every other layer is probed, so each traced
    run reports every per-layer metric as measured.
    """
    from perfbench import fleet, w_scf_reuse

    stream = blocks.reshape(-1)
    out = core_probes(stream, blocks, ctx.tally)
    out.update(streamio_probes(stream, ctx.workdir))
    out.update(parallel_speedups(stream, ctx.workdir, ctx.tally))
    out["parallel.pool_start_s"] = pool_start(stream)
    out.update(shm_counters(ctx.root, ctx.seed, ctx.workdir))
    if "pipeline.put.us" not in own:
        out.update(w_scf_reuse.pipeline_probe(ctx, blocks))
    out.update(fleet.probe_fleet(ctx, blocks))
    out.update(own)
    out["service.put.unattributed_ms"] = (
        out["service.put.p50_ms"] - out["service.health.p50_ms"]
        - out["core.block_compress.us"] / 1e3)
    return out


def shm_counters(root: str, seed: int, workdir: str) -> dict:
    """Run this file as the telemetry-on shm probe; returns its counters."""
    cmd = [sys.executable, os.path.abspath(__file__), "shm",
           "--root", root, "--seed", str(seed), "--workdir", workdir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          env=dict(os.environ))
    if proc.returncode != 0:
        raise RuntimeError(f"shm probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _shm_main(argv) -> int:
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["shm"])
    ap.add_argument("--root", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    from repro import telemetry
    from repro.parallel.pool import (
        parallel_compress_to_container,
        parallel_decompress_container,
        shutdown_shared_pools,
    )
    from perfbench.w_pack_unpack import make_stream

    stream = make_stream(args.root, args.seed)
    telemetry.enable()
    path = os.path.join(args.workdir, "shm-probe.pstf")
    try:
        parallel_compress_to_container(
            "pastri", stream, inputs.ERROR_BOUND, WORKERS, inputs.BLOCK_ELEMS,
            path, codec_kwargs={"config": inputs.CONFIG}, n_frames=FRAMES)
        out = parallel_decompress_container(path, WORKERS)
        if not np.max(np.abs(out - stream)) <= inputs.ERROR_BOUND:
            raise SystemExit("shm probe: unpack outside the error bound")
        snap = telemetry.metrics_snapshot()
    finally:
        shutdown_shared_pools()
        if os.path.exists(path):
            os.remove(path)

    def count(name):
        return int(snap.get(f"store.shm.{name}", {}).get("value", 0))

    print(json.dumps({
        "parallel.shm.bytes_copied": count("bytes_copied"),
        "parallel.shm.bytes_borrowed": count("bytes_borrowed"),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(_shm_main(sys.argv[1:]))
