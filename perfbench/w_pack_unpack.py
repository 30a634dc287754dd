"""Workload ``pack_unpack``: the paper's bulk path (Fig. 9c/9d).

A seeded (dd|dd) stream of about 31 MB is packed into a fresh PSTF-v2
container with ``parallel_compress_to_container`` at two workers, then
unpacked cold with ``parallel_decompress_container``, round after round.

Operation roles: the write op is one pack of the whole stream, the read
op one unpack.  Unpacks are cold by
construction: every round writes a fresh container of 16 frames, so each
of the two workers decodes about eight frames per round, more than the
codec's two-entry parse memo holds, and a worker's first frames of a
round are never the last ones it decoded in the previous round.
"""

from __future__ import annotations

import os
import time

import numpy as np

from perfbench import inputs, probes
from perfbench.common import Outcome, chunk_rate, median, tail

N_BLOCKS = inputs.MIX_BLOCKS
SETUP_REPS = 5


def make_stream(root: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    real = inputs.real_blocks(root)
    return inputs.block_pool(rng, real, N_BLOCKS, synth_seed=seed).reshape(-1)


def _setup(ctx):
    """Input generation plus pool start-up (first use of a fresh pool)."""
    from repro.parallel.pool import shutdown_shared_pools

    shutdown_shared_pools()
    t0 = time.perf_counter()
    stream = make_stream(ctx.root, ctx.seed)
    probes.start_pool(stream)
    return stream, time.perf_counter() - t0


def _rounds(ctx, stream, seconds, tracer, path):
    """Pack + unpack rounds for ``seconds``; returns per-round timings."""
    from repro.parallel.pool import (
        parallel_compress_to_container,
        parallel_decompress_container,
    )

    packs, unpacks, sizes = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        with tracer.span("round", "bench"):
            t0 = time.perf_counter()
            with tracer.span("parallel_compress_to_container", "parallel"):
                parallel_compress_to_container(
                    "pastri", stream, inputs.ERROR_BOUND, probes.WORKERS,
                    inputs.BLOCK_ELEMS, path,
                    codec_kwargs={"config": inputs.CONFIG},
                    n_frames=probes.FRAMES,
                )
            t1 = time.perf_counter()
            with tracer.span("parallel_decompress_container", "parallel"):
                out = parallel_decompress_container(path, probes.WORKERS)
            t2 = time.perf_counter()
            with tracer.span("verify", "bench"):
                ctx.tally.check(stream, out, inputs.ERROR_BOUND, "unpack")
                sizes.append(os.path.getsize(path))
                del out
                os.remove(path)
        packs.append(t1 - t0)
        unpacks.append(t2 - t1)
        if time.perf_counter() >= deadline:
            return packs, unpacks, sizes


def run(ctx) -> Outcome:
    from repro.parallel.pool import shutdown_shared_pools

    path = os.path.join(ctx.workdir, "stream.pstf")
    try:
        setups = []
        for _ in range(SETUP_REPS):
            stream, setup_s = _setup(ctx)
            setups.append(setup_s)
        # one untimed round lets worker caches and page cache settle
        _rounds(ctx, stream, 0.0, ctx.null_tracer, path)

        if ctx.trace:
            base_p, base_u, _ = _rounds(
                ctx, stream, ctx.seconds / 2, ctx.null_tracer, path)
            packs, unpacks, sizes = _rounds(ctx, stream, ctx.seconds / 2, ctx.tracer, path)
            traced = median(np.add(packs, unpacks))
            untraced = median(np.add(base_p, base_u))
        else:
            packs, unpacks, sizes = _rounds(ctx, stream, ctx.seconds, ctx.null_tracer, path)

        mb = stream.nbytes / 1e6
        n_blocks = stream.size // inputs.BLOCK_ELEMS
        rp, rt = tail(unpacks)
        metrics = {
            "setup_s": median(setups),
            "ratio": stream.nbytes / median(sizes),
            "write_mb_s": chunk_rate(packs, mb, 1),
            "read_mb_s": chunk_rate(unpacks, mb, 1),
            "read_p50_ms": median(unpacks) * 1e3,
            "read_tail_ms": rt * 1e3,
        }
        labels = {"read_tail_ms": rp}
        aliases = [
            ("pack_mb_s", metrics["write_mb_s"], "MB/s"),
            ("unpack_mb_s", metrics["read_mb_s"], "MB/s"),
        ]
        info = {
            "input_mb": mb, "blocks": n_blocks,
            "real_blocks": inputs.n_real(n_blocks, inputs.N_REAL_CACHED),
            "frames": probes.FRAMES, "workers": probes.WORKERS,
            "compressed_bytes": int(median(sizes)), "rounds": len(packs),
        }

        per_layer = {}
        if ctx.trace:
            shutdown_shared_pools()
            per_layer = probes.layer_probes(
                ctx, stream.reshape(-1, inputs.BLOCK_ELEMS),
                {"trace.overhead_frac": traced / untraced - 1.0})
        return Outcome(metrics, per_layer, aliases, info, labels)
    finally:
        shutdown_shared_pools()
        if os.path.exists(path):
            os.remove(path)
