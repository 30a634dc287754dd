"""Workload ``scf_reuse``: write-once, read-many SCF reuse (Fig. 11).

Store cycles run until time is up.  In each, a fresh
``CompressedERIStore`` over a spilling ``ContainerBackend`` receives every
block of a seeded (dd|dd) working set once, then serves :data:`SWEEPS`
full sweeps of ``get`` in one fixed order, as SCF iterations re-read their
integrals.  The blob budget and the decompressed-array budget are well
below the working set and readahead is off, so most gets miss the array
tier, read the spill file through the mmap path and decode one small
blob.  Repeating the cycle spreads the put phases over the whole run.

Operation roles: the write op is one ``put``, the read op one ``get``.
Decodes are cold by
construction: a sweep decodes every block once in a fixed cycle far longer
than the codec's two-entry parse memo.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from perfbench import inputs, probes
from perfbench.common import Outcome, chunk_rate, median, tail, tail_aliases

N_BLOCKS = 1024
#: In-memory blob tier: about a quarter of the compressed working set.
BLOB_BUDGET = 128 << 10
#: Decompressed-array tier: one eighth of the working set (8-byte elements).
HOT_BUDGET = N_BLOCKS * inputs.BLOCK_ELEMS
READAHEAD = 0
#: Sweeps per store cycle: the Fock builds the repository's own
#: ``RHFSolver().run()`` (defaults, DIIS on) makes to converge water/STO-3G.
SWEEPS = 8
#: Puts per chunk when taking the median put throughput.
PUT_CHUNK = 128
SETUP_REPS = 5


def _inputs(ctx):
    rng = np.random.default_rng(ctx.seed)
    blocks = inputs.block_pool(rng, inputs.real_blocks(ctx.root), N_BLOCKS,
                               synth_seed=ctx.seed)
    return blocks, inputs.quartet_keys(rng, N_BLOCKS)


def _store(path: str, tracer):
    from repro import PaSTRICompressor
    from repro.pipeline import CompressedERIStore
    from repro.pipeline.store import ContainerBackend

    return CompressedERIStore(
        tracer.wrap_codec(PaSTRICompressor(config=inputs.CONFIG)), inputs.ERROR_BOUND,
        backend=ContainerBackend(path, memory_budget_bytes=BLOB_BUDGET),
        hot_cache_bytes=HOT_BUDGET, readahead_depth=READAHEAD,
    )


def _puts(ctx, store, keys, blocks, tracer):
    lat = []
    for k, b in zip(keys, blocks):
        t0 = time.perf_counter()
        with tracer.span("store.put", "pipeline"):
            store.put(k, b, dims=inputs.DIMS)
        lat.append(time.perf_counter() - t0)
    return lat


def _sweeps(ctx, store, keys, blocks, tracer, split, n_sweeps):
    """``n_sweeps`` full sweeps; per-get and per-sweep times.

    With ``split`` (a list pair), each get's time also goes to the hit or
    miss list by the decompressed-tier counters around the call.
    """
    gets, sweeps = [], []
    stats = store.stats
    for _ in range(n_sweeps):
        s0 = time.perf_counter()
        with tracer.span("sweep", "bench"):
            for k, b in zip(keys, blocks):
                hits = stats.cache_hits
                t0 = time.perf_counter()
                with tracer.span("store.get", "pipeline"):
                    out = store.get(k)
                dt = time.perf_counter() - t0
                gets.append(dt)
                if split is not None:
                    split[stats.cache_hits != hits].append(dt)
                with tracer.span("verify", "bench"):
                    ctx.tally.check(b, out, inputs.ERROR_BOUND, "store get")
        sweeps.append(time.perf_counter() - s0)
    return gets, sweeps


class Cycles:
    """What the store cycles recorded, and the last cycle's counters."""

    def __init__(self) -> None:
        self.puts, self.gets, self.sweeps = [], [], []
        self.split = ([], [])  # (misses, hits)
        self.stats = None
        self.n = 0

    def run(self, ctx, blocks, keys, seconds, tracer, split=False,
            n_sweeps=SWEEPS) -> "Cycles":
        """Store cycles (fresh store, put all, sweep) until ``seconds`` pass."""
        deadline = time.perf_counter() + seconds
        while True:
            d = os.path.join(ctx.workdir, f"store-{self.n}")
            os.makedirs(d)
            store = _store(os.path.join(d, "spill.pstf"), tracer)
            try:
                self.puts += _puts(ctx, store, keys, blocks, tracer)
                g, s = _sweeps(ctx, store, keys, blocks, tracer,
                               self.split if split else None, n_sweeps)
                self.gets += g
                self.sweeps += s
                self.stats = store.stats
            finally:
                store.close()
                shutil.rmtree(d, ignore_errors=True)
            self.n += 1
            if time.perf_counter() >= deadline:
                return self

    def pipeline_metrics(self) -> dict:
        """``pipeline.*`` from a run made with ``split=True``."""
        misses, hits = self.split
        st = self.stats
        return {
            "pipeline.put.us": median(self.puts) * 1e6,
            "pipeline.get_hit.us": median(hits) * 1e6 if hits else 0.0,
            "pipeline.get_miss.us": median(misses) * 1e6 if misses else 0.0,
            "pipeline.array_hit_rate":
                st.cache_hits / max(1, st.cache_hits + st.cache_misses),
            "pipeline.blob_hit_rate":
                st.blob_hits / max(1, st.blob_hits + st.blob_misses),
            "pipeline.disk_reads_per_get": st.disk_reads / max(1, st.gets),
        }


def pipeline_probe(ctx, blocks) -> dict:
    """``pipeline.*`` for workloads that do not run the store: one store
    cycle with two sweeps over the first :data:`N_BLOCKS` of ``blocks``."""
    blocks = blocks[:N_BLOCKS]
    keys = inputs.quartet_keys(np.random.default_rng([ctx.seed, 7]), len(blocks))
    return Cycles().run(ctx, blocks, keys, 0.0, ctx.null_tracer, split=True,
                        n_sweeps=2).pipeline_metrics()


def run(ctx) -> Outcome:
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        blocks, keys = _inputs(ctx)
        setups.append(time.perf_counter() - t0)

    if ctx.trace:
        base = Cycles().run(ctx, blocks, keys, ctx.seconds / 2, ctx.null_tracer)
        cy = Cycles().run(ctx, blocks, keys, ctx.seconds / 2, ctx.tracer, split=True)
    else:
        cy = Cycles().run(ctx, blocks, keys, ctx.seconds, ctx.null_tracer)
    puts, gets, sweeps, st = cy.puts, cy.gets, cy.sweeps, cy.stats

    mb = blocks.nbytes / 1e6
    block_mb = mb / N_BLOCKS
    rp, rt = tail(gets)
    metrics = {
        "setup_s": median(setups),
        "ratio": st.ratio,
        "write_mb_s": chunk_rate(puts, block_mb, PUT_CHUNK),
        "read_mb_s": chunk_rate(sweeps, mb, 1),
        "read_p50_ms": median(gets) * 1e3,
        "read_tail_ms": rt * 1e3,
    }
    labels = {"read_tail_ms": rp}
    aliases = [
        ("reuse_mb_s", mb * len(sweeps) / (sum(puts) + sum(sweeps)), "MB/s"),
        ("get_p50_ms", metrics["read_p50_ms"], "ms"),
    ] + tail_aliases(labels, metrics, {"read": "get"})
    info = {
        "input_mb": mb, "blocks": N_BLOCKS,
        "real_blocks": inputs.n_real(N_BLOCKS, inputs.N_REAL_CACHED),
        "compressed_bytes": st.compressed_bytes,
        "blob_budget_bytes": BLOB_BUDGET, "hot_budget_bytes": HOT_BUDGET,
        "readahead": READAHEAD, "cycles": cy.n, "sweeps": len(sweeps),
        "spills_per_cycle": st.spills,
    }

    per_layer = {}
    if ctx.trace:
        own = cy.pipeline_metrics()
        own["trace.overhead_frac"] = median(sweeps) / median(base.sweeps) - 1.0
        per_layer = probes.layer_probes(ctx, blocks, own)
    return Outcome(metrics, per_layer, aliases, info, labels)
