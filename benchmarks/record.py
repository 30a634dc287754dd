"""Record codec throughput to a ``BENCH_*.json`` trajectory file.

Runs the Fig. 9c/9d rate measurements (PaSTRI compress / decompress on the
cached ``trialanine_dd_dd_400`` dataset), a Fig. 11-style SCF-store reuse
timing, and — since PR 2 — a PSTF-v2 *container* dump/load (compress +
write one indexed container file, then open it with no codec arguments and
decode through the frame index), and — since PR 4 — a localhost
*service* round-trip (compress + decompress through the asyncio TCP server
via the blocking client, single-stream and with 16 concurrent clients
driving the micro-batcher), and — since PR 7 — a *worker-scaling* sweep
(compress, container load, and concurrent service at 1/2/4/N workers over
the shared-memory data plane, with borrowed-vs-copied byte telemetry), and
— since PR 8 — a *cluster* sweep (64 concurrent clients doing replicated
puts and failover gets through the consistent-hash gateway against
1/2/4/8 shards, with p95 request latency from the gateway's telemetry),
and — since PR 9 — a *codec comparison* (ratio, compress/decompress MB/s,
and max abs error for PaSTRI, SZ, ZFP, lowrank, and the lossless tier on
the chemistry dataset and a synthetic low-rank batch, plus a
rank-vs-ratio curve for the lowrank codec), and writes
machine-annotated results so future PRs have a baseline to compare
against::

    python -m benchmarks.record              # writes BENCH_pr9.json
    python -m benchmarks.record -o out.json --reps 30

Methodology (since PR 3): every measured region runs under a
:mod:`repro.telemetry` **timer** (``bench.*`` names) instead of ad-hoc
``perf_counter`` bracketing, with a few warmup calls first, reporting the
**minimum** over ``--reps`` repetitions (and the median, for context).  On
shared/noisy hosts the minimum is the stable estimator — means drift by
tens of percent between scheduler phases, the floor does not.  Telemetry
stays enabled for the whole run, so the written JSON also carries the full
metrics snapshot (``codec.*`` byte counters, ``container.*`` frame timers)
under the ``"telemetry"`` key.  Decompression is reported both *cold*
(fresh codec, full index pass) and *warm* (same codec re-reading a held
stream, the paper's SCF access pattern, which hits the memoised index
pass).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.core import PaSTRICompressor
from repro.harness.datasets import standard_dataset

#: Throughput of the per-block implementation this PR replaced, measured on
#: the same dataset/protocol (min over 20 reps, interleaved with the batched
#: build to share machine conditions) at the seed commit.  Kept here so the
#: written JSON always carries its point of comparison.
PRE_PR_REFERENCE = {
    "commit": "0c9783c (pre-batching seed)",
    "compress_ms": 31.9,
    "decompress_cold_ms": 73.2,
    "decompress_warm_ms": 73.2,  # no parse memoisation before this PR
    # The seed's pytest-benchmark figures (bench_fig9c/9d as then configured:
    # pedantic rounds=2, no warmup, mean) for comparison with CI runs.
    "fig9c_pedantic_mean_ms": 43.46,
    "fig9d_pedantic_mean_ms": 80.34,
    "note": (
        "min over 20 warm repetitions on the same host, interleaved with the "
        "batched build; the host timeshares a single vCPU, so per-run means "
        "fluctuate ~±50% between scheduler phases and even minima move "
        "~±30% — compare minima from interleaved runs only"
    ),
}

EB = 1e-10
REUSE_COUNT = 20  # the paper's Fig. 11 assumption: 20 uses per integral


def _best(name: str, fn, reps: int, warmup: int = 2) -> tuple[float, float]:
    """(min, median) wall seconds of ``fn()`` over ``reps`` repetitions.

    Each repetition is observed into the telemetry timer ``name``; warmup
    calls run outside the timing context so the timer's distribution (and
    the snapshot written to the JSON) holds exactly the measured reps.
    """
    for _ in range(warmup):
        fn()
    t = telemetry.timer(name)
    for _ in range(reps):
        with t.time():
            fn()
    return t.min, float(np.median(t.samples))


def _counter_value(snapshot: dict, name: str) -> int:
    return snapshot.get(name, {}).get("value", 0)


def _scaling_sweep(data, ds, reps: int) -> dict:
    """Measure compress / container-load / service throughput at 1/2/4/N
    workers over the shared-memory data plane.

    Every multi-worker stage runs on the persistent :func:`shared_pool`
    (warm processes, shm transport when available); the 1-worker row is
    the in-process baseline.  Telemetry deltas bracket the sweep so the
    record carries the zero-copy evidence (``bytes_borrowed`` vs
    ``bytes_copied``) alongside the timings.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.parallel import shm as shm_mod
    from repro.parallel.pool import (
        parallel_compress,
        parallel_compress_to_container,
        parallel_decompress_container,
        shutdown_shared_pools,
    )
    from repro.service import ServerConfig, ServiceClient, serve_in_thread

    nbytes = data.nbytes
    kwargs = {"dims": list(ds.spec.dims)}
    worker_axis = sorted({1, 2, 4, os.cpu_count() or 1})
    sweep_reps = max(3, reps // 3)
    before = telemetry.metrics_snapshot()

    compress_rows = {}
    for w in worker_axis:
        t_min, t_med = _best(
            f"bench.scaling.compress.w{w}",
            lambda w=w: parallel_compress(
                "pastri", data, EB, w, ds.spec.block_size, codec_kwargs=kwargs
            ),
            sweep_reps, warmup=1,
        )
        compress_rows[str(w)] = {
            "total_ms": round(t_min * 1e3, 2),
            "med_ms": round(t_med * 1e3, 2),
            "mb_s": round(nbytes / t_min / 1e6, 1),
        }

    tmp = tempfile.mktemp(suffix=".pstf")
    load_rows = {}
    try:
        parallel_compress_to_container(
            "pastri", data, EB, 1, ds.spec.block_size, tmp,
            codec_kwargs=kwargs, n_frames=8,
        )
        for w in worker_axis:
            t_min, t_med = _best(
                f"bench.scaling.container_load.w{w}",
                lambda w=w: parallel_decompress_container(tmp, w),
                sweep_reps, warmup=1,
            )
            load_rows[str(w)] = {
                "total_ms": round(t_min * 1e3, 2),
                "med_ms": round(t_med * 1e3, 2),
                "mb_s": round(nbytes / t_min / 1e6, 1),
            }
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)

    service_rows = {}
    n_clients = 8
    for w in worker_axis:
        cfg = ServerConfig(
            codec_kwargs=kwargs, error_bound=EB, n_workers=w,
            batch_window_ms=5.0, max_inflight_bytes=1 << 30,
        )

        def one_client(i):
            with ServiceClient(handle.host, handle.port, timeout=300.0) as c:
                c.compress(data, EB, dims=ds.spec.dims)

        with serve_in_thread(cfg) as handle:
            with ThreadPoolExecutor(n_clients) as ex:  # warm connections+pool
                list(ex.map(one_client, range(n_clients)))
            t = telemetry.timer(f"bench.scaling.service.w{w}")
            with t.time():
                with ThreadPoolExecutor(n_clients) as ex:
                    list(ex.map(one_client, range(n_clients)))
            service_rows[str(w)] = {
                "total_ms": round(t.max * 1e3, 1),
                "aggregate_mb_s": round(nbytes * n_clients / t.max / 1e6, 1),
            }

    shutdown_shared_pools()
    after = telemetry.metrics_snapshot()
    delta = lambda n: _counter_value(after, n) - _counter_value(before, n)  # noqa: E731

    def speedups(rows):
        base = rows["1"]["total_ms"]
        return {w: round(base / r["total_ms"], 2) for w, r in rows.items()}

    return {
        "workers_axis": worker_axis,
        "note": (
            "host exposes a single vCPU: multi-process rows timeshare one "
            "core, so wall-clock speedup above 1x is not physically "
            "reachable here — the axis records transport overhead (shm "
            "descriptor passing vs in-process) rather than parallel gain; "
            "re-record on a multi-core host for scaling numbers"
        ),
        "transport": "shared-memory segment pool"
        if shm_mod.shm_available() else "pickle fallback",
        "compress": {"rows": compress_rows, "speedup_vs_1": speedups(compress_rows)},
        "container_load": {"rows": load_rows, "speedup_vs_1": speedups(load_rows)},
        "service_concurrent": {"n_clients": n_clients, "rows": service_rows},
        "shm_telemetry_delta": {
            "bytes_borrowed": delta("store.shm.bytes_borrowed"),
            "bytes_copied": delta("store.shm.bytes_copied"),
            "segments_created": delta("store.shm.segments_created"),
            "pool_hits": delta("store.shm.pool_hits"),
        },
    }


def _synthetic_lowrank_batch() -> np.ndarray:
    """400 (dd|dd) blocks from a 4-dim subspace — cross-block structure a
    per-stream codec cannot see, the lowrank codec's designed case."""
    rng = np.random.default_rng(99)
    basis = rng.standard_normal((4, 6 ** 4))
    coef = rng.standard_normal((400, 4)) * np.array([1.0, 0.3, 0.1, 0.03])
    return ((coef @ basis) * 1e-6).ravel()


def _codec_comparison(reps: int) -> dict:
    """Five-codec ratio/throughput/bound sweep + lowrank rank-vs-ratio curve.

    Two datasets: the chemistry batch (PaSTRI's designed case — pattern
    structure *within* blocks) and a synthetic low-rank batch (the
    lowrank codec's designed case — structure *across* blocks).  Every
    cell records the measured max abs error beside the bound so the
    record is self-auditing.
    """
    from repro.api import get_codec
    from repro.lowrank import format as lrk_fmt

    chem = standard_dataset("trialanine", "(dd|dd)", "small")
    datasets = {
        "trialanine_dd_dd_400": (chem.data, chem.spec.dims),
        "synthetic_lowrank_r4_400": (_synthetic_lowrank_batch(), (6, 6, 6, 6)),
    }
    codec_names = ("pastri", "sz", "zfp", "lowrank", "deflate", "fpc")
    sweep_reps = max(3, reps // 3)
    rows: dict = {}
    for ds_name, (data, dims) in datasets.items():
        per: dict = {}
        for name in codec_names:
            kw = {"dims": dims} if name in ("pastri", "lowrank") else {}
            codec = get_codec(name, **kw)
            blob = codec.compress(data, EB)
            c_min, _ = _best(
                f"bench.codecs.{ds_name}.{name}.compress",
                lambda codec=codec, data=data: codec.compress(data, EB),
                sweep_reps, warmup=1,
            )
            d_min, _ = _best(
                f"bench.codecs.{ds_name}.{name}.decompress",
                lambda codec=codec, blob=blob: codec.decompress(blob),
                sweep_reps, warmup=1,
            )
            err = float(np.max(np.abs(codec.decompress(blob) - data)))
            per[name] = {
                "class": "lossless" if name in ("deflate", "fpc") else "lossy",
                "ratio": round(data.nbytes / len(blob), 2),
                "compress_mb_s": round(data.nbytes / c_min / 1e6, 1),
                "decompress_mb_s": round(data.nbytes / d_min / 1e6, 1),
                "max_abs_error": err,
                "bound_ok": bool(err <= EB),
            }
        rows[ds_name] = per

    # rank-vs-ratio curve: pinned SVD ranks plus the adaptive pick, so
    # the record shows where the bytes-economics sweep lands.
    curve: dict = {}
    for ds_name, (data, dims) in datasets.items():
        points = []
        for rank in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32):
            codec = get_codec("lowrank", dims=dims, rank=rank)
            blob = codec.compress(data, EB)
            points.append({
                "rank": rank,
                "ratio": round(data.nbytes / len(blob), 2),
                "max_abs_error": float(np.max(np.abs(codec.decompress(blob) - data))),
            })
        adaptive = get_codec("lowrank", dims=dims)
        blob = adaptive.compress(data, EB)
        curve[ds_name] = {
            "pinned": points,
            "adaptive": {
                "chosen_rank": lrk_fmt.parse_blob(blob).rank,
                "ratio": round(data.nbytes / len(blob), 2),
            },
        }

    return {
        "error_bound": EB,
        "datasets": {
            name: {"n_points": int(d.size), "mb": d.nbytes / 1e6}
            for name, (d, _) in datasets.items()
        },
        "rows": rows,
        "lowrank_rank_curve": curve,
    }


def _cluster_sweep() -> dict:
    """64 concurrent clients against a 1/2/4/8-shard fleet (PR 8).

    Each fleet is a :class:`LocalFleet` — thread-hosted shards plus the
    gateway, all in this process — driven through real sockets by 64
    client threads doing replicated ``store.put`` + failover
    ``store.get``.  Aggregate MB/s comes from the wall clock of the
    measured round; p95 latency comes from the gateway's
    ``cluster.request`` telemetry timer (only the samples observed
    during the measured round).
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.cluster import LocalFleet

    n_clients = 64
    blocks_per_client = 4
    shape = (4, 4, 4, 4)
    payload = np.random.default_rng(11).normal(size=shape)
    # bytes a client moves per round: every block up once, down once
    client_bytes = 2 * blocks_per_client * payload.nbytes
    rows = {}
    for n_shards in (1, 2, 4, 8):
        tmpdir = tempfile.mkdtemp(prefix=f"pastri-bench-c{n_shards}-")
        fleet = LocalFleet(
            n_shards, tmpdir, replication=min(2, n_shards),
            gateway_kwargs={"health_interval_s": 1.0},
        )
        with fleet:
            def job(i):
                with fleet.client(timeout=300.0) as c:
                    for b in range(blocks_per_client):
                        c.put((i, b), payload)
                    for b in range(blocks_per_client):
                        c.get((i, b))

            with ThreadPoolExecutor(n_clients) as ex:  # warm connections
                list(ex.map(job, range(n_clients)))
            gw_timer = telemetry.timer("cluster.request")
            seen = len(gw_timer.samples)
            round_timer = telemetry.timer(f"bench.cluster.s{n_shards}")
            with round_timer.time():
                with ThreadPoolExecutor(n_clients) as ex:
                    list(ex.map(job, range(n_clients)))
            wall = round_timer.max
            lat = np.asarray(gw_timer.samples[seen:], dtype=float)
        rows[str(n_shards)] = {
            "replication": min(2, n_shards),
            "total_ms": round(wall * 1e3, 1),
            "aggregate_mb_s": round(n_clients * client_bytes / wall / 1e6, 2),
            "gateway_requests": int(lat.size),
            "gateway_p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 2)
            if lat.size else None,
            "gateway_p95_ms": round(float(np.percentile(lat, 95)) * 1e3, 2)
            if lat.size else None,
        }
    return {
        "workload": {
            "n_clients": n_clients,
            "blocks_per_client": blocks_per_client,
            "block_bytes": payload.nbytes,
            "ops": "store.put (replicated) + store.get (failover read)",
        },
        "shards_axis": [1, 2, 4, 8],
        "note": (
            "host exposes a single vCPU: shards, gateway, and all 64 client "
            "threads timeshare one core, so the shard axis records routing/"
            "replication overhead rather than horizontal scaling — re-record "
            "on a multi-core host for scaling numbers"
        ),
        "rows": rows,
    }


def run(reps: int = 15) -> dict:
    """Measure and return the full benchmark record (pure; no file I/O
    beyond scratch containers)."""
    telemetry.enable()
    telemetry.reset()
    try:
        return _run(reps)
    finally:
        telemetry.disable()


def _run(reps: int) -> dict:
    ds = standard_dataset("trialanine", "(dd|dd)", "small")
    data = ds.data
    nbytes = data.nbytes

    codec = PaSTRICompressor(config="(dd|dd)")
    blob = codec.compress(data, EB)

    c_min, c_med = _best("bench.compress", lambda: codec.compress(data, EB), reps)
    cold_min, cold_med = _best(
        "bench.decompress_cold",
        lambda: PaSTRICompressor(config="(dd|dd)").decompress(blob), reps,
    )
    codec.decompress(blob)  # prime the parse cache
    warm_min, warm_med = _best(
        "bench.decompress_warm", lambda: codec.decompress(blob), reps
    )

    # SCF-store reuse: one compression amortised over REUSE_COUNT re-reads
    # through the same held codec (Fig. 11's workload shape).
    store = PaSTRICompressor(config="(dd|dd)")
    reuse_timer = telemetry.timer("bench.scf_reuse")
    with reuse_timer.time():
        held = store.compress(data, EB)
        for _ in range(REUSE_COUNT):
            store.decompress(held)
    reuse_s = reuse_timer.max

    # PSTF-v2 container dump/load (PR 2's storage stack): compress + write an
    # indexed container, then open it self-describingly and decode through
    # the frame index.  min over reps like the codec measurements.
    from repro.parallel.pool import (
        parallel_compress_to_container,
        parallel_decompress_container,
    )

    tmp = tempfile.mktemp(suffix=".pstf")
    try:
        def dump():
            return parallel_compress_to_container(
                "pastri", data, EB, 1, ds.spec.block_size, tmp,
                codec_kwargs={"dims": ds.spec.dims}, n_frames=8,
            )

        dump_min, dump_med = _best("bench.container_dump", dump, reps)
        summary = dump()
        load_min, load_med = _best(
            "bench.container_load", lambda: parallel_decompress_container(tmp, 1), reps
        )
        container_bytes = summary.compressed_bytes
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)

    # Spill-store reuse (the PR 6 read-path overhaul): the same 20-reuse
    # workload under a 64 KB blob budget, run twice — once over the
    # pre-overhaul baseline backend kept as a test oracle (plain LRU,
    # forget-on-promote, seek+read, no array tier) and once with the
    # store's own path (scan-resistant 2Q tiers, retained on-disk records,
    # mmap frame reads, class-adjacent readahead) — so the JSON carries its
    # own A/B comparison with per-tier traffic breakdowns.
    from repro.pipeline.store import CompressedERIStore, ContainerBackend
    from tests.pipeline.lru_baseline import LRUSpillBackend

    n_blocks = data.size // ds.spec.block_size
    blocks = data[: n_blocks * ds.spec.block_size].reshape(n_blocks, -1)

    def spill_workload(tag: str, backend_cls, **store_kwargs) -> dict:
        spill_path = tempfile.mktemp(suffix=".pstf")
        store = CompressedERIStore(
            PaSTRICompressor(config="(dd|dd)"),
            EB,
            backend=backend_cls(spill_path, memory_budget_bytes=64 << 10),
            **store_kwargs,
        )
        try:
            t = telemetry.timer(f"bench.spill_reuse.{tag}")
            with t.time():
                for i in range(n_blocks):
                    store.put(i, blocks[i], dims=ds.spec.dims)
                for _ in range(REUSE_COUNT):
                    for i in range(n_blocks):
                        store.get(i)
            st = store.stats
            return {
                "total_ms": round(t.max * 1e3, 1),
                "amortized_mb_s": round(
                    nbytes * REUSE_COUNT / t.max / 1e6, 1
                ),
                "ratio": round(st.ratio, 2),
                "spills": st.spills,
                "disk_reads": st.disk_reads,
                "blob_tier": {
                    "hits": st.blob_hits,
                    "misses": st.blob_misses,
                    "evictions": st.blob_evictions,
                },
                "array_tier": {
                    "hits": st.cache_hits,
                    "misses": st.cache_misses,
                    "evictions": st.array_evictions,
                    "hot_bytes": st.hot_bytes,
                },
                "readahead": {
                    "issued": st.readahead_issued,
                    "useful": st.readahead_useful,
                    "wasted": st.readahead_wasted,
                    "accuracy": round(st.readahead_accuracy, 3),
                },
            }
        finally:
            store.close()
            for leftover in (spill_path, spill_path + ".journal"):
                if os.path.exists(leftover):
                    os.unlink(leftover)

    spill_baseline = spill_workload("baseline_lru", LRUSpillBackend)
    spill_overhauled = spill_workload(
        "overhauled",
        ContainerBackend,
        hot_cache_bytes=6 << 20,
        readahead_depth=4,
    )

    # Worker-scaling axis (PR 7): the same compress / container-load /
    # service workloads at 1/2/4 workers over the shared-memory transport,
    # so the JSON records how the zero-copy data plane scales.  Telemetry
    # deltas around the sweep capture the borrowed-vs-copied byte split.
    codecs = _codec_comparison(reps)

    scaling = _scaling_sweep(data, ds, reps)

    # Cluster axis (PR 8): 64 concurrent clients through the gateway
    # against 1/2/4/8 replicated shards.
    cluster = _cluster_sweep()

    # Service round-trip (PR 4): a localhost asyncio server fronting the same
    # codec, measured through the blocking client — single stream first
    # (protocol + framing overhead on top of the raw codec numbers above),
    # then 16 concurrent clients, which exercises micro-batching end to end.
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import ServerConfig, ServiceClient, serve_in_thread

    svc_cfg = ServerConfig(
        codec_kwargs={"dims": list(ds.spec.dims)},
        error_bound=EB,
        batch_window_ms=5.0,
        max_inflight_bytes=1 << 30,
    )
    n_clients = 16
    with serve_in_thread(svc_cfg) as handle:
        with ServiceClient(handle.host, handle.port, timeout=120.0) as cli:
            def svc_roundtrip():
                svc_blob, _ = cli.compress(data, EB, dims=ds.spec.dims)
                cli.decompress(svc_blob)

            svc_min, svc_med = _best(
                "bench.service_roundtrip", svc_roundtrip, reps, warmup=2
            )

        def svc_client_job(i):
            with ServiceClient(handle.host, handle.port, timeout=120.0) as c:
                b, _ = c.compress(data, EB, dims=ds.spec.dims)
                c.decompress(b)

        conc_timer = telemetry.timer("bench.service_concurrent")
        with ThreadPoolExecutor(n_clients) as ex:  # warmup: connections + pools
            list(ex.map(svc_client_job, range(n_clients)))
        with conc_timer.time():
            with ThreadPoolExecutor(n_clients) as ex:
                list(ex.map(svc_client_job, range(n_clients)))
        conc_s = conc_timer.max
        with ServiceClient(handle.host, handle.port) as cli:
            svc_metrics = cli.metrics()
        batches = svc_metrics.get("service.batches", {}).get("value", 0)
        batched_reqs = svc_metrics.get("service.batch.requests", {}).get("value", 0)

    mbs = lambda s: nbytes / s / 1e6  # noqa: E731
    return {
        "bench": (
            "pr9 low-rank codec family: five-codec comparison on chemistry "
            "and synthetic low-rank batches, rank-vs-ratio curve"
        ),
        "recorded_unix": int(time.time()),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "dataset": {
            "name": "trialanine_dd_dd_400",
            "config": "(dd|dd)",
            "n_points": int(data.size),
            "mb": nbytes / 1e6,
        },
        "protocol": {
            "reps": reps,
            "statistic": "min (median in *_med_ms)",
            "error_bound": EB,
            "timing": "repro.telemetry timers (bench.*), telemetry enabled",
        },
        "pastri": {
            "compress_ms": round(c_min * 1e3, 2),
            "compress_med_ms": round(c_med * 1e3, 2),
            "compress_mb_s": round(mbs(c_min), 1),
            "decompress_cold_ms": round(cold_min * 1e3, 2),
            "decompress_cold_med_ms": round(cold_med * 1e3, 2),
            "decompress_cold_mb_s": round(mbs(cold_min), 1),
            "decompress_warm_ms": round(warm_min * 1e3, 2),
            "decompress_warm_med_ms": round(warm_med * 1e3, 2),
            "decompress_warm_mb_s": round(mbs(warm_min), 1),
            "ratio": round(nbytes / len(blob), 2),
            "scf_reuse": {
                "n_uses": REUSE_COUNT,
                "total_ms": round(reuse_s * 1e3, 1),
                "amortized_mb_s": round(
                    nbytes * REUSE_COUNT / reuse_s / 1e6, 1
                ),
            },
        },
        "container": {
            "format": "PSTF-v2 (footer frame index, per-frame CRC32, codec spec)",
            "n_frames": 8,
            "container_bytes": container_bytes,
            "dump_ms": round(dump_min * 1e3, 2),
            "dump_med_ms": round(dump_med * 1e3, 2),
            "dump_mb_s": round(mbs(dump_min), 1),
            "load_ms": round(load_min * 1e3, 2),
            "load_med_ms": round(load_med * 1e3, 2),
            "load_mb_s": round(mbs(load_min), 1),
        },
        "spill_store": {
            "workload": {
                "blob_budget_kb": 64,
                "n_blocks": int(n_blocks),
                "n_uses": REUSE_COUNT,
            },
            "baseline_lru": {
                "config": (
                    "tests/pipeline/lru_baseline.py: plain LRU, "
                    "forget-on-promote, seek+read, no array tier"
                ),
                **spill_baseline,
            },
            "overhauled": {
                "config": (
                    "2q tiers, retained on-disk records, mmap reads, "
                    "hot_cache_bytes=6MB, readahead_depth=4"
                ),
                **spill_overhauled,
            },
            "speedup": round(
                spill_overhauled["amortized_mb_s"]
                / max(spill_baseline["amortized_mb_s"], 1e-9), 2
            ),
            "disk_read_reduction": round(
                spill_baseline["disk_reads"]
                / max(spill_overhauled["disk_reads"], 1), 2
            ),
        },
        "codecs": codecs,
        "scaling": scaling,
        "cluster": cluster,
        "service": {
            "transport": "localhost TCP, PSRV framed protocol, blocking client",
            "roundtrip_ms": round(svc_min * 1e3, 2),
            "roundtrip_med_ms": round(svc_med * 1e3, 2),
            "roundtrip_mb_s": round(mbs(svc_min), 1),
            "concurrent": {
                "n_clients": n_clients,
                "total_ms": round(conc_s * 1e3, 1),
                "aggregate_mb_s": round(nbytes * n_clients / conc_s / 1e6, 1),
                "batches": batches,
                "batched_requests": batched_reqs,
                "coalescing_factor": round(batched_reqs / batches, 2)
                if batches else None,
            },
        },
        "telemetry": telemetry.metrics_snapshot(),
        "pre_pr_reference": PRE_PR_REFERENCE,
        "speedup_vs_pre_pr": {
            "compress": round(PRE_PR_REFERENCE["compress_ms"] / (c_min * 1e3), 2),
            "decompress_cold": round(
                PRE_PR_REFERENCE["decompress_cold_ms"] / (cold_min * 1e3), 2
            ),
            "decompress_warm": round(
                PRE_PR_REFERENCE["decompress_warm_ms"] / (warm_min * 1e3), 2
            ),
        },
    }


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output", default="BENCH_pr9.json", type=Path)
    ap.add_argument("--reps", default=15, type=int)
    args = ap.parse_args(argv)
    record = run(reps=args.reps)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    p = record["pastri"]
    c = record["container"]
    print(f"wrote {args.output}")
    print(
        f"compress {p['compress_ms']} ms ({p['compress_mb_s']} MB/s)  "
        f"decompress cold {p['decompress_cold_ms']} ms / warm "
        f"{p['decompress_warm_ms']} ms  ratio {p['ratio']}x"
    )
    print(
        f"container dump {c['dump_ms']} ms ({c['dump_mb_s']} MB/s)  "
        f"load {c['load_ms']} ms ({c['load_mb_s']} MB/s)"
    )
    sp = record["spill_store"]
    print(
        f"spill store baseline {sp['baseline_lru']['amortized_mb_s']} MB/s "
        f"({sp['baseline_lru']['disk_reads']} disk reads) -> overhauled "
        f"{sp['overhauled']['amortized_mb_s']} MB/s "
        f"({sp['overhauled']['disk_reads']} disk reads): "
        f"{sp['speedup']}x faster, {sp['disk_read_reduction']}x fewer reads, "
        f"readahead accuracy {sp['overhauled']['readahead']['accuracy']}"
    )
    s = record["service"]
    print(
        f"service roundtrip {s['roundtrip_ms']} ms ({s['roundtrip_mb_s']} MB/s)  "
        f"{s['concurrent']['n_clients']} clients {s['concurrent']['total_ms']} ms "
        f"({s['concurrent']['aggregate_mb_s']} MB/s aggregate, "
        f"coalescing x{s['concurrent']['coalescing_factor']})"
    )
    sc = record["scaling"]
    print(
        f"scaling ({sc['transport']}, cpus={record['machine']['cpus']}): "
        f"compress {sc['compress']['speedup_vs_1']}  "
        f"container load {sc['container_load']['speedup_vs_1']}  "
        f"shm borrowed {sc['shm_telemetry_delta']['bytes_borrowed']} B / "
        f"copied {sc['shm_telemetry_delta']['bytes_copied']} B"
    )
    cl = record["cluster"]
    print(
        "cluster (64 clients): "
        + "  ".join(
            f"{n} shards {r['aggregate_mb_s']} MB/s p95 {r['gateway_p95_ms']} ms"
            for n, r in cl["rows"].items()
        )
    )
    for ds_name, per in record["codecs"]["rows"].items():
        cells = "  ".join(
            f"{name} {row['ratio']}x" for name, row in per.items()
        )
        print(f"codecs [{ds_name}]: {cells}")
    for ds_name, curve in record["codecs"]["lowrank_rank_curve"].items():
        ad = curve["adaptive"]
        print(
            f"lowrank rank curve [{ds_name}]: adaptive r={ad['chosen_rank']} "
            f"({ad['ratio']}x), pinned "
            + " ".join(
                f"r{p['rank']}={p['ratio']}x" for p in curve["pinned"]
            )
        )
    print(f"speedups vs pre-PR: {record['speedup_vs_pre_pr']}")


if __name__ == "__main__":
    main()
