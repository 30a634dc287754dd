"""The fleet probe: ``service.*`` and ``cluster.*`` per-layer metrics.

A fleet is started the way ``pastri cluster launch --shards 3
--replication 2`` deploys it: three ``pastri serve`` shard processes and
the gateway in the launcher process.  :data:`PROBE_KEYS` keys are
preloaded through the gateway.  Then a fourth shard is added with
``cluster.reshard.add`` and removed again with ``cluster.reshard.remove``
while two reader connections keep reading; every read is checked against
the value written under its key.  Next, the same ops are sent one at a
time straight to one shard and through the gateway.  The fleet is torn
down with ``pastri cluster drain``.  Readers do not retry: a BUSY or
DEADLINE reply counts as a failed operation.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from perfbench import inputs
from perfbench.common import alive, median

SHARDS = 3
REPLICATION = 2
CLIENTS = 2
BULK_BLOCKS = 16
PROBE_OPS = 200
PROBE_BULK = 30
PROBE_KEYS = 256
BOOT_TIMEOUT_S = 60.0
OP_TIMEOUT_S = 60.0


def _env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _cli(*args) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def _client(host, port, timeout=OP_TIMEOUT_S):
    from repro.service.client import RetryPolicy, ServiceClient

    return ServiceClient(host, port, timeout=timeout,
                         retry=RetryPolicy(max_retries=0))


class Fleet:
    """One ``pastri cluster launch`` fleet under ``fleet_dir``."""

    def __init__(self, ctx, fleet_dir: str) -> None:
        self.ctx = ctx
        self.dir = fleet_dir
        self.proc = None
        self.state = None

    def start(self) -> "Fleet":
        from repro.cluster.fleet import read_state
        from repro.errors import ServiceError

        os.makedirs(self.dir)
        with open(os.path.join(self.dir, "launch.log"), "w") as log:
            self.proc = subprocess.Popen(
                _cli("cluster", "launch", "--dir", self.dir,
                     "--shards", str(SHARDS), "--replication", str(REPLICATION),
                     "--eb", repr(inputs.ERROR_BOUND)),
                stdout=log, stderr=subprocess.STDOUT, env=_env(self.ctx.root),
                cwd=self.ctx.root,
            )
        self.ctx.guard.watch(self.proc.pid)
        try:
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            while self.state is None:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"cluster launch exited early; see {self.dir}")
                try:
                    self.state = read_state(self.dir)
                except (ServiceError, ValueError):
                    if time.monotonic() > deadline:
                        raise RuntimeError("cluster launch did not come up") from None
                    time.sleep(0.05)
            for s in self.state["shards"]:
                self.ctx.guard.watch(s["pid"])
            with self.client() as c:
                c.health()
        except BaseException:
            self.drain()
            raise
        return self

    @property
    def gateway(self) -> tuple[str, int]:
        gw = self.state["gateway"]
        return gw["host"], int(gw["port"])

    def client(self, timeout=OP_TIMEOUT_S):
        return _client(*self.gateway, timeout=timeout)

    def drain(self) -> None:
        """``pastri cluster drain``, wait for every fleet process, then
        remove the fleet dir.

        Before ``cluster.json`` exists the launcher gets the SIGTERM that
        ``drain`` would send it; its shards stop with it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            if self.state is None:
                self.proc.terminate()
            else:
                subprocess.run(_cli("cluster", "drain", "--dir", self.dir),
                               env=_env(self.ctx.root), cwd=self.ctx.root,
                               stdout=subprocess.DEVNULL, timeout=60)
        try:
            self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(10)
        self.proc = None
        shutil.rmtree(self.dir, ignore_errors=True)


def _reap(pid: int, timeout_s: float = 20.0) -> None:
    """Wait for a child started by ``spawn_detached`` to exit and reap it."""
    deadline = time.monotonic() + timeout_s
    while alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if alive(pid):
        os.kill(pid, signal.SIGKILL)
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass  # already reaped by subprocess' own cleanup


class Readers:
    """Reader connections that get keys until stopped, checking each value.

    Each reader owns the keys ``ci, ci + CLIENTS, ...`` and draws them
    with Zipf-skewed popularity.
    """

    def __init__(self, ctx, fleet, keys, values):
        self.ctx = ctx
        self.fleet = fleet
        self.keys = keys
        self.values = values  # per reader: key index -> last written block
        self.stop = threading.Event()
        self.reads = [0] * CLIENTS  # completed, checked reads per reader

    def _run(self, ci: int) -> None:
        tally = self.ctx.tally
        rng = np.random.default_rng([self.ctx.seed, 1000 + ci])
        mine = list(range(ci, len(self.keys), CLIENTS))
        hot = rng.permutation(len(mine))
        expected = self.values[ci]
        with self.fleet.client() as c:
            while not self.stop.is_set():
                for rank in inputs.zipf_ranks(rng, len(mine), 256):
                    if self.stop.is_set():
                        break
                    k = mine[hot[rank]]
                    try:
                        out = c.get(self.keys[k])
                        tally.check(expected[k], out, inputs.ERROR_BOUND,
                                    "gateway get during reshard")
                    except Exception as exc:  # every failed op is counted
                        tally.fail(f"gateway get: {type(exc).__name__}: {exc}")
                        continue
                    self.reads[ci] += 1

    def start(self) -> list[threading.Thread]:
        threads = [threading.Thread(target=self._run, args=(i,), daemon=True)
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        return threads


def _preload(ctx, fleet, keys, pool, rng):
    """Write every key once (both halves in parallel, one per connection)."""
    picks = rng.integers(len(pool), size=len(keys))
    values = [dict() for _ in range(CLIENTS)]

    def load(ci):
        with fleet.client() as c:
            for k in range(ci, len(keys), CLIENTS):
                block = pool[picks[k]]
                try:
                    c.put(keys[k], block, dims=inputs.DIMS)
                except Exception as exc:
                    ctx.tally.fail(f"preload put: {type(exc).__name__}: {exc}")
                    continue
                values[ci][k] = block
                ctx.tally.ok()

    threads = [threading.Thread(target=load, args=(i,)) for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return values


def _reshard(ctx, fleet) -> dict:
    """Add a fourth shard live, then remove it; returns the op replies and
    the admin-side wall time of the two ops (shard boot excluded)."""
    from repro.cluster.fleet import ShardSpec, read_state, spawn_detached, write_state

    state = read_state(fleet.dir)
    gw = state["gateway"]
    specs = [ShardSpec(**{k: s.get(k) for k in
                          ("name", "host", "port", "spill_path", "pid")})
             for s in state["shards"]]
    spec = ShardSpec(name=f"shard-{len(specs):02d}",
                     spill_path=os.path.join(fleet.dir, f"shard-{len(specs):02d}.pstf"))
    spawn_detached(spec, fleet.dir, inputs.ERROR_BOUND)
    ctx.guard.watch(spec.pid)
    ctx.sampler.watch(spec.pid)

    def record(roster):
        write_state(fleet.dir, gw["host"], int(gw["port"]), gw["pid"], roster,
                    state.get("replication", REPLICATION), state.get("error_bound"))

    # record the new shard before migrating, so a drain reaches it whatever
    # happens next
    record(specs + [spec])
    try:
        with fleet.client(timeout=300.0) as admin:
            t0 = time.perf_counter()
            add = admin.reshard_add(spec.name, spec.host, spec.port)
            t1 = time.perf_counter()
            remove = admin.reshard_remove(spec.name)
            t2 = time.perf_counter()
        ctx.tally.ok(2)
    finally:
        os.kill(spec.pid, signal.SIGTERM)
        _reap(spec.pid)
        record(specs)
    return {"add": add, "remove": remove, "seconds": (t1 - t0) + (t2 - t1)}


def _op_probes(ctx, client, pool, tag: str) -> dict:
    """p50 seconds of ``health``, ``put``, ``get`` and a bulk round trip,
    sent one at a time by one client to one endpoint."""
    health, put, get, bulk = [], [], [], []
    payload = pool[:BULK_BLOCKS].reshape(-1)
    for _ in range(PROBE_OPS):
        t0 = time.perf_counter()
        client.health()
        health.append(time.perf_counter() - t0)
    for i in range(PROBE_OPS):
        t0 = time.perf_counter()
        client.put((tag, i), pool[i % len(pool)], dims=inputs.DIMS)
        put.append(time.perf_counter() - t0)
        ctx.tally.ok()
    for i in range(PROBE_OPS):
        t0 = time.perf_counter()
        out = client.get((tag, i))
        get.append(time.perf_counter() - t0)
        ctx.tally.check(pool[i % len(pool)], out, inputs.ERROR_BOUND, f"{tag} get")
    for _ in range(PROBE_BULK):
        t0 = time.perf_counter()
        blob, _ = client.compress(payload, inputs.ERROR_BOUND, dims=inputs.DIMS)
        out = client.decompress(blob)
        bulk.append(time.perf_counter() - t0)
        ctx.tally.check(payload, out, inputs.ERROR_BOUND, f"{tag} bulk")
    return {"health": median(health), "put": median(put), "get": median(get),
            "bulk": median(bulk)}


def _fleet_probes(ctx, fleet, pool) -> dict:
    """``service.*`` from ops sent straight to one shard, and the gateway's
    added latency: the same ops, one at a time, through the gateway."""
    shard = fleet.state["shards"][0]
    with _client(shard["host"], int(shard["port"])) as c:
        direct = _op_probes(ctx, c, pool, "probe-shard")
    with fleet.client() as c:
        routed = _op_probes(ctx, c, pool, "probe-gateway")
    out = {f"service.{op}.p50_ms": direct[op] * 1e3
           for op in ("health", "get", "put", "bulk")}
    out["cluster.get.added_ms"] = (routed["get"] - direct["get"]) * 1e3
    out["cluster.put.added_ms"] = (routed["put"] - direct["put"]) * 1e3
    out.update(_shard_counters(fleet))
    return out


def _reshard_metrics(reshard: dict) -> dict:
    add, remove = reshard["add"], reshard["remove"]
    return {
        "cluster.reshard_s": reshard["seconds"],
        "cluster.reshard.moved_frac": add["keys_moved"] / max(1, add["keys_scanned"]),
        "cluster.reshard.bytes_moved": add["bytes_moved"] + remove["bytes_moved"],
        "cluster.reshard.copy_failures": add["copy_failures"] + remove["copy_failures"],
    }


def probe_fleet(ctx, pool) -> dict:
    """Boot, preload, reshard under reads, probe and drain one fleet."""
    rng = np.random.default_rng([ctx.seed, 11])
    fleet = Fleet(ctx, os.path.join(ctx.workdir, "probe-fleet")).start()
    try:
        keys = inputs.quartet_keys(rng, PROBE_KEYS)
        readers = Readers(ctx, fleet, keys, _preload(ctx, fleet, keys, pool, rng))
        # before the reshard: migration reads fail over by design
        out = _gateway_counters(fleet)
        threads = readers.start()
        try:
            out.update(_reshard_metrics(_reshard(ctx, fleet)))
        finally:
            readers.stop.set()
            for t in threads:
                t.join(OP_TIMEOUT_S + 5)
        if not all(readers.reads):
            ctx.tally.fail("no read completed during the reshard")
        out.update(_fleet_probes(ctx, fleet, pool))
    finally:
        fleet.drain()
    return out


def _counter(metrics: dict, name: str) -> int:
    return int((metrics.get(name) or {}).get("value", 0))


def _gateway_counters(fleet) -> dict:
    """Failover and hint counters from the gateway's ``cluster.stats``."""
    with fleet.client() as c:
        gm = c.cluster_stats().get("gateway_metrics", {})
    return {
        "cluster.failovers": _counter(gm, "cluster.failovers"),
        "cluster.hints.recorded": _counter(gm, "cluster.hints.recorded"),
    }


def _shard_counters(fleet) -> dict:
    """Refusal and batching counters from every shard's ``metrics`` reply."""
    rejected = batched = batches = 0
    for s in fleet.state["shards"]:
        with _client(s["host"], int(s["port"])) as c:
            m = c.metrics()
        rejected += _counter(m, "service.busy") + _counter(m, "service.deadline")
        batched += _counter(m, "service.batch.requests")
        batches += _counter(m, "service.batches")
    return {
        "service.rejected": rejected,
        "service.coalescing": batched / batches if batches else 0.0,
    }
