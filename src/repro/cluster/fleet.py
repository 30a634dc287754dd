"""Launch, kill, and restart a local shard fleet.

Two harnesses share the :class:`ShardSpec` vocabulary:

* :class:`LocalFleet` — every shard is a thread-hosted
  :class:`~repro.service.server.CompressionServer` (``serve_in_thread``)
  and the gateway runs on its own thread too.  Zero subprocess overhead:
  this is what the cluster tests and benchmarks drive, including hard
  shard kills (:meth:`LocalFleet.kill` aborts the server without
  footering its spill container) and salvage-path rejoins
  (:meth:`LocalFleet.restart`).
* :class:`SubprocessFleet` — every shard is a real ``pastri serve``
  subprocess; a SIGKILLed shard is a genuinely dead process.  The
  ``pastri cluster`` CLI builds on this, recording the topology in a
  ``cluster.json`` state file so ``status``/``kill``/``drain`` can find
  the fleet later.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

from repro.cluster.gateway import GatewayConfig, gateway_in_thread
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig, serve_in_thread

__all__ = [
    "ShardSpec",
    "LocalFleet",
    "SubprocessFleet",
    "spawn_detached",
    "write_state",
    "read_state",
    "STATE_FILE",
]

STATE_FILE = "cluster.json"
_BANNER = re.compile(r"listening on ([\w.\-]+):(\d+)")


@dataclass
class ShardSpec:
    """One shard's identity and address (pid set for subprocess shards)."""

    name: str
    host: str = "127.0.0.1"
    port: int = 0
    spill_path: str | None = None
    pid: int | None = None


class LocalFleet:
    """A thread-hosted fleet: N shards + one gateway, all in this process."""

    def __init__(
        self,
        n_shards: int,
        data_dir: str,
        replication: int = 2,
        error_bound: float = 1e-10,
        server_kwargs: dict | None = None,
        gateway_kwargs: dict | None = None,
    ) -> None:
        self.data_dir = str(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.error_bound = float(error_bound)
        self.replication = int(replication)
        self._server_kwargs = dict(server_kwargs or {})
        self._gateway_kwargs = dict(gateway_kwargs or {})
        self.specs = [
            ShardSpec(
                name=f"shard-{i:02d}",
                spill_path=os.path.join(self.data_dir, f"shard-{i:02d}.pstf"),
            )
            for i in range(int(n_shards))
        ]
        self._handles: dict[str, object] = {}
        self.gateway = None  # the gateway's EndpointHandle once started

    # -- lifecycle -----------------------------------------------------------

    def _shard_config(self, spec: ShardSpec) -> ServerConfig:
        return ServerConfig(
            host=spec.host,
            port=spec.port,
            shard_id=spec.name,
            error_bound=self.error_bound,
            spill_path=spec.spill_path,
            spill_recover=True,
            **self._server_kwargs,
        )

    def start(self) -> "LocalFleet":
        for spec in self.specs:
            handle = serve_in_thread(self._shard_config(spec))
            spec.port = handle.port  # pin: restarts rebind the same address
            self._handles[spec.name] = handle
        config = GatewayConfig(
            shards=[(s.name, s.host, s.port) for s in self.specs],
            replication=self.replication,
            hint_path=os.path.join(self.data_dir, "hints.jsonl"),
            **self._gateway_kwargs,
        )
        self.gateway = gateway_in_thread(config)
        return self

    def stop(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        for handle in self._handles.values():
            handle.stop()
        self._handles.clear()

    def __enter__(self) -> "LocalFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- fault injection -----------------------------------------------------

    def kill(self, name: str) -> None:
        """Hard-kill one shard: no drain, spill container left footerless."""
        self._handles.pop(name).kill()

    def stop_shard(self, name: str) -> None:
        """Gracefully drain one shard (footers its spill container)."""
        self._handles.pop(name).stop()

    def restart(self, name: str) -> None:
        """Bring a killed/stopped shard back on its original address.

        ``spill_recover=True`` sends it through the salvage path: whatever
        its previous life spilled is served again; the gateway's health
        checks notice the rejoin and drain any hints owed to it.
        """
        spec = next(s for s in self.specs if s.name == name)
        if name in self._handles:
            raise ServiceError(f"shard {name} is already running")
        self._handles[name] = serve_in_thread(self._shard_config(spec))

    # -- live resharding -----------------------------------------------------

    def add_shard(self, name: str | None = None) -> dict:
        """Start a fresh shard and migrate its share of keys onto it live.

        Spins up the thread-hosted server first, then drives the
        gateway's ``cluster.reshard.add`` op — the call returns once the
        migration has streamed and the ring has flipped.  Returns the
        reshard summary (keys scanned/remapped/moved, the moved keys).
        """
        name = name or f"shard-{len(self.specs):02d}"
        if any(s.name == name for s in self.specs):
            raise ServiceError(f"shard {name} already exists")
        spec = ShardSpec(
            name=name, spill_path=os.path.join(self.data_dir, f"{name}.pstf")
        )
        handle = serve_in_thread(self._shard_config(spec))
        spec.port = handle.port
        self.specs.append(spec)
        self._handles[name] = handle
        with self.client(timeout=120.0) as client:
            return client.reshard_add(name, spec.host, spec.port)

    def remove_shard(self, name: str) -> dict:
        """Migrate a shard's keys to their new owners, then stop it."""
        with self.client(timeout=120.0) as client:
            summary = client.reshard_remove(name)
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.stop()
        self.specs = [s for s in self.specs if s.name != name]
        return summary

    # -- clients -------------------------------------------------------------

    def client(self, **kwargs) -> ServiceClient:
        """A client talking to the gateway (the normal front door)."""
        return ServiceClient(self.gateway.host, self.gateway.port, **kwargs)

    def shard_client(self, name: str, **kwargs) -> ServiceClient:
        """A client talking directly to one shard (tests, hint drains)."""
        spec = next(s for s in self.specs if s.name == name)
        return ServiceClient(spec.host, spec.port, **kwargs)


class SubprocessFleet:
    """Real ``pastri serve`` subprocesses — the CLI fleet."""

    def __init__(
        self,
        n_shards: int,
        data_dir: str,
        error_bound: float = 1e-10,
        serve_args: list[str] | None = None,
    ) -> None:
        self.data_dir = str(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.error_bound = float(error_bound)
        self.serve_args = list(serve_args or [])
        self.specs = [
            ShardSpec(
                name=f"shard-{i:02d}",
                spill_path=os.path.join(self.data_dir, f"shard-{i:02d}.pstf"),
            )
            for i in range(int(n_shards))
        ]
        self._procs: dict[str, subprocess.Popen] = {}

    def start(self, boot_timeout_s: float = 30.0) -> "SubprocessFleet":
        for spec in self.specs:
            self._procs[spec.name] = self._spawn(spec)
        deadline = time.monotonic() + boot_timeout_s
        for spec in self.specs:
            spec.port = self._scrape_port(self._procs[spec.name], deadline)
            spec.pid = self._procs[spec.name].pid
        return self

    def _spawn(self, spec: ShardSpec) -> subprocess.Popen:
        cmd, env = _serve_command(spec, self.error_bound, self.serve_args)
        return subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )

    def add_shard(self, name: str | None = None,
                  boot_timeout_s: float = 30.0) -> ShardSpec:
        """Spawn one more shard process (the caller drives the reshard op).

        A :class:`SubprocessFleet` does not own the gateway — the launch
        harness does — so this only boots the process and reports its
        address; pair it with ``ServiceClient.reshard_add``.
        """
        name = name or f"shard-{len(self.specs):02d}"
        if any(s.name == name for s in self.specs):
            raise ServiceError(f"shard {name} already exists")
        spec = ShardSpec(
            name=name, spill_path=os.path.join(self.data_dir, f"{name}.pstf")
        )
        self._procs[name] = self._spawn(spec)
        spec.port = self._scrape_port(
            self._procs[name], time.monotonic() + boot_timeout_s
        )
        spec.pid = self._procs[name].pid
        self.specs.append(spec)
        return spec

    def remove_shard(self, name: str, timeout_s: float = 20.0) -> None:
        """Stop a shard process and drop it from the roster.

        Call after ``ServiceClient.reshard_remove`` has migrated its keys
        away — terminating first would fail the migration's copy source.
        """
        proc = self._procs.pop(name, None)
        if proc is not None and proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout_s)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(5)
        self.specs = [s for s in self.specs if s.name != name]

    def restart(self, name: str, boot_timeout_s: float = 30.0) -> None:
        """Bring a killed shard back on its original (pinned) address.

        The gateway's ring knows the shard only by that address, so the
        rejoin must rebind it; ``spill_recover`` (the serve default) then
        salvages whatever the previous life spilled.
        """
        spec = next(s for s in self.specs if s.name == name)
        proc = self._procs.get(name)
        if proc is not None and proc.poll() is None:
            raise ServiceError(f"shard {name} is already running")
        if spec.port == 0:
            raise ServiceError(f"shard {name} was never started; no pinned port")
        self._procs[name] = self._spawn(spec)
        got = self._scrape_port(
            self._procs[name], time.monotonic() + boot_timeout_s
        )
        if got != spec.port:  # pragma: no cover - port stolen meanwhile
            raise ServiceError(f"shard {name} rebound to {got} != {spec.port}")
        spec.pid = self._procs[name].pid

    @staticmethod
    def _scrape_port(proc: subprocess.Popen, deadline: float) -> int:
        lines = []
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                if proc.poll() is not None:
                    break
                continue
            lines.append(line)
            m = _BANNER.search(line)
            if m:
                return int(m.group(2))
        raise ServiceError(
            "shard failed to report its port; output so far:\n" + "".join(lines)
        )

    # -- fault injection / teardown ------------------------------------------

    def kill(self, name: str) -> None:
        """SIGKILL one shard — a genuinely dead process, no cleanup ran."""
        proc = self._procs.get(name)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(10)

    def terminate_all(self, timeout_s: float = 20.0) -> None:
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + timeout_s
        for proc in self._procs.values():
            try:
                proc.wait(max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(5)

    def __enter__(self) -> "SubprocessFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate_all()


def _serve_command(spec: ShardSpec, error_bound: float,
                   serve_args: list[str] | None = None
                   ) -> tuple[list[str], dict]:
    """The ``pastri serve`` command line + env for one shard process."""
    env = dict(os.environ)
    src = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--host", spec.host, "--port", str(spec.port),
        "--eb", repr(float(error_bound)),
        "--spill", spec.spill_path,
        "--shard-id", spec.name,
        *(serve_args or []),
    ]
    return cmd, env


def spawn_detached(spec: ShardSpec, data_dir: str, error_bound: float,
                   serve_args: list[str] | None = None,
                   boot_timeout_s: float = 30.0) -> ShardSpec:
    """Spawn a shard that outlives the calling process (CLI ``add-shard``).

    The child gets its own session (``start_new_session``) and logs to
    ``<dir>/<name>.log``; the listening port is scraped from that log.
    Fills in ``spec.port``/``spec.pid`` and returns the spec.
    """
    cmd, env = _serve_command(spec, error_bound, serve_args)
    log_path = os.path.join(data_dir, f"{spec.name}.log")
    with open(log_path, "a", encoding="utf-8") as log:
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True,
        )
    deadline = time.monotonic() + boot_timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        try:
            with open(log_path, "r", encoding="utf-8") as fh:
                m = _BANNER.search(fh.read())
        except OSError:  # pragma: no cover
            m = None
        if m:
            spec.port = int(m.group(2))
            spec.pid = proc.pid
            return spec
        time.sleep(0.05)
    raise ServiceError(
        f"detached shard {spec.name} failed to report its port; see {log_path}"
    )


# ---------------------------------------------------------------------------
# cluster state file (the ``pastri cluster`` CLI's handle on a fleet)


def write_state(data_dir: str, gateway_host: str, gateway_port: int,
                gateway_pid: int, specs: list[ShardSpec],
                replication: int, error_bound: float | None = None) -> str:
    """Record a running fleet's topology in ``<dir>/cluster.json``."""
    path = os.path.join(data_dir, STATE_FILE)
    state = {
        "gateway": {"host": gateway_host, "port": gateway_port,
                    "pid": gateway_pid},
        "replication": replication,
        "error_bound": error_bound,
        "shards": [asdict(s) for s in specs],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=2)
    os.replace(tmp, path)
    return path


def read_state(data_dir: str) -> dict:
    """Load ``<dir>/cluster.json`` written by ``pastri cluster launch``."""
    path = os.path.join(data_dir, STATE_FILE)
    if not os.path.exists(path):
        raise ServiceError(
            f"no {STATE_FILE} under {data_dir!r} — is a fleet launched there?"
        )
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
