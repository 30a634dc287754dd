"""Service clients: sync and async, with retry, backoff, and jitter.

:class:`ServiceClient` is the blocking client — one reused TCP connection,
one request in flight at a time (the server pipelines across *clients*,
not within a connection).  :class:`AsyncServiceClient` is its asyncio twin
for event-loop callers: one :class:`Link` (the lazy, self-healing asyncio
PSRV connection the cluster gateway also pools to reach its shards) plus
a lock and the retry loop.  Both speak :mod:`repro.service.protocol` and
raise the typed :mod:`repro.errors` hierarchy.

Retries follow :class:`RetryPolicy`: BUSY/SHUTTING_DOWN replies and
connection failures back off exponentially with full jitter
(``delay = uniform(0, base * 2**attempt)``, capped) and retry up to
``max_retries`` times; every service op here is idempotent, so a retry
after a torn connection is always safe.  ``DEADLINE`` replies retry too —
the server dropped the request unprocessed.  ``BAD_REQUEST`` and other
structured failures surface immediately.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import DeadlineExceeded, ServerBusyError, ServiceError
from repro.service import protocol
from repro.service.buffers import PayloadBuffer

__all__ = ["RetryPolicy", "ServiceClient", "AsyncServiceClient", "Link"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter for retryable failures."""

    max_retries: int = 6
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def delay(self, attempt: int, hint_s: float = 0.0) -> float:
        """Jittered delay before retry ``attempt`` (0-based), >= ``hint_s``."""
        span = min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** attempt))
        return max(hint_s, random.uniform(0.0, span))


def _is_retryable(exc: Exception) -> bool:
    if isinstance(exc, (ServerBusyError, DeadlineExceeded)):
        return True
    if isinstance(exc, ServiceError):  # ProtocolError / RemoteError: surface
        return False
    return isinstance(exc, (ConnectionError, asyncio.TimeoutError, OSError))


def _retry_hint(exc: Exception) -> float:
    return exc.retry_after_s if isinstance(exc, ServerBusyError) else 0.0


class ServiceClient:
    """Blocking client over one reused TCP connection.

    >>> with ServiceClient("127.0.0.1", 7557) as c:
    ...     blob, info = c.compress(data, eb=1e-10)
    ...     again = c.decompress(blob)

    The connection is opened lazily and re-opened transparently after a
    failure; ``timeout`` bounds every socket operation.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7557,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.max_payload = max_payload
        self._sock: socket.socket | None = None
        self._next_id = 0
        # One growable receive buffer for the connection's lifetime:
        # responses land in it via recv_into, so the steady-state happy
        # path does zero per-request allocation (see buffers.PayloadBuffer).
        self._recv_buf = PayloadBuffer()

    # -- connection management -------------------------------------------------

    def _connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def close(self) -> None:
        """Close the connection (the client can be reused; it reconnects)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _send_parts(self, parts: list) -> None:
        """writev-style send: header prefix + payload go out as one
        scatter-gather call, no concatenation copy."""
        bufs = [memoryview(p) if not isinstance(p, memoryview) else p
                for p in parts]
        while bufs:
            sent = self._sock.sendmsg(bufs)
            while bufs and sent >= bufs[0].nbytes:
                sent -= bufs[0].nbytes
                bufs.pop(0)
            if bufs and sent:
                bufs[0] = bufs[0][sent:]

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- request plumbing ------------------------------------------------------

    def _roundtrip_once(self, op: str, params: dict, payload
                        ) -> tuple[dict, memoryview]:
        """One request/response; the returned body is a memoryview into
        the client's reusable receive buffer — valid until the next call."""
        self._connect()
        self._next_id += 1
        req_id = self._next_id
        try:
            self._send_parts(
                protocol.encode_request_parts(op, req_id, params, payload)
            )
            header, body = protocol.check_reply(
                protocol.read_frame_socket(
                    self._sock, self._recv_buf, self.max_payload
                ),
                req_id,
            )
        except BaseException:
            # any failure may leave the stream desynchronized: reconnect
            self.close()
            raise
        return protocol.raise_for_error(header), body

    def _roundtrip(self, op: str, params: dict | None = None,
                   payload=b"") -> tuple[dict, memoryview]:
        params = params or {}
        attempt = 0
        while True:
            try:
                return self._roundtrip_once(op, params, payload)
            except Exception as exc:
                if not _is_retryable(exc) or attempt >= self.retry.max_retries:
                    raise
                time.sleep(self.retry.delay(attempt, _retry_hint(exc)))
                attempt += 1

    # -- operations ------------------------------------------------------------

    def compress(self, data: np.ndarray, eb: float, dims=None
                 ) -> tuple[bytes, dict]:
        """Compress ``data`` remotely; returns ``(blob, info)`` where info
        carries ``n``, ``compressed_bytes``, ``ratio``, and the applied
        ``eb``."""
        payload, n = protocol.array_to_view(data)
        params: dict = {"eb": float(eb), "n": n}
        if dims is not None:
            params["dims"] = [int(d) for d in dims]
        result, body = self._roundtrip("compress", params, payload)
        # the view aliases the reusable receive buffer; the blob escapes
        # this call, so materialize it (the one copy on this path)
        return bytes(body), result

    def decompress(self, blob: bytes) -> np.ndarray:
        """Decompress a codec blob remotely; returns the float64 array."""
        result, body = self._roundtrip("decompress", {}, blob)
        return protocol.payload_to_array(body, result.get("n"))

    def put(self, key, block: np.ndarray, dims=None) -> dict:
        """Store one block under ``key`` (compressed server-side at the
        store's error bound)."""
        payload, n = protocol.array_to_view(block)
        params: dict = {"key": key, "n": n}
        if dims is not None:
            params["dims"] = [int(d) for d in dims]
        result, _ = self._roundtrip("store.put", params, payload)
        return result

    def get(self, key) -> np.ndarray:
        """Fetch (decompress) the block stored under ``key``."""
        result, body = self._roundtrip("store.get", {"key": key})
        return protocol.payload_to_array(body, result.get("n"))

    def stats(self) -> dict:
        """The server store's :class:`StoreStats` as a dict."""
        return self._roundtrip("store.stats")[0]

    def health(self) -> dict:
        """Server liveness/drain state, uptime, queue depth, codec spec."""
        return self._roundtrip("health")[0]

    def metrics(self) -> dict:
        """The server's full telemetry registry snapshot."""
        return self._roundtrip("metrics")[0].get("metrics", {})

    def cluster_stats(self) -> dict:
        """Fleet-wide stats (gateways only; shards answer BAD_REQUEST)."""
        return self._roundtrip("cluster.stats")[0]

    def reshard_add(self, name: str, host: str, port: int) -> dict:
        """Add a shard to a live gateway and migrate its keys over.

        Blocks until the migration completes and the ring has flipped;
        the returned summary reports keys scanned/remapped/moved and the
        moved key list.  Gateways only.
        """
        return self._roundtrip(
            "cluster.reshard.add", {"name": name, "host": host, "port": int(port)}
        )[0]

    def reshard_remove(self, name: str) -> dict:
        """Drain a shard's keys to their new owners and drop it (gateways)."""
        return self._roundtrip("cluster.reshard.remove", {"name": name})[0]

    def reshard_status(self) -> dict:
        """Progress of the in-flight migration, if any (gateways only)."""
        return self._roundtrip("cluster.reshard.status")[0]

    def call(self, op: str, params: dict | None = None, payload=b""
             ) -> tuple[dict, bytes]:
        """Raw escape hatch: one op round-trip, retries included.

        Returns ``(result, payload_bytes)`` — the payload is materialized
        (it escapes the reusable receive buffer).  The cluster CLI and
        tests use this for ops without a dedicated method.
        """
        result, body = self._roundtrip(op, params, payload)
        return result, bytes(body)


class Link:
    """One lazy, self-healing asyncio PSRV connection.

    The connection opens on the first :meth:`call`.  Any exit from a call
    that is not a clean round trip — a transport or framing error, a
    mismatched reply, a timeout or cancellation imposed by the caller —
    aborts the connection: a half-written request or half-read reply can
    never reach the next call, which reconnects.
    """

    def __init__(self, host: str, port: int,
                 max_payload: int = protocol.DEFAULT_MAX_PAYLOAD) -> None:
        self.host = host
        self.port = port
        self.max_payload = max_payload
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0

    async def call(self, op: str, params: dict, payload=b"",
                   route: dict | None = None) -> tuple[dict, bytes]:
        """One round trip; returns the raw reply ``(header, payload)``.

        Error *replies* come back as headers (``ok: false``) for the
        caller to interpret; only transport and framing failures raise.
        The request payload goes out as a buffer-chain part — no copy.
        """
        try:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            self._next_id += 1
            req_id = self._next_id
            self._writer.writelines(
                protocol.encode_request_parts(op, req_id, params, payload, route)
            )
            await self._writer.drain()
            return protocol.check_reply(
                await protocol.read_frame_async(self._reader, self.max_payload),
                req_id,
            )
        except BaseException:  # cancellation included
            self.abort()
            raise

    def abort(self) -> None:
        """Drop the connection without awaiting (safe under cancellation);
        the transport closes on the loop's next tick and the next call
        reconnects."""
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None

    async def close(self) -> None:
        """Close the connection and wait for it to go down."""
        writer = self._writer
        self.abort()
        if writer is not None:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class AsyncServiceClient:
    """Asyncio client with the same surface as :class:`ServiceClient`.

    One :class:`Link`, one request at a time (an internal lock serializes
    concurrent callers); ``timeout`` bounds each round trip, and
    retry/backoff is identical to the sync client.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7557,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.max_payload = max_payload
        self._link = Link(host, port, max_payload)
        self._lock = asyncio.Lock()

    async def close(self) -> None:
        await self._link.close()

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def _roundtrip(self, op: str, params: dict | None = None,
                         payload: bytes = b"") -> tuple[dict, bytes]:
        params = params or {}
        attempt = 0
        async with self._lock:
            while True:
                try:
                    header, body = await asyncio.wait_for(
                        self._link.call(op, params, payload), self.timeout
                    )
                    return protocol.raise_for_error(header), body
                except Exception as exc:
                    if not _is_retryable(exc) or attempt >= self.retry.max_retries:
                        raise
                    await asyncio.sleep(self.retry.delay(attempt, _retry_hint(exc)))
                    attempt += 1

    async def compress(self, data: np.ndarray, eb: float, dims=None
                       ) -> tuple[bytes, dict]:
        payload, n = protocol.array_to_view(data)
        params: dict = {"eb": float(eb), "n": n}
        if dims is not None:
            params["dims"] = [int(d) for d in dims]
        result, body = await self._roundtrip("compress", params, payload)
        return body, result

    async def decompress(self, blob: bytes) -> np.ndarray:
        result, body = await self._roundtrip("decompress", {}, blob)
        return protocol.payload_to_array(body, result.get("n"))

    async def put(self, key, block: np.ndarray, dims=None) -> dict:
        payload, n = protocol.array_to_view(block)
        params: dict = {"key": key, "n": n}
        if dims is not None:
            params["dims"] = [int(d) for d in dims]
        result, _ = await self._roundtrip("store.put", params, payload)
        return result

    async def get(self, key) -> np.ndarray:
        result, body = await self._roundtrip("store.get", {"key": key})
        return protocol.payload_to_array(body, result.get("n"))

    async def stats(self) -> dict:
        return (await self._roundtrip("store.stats"))[0]

    async def health(self) -> dict:
        return (await self._roundtrip("health"))[0]

    async def metrics(self) -> dict:
        return (await self._roundtrip("metrics"))[0].get("metrics", {})
