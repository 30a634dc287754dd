"""The asyncio PSRV endpoint core shared by the server and the gateway.

:class:`Endpoint` owns everything a PSRV listener does regardless of what
it serves: binding, ``serve_forever`` with the SIGTERM/SIGINT handlers,
the connection registry, the frame loop (``PROTOCOL`` error reply on a
framing error, ``SHUTTING_DOWN`` refusal once draining), the
per-connection write lock with ``writelines`` writes, request-task
tracking, the drain, the hard abort, and the thread host.
:class:`~repro.service.server.CompressionServer` and
:class:`~repro.cluster.gateway.ClusterGateway` subclass it and supply
only what differs, as overridden methods:

* :meth:`Endpoint._open` — start background work before the bind;
* :meth:`Endpoint._admit` — admission (backpressure) for one frame;
* :meth:`Endpoint._dispatch` — turn one request into a reply;
* :meth:`Endpoint._error_reply` — map a dispatch failure onto a wire code;
* :meth:`Endpoint._record_request` / :meth:`Endpoint._count_wire` —
  request telemetry under the subclass's own metric names;
* :meth:`Endpoint._release` — free the subclass's resources.

**Drain order** (:meth:`Endpoint.stop`): close the listener, refuse new
frames with ``SHUTTING_DOWN``, await every admitted request task, close
every connection so idle peers read EOF, await their handler tasks, then
release.  Nothing waits on a connection the endpoint has not closed
itself, so the drain returns promptly on every Python version —
including 3.12+, where ``Server.wait_closed`` waits for live
connections.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time

from repro import telemetry
from repro.errors import ParameterError, ProtocolError, ServiceError
from repro.service import protocol
from repro.telemetry import REGISTRY as _METRICS

__all__ = ["Endpoint", "EndpointHandle", "host_in_thread"]


class Endpoint:
    """Base asyncio PSRV endpoint; see the module docstring.

    ``config`` must carry ``host``, ``port``, ``max_payload_bytes`` and
    ``telemetry``.  ``kind`` names the endpoint in refusals and errors.
    """

    kind = "endpoint"

    def __init__(self, config) -> None:
        self.config = config
        self._server: asyncio.AbstractServer | None = None
        self._conns: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._tasks: set[asyncio.Task] = set()
        self._inflight_bytes = 0  # payload bytes of admitted, unanswered requests
        self._draining = False
        self._started = time.monotonic()
        self._stopped = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None:
            raise ServiceError(f"{self.kind} is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Start the subclass's background work, then bind the listener."""
        if self.config.telemetry:
            telemetry.enable()
        await self._open()
        self._started = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or SIGTERM/SIGINT on platforms with
        signal-handler support) has drained the endpoint."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful drain, in the one order given in the module docstring."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for writer in list(self._conns):
            writer.close()
        if self._conns:
            await asyncio.gather(*list(self._conns.values()), return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        await self._release(abort=False)
        self._stopped.set()

    async def abort(self) -> None:
        """Hard kill (tests/fault injection): die without draining.

        The listener closes, every connection is dropped at once with its
        unsent data discarded (the abrupt close a SIGKILLed process gives
        its peers), every request and handler task is cancelled, then the
        subclass releases in its crash-like mode (see :meth:`_release`).
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._conns):
            writer.transport.abort()
        pending = [*self._tasks, *self._conns.values()]
        for task in pending:
            task.cancel()
        if pending:  # let cancellations unwind while the loop still runs
            await asyncio.gather(*pending, return_exceptions=True)
        await self._release(abort=True)
        self._stopped.set()

    # -- subclass hooks --------------------------------------------------------

    async def _open(self) -> None:
        """Start background work the endpoint needs before it accepts."""

    def _admit(self, header: dict, payload: bytes) -> bytes | None:
        """Admission gate for one frame: a refusal frame, or ``None`` to admit."""
        return None

    async def _dispatch(self, header: dict, payload: bytes):
        """Serve one admitted request; returns a reply frame or parts list."""
        raise NotImplementedError

    def _error_reply(self, req_id, exc: Exception) -> bytes:
        """The error frame answering a request whose dispatch raised ``exc``."""
        raise NotImplementedError

    def _record_request(self, op: str | None, wall_s: float, bytes_in: int) -> None:
        """Request telemetry, called once per answered request."""

    def _count_wire(self, event: str, n: int = 1) -> None:
        """Wire telemetry: ``bytes_out`` per write, ``protocol_errors``."""

    async def _release(self, abort: bool) -> None:
        """Free the subclass's resources once no request or connection is
        left; ``abort`` asks for the crash-like variant."""

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        self._conns[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(
                        reader, self.config.max_payload_bytes
                    )
                except ProtocolError as exc:
                    # Structured refusal, then hang up: after a framing error
                    # the byte stream can no longer be trusted.
                    self._count_wire("protocol_errors")
                    await self._write(
                        writer, write_lock,
                        protocol.encode_error(None, "PROTOCOL", str(exc)),
                    )
                    break
                if frame is None:  # clean disconnect, or closed by the drain
                    break
                header, payload = frame
                if self._draining:
                    refusal = protocol.encode_error(
                        header.get("id"), "SHUTTING_DOWN",
                        f"{self.kind} is draining", retry_after_s=0.2,
                    )
                else:
                    refusal = self._admit(header, payload)
                if refusal is not None:
                    await self._write(writer, write_lock, refusal)
                    continue
                # account in-flight bytes at admission, not inside the task:
                # several frames can arrive in one event-loop tick, and the
                # gate must see each other's bytes before any task runs
                self._inflight_bytes += len(payload)
                task = asyncio.ensure_future(
                    self._serve_request(header, payload, writer, write_lock)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            # only abort() (or the loop's shutdown) cancels a handler, and
            # ends here; re-raising would make the stream's done-callback
            # log the cancellation as an error on Python 3.12.1
            pass
        finally:
            self._conns.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _write(self, writer, lock: asyncio.Lock, frame) -> None:
        """Write one frame — ``bytes`` or a writev-style parts list.

        Parts go out via ``writelines`` so a bulk payload (a codec blob, a
        decompressed array's memoryview) is never concatenated with its
        header; the transport scatter-gathers straight from the source
        buffers.
        """
        parts = frame if isinstance(frame, list) else [frame]
        async with lock:
            writer.writelines(parts)
            await writer.drain()
        self._count_wire("bytes_out", sum(
            p.nbytes if isinstance(p, memoryview) else len(p) for p in parts
        ))

    async def _serve_request(
        self, header: dict, payload: bytes, writer, write_lock: asyncio.Lock
    ) -> None:
        op = header.get("op")
        t0 = time.perf_counter()
        try:
            reply = await self._dispatch(header, payload)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            reply = self._error_reply(header.get("id"), exc)
        finally:
            self._inflight_bytes -= len(payload)
        self._record_request(op, time.perf_counter() - t0, len(payload))
        try:
            await self._write(writer, write_lock, reply)
        except (ConnectionError, OSError):
            pass  # client went away; the work is already accounted

    # -- helpers for subclasses ------------------------------------------------

    @staticmethod
    def _params(header: dict) -> dict:
        """The request's ``params`` object (``BAD_REQUEST`` if not a dict)."""
        params = header.get("params") or {}
        if not isinstance(params, dict):
            raise ParameterError("request params must be a JSON object")
        return params

    @staticmethod
    def _count(name: str, n: int = 1) -> None:
        if telemetry.is_enabled():
            _METRICS.counter(name).add(n)


# ---------------------------------------------------------------------------
# thread-hosted endpoints (tests, benchmarks, notebooks)


class EndpointHandle:
    """An endpoint running on its own event loop in a background thread.

    ``host``/``port`` identify the live listener; :meth:`stop` drains it
    and :meth:`kill` aborts it, then either joins the thread.
    Context-manager use guarantees the drain.
    """

    def __init__(self, endpoint: Endpoint, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.endpoint = endpoint
        self.host = endpoint.config.host
        self.port = endpoint.port
        self._loop = loop
        self._thread = thread

    def _finish(self, shutdown, timeout: float) -> None:
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(timeout)
            self._thread.join(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the endpoint (:meth:`Endpoint.stop`) and join the thread."""
        self._finish(self.endpoint.stop, timeout)

    def kill(self, timeout: float = 10.0) -> None:
        """Hard-kill the endpoint (:meth:`Endpoint.abort`): no drain; a
        server leaves its spill container footerless, like a SIGKILL."""
        self._finish(self.endpoint.abort, timeout)

    def __enter__(self) -> "EndpointHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def host_in_thread(endpoint: Endpoint, start_timeout: float = 30.0) -> EndpointHandle:
    """Start ``endpoint`` on a daemon thread; returns its handle once the
    port is bound and accepting (a bind or boot failure is re-raised)."""
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot_error: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(endpoint.start())
            started.set()
            loop.run_until_complete(endpoint._stopped.wait())
        except BaseException as exc:  # surface bind/codec failures to caller
            boot_error.append(exc)
        finally:
            started.set()
            # whatever the endpoint did not await (a boot failure's
            # leftovers) is cancelled and unwound before the loop closes
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*leftover, return_exceptions=True)
            )
            loop.close()

    thread = threading.Thread(
        target=run, name=f"pastri-{endpoint.kind}", daemon=True
    )
    thread.start()
    if not started.wait(start_timeout):
        raise ServiceError(f"{endpoint.kind} failed to start within the timeout")
    if boot_error:
        raise boot_error[0]
    return EndpointHandle(endpoint, loop, thread)
