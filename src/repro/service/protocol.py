"""The service wire format: length-prefixed frames, JSON header + payload.

One frame carries one request or one response::

    magic 'PSRV' | header length u32-le | header JSON (utf-8)
                 | payload length u64-le | payload bytes

The header is a small JSON object; the payload is raw binary (float64
little-endian array bytes on the way in, codec blob bytes on the way out)
so bulk data never round-trips through JSON.  Both sides read with hard
caps — a declared length beyond the cap is rejected *before* any
allocation, so a malicious or corrupt peer cannot make either end balloon.

Requests look like ``{"op": "compress", "id": 7, "params": {...}}``;
responses echo the id as ``{"ok": true, "id": 7, "result": {...}}`` or
``{"ok": false, "id": 7, "error": {"code": "BUSY", "message": "..."}}``.

Routed traffic (the cluster gateway, :mod:`repro.cluster.gateway`) adds an
optional ``"route"`` header object to both directions: on a request,
``{"via": "<gateway id>", "shard": "<target>", "attempt": 1}`` marks a
forwarded frame (shard servers count these under ``service.forwarded``);
on a response, ``{"shard": "<who served it>", "attempts": 2}`` tells the
client which shard answered and how many failovers it took.  Frames
without a ``route`` header are untouched — a shard serves direct and
forwarded traffic identically.  The ``cluster.stats`` op and the
``cluster.reshard.*`` admin family (``add``/``remove``/``status`` — live
membership changes with key migration) are answered by gateways only
(shards reply ``BAD_REQUEST``); shards additionally serve the replica
transfer ops ``store.get_raw``/``store.put_raw`` (compressed blobs moved
verbatim) and ``store.keys`` (the reshard scan).
Error codes are the :data:`ERROR_CODES` vocabulary;
:func:`raise_for_error` maps a reply onto the :mod:`repro.errors`
hierarchy so client callers catch typed exceptions, never dicts.

Arrays travel as ``<f8`` bytes with the element count in the header
(:func:`array_to_payload` / :func:`payload_to_array`), keeping the frame
self-describing without a second serialization layer.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import BinaryIO

import numpy as np

from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    ProtocolError,
    RemoteError,
    ServerBusyError,
)

__all__ = [
    "MAGIC",
    "MAX_HEADER_BYTES",
    "DEFAULT_MAX_PAYLOAD",
    "ERROR_CODES",
    "encode_frame",
    "encode_frame_parts",
    "encode_request",
    "encode_request_parts",
    "encode_response",
    "encode_response_parts",
    "encode_error",
    "read_frame",
    "read_frame_async",
    "read_frame_socket",
    "check_reply",
    "raise_for_error",
    "array_to_payload",
    "array_to_view",
    "payload_to_array",
]

MAGIC = b"PSRV"
#: Headers are small JSON objects; anything bigger is a framing error.
MAX_HEADER_BYTES = 1 << 20
#: Default per-frame payload cap (both directions).  Servers and clients
#: can lower it; a declared length above the cap is rejected pre-allocation.
DEFAULT_MAX_PAYLOAD = 1 << 30

#: The wire error vocabulary (see ``docs/SERVICE.md`` §Failure semantics).
ERROR_CODES = (
    "BUSY",            # backpressure: retry with backoff
    "DEADLINE",        # request expired while queued; safe to retry
    "BAD_REQUEST",     # malformed params; do not retry
    "NOT_FOUND",       # store.get on an unknown key
    "PROTOCOL",        # unparseable frame; connection will close
    "SHUTTING_DOWN",   # server is draining; retry against a replacement
    "INTERNAL",        # server-side failure processing a valid request
)

_HDR_LEN = struct.Struct("<I")
_PAY_LEN = struct.Struct("<Q")


def encode_frame_parts(header: dict, payload=b"") -> list:
    """Serialize one frame as a writev-style buffer chain.

    Returns ``[prefix, payload]`` (or just ``[prefix]`` when the payload
    is empty): the prefix is one small ``bytes`` holding magic, header
    length, header JSON, and payload length; the payload rides along
    *unconcatenated* — pass a ``bytes``/``memoryview`` (e.g. from
    :func:`array_to_view`) and no bulk copy happens at the framing layer.
    Write with ``writer.writelines(parts)`` / ``socket.sendmsg(parts)``.
    """
    raw = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(raw) > MAX_HEADER_BYTES:
        raise ProtocolError(f"frame header too large ({len(raw)} bytes)")
    plen = payload.nbytes if isinstance(payload, memoryview) else len(payload)
    prefix = b"".join((MAGIC, _HDR_LEN.pack(len(raw)), raw, _PAY_LEN.pack(plen)))
    return [prefix, payload] if plen else [prefix]


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one frame (header JSON + payload) to one wire blob."""
    return b"".join(bytes(p) for p in encode_frame_parts(header, payload))


def _request_header(op: str, req_id: int, params: dict | None,
                    route: dict | None) -> dict:
    header = {"op": op, "id": req_id, "params": params or {}}
    if route:
        header["route"] = route
    return header


def _response_header(req_id: int | None, result: dict | None,
                     route: dict | None) -> dict:
    header = {"ok": True, "id": req_id, "result": result or {}}
    if route:
        header["route"] = route
    return header


def encode_request(op: str, req_id: int, params: dict | None = None,
                   payload: bytes = b"", route: dict | None = None) -> bytes:
    """Frame a request: ``{"op": op, "id": req_id, "params": {...}}``."""
    return encode_frame(_request_header(op, req_id, params, route), payload)


def encode_request_parts(op: str, req_id: int, params: dict | None = None,
                         payload=b"", route: dict | None = None) -> list:
    """Buffer-chain twin of :func:`encode_request` (zero-copy payload)."""
    return encode_frame_parts(_request_header(op, req_id, params, route), payload)


def encode_response(req_id: int | None, result: dict | None = None,
                    payload: bytes = b"", route: dict | None = None) -> bytes:
    """Frame a success reply echoing ``req_id``."""
    return encode_frame(_response_header(req_id, result, route), payload)


def encode_response_parts(req_id: int | None, result: dict | None = None,
                          payload=b"", route: dict | None = None) -> list:
    """Buffer-chain twin of :func:`encode_response` (zero-copy payload)."""
    return encode_frame_parts(_response_header(req_id, result, route), payload)


def encode_error(req_id: int | None, code: str, message: str,
                 route: dict | None = None, **extra) -> bytes:
    """Frame a structured error reply (no payload)."""
    if code not in ERROR_CODES:
        raise ParameterError(f"unknown service error code {code!r}")
    err = {"code": code, "message": message}
    err.update(extra)
    header = {"ok": False, "id": req_id, "error": err}
    if route:
        header["route"] = route
    return encode_frame(header)


def _parse_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return header


def read_frame(fh: BinaryIO, max_payload: int = DEFAULT_MAX_PAYLOAD
               ) -> tuple[dict, bytes] | None:
    """Read one frame from a blocking file-like socket; ``None`` on clean EOF.

    A clean EOF is 0 bytes exactly at a frame boundary; anything partial or
    malformed raises :class:`ProtocolError`.
    """
    head = fh.read(len(MAGIC) + 4)
    if not head:
        return None
    if len(head) != len(MAGIC) + 4:
        raise ProtocolError("connection closed mid-frame (short prefix)")
    if head[:4] != MAGIC:
        raise ProtocolError(f"bad frame magic {head[:4]!r}")
    (hdr_len,) = _HDR_LEN.unpack(head[4:])
    if hdr_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"declared header length {hdr_len} exceeds cap")
    raw = fh.read(hdr_len)
    if len(raw) != hdr_len:
        raise ProtocolError("connection closed mid-frame (short header)")
    header = _parse_header(raw)
    plen_raw = fh.read(8)
    if len(plen_raw) != 8:
        raise ProtocolError("connection closed mid-frame (short payload length)")
    (plen,) = _PAY_LEN.unpack(plen_raw)
    if plen > max_payload:
        raise ProtocolError(
            f"declared payload length {plen} exceeds cap {max_payload}"
        )
    payload = b""
    if plen:
        chunks = []
        remaining = plen
        while remaining:
            chunk = fh.read(remaining)
            if not chunk:
                raise ProtocolError("connection closed mid-frame (short payload)")
            chunks.append(chunk)
            remaining -= len(chunk)
        payload = b"".join(chunks)
    return header, payload


def read_frame_socket(sock, buf, max_payload: int = DEFAULT_MAX_PAYLOAD
                      ) -> tuple[dict, memoryview] | None:
    """Read one frame from a raw socket into a reusable buffer.

    ``buf`` is a :class:`repro.service.buffers.PayloadBuffer` the
    connection owns; the payload lands in it via ``recv_into`` and the
    returned :class:`memoryview` aliases it — the caller must consume (or
    copy) the view before the next read.  Steady-state traffic therefore
    allocates nothing per frame beyond the small header objects.
    ``None`` on clean EOF at a frame boundary.
    """
    prefix_len = len(MAGIC) + 4
    try:
        first = sock.recv(prefix_len)
    except InterruptedError:  # pragma: no cover
        first = b""
    if not first:
        return None
    while len(first) < prefix_len:
        more = sock.recv(prefix_len - len(first))
        if not more:
            raise ProtocolError("connection closed mid-frame (short prefix)")
        first += more
    if first[:4] != MAGIC:
        raise ProtocolError(f"bad frame magic {first[:4]!r}")
    (hdr_len,) = _HDR_LEN.unpack(first[4:])
    if hdr_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"declared header length {hdr_len} exceeds cap")
    try:
        raw = buf.recv(sock, hdr_len + 8) if hdr_len else buf.recv(sock, 8)
    except ConnectionError as exc:
        raise ProtocolError("connection closed mid-frame (short header)") from exc
    header = _parse_header(bytes(raw[:hdr_len]))
    (plen,) = _PAY_LEN.unpack(raw[hdr_len:hdr_len + 8])
    if plen > max_payload:
        raise ProtocolError(
            f"declared payload length {plen} exceeds cap {max_payload}"
        )
    if not plen:
        return header, memoryview(b"")
    try:
        payload = buf.recv(sock, plen)
    except ConnectionError as exc:
        raise ProtocolError("connection closed mid-frame (short payload)") from exc
    return header, payload


async def read_frame_async(reader: asyncio.StreamReader,
                           max_payload: int = DEFAULT_MAX_PAYLOAD
                           ) -> tuple[dict, bytes] | None:
    """Asyncio twin of :func:`read_frame`; ``None`` on clean EOF."""
    try:
        head = await reader.readexactly(len(MAGIC) + 4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame (short prefix)") from exc
    if head[:4] != MAGIC:
        raise ProtocolError(f"bad frame magic {head[:4]!r}")
    (hdr_len,) = _HDR_LEN.unpack(head[4:])
    if hdr_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"declared header length {hdr_len} exceeds cap")
    try:
        raw = await reader.readexactly(hdr_len)
        header = _parse_header(raw)
        (plen,) = _PAY_LEN.unpack(await reader.readexactly(8))
        if plen > max_payload:
            raise ProtocolError(
                f"declared payload length {plen} exceeds cap {max_payload}"
            )
        payload = await reader.readexactly(plen) if plen else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return header, payload


def check_reply(frame: tuple | None, req_id: int) -> tuple:
    """Correlate a reply frame with the request it answers.

    ``None`` (the peer closed the connection instead of replying) raises
    :class:`ConnectionResetError`; a reply carrying another request's id
    raises :class:`ProtocolError`.  Either way the caller must drop the
    connection.  Returns the frame unchanged.
    """
    if frame is None:
        raise ConnectionResetError("peer closed the connection mid-request")
    got = frame[0].get("id")
    if got is not None and got != req_id:
        raise ProtocolError(f"response id {got} does not match request {req_id}")
    return frame


def raise_for_error(header: dict) -> dict:
    """Map an error reply onto the typed exception hierarchy.

    Success replies pass through, returning the ``result`` dict.
    """
    if header.get("ok"):
        result = header.get("result", {})
        return result if isinstance(result, dict) else {}
    err = header.get("error") or {}
    code = err.get("code", "INTERNAL")
    message = err.get("message", "server reported an unspecified error")
    if code == "BUSY" or code == "SHUTTING_DOWN":
        raise ServerBusyError(message, retry_after_s=float(err.get("retry_after_s", 0.05)))
    if code == "DEADLINE":
        raise DeadlineExceeded(message)
    if code == "BAD_REQUEST":
        raise ParameterError(message)
    if code == "NOT_FOUND":
        raise KeyError(message)
    if code == "PROTOCOL":
        raise ProtocolError(message)
    raise RemoteError(message, code=code)


def array_to_payload(data: np.ndarray) -> tuple[bytes, int]:
    """Flatten to little-endian float64 bytes; returns (payload, count)."""
    arr = np.ascontiguousarray(data, dtype="<f8").ravel()
    return arr.tobytes(), arr.size


def array_to_view(data: np.ndarray) -> tuple[memoryview, int]:
    """Zero-copy twin of :func:`array_to_payload`.

    Returns a flat byte :class:`memoryview` over the array's own memory
    (no ``tobytes`` copy) plus the element count.  The view keeps the
    array alive; a non-contiguous or non-``<f8`` input falls back to one
    conversion copy.  Feed the view to :func:`encode_frame_parts` so the
    payload goes from array memory straight to the socket.
    """
    arr = np.ascontiguousarray(data, dtype="<f8").ravel()
    return arr.data.cast("B"), arr.size


def payload_to_array(payload, n: int | None = None, copy: bool = True
                     ) -> np.ndarray:
    """Rebuild a float64 array from wire bytes, validating the count.

    ``copy=False`` borrows the payload's memory (read-only array) instead
    of materializing — safe whenever the backing buffer outlives the
    array or the consumer only reads once (the compress path).  A
    borrowed view of a *reused* receive buffer must be consumed before
    the next frame lands.
    """
    nbytes = payload.nbytes if isinstance(payload, memoryview) else len(payload)
    if nbytes % 8:
        raise ProtocolError(
            f"array payload length {nbytes} is not a multiple of 8"
        )
    arr = np.frombuffer(payload, dtype="<f8")
    if copy:
        arr = arr.astype(np.float64, copy=True)
    if n is not None and arr.size != int(n):
        raise ProtocolError(
            f"array payload holds {arr.size} elements, header says {n}"
        )
    return arr
