"""Scalar reference index pass: the oracle for the compiled kernel.

:func:`index_pass` walks a PaSTRI stream body the plain way — one field and
one ECQ token at a time, in Python integers — and returns the parse tuple
of :func:`repro.core.kernel.index_pass` with the same dtypes and shapes.
It enforces the kernel's checks, so corrupt input fails alike:

* every field read and skip must fit in the stream's ``8 * len(blob)`` bits
  (``bitstream underflow``);
* kind, P_b and EC_b,max are range-checked, as is the sparse entry width;
* each dense segment must end inside the window
  ``min(nbits - start, N * max_token_len)``.  Bits past the end of the
  blob read as zeros, as they do in the kernel.

The module also holds a hand-built stream writer with its own per-token
encoder (:func:`ref_token`, :func:`build_blob`), which reaches field values
the compressor never emits.
"""

from __future__ import annotations

import numpy as np

from repro.bitio import BitReader, BitWriter
from repro.core import header as fmt
from repro.core import kernel
from repro.core.blocking import BlockSpec
from repro.core.compressor import MAX_ECB
from repro.core.quantize import MAX_FIELD_BITS
from repro.core.scaling import ScalingMetric
from repro.errors import FormatError
from tests.bitio.reference import write_bits


class _Bits:
    """MSB-first fields of a byte string; bits past its end read as zeros."""

    def __init__(self, blob: bytes) -> None:
        self.nbits = 8 * len(blob)
        self._buf = bytes(blob) + bytes(16)

    def peek(self, pos: int, n: int) -> int:
        """The ``n``-bit field at ``pos`` (``n <= 120``), unchecked."""
        j = pos >> 3
        word = int.from_bytes(self._buf[j : j + 16], "big")
        return (word >> (128 - (pos & 7) - n)) & ((1 << n) - 1)


def max_token_len(ecb: int, tree: int) -> int:
    """Longest codeword of ``tree`` at EC_b,max ``ecb`` (paper Fig. 7)."""
    return {1: 1 + ecb, 2: 3 + ecb, 4: 2 * (ecb - 1)}.get(tree, 3 + ecb)


def decode_token(bits: _Bits, p: int, ecb: int, tree: int) -> tuple[int, int]:
    """Decode one token at ``p``; returns ``(value, length)``.

    ``tree`` is the effective tree: 5 is resolved by the caller to 4
    (EC_b,max = 2) or 3.
    """
    if bits.peek(p, 1) == 0:
        return 0, 1
    half = 1 << (ecb - 1)
    if tree == 1:
        return bits.peek(p + 1, ecb) - half, 1 + ecb
    if tree == 2:
        if bits.peek(p + 1, 1) == 0:
            return 1, 2
        if bits.peek(p + 2, 1) == 0:
            return -1, 3
        return bits.peek(p + 3, ecb) - half, 3 + ecb
    if tree == 3:
        if bits.peek(p + 1, 1) == 0:
            return bits.peek(p + 2, ecb) - half, 2 + ecb
        return (-1 if bits.peek(p + 2, 1) else 1), 3
    # Tree 4: w leading ones (w < ecb - 1) then a 0 select bin w + 1 with a
    # w-bit payload; the top bin is ecb - 1 ones with no terminator.
    top = ecb - 1
    w = 0
    while w < top and bits.peek(p + w, 1):
        w += 1
    prefix = w if w == top else w + 1
    payload = bits.peek(p + prefix, w)
    half = 1 << (w - 1)
    value = -payload if payload >= half else payload + half
    return value, prefix + w


def decode_segment(
    bits: _Bits, start: int, n: int, ecb: int, tree_id: int
) -> tuple[list[int], int]:
    """Decode ``n`` ECQ tokens at ``start``; returns ``(values, end)``."""
    window_end = start + min(bits.nbits - start, n * max_token_len(ecb, tree_id))
    tree = (4 if ecb == 2 else 3) if tree_id == 5 else tree_id
    values = []
    p = start
    for _ in range(n):
        v, length = decode_token(bits, p, ecb, tree)
        if p + length > window_end:
            raise FormatError("ECQ segment overruns its bound")
        values.append(v)
        p += length
    return values, p


def index_pass(blob: bytes, hdr: fmt.StreamHeader, pos: int, max_pb: int, max_ecb: int) -> tuple:
    """Reference for :func:`repro.core.kernel.index_pass` (same signature)."""
    spec = hdr.spec
    M, L, N = spec.num_sb, spec.sb_size, spec.block_size
    idx_bits = max(1, (N - 1).bit_length())
    nol_bits = N.bit_length()
    n_b = hdr.n_blocks
    bits = _Bits(blob)

    def take(n: int) -> int:
        nonlocal pos
        if pos + n > bits.nbits:
            raise FormatError(
                f"bitstream underflow: need {n} bits at offset {pos}, "
                f"have {bits.nbits - pos}"
            )
        value = bits.peek(pos, n) if n <= 64 else 0
        pos += n
        return value

    kind = np.zeros(n_b, dtype=np.int8)
    pb = np.zeros(n_b, dtype=np.int64)
    ecb = np.zeros(n_b, dtype=np.int64)
    off = np.zeros(n_b, dtype=np.int64)  # PQ start / raw-data start
    sp_nol = np.zeros(n_b, dtype=np.int64)
    sp_off = np.zeros(n_b, dtype=np.int64)
    sparse = np.zeros(n_b, dtype=bool)
    dense_ids: list[int] = []
    dense_rows: list[list[int]] = []
    for b in range(n_b):
        k = take(2)
        if k == fmt.KIND_ZERO:
            continue
        if k == fmt.KIND_RAW:
            kind[b] = fmt.KIND_RAW
            off[b] = pos
            take(64 * N)
            continue
        if k != fmt.KIND_PATTERNED:
            raise FormatError(f"bad block kind {k} in block {b}")
        kind[b] = fmt.KIND_PATTERNED
        p_b = take(6)
        if not 1 <= p_b <= max_pb:
            raise FormatError(f"bad P_b {p_b} in block {b}")
        pb[b] = p_b
        off[b] = pos
        take((L + M) * p_b)
        eb = ecb[b] = take(6)
        if eb < 2:
            continue
        if eb > max_ecb:
            raise FormatError(f"bad EC_b,max {eb} in block {b}")
        if take(1):
            if idx_bits + eb > 64:
                raise FormatError(f"oversized outlier fields in block {b}")
            sparse[b] = True
            sp_nol[b] = cnt = take(nol_bits)
            sp_off[b] = pos
            take(cnt * (idx_bits + eb))
        else:
            values, pos = decode_segment(bits, pos, N, eb, hdr.tree_id)
            dense_ids.append(b)
            dense_rows.append(values)
    dense_mat = np.array(dense_rows, dtype=np.int64).reshape(len(dense_ids), N)
    return (kind, pb, ecb, off, sp_nol, sp_off, sparse,
            np.array(dense_ids, dtype=np.int64), dense_mat, pos)


def parse_both(blob: bytes) -> tuple:
    """Parse ``blob`` with the kernel and with :func:`index_pass`; assert
    the tuples match in values, dtypes and shapes, and return the kernel's."""
    r = BitReader(blob)
    hdr = fmt.read_header(r)
    a = kernel.index_pass(blob, hdr, r.pos, MAX_FIELD_BITS, MAX_ECB)
    b = index_pass(blob, hdr, r.pos, MAX_FIELD_BITS, MAX_ECB)
    assert len(a) == len(b) == 10
    for x, y in zip(a[:-1], b[:-1]):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)
    assert type(a[-1]) is int and a[-1] == b[-1]
    return a


# ---------------------------------------------------------------------------
# Reference writer: one token at a time, as bit strings.


def ref_token(v: int, ecb: int, tree: int) -> str:
    """Codeword of ``v`` under ``tree`` (paper Fig. 7), MSB first."""
    if tree == 5:
        tree = 4 if ecb == 2 else 3
    pay = format(v + (1 << (ecb - 1)), f"0{ecb}b") if ecb else ""
    if v == 0:
        return "0"
    if tree == 1:
        return "1" + pay
    if tree == 2:
        return {1: "10", -1: "110"}.get(v, "111" + pay)
    if tree == 3:
        return {1: "110", -1: "111"}.get(v, "10" + pay)
    a = abs(v)
    w = a.bit_length()  # bin w + 1 carries w payload bits
    assert w <= ecb - 1
    prefix = "1" * (ecb - 1) if w == ecb - 1 else "1" * w + "0"
    payload = a if v < 0 else a - (1 << (w - 1))
    return prefix + format(payload, f"0{w}b")


def write_stream_header(w: BitWriter, dims, tree: int, n_blocks: int, n_tail: int = 0,
                        eb: float = 1e-10) -> None:
    fmt.write_header(w, fmt.StreamHeader(eb, BlockSpec(dims), n_blocks, n_tail, tree,
                                         ScalingMetric.ER))


def build_blob(dims, tree, blocks, tail=(), eb=1e-10) -> bytes:
    """Serialise ``blocks`` as a PaSTRI stream.

    Each block is ``("zero",)``, ``("raw", uint64 words)`` or ``("pat", P_b,
    PQ+SQ words, EC_b,max, sparse, ECQ values)``; dense ECQ is written with
    :func:`ref_token`.
    """
    spec = BlockSpec(dims)
    N = spec.block_size
    idx_bits = max(1, (N - 1).bit_length())
    w = BitWriter()
    write_stream_header(w, dims, tree, len(blocks), len(tail), eb)
    for blk in blocks:
        if blk[0] == "zero":
            w.write_uint(fmt.KIND_ZERO, 2)
        elif blk[0] == "raw":
            w.write_uint(fmt.KIND_RAW, 2)
            w.write_uint_array(np.asarray(blk[1], dtype=np.uint64), 64)
        else:
            _, pb, pqsq, ecb, sparse, vals = blk
            w.write_uint(fmt.KIND_PATTERNED, 2)
            w.write_uint(pb, 6)
            w.write_uint_array(np.asarray(pqsq, dtype=np.uint64), pb)
            w.write_uint(ecb, 6)
            if ecb < 2:
                continue
            w.write_uint(int(sparse), 1)
            if sparse:
                nz = [i for i, v in enumerate(vals) if v]
                w.write_uint(len(nz), N.bit_length())
                for i in nz:
                    w.write_uint(i, idx_bits)
                    w.write_uint(vals[i] + (1 << (ecb - 1)), ecb)
            else:
                write_bits(w, "".join(ref_token(int(v), ecb, tree) for v in vals))
    w.write_uint_array(np.asarray(tail, dtype=np.float64).view(np.uint64), 64)
    return w.getvalue()


def segment_blob(segment: BitWriter, n: int, ecb: int, tree: int) -> tuple[bytes, int]:
    """A one-block stream whose dense ECQ segment is ``segment``'s bits:
    ``n`` tokens at EC_b,max ``ecb`` under ``tree``.  Returns the blob and
    the bit offset where the segment starts."""
    w = BitWriter()
    write_stream_header(w, (1, 1, 1, n), tree, 1)
    w.write_uint(fmt.KIND_PATTERNED, 2)
    w.write_uint(1, 6)  # P_b
    w.write_uint_array(np.zeros(n + 1, dtype=np.uint64), 1)  # PQ + SQ
    w.write_uint(ecb, 6)
    w.write_uint(0, 1)  # dense
    start = w.nbits
    w.extend(segment)
    return w.getvalue(), start
