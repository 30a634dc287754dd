"""The five symbol-by-symbol / variable-length ECQ encoders (paper Fig. 7).

Each tree maps quantized error-correction values (ECQ) to bit strings.  The
trees are *fixed* — they are part of the format, not of the stream — which
is PaSTRI's answer to Huffman coding: no dictionary to store, no two-pass
frequency counting, and fully block-local (paper §IV-C).

* **Tree 1** — ``0 → 0``; every other value ``→ 1`` + value in ``EC_b`` bits.
* **Tree 2** — ``0 → 0``, ``+1 → 10``, ``-1 → 110``, others ``→ 111`` + value.
* **Tree 3** — ``0 → 0``, others ``→ 10`` + value, ``+1 → 110``, ``-1 → 111``.
* **Tree 4** — Fig. 6 bin ``i`` gets a unary prefix and ``i-1`` payload bits
  (an Elias-gamma-like code).
* **Tree 5** — adaptive: the optimal 3-leaf tree when ``EC_b,max = 2``
  (``0 → 0``, ``+1 → 10``, ``-1 → 11``), Tree 3 otherwise.  The paper's
  winner and PaSTRI's default.

Non-zero "other" payloads use offset-binary in ``EC_b`` bits (value +
``2^(EC_b - 1)``).  This module holds the encoders and the size formulas;
decoding is the compiled index pass (:mod:`repro.core.kernel`), which walks
the tokens one by one as the paper's decoder does.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

TREE_IDS = (1, 2, 3, 4, 5)


def _offset_encode(values: np.ndarray, nbits: int) -> np.ndarray:
    """Signed → offset-binary payloads (value + 2^(nbits-1)) as uint64."""
    return (values + (1 << (nbits - 1))).astype(np.uint64)


def _offset_decode(payload: np.ndarray, nbits: int) -> np.ndarray:
    """Offset-binary payloads → signed int64."""
    return payload.astype(np.int64) - (1 << (nbits - 1))


def _check_ecb(ecb: int) -> None:
    if not 2 <= ecb <= 40:
        raise ParameterError(f"EC_b must be in [2, 40], got {ecb}")


# ---------------------------------------------------------------------------
# Encoding: ECQ values -> (codewords, lengths), consumed by
# BitWriter.write_varlen_array.  Everything is branch-free numpy.
# ---------------------------------------------------------------------------


def _encode_tree1(ecq: np.ndarray, ecb: int) -> tuple[np.ndarray, np.ndarray]:
    zero = ecq == 0
    codes = (np.uint64(1) << np.uint64(ecb)) | _offset_encode(ecq, ecb)
    codes[zero] = 0
    lengths = np.where(zero, 1, 1 + ecb).astype(np.int64)
    return codes, lengths


def _encode_tree2(ecq: np.ndarray, ecb: int) -> tuple[np.ndarray, np.ndarray]:
    codes = (np.uint64(0b111) << np.uint64(ecb)) | _offset_encode(ecq, ecb)
    lengths = np.full(ecq.shape, 3 + ecb, dtype=np.int64)
    for value, code, ln in ((0, 0b0, 1), (1, 0b10, 2), (-1, 0b110, 3)):
        m = ecq == value
        codes[m] = code
        lengths[m] = ln
    return codes, lengths


def _encode_tree3(ecq: np.ndarray, ecb: int) -> tuple[np.ndarray, np.ndarray]:
    codes = (np.uint64(0b10) << np.uint64(ecb)) | _offset_encode(ecq, ecb)
    lengths = np.full(ecq.shape, 2 + ecb, dtype=np.int64)
    for value, code, ln in ((0, 0b0, 1), (1, 0b110, 3), (-1, 0b111, 3)):
        m = ecq == value
        codes[m] = code
        lengths[m] = ln
    return codes, lengths


def _tree4_bins(ecq: np.ndarray) -> np.ndarray:
    """Fig. 6 bin per value: 1 for 0, else bit_length(|v|) + 1."""
    a = np.abs(ecq)
    bins = np.ones(a.shape, dtype=np.int64)
    nz = a > 0
    if nz.any():
        bins[nz] = np.frexp(a[nz].astype(np.float64))[1] + 1
    return bins


def _encode_tree4(ecq: np.ndarray, ecb: int) -> tuple[np.ndarray, np.ndarray]:
    bins = _tree4_bins(ecq)
    if int(bins.max(initial=1)) > ecb:
        raise ParameterError("ECQ value outside the EC_b range for tree 4")
    a = np.abs(ecq).astype(np.uint64)
    neg = (ecq < 0).astype(np.uint64)
    w = (bins - 1).astype(np.uint64)  # payload width per value (0 for the 0 bin)
    # payload = sign * 2^(w-1) + (|v| - 2^(w-1)); for w = 0 it is empty.
    half = np.where(w > 0, np.uint64(1) << (w - np.uint64(1) * (w > 0)), np.uint64(0))
    payload = np.where(w > 0, neg * half + (a - half), np.uint64(0))
    top = bins == ecb
    # prefix: (bin-1) ones then a 0 terminator, except the top bin which is
    # exhaustive and drops the terminator.
    prefix_len = np.where(top, ecb - 1, bins).astype(np.int64)
    prefix = np.where(
        top,
        (np.uint64(1) << np.uint64(ecb - 1)) - np.uint64(1),
        ((np.uint64(1) << bins.astype(np.uint64)) - np.uint64(1)) - np.uint64(1),
    )
    # `prefix` for non-top bin i: i-1 ones + trailing 0 == (2^i - 1) - 1.
    codes = (prefix << w) | payload
    lengths = prefix_len + w.astype(np.int64)
    zero = bins == 1
    codes[zero] = 0
    lengths[zero] = 1
    return codes, lengths


def _encode_tree5(ecq: np.ndarray, ecb: int) -> tuple[np.ndarray, np.ndarray]:
    if ecb == 2:
        return _encode_tree4(ecq, 2)  # '0', '10', '11' — the optimal 3-leaf tree
    return _encode_tree3(ecq, ecb)


_ENCODERS = {1: _encode_tree1, 2: _encode_tree2, 3: _encode_tree3, 4: _encode_tree4, 5: _encode_tree5}


def encode_ecq(ecq: np.ndarray, ecb: int, tree_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode a flat ECQ array; returns ``(codewords, bit_lengths)``."""
    _check_ecb(ecb)
    if tree_id not in _ENCODERS:
        raise ParameterError(f"unknown tree id {tree_id}")
    ecq = np.ascontiguousarray(ecq, dtype=np.int64)
    return _ENCODERS[tree_id](ecq, ecb)


def encode_ecq_rows(
    ecq2d: np.ndarray, ecb_rows: np.ndarray, tree_id: int
) -> tuple[np.ndarray, np.ndarray]:
    """Encode many blocks with *per-row* ``EC_b,max`` in one vectorised pass.

    ``ecq2d`` is ``(n_rows, block_size)`` int64 and ``ecb_rows[i]`` the
    EC_b,max of row *i*.  Emits exactly the same codewords/lengths as
    calling :func:`encode_ecq` row by row, but batches every field across
    rows so a whole dense-ECQ group costs one set of array passes instead
    of one per EC_b,max class.  Supports trees 1-3 (the fixed-shape trees
    whose codewords depend on EC_b,max only through the payload width);
    tree 5 callers route their ``EC_b,max == 2`` rows through tree 4 and
    the rest here as tree 3.
    """
    if tree_id not in (1, 2, 3):
        raise ParameterError(f"per-row encoding not supported for tree {tree_id}")
    ecq2d = np.ascontiguousarray(ecq2d, dtype=np.int64)
    ecb_rows = np.asarray(ecb_rows, dtype=np.int64)
    if ecb_rows.size and not (2 <= int(ecb_rows.min()) and int(ecb_rows.max()) <= 40):
        raise ParameterError("EC_b must be in [2, 40]")
    n_rows, n = ecq2d.shape
    flat = ecq2d.ravel()
    ecb_e = np.repeat(ecb_rows, n).astype(np.uint64)
    payload = (flat + (np.int64(1) << (ecb_e.astype(np.int64) - 1))).astype(np.uint64)
    prefix = {1: np.uint64(1), 2: np.uint64(0b111), 3: np.uint64(0b10)}[tree_id]
    plen = {1: 1, 2: 3, 3: 2}[tree_id]
    codes = (prefix << ecb_e) | payload
    lengths = np.repeat(ecb_rows + plen, n)
    zero = flat == 0
    codes[zero] = 0
    lengths[zero] = 1
    if tree_id == 2:
        for value, code, ln in ((1, 0b10, 2), (-1, 0b110, 3)):
            m = flat == value
            codes[m] = code
            lengths[m] = ln
    elif tree_id == 3:
        for value, code, ln in ((1, 0b110, 3), (-1, 0b111, 3)):
            m = flat == value
            codes[m] = code
            lengths[m] = ln
    return codes, lengths


# ---------------------------------------------------------------------------
# Encoded-size accounting (used for dense-vs-sparse decisions and Fig. 7
# without materialising bitstreams).
# ---------------------------------------------------------------------------


def encoded_size_bits_batch(
    ecq2d: np.ndarray, ecb: np.ndarray, tree_id: int, nnz: np.ndarray | None = None
) -> np.ndarray:
    """Exact dense-encoded size in bits per row of ``ecq2d``.

    ``ecq2d`` is ``(n_blocks, block_size)`` int64; ``ecb`` holds each row's
    ``EC_b,max``.  One vectorised pass replaces ``n_blocks`` calls to
    :func:`encoded_size_bits` in the compressor's dense-vs-sparse decision.
    Rows whose ``ecb`` lies outside the legal ``[2, 40]`` range produce
    unspecified values — callers must mask them out (the compressor only
    consults rows with ``EC_b,max >= 2``).  ``nnz`` optionally passes the
    per-row nonzero count if the caller already has it, saving one pass.
    """
    if tree_id not in _ENCODERS:
        raise ParameterError(f"unknown tree id {tree_id}")
    ecq2d = np.ascontiguousarray(ecq2d, dtype=np.int64)
    ecb = np.asarray(ecb, dtype=np.int64)
    n = ecq2d.shape[1]
    if tree_id in (1, 3, 5):
        a = np.abs(ecq2d)
        if nnz is None:
            nnz = np.count_nonzero(a, axis=1)
        np.minimum(a, 2, out=a)
        return encoded_size_bits_from_moments(n, nnz, a.sum(axis=1), ecb, tree_id)
    n0 = np.count_nonzero(ecq2d == 0, axis=1)
    npos1 = np.count_nonzero(ecq2d == 1, axis=1)
    nneg1 = np.count_nonzero(ecq2d == -1, axis=1)
    n1 = npos1 + nneg1
    nother = n - n0 - n1
    if tree_id == 2:
        return n0 + 2 * npos1 + 3 * nneg1 + (3 + ecb) * nother
    # tree 4
    bins = _tree4_bins(ecq2d)
    lengths = np.where(bins == ecb[:, None], 2 * (ecb[:, None] - 1), 2 * bins - 1)
    lengths = np.where(bins == 1, 1, lengths)
    return lengths.sum(axis=1)


def encode_ecq_rows_bits(
    ecq2d: np.ndarray, ecb_rows: np.ndarray, tree_id: int
) -> np.ndarray:
    """Encode rows straight to a flat 0/1 bit array (trees 1-3, width ≤ 16).

    Fuses :func:`encode_ecq_rows` with the writer's codeword expansion: each
    token's codeword is left-aligned in a uint16 alongside a same-shaped
    prefix mask, both expanded with one ``np.unpackbits`` pass, skipping the
    intermediate (codes, lengths) arrays entirely.  Requires every row's
    codeword width (tree prefix + EC_b,max) to fit in 16 bits; callers
    bucket wider rows onto the generic path.  Per-row bit counts are *not*
    returned — they equal :func:`encoded_size_bits_batch` for these trees.
    """
    if tree_id not in (1, 2, 3):
        raise ParameterError(f"per-row encoding not supported for tree {tree_id}")
    ecq2d = np.ascontiguousarray(ecq2d)
    if ecq2d.dtype != np.int32:  # int32 halves the arithmetic traffic
        ecq2d = ecq2d.astype(np.int64, copy=False)
    ecb_rows = np.asarray(ecb_rows, dtype=np.int64)
    plen = {1: 1, 2: 3, 3: 2}[tree_id]
    if ecb_rows.size and not (
        2 <= int(ecb_rows.min()) and int(ecb_rows.max()) + plen <= 16
    ):
        raise ParameterError("row codeword width outside the 16-bit fast path")
    n_rows, n = ecq2d.shape
    v = ecq2d.ravel()
    dt = v.dtype.type  # every field fits 16 bits, so int32 math is exact
    ecb_e = np.repeat(ecb_rows.astype(v.dtype), n)
    sh = 16 - plen - ecb_e  # payload left-shift within the uint16 field
    prefix = {1: 0b1, 2: 0b111, 3: 0b10}[tree_id]
    al = ((v + (dt(1) << (ecb_e - 1))) << sh) | (prefix << (16 - plen))
    msk = (0xFFFF << sh) & 0xFFFF
    zero = v == 0
    al[zero] = 0
    msk[zero] = 0x8000
    if tree_id == 1:
        pass
    elif tree_id == 2:
        for value, code, ln in ((1, 0b10, 2), (-1, 0b110, 3)):
            m = v == value
            al[m] = code << (16 - ln)
            msk[m] = (0xFFFF << (16 - ln)) & 0xFFFF
    else:
        for value, code in ((1, 0b110), (-1, 0b111)):
            m = v == value
            al[m] = code << 13
            msk[m] = 0xE000
    bits = np.unpackbits(al.astype(np.uint16).byteswap().view(np.uint8))
    mbits = np.unpackbits(msk.astype(np.uint16).byteswap().view(np.uint8))
    return bits[mbits.view(np.bool_)]


def encode_ecq2_bits(ecq2d: np.ndarray) -> np.ndarray:
    """Fused bit emission for the optimal 3-leaf tree (tree 5, EC_b,max = 2).

    ``0 -> 0``, ``+1 -> 10``, ``-1 -> 11``: all codewords fit two bits, so
    each token is left-aligned in one uint8 with a 1- or 2-bit mask and both
    planes expand through a single ``np.unpackbits`` — no byteswap needed.
    Per-row bit counts equal ``n0 + 2 * nnz`` (the moments formula).
    """
    v = np.ascontiguousarray(ecq2d).ravel()
    if v.size and (np.abs(v).max() > 1):
        raise ParameterError("EC_b,max = 2 rows must hold values in {-1, 0, 1}")
    al = np.zeros(v.size, dtype=np.uint8)
    msk = np.full(v.size, 0x80, dtype=np.uint8)
    pos = v == 1
    al[pos] = 0x80
    msk[pos] = 0xC0
    neg = v == -1
    al[neg] = 0xC0
    msk[neg] = 0xC0
    bits = np.unpackbits(al)
    mbits = np.unpackbits(msk)
    return bits[mbits.view(np.bool_)]


def encoded_size_bits_from_moments(
    n: int, nnz: np.ndarray, s: np.ndarray, ecb: np.ndarray, tree_id: int
) -> np.ndarray:
    """Dense-encoded size per block from clipped-magnitude moments.

    Trees 1/3/5 only distinguish |v| in {0, 1, 2+}, so with the per-row
    nonzero count ``nnz`` and ``s = sum(min(|v|, 2))`` the exact size
    follows arithmetically: ``n1 = 2*nnz - s`` and ``nother = s - nnz``.
    Lets callers that already hold the moments (the compressor computes
    them from its float residual buffer) skip the integer passes.
    """
    if tree_id not in (1, 3, 5):
        raise ParameterError(f"moment-based sizing not supported for tree {tree_id}")
    n0 = n - nnz
    if tree_id == 1:
        return n0 + nnz * (1 + ecb)
    n1 = 2 * nnz - s
    nother = s - nnz
    tree3_bits = n0 + 3 * n1 + (2 + ecb) * nother
    if tree_id == 3:
        return tree3_bits
    return np.where(ecb == 2, n0 + 2 * nnz, tree3_bits)


def encoded_size_bits(ecq: np.ndarray, ecb: int, tree_id: int) -> int:
    """Exact dense-encoded size in bits for ``ecq`` under a given tree."""
    _check_ecb(ecb)
    ecq = np.ascontiguousarray(ecq, dtype=np.int64)
    n = ecq.size
    n0 = int(np.count_nonzero(ecq == 0))
    npos1 = int(np.count_nonzero(ecq == 1))
    nneg1 = int(np.count_nonzero(ecq == -1))
    n1 = npos1 + nneg1
    nother = n - n0 - n1
    if tree_id == 1:
        return n0 + (n - n0) * (1 + ecb)
    if tree_id == 2:
        return n0 + 2 * npos1 + 3 * nneg1 + (3 + ecb) * nother
    if tree_id == 3:
        return n0 + 3 * n1 + (2 + ecb) * nother
    if tree_id == 4:
        bins = _tree4_bins(ecq)
        lengths = np.where(bins == ecb, 2 * (ecb - 1), 2 * bins - 1)
        lengths = np.where(bins == 1, 1, lengths)
        return int(lengths.sum())
    if tree_id == 5:
        if ecb == 2:
            return n0 + 2 * (n - n0)
        return n0 + 3 * n1 + (2 + ecb) * nother
    raise ParameterError(f"unknown tree id {tree_id}")
