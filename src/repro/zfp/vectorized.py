"""Vectorised ZFP block encoding.

A scalar plane coder processes one block at a time in Python — the
dominant cost of ZFP compression.  This module produces *bit-identical*
streams with numpy passes across all blocks:

* the per-plane emitted bits depend only on ``(n, plane_bits)``, where
  ``n`` is the count of already-significant values — and ``n`` at plane
  ``k`` is a pure function of each value's MSB position
  (``n_k = 1 + max{ j : msb_j > k }``), so the whole n-schedule is
  computable up front;
* with block size 4 there are only ``5 × 16`` distinct ``(n, plane_bits)``
  cases, so each plane token (verbatim part + group-tested part, ≤ 11 bits)
  comes from a precomputed table;
* per-block token runs scatter into one global (codes, lengths) array,
  written with a single ``BitWriter.write_varlen_array``.

Equality with the scalar reference coder (``tests/zfp/reference.py``) is
enforced by tests (``tests/zfp/test_vectorized.py``).
"""

from __future__ import annotations

import numpy as np

from repro.zfp.bitplane import BLOCK

#: Lookup for the MSB position of a byte (0 -> 0; value for b=0 unused).
_BYTE_MSB = np.zeros(256, dtype=np.int64)
for _v in range(1, 256):
    _BYTE_MSB[_v] = _v.bit_length() - 1


def msb_positions(u: np.ndarray) -> np.ndarray:
    """Exact highest set-bit position per uint64 (-1 for zero), vectorised.

    float conversion would round values above 2^53, so this works on the
    big-endian byte representation instead.
    """
    shape = u.shape
    be = u.astype(">u8").view(np.uint8).reshape(shape + (8,))
    nonzero = be != 0
    first = np.argmax(nonzero, axis=-1)  # first (most significant) nonzero byte
    any_nz = nonzero.any(axis=-1)
    byte_vals = np.take_along_axis(be, first[..., None], axis=-1)[..., 0]
    pos = (7 - first) * 8 + _BYTE_MSB[byte_vals]
    return np.where(any_nz, pos, -1)


def _group_token(n: int, x: int) -> tuple[int, int]:
    """Scalar reference for the group-tested part of one plane.

    ``x`` holds the bits of values ``n..3`` right-aligned (bit 0 = value n).
    Returns (code, nbits) with the first emitted bit in the MSB of code.
    """
    acc = 0
    nbits = 0
    m = n
    while m < BLOCK:
        test = 1 if x else 0
        acc = (acc << 1) | test
        nbits += 1
        if not test:
            break
        while m < BLOCK - 1:
            b = x & 1
            acc = (acc << 1) | b
            nbits += 1
            if b:
                break
            x >>= 1
            m += 1
        x >>= 1
        m += 1
    return acc, nbits


def _verbatim_token(n: int, x: int) -> tuple[int, int]:
    """Scalar reference for the verbatim part: the low ``n`` bits of ``x``,
    emitted value-0 first."""
    acc = 0
    for j in range(n):
        acc = (acc << 1) | ((x >> j) & 1)
    return acc, n


# Precompute the (n, plane_bits) -> (token code, token length) tables.
_TOKEN_CODE = np.zeros((BLOCK + 1, 1 << BLOCK), dtype=np.uint64)
_TOKEN_LEN = np.zeros((BLOCK + 1, 1 << BLOCK), dtype=np.int64)
for _n in range(BLOCK + 1):
    for _x in range(1 << BLOCK):
        vcode, vlen = _verbatim_token(_n, _x)
        gcode, glen = _group_token(_n, _x >> _n)
        _TOKEN_CODE[_n, _x] = (vcode << glen) | gcode
        _TOKEN_LEN[_n, _x] = vlen + glen


#: Widest possible plane token: 4 verbatim + 7 group bits.
TOKEN_WINDOW = 11


def _decode_reference(n: int, window: int) -> tuple[int, int, int]:
    """Parse one plane token from an 11-bit window (MSB-first).

    Returns ``(x, bits_consumed, n_after)`` where ``x`` holds the plane's
    value bits (bit j = value j).
    """
    pos = TOKEN_WINDOW

    def read() -> int:
        nonlocal pos
        pos -= 1
        return (window >> pos) & 1

    x = 0
    for j in range(n):
        x |= read() << j
    m = n
    while m < BLOCK:
        if not read():
            break
        while m < BLOCK - 1:
            if read():
                break
            m += 1
        x |= 1 << m
        m += 1
    n_after = max(n, m)
    return x, TOKEN_WINDOW - pos, n_after


# (n, window) -> packed decode result: x | consumed << 4 | n_after << 9
_DEC = np.zeros((BLOCK + 1, 1 << TOKEN_WINDOW), dtype=np.int64)
for _n in range(BLOCK + 1):
    for _w in range(1 << TOKEN_WINDOW):
        _x, _c, _na = _decode_reference(_n, _w)
        _DEC[_n, _w] = _x | (_c << 4) | (_na << 9)
_DEC_LIST = [row.tolist() for row in _DEC]  # Python-int lookups are faster


def decode_block_fast(payload: int, payload_bits: int, top_plane: int, maxprec: int) -> tuple[tuple[int, int, int, int], int]:
    """Decode one block; returns ``(values, bits_consumed)``.

    ``payload`` holds at least the block's bits, MSB-first, with the first
    bit at position ``payload_bits - 1``.  One table lookup per plane
    replaces the reference coder's per-bit loop.
    """
    padded = payload << TOKEN_WINDOW
    pos = payload_bits
    vals = [0, 0, 0, 0]
    n = 0
    table = _DEC_LIST
    for k in range(top_plane, top_plane - maxprec, -1):
        window = (padded >> pos) & 0x7FF
        packed = table[n][window]
        x = packed & 0xF
        pos -= (packed >> 4) & 0x1F
        n = packed >> 9
        if x:
            if x & 1:
                vals[0] |= 1 << k
            if x & 2:
                vals[1] |= 1 << k
            if x & 4:
                vals[2] |= 1 << k
            if x & 8:
                vals[3] |= 1 << k
    return (vals[0], vals[1], vals[2], vals[3]), payload_bits - pos


def encode_blocks(u: np.ndarray, top_plane: int, maxprec: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode a batch of blocks sharing one ``maxprec``.

    Parameters
    ----------
    u:
        ``(G, 4)`` negabinary values.
    top_plane / maxprec:
        Plane window, as in the scalar coder.

    Returns ``(codes, lengths)`` of shape ``(G, maxprec)`` — row ``g`` holds
    block ``g``'s plane tokens in emission order; concatenating a row's
    tokens reproduces the scalar coder's payload exactly.
    """
    planes = np.arange(top_plane, top_plane - maxprec, -1, dtype=np.uint64)
    # plane bit nibble x: bit j = value j's bit at plane k
    bits = (u[:, :, None] >> planes[None, None, :]) & np.uint64(1)
    x = (
        bits[:, 0, :]
        | (bits[:, 1, :] << np.uint64(1))
        | (bits[:, 2, :] << np.uint64(2))
        | (bits[:, 3, :] << np.uint64(3))
    ).astype(np.int64)

    # n entering plane k: 1 + max index whose MSB lies strictly above k.
    s = msb_positions(u)  # (G, 4)
    above = s[:, :, None] > planes.astype(np.int64)[None, None, :]  # (G, 4, P)
    ranks = np.arange(1, BLOCK + 1, dtype=np.int64)[None, :, None]
    n = (above * ranks).max(axis=1)  # (G, P)

    codes = _TOKEN_CODE[n, x]
    lengths = _TOKEN_LEN[n, x]
    return codes, lengths
