"""Scalar reference coder for ZFP: the oracle the vectorised path must match.

``encode_block`` / ``decode_block`` are a direct transcription of ZFP's
``encode_ints`` / ``decode_ints`` for one 4-value block, built on Python
big-ints (a few hundred bits per block).  ``scalar_compress`` emits a whole
stream one block at a time with them; :class:`repro.zfp.ZFPCompressor`
must produce the same bytes.
"""

from __future__ import annotations

import numpy as np

from repro import api
from repro.bitio import BitWriter
from repro.zfp import compressor as zc
from repro.zfp import transform as tf
from repro.zfp.bitplane import BLOCK
from tests.bitio.reference import write_bigint


def encode_block(u: tuple[int, int, int, int], top_plane: int, maxprec: int) -> tuple[int, int]:
    """Encode one block's negabinary values; returns ``(payload, nbits)``.

    ``payload`` holds the bitstream MSB-first (first-emitted bit highest).
    Planes run from ``top_plane`` down, ``maxprec`` of them.
    """
    acc = 0
    nbits = 0
    n = 0
    u0, u1, u2, u3 = u
    for k in range(top_plane, top_plane - maxprec, -1):
        x = ((u0 >> k) & 1) | (((u1 >> k) & 1) << 1) | (((u2 >> k) & 1) << 2) | (((u3 >> k) & 1) << 3)
        # verbatim part: bits of the n known-significant values, value order
        for j in range(n):
            acc = (acc << 1) | ((x >> j) & 1)
        nbits += n
        x >>= n
        m = n
        # group-tested remainder
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
        n = max(n, m)
    return acc, nbits


def decode_block(payload: int, payload_bits: int, top_plane: int, maxprec: int) -> tuple[tuple[int, int, int, int], int]:
    """Decode one block; returns ``(values, bits_consumed)``.

    ``payload`` holds at least the block's bits, MSB-first, with the first
    bit at position ``payload_bits - 1``.
    """
    pos = payload_bits  # next unread bit is at pos-1
    vals = [0, 0, 0, 0]
    n = 0

    def read_bit() -> int:
        nonlocal pos
        pos -= 1
        return (payload >> pos) & 1

    for k in range(top_plane, top_plane - maxprec, -1):
        x = 0
        for j in range(n):
            x |= read_bit() << j
        m = n
        while m < BLOCK:
            if not read_bit():
                break
            while m < BLOCK - 1:
                if read_bit():
                    break
                m += 1
            x |= 1 << m
            m += 1
        n = max(n, m)
        if x:
            for j in range(BLOCK):
                if (x >> j) & 1:
                    vals[j] |= 1 << k
    return (vals[0], vals[1], vals[2], vals[3]), payload_bits - pos


def scalar_compress(data: np.ndarray, error_bound: float) -> bytes:
    """A ZFP stream emitted one block at a time with :func:`encode_block`."""
    data = api.validate_input(data)
    eb = api.validate_error_bound(error_bound)
    n = data.size
    pad = (-n) % 4
    if pad:
        data = np.concatenate([data, np.repeat(data[-1], pad)])
    blocks = data.reshape(-1, 4)
    e = tf.block_exponents(blocks)
    u = tf.to_negabinary(tf.fwd_lift(tf.to_fixed_point(blocks, e))).tolist()
    maxprec = tf.max_precision(e, eb).tolist()
    zero = (np.abs(blocks).max(axis=1) == 0.0).tolist()

    w = BitWriter()
    w.write_uint(zc._MAGIC, 32)
    w.write_uint(zc._VERSION, 8)
    w.write_double(eb)
    w.write_uint(n, 48)
    for b in range(blocks.shape[0]):
        if zero[b]:
            w.write_bit(0)
            continue
        w.write_bit(1)
        w.write_uint(int(e[b]) + zc._E_BIAS, 12)
        mp = maxprec[b]
        if mp > zc._RAW_PREC:
            w.write_uint_array(blocks[b].view(np.uint64), 64)
        elif mp > 0:
            payload, nbits = encode_block(tuple(u[b]), tf.TOP_PLANE, mp)
            write_bigint(w, payload, nbits)
    return w.getvalue()
