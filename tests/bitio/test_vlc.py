"""Unit tests for the pointer-jumping prefix decoder (repro.bitio.vlc)."""

import numpy as np
import pytest

from repro.bitio.vlc import (
    decode_prefix_stream,
    sliding_windows_u16,
    token_start_positions,
)
from repro.errors import FormatError


def bits_of(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


def test_token_start_positions_unary_chain():
    # Tokens of length 2 everywhere: starts at 0, 2, 4, ...
    len_at = np.full(10, 2, dtype=np.int64)
    pos = token_start_positions(len_at, 5)
    assert pos.tolist() == [0, 2, 4, 6, 8]


def test_token_start_positions_variable_lengths():
    # lengths: offset0 ->1, offset1 ->3, offset4 ->2 ...
    len_at = np.array([1, 3, 9, 9, 2, 9, 1], dtype=np.int64)
    pos = token_start_positions(len_at, 4)
    assert pos.tolist() == [0, 1, 4, 6]


def test_token_start_positions_zero_tokens():
    assert token_start_positions(np.array([1]), 0).size == 0


def test_decode_prefix_stream_simple_code():
    # Code: '0' -> len 1; '1x' -> len 2.
    stream = bits_of("0" + "11" + "0" + "10")

    def length_fn(b, off):
        return np.where(b[off] == 0, 1, 2)

    pos, lens = decode_prefix_stream(stream, 0, 4, length_fn, 1)
    assert pos.tolist() == [0, 1, 3, 4]
    assert lens.tolist() == [1, 2, 1, 2]


def test_decode_prefix_stream_with_start_offset():
    stream = bits_of("1111" + "0" + "10")

    def length_fn(b, off):
        return np.where(b[off] == 0, 1, 2)

    pos, lens = decode_prefix_stream(stream, 4, 2, length_fn, 1)
    assert pos.tolist() == [4, 5]


def test_decode_prefix_stream_truncation_raises():
    stream = bits_of("10")

    def length_fn(b, off):
        return np.full(off.shape, 5, dtype=np.int64)

    with pytest.raises(FormatError):
        decode_prefix_stream(stream, 0, 3, length_fn, 1)


def test_sliding_windows_match_gather(rng):
    bits = (rng.random(200) < 0.5).astype(np.uint8)
    for width in (1, 5, 8, 13, 16):
        win = sliding_windows_u16(bits, width)
        offsets = np.arange(bits.size - width, dtype=np.int64)
        want = [int("".join(map(str, bits[o : o + width])), 2) for o in offsets]
        assert win[: offsets.size].tolist() == want


def test_sliding_windows_rejects_wide_window():
    with pytest.raises(FormatError):
        sliding_windows_u16(np.zeros(8, dtype=np.uint8), 17)
