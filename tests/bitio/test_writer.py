"""Unit tests for repro.bitio.writer.BitWriter."""

import numpy as np
import pytest

from repro.bitio import BitReader, BitWriter
from repro.errors import ParameterError
from tests.bitio.reference import write_bigint, write_bits


def test_empty_writer_produces_no_bytes():
    assert BitWriter().getvalue() == b""


def test_single_bits_pack_msb_first():
    w = BitWriter()
    for b in (1, 0, 1, 1, 0, 0, 0, 1):
        w.write_bit(b)
    assert w.getvalue() == bytes([0b10110001])


def test_tail_is_zero_padded():
    w = BitWriter()
    w.write_bit(1)
    assert w.getvalue() == bytes([0b10000000])
    assert w.nbits == 1


def test_write_uint_round_numbers():
    w = BitWriter()
    w.write_uint(0xABCD, 16)
    assert w.getvalue() == b"\xab\xcd"


def test_write_uint_zero_width_is_noop():
    w = BitWriter()
    w.write_uint(0, 0)
    assert w.nbits == 0


def test_write_uint_full_64_bits():
    w = BitWriter()
    w.write_uint(2**64 - 1, 64)
    assert w.getvalue() == b"\xff" * 8


def test_write_uint_rejects_overflow_value():
    w = BitWriter()
    with pytest.raises(ParameterError):
        w.write_uint(16, 4)


def test_write_uint_rejects_negative():
    with pytest.raises(ParameterError):
        BitWriter().write_uint(-1, 8)


def test_write_uint_rejects_bad_width():
    with pytest.raises(ParameterError):
        BitWriter().write_uint(0, 65)


def test_write_uint_array_matches_scalar_writes(rng):
    vals = rng.integers(0, 2**17, 100)
    w1 = BitWriter()
    w1.write_uint_array(vals, 17)
    w2 = BitWriter()
    for v in vals:
        w2.write_uint(int(v), 17)
    assert w1.getvalue() == w2.getvalue()


def test_write_uint_array_rejects_too_large_elements():
    with pytest.raises(ParameterError):
        BitWriter().write_uint_array(np.array([7, 8]), 3)


def test_write_varlen_array_concatenates_codes():
    w = BitWriter()
    # '1' + '010' + '11' = 101011
    w.write_varlen_array(np.array([1, 2, 3], dtype=np.uint64), np.array([1, 3, 2]))
    assert w.nbits == 6
    assert w.getvalue() == bytes([0b10101100])


def test_write_varlen_rejects_over_64_bit_codes():
    with pytest.raises(ParameterError):
        BitWriter().write_varlen_array(np.array([0], dtype=np.uint64), np.array([65]))


def test_write_double_is_ieee_bits():
    w = BitWriter()
    w.write_double(1.0)
    assert w.getvalue() == np.float64(1.0).tobytes()[::-1]  # big-endian order


def test_write_bigint_matches_uint_for_small_values():
    w1 = BitWriter()
    write_bigint(w1, 0x3F2, 12)
    w2 = BitWriter()
    w2.write_uint(0x3F2, 12)
    assert w1.getvalue() == w2.getvalue()


def test_write_bigint_wide_payload_roundtrip():
    value = (1 << 200) | 0xDEADBEEF
    w = BitWriter()
    write_bigint(w, value, 201)
    r = BitReader(w.getvalue())
    high = r.read_uint(9)
    rest = [r.read_uint(64) for _ in range(3)]
    got = high
    for part in rest:
        got = (got << 64) | part
    assert got == value


def test_write_bigint_rejects_overflow():
    with pytest.raises(ParameterError):
        write_bigint(BitWriter(), 8, 3)


def test_extend_concatenates_streams():
    a, b = BitWriter(), BitWriter()
    a.write_uint(0b101, 3)
    b.write_uint(0b01101, 5)
    a.extend(b)
    assert a.nbits == 8
    assert a.getvalue() == bytes([0b10101101])


def test_getvalue_is_idempotent():
    w = BitWriter()
    w.write_uint(0xAA, 8)
    assert w.getvalue() == w.getvalue()
    w.write_uint(0xBB, 8)
    assert w.getvalue() == b"\xaa\xbb"


def test_staged_write_bit_matches_array_writes(rng):
    """write_bit's staged scalar buffer must not change getvalue output.

    Interleaves single-bit writes with every other write kind so the lazy
    flush points are exercised, and checks against one bulk reference.
    """
    flags = rng.integers(0, 2, size=37)
    w = BitWriter()
    for f in flags[:5]:
        w.write_bit(int(f))
    w.write_uint(0x2B, 6)
    for f in flags[5:9]:
        w.write_bit(int(f))
    w.write_uint_array(np.array([3, 1, 2], dtype=np.uint64), 2)
    for f in flags[9:]:
        w.write_bit(int(f))

    ref = BitWriter()
    write_bits(ref, flags[:5])
    ref.write_uint(0x2B, 6)
    write_bits(ref, flags[5:9])
    ref.write_uint_array(np.array([3, 1, 2], dtype=np.uint64), 2)
    write_bits(ref, flags[9:])

    assert w.nbits == ref.nbits == 37 + 6 + 6
    assert w.getvalue() == ref.getvalue()


def test_write_bit_nbits_counts_before_flush():
    w = BitWriter()
    w.write_bit(1)
    w.write_bit(0)
    assert w.nbits == 2  # staged but not yet flushed
    assert w.getvalue() == bytes([0b10000000])
