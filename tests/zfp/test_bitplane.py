"""Unit tests for ZFP's group-tested bit-plane coder (the scalar oracle)."""

import numpy as np
import pytest

from repro.zfp.bitplane import max_payload_bits
from tests.zfp.reference import decode_block, encode_block


def roundtrip(u, top, maxprec):
    payload, nbits = encode_block(tuple(int(x) for x in u), top, maxprec)
    assert nbits <= max_payload_bits(maxprec)
    # MSB-first payload: decoder reads from bit position nbits-1 downward.
    vals, used = decode_block(payload, nbits, top, maxprec)
    assert used == nbits
    return vals


def mask_planes(v, top, maxprec):
    """Keep only the encoded planes of a value."""
    keep = 0
    for k in range(top, top - maxprec, -1):
        keep |= 1 << k
    return v & keep


@pytest.mark.parametrize("maxprec", [1, 3, 8, 20, 63])
def test_roundtrip_random_blocks(maxprec, rng):
    top = 62
    for _ in range(30):
        u = [int(x) for x in rng.integers(0, 2**62, 4)]
        got = roundtrip(u, top, maxprec)
        assert list(got) == [mask_planes(v, top, maxprec) for v in u]


def test_all_zero_block_costs_one_bit_per_plane():
    payload, nbits = encode_block((0, 0, 0, 0), 62, 10)
    assert nbits == 10  # one group-test 0 per plane
    assert payload == 0


def test_single_significant_value():
    u = (1 << 62, 0, 0, 0)
    got = roundtrip(u, 62, 5)
    assert got[0] == 1 << 62 and got[1:] == (0, 0, 0)


def test_last_value_implied_one():
    # Only value 3 significant: the trailing 1 is implied, saving a bit.
    u = (0, 0, 0, 1 << 62)
    payload, nbits = encode_block(u, 62, 1)
    # plane: group-test 1, then three 0 value bits, implied 1 -> 4 bits
    assert nbits == 4
    vals, _ = decode_block(payload, nbits, 62, 1)
    assert vals == u


def test_all_significant_from_first_plane():
    u = tuple((1 << 62) | (k << 40) for k in range(4))
    got = roundtrip(u, 62, 23)
    assert list(got) == [mask_planes(v, 62, 23) for v in u]


def test_full_precision_is_lossless(rng):
    top = 62
    u = [int(x) for x in rng.integers(0, 2**62, 4)]
    got = roundtrip(u, top, top + 1)
    assert list(got) == u


def test_significance_is_monotone_across_planes():
    # once a value is significant its bits are coded verbatim; a value with
    # a high MSB and zero low bits must still roundtrip
    u = (0b1000000, 0b1111111, 0, 0)
    got = roundtrip([v << 56 for v in u], 62, 63)
    assert list(got) == [v << 56 for v in u]
