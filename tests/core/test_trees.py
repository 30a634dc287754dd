"""Unit tests for the five ECQ encoding trees (repro.core.trees).

Round trips decode the encoder's bits as the dense segment of a one-block
stream, through the compiled index pass and its scalar oracle at once.
"""

import numpy as np
import pytest

from repro.bitio import BitReader, BitWriter
from repro.core import header as fmt
from repro.core.trees import TREE_IDS, encode_ecq, encoded_size_bits
from repro.errors import FormatError, ParameterError
from tests.core.reference import build_blob, parse_both, segment_blob


def roundtrip(vals, ecb, tree):
    codes, lengths = encode_ecq(np.asarray(vals, dtype=np.int64), ecb, tree)
    seg = BitWriter()
    seg.write_varlen_array(codes, lengths)
    nbits = seg.nbits
    blob, start = segment_blob(seg, len(vals), ecb, tree)
    parse = parse_both(blob)
    assert parse[-1] - start == nbits
    return parse[8][0].tolist(), nbits


def test_tree1_codeword_shapes():
    codes, lengths = encode_ecq(np.array([0, 1, -5]), 4, 1)
    assert lengths.tolist() == [1, 5, 5]
    assert codes[0] == 0
    # '1' + offset-binary(1 + 8) = 1_1001
    assert codes[1] == 0b11001


def test_tree2_puts_plus_one_high():
    codes, lengths = encode_ecq(np.array([0, 1, -1, 3]), 4, 2)
    assert lengths.tolist() == [1, 2, 3, 7]
    assert codes[1] == 0b10 and codes[2] == 0b110


def test_tree3_pushes_others_higher_than_tree2():
    vals = np.array([5, -6, 7])
    _, l3 = encode_ecq(vals, 5, 3)
    _, l2 = encode_ecq(vals, 5, 2)
    assert np.all(l3 == l2 - 1)  # exactly the paper's "1 less bit"


def test_tree4_paper_examples():
    # Paper: 0 -> '0'; -1 -> '10' + '1'; +1 -> '10' + '0'.
    codes, lengths = encode_ecq(np.array([0, 1, -1]), 6, 4)
    assert (codes[0], lengths[0]) == (0, 1)
    assert (codes[1], lengths[1]) == (0b100, 3)
    assert (codes[2], lengths[2]) == (0b101, 3)
    # ±[2,3] -> '110' + 2 bits.
    codes, lengths = encode_ecq(np.array([2, 3, -2, -3]), 6, 4)
    assert lengths.tolist() == [5, 5, 5, 5]
    assert codes.tolist() == [0b11000, 0b11001, 0b11010, 0b11011]


def test_tree4_top_bin_drops_terminator():
    # ecb=4: top bin ±[4,7] has prefix '111' (no trailing 0) + 3 bits.
    codes, lengths = encode_ecq(np.array([4, -7]), 4, 4)
    assert lengths.tolist() == [6, 6]


def test_tree5_small_range_is_three_leaf_code():
    codes, lengths = encode_ecq(np.array([0, 1, -1]), 2, 5)
    assert codes.tolist() == [0b0, 0b10, 0b11]
    assert lengths.tolist() == [1, 2, 2]


def test_tree5_defers_to_tree3_for_large_range():
    vals = np.array([0, 1, -1, 9, -12])
    c5, l5 = encode_ecq(vals, 6, 5)
    c3, l3 = encode_ecq(vals, 6, 3)
    assert np.array_equal(c5, c3) and np.array_equal(l5, l3)


@pytest.mark.parametrize("tree", TREE_IDS)
@pytest.mark.parametrize("ecb", [2, 3, 5, 11, 22])
def test_roundtrip_random_skewed(tree, ecb, rng):
    hi = (1 << (ecb - 1)) - 1
    vals = rng.integers(-hi, hi + 1, 500)
    mask = rng.random(500) < 0.85
    vals[mask] = rng.integers(-1, 2, int(mask.sum()))
    if ecb == 2:
        vals = np.clip(vals, -1, 1)
    out, _ = roundtrip(vals, ecb, tree)
    assert out == vals.tolist()


@pytest.mark.parametrize("tree", TREE_IDS)
def test_encoded_size_matches_actual_bits(tree, rng):
    ecb = 7
    vals = rng.integers(-63, 64, 300)
    _, nbits = roundtrip(vals, ecb, tree)
    assert nbits == encoded_size_bits(vals, ecb, tree)


@pytest.mark.parametrize("tree", TREE_IDS)
def test_extremes_of_range_roundtrip(tree):
    ecb = 9
    hi = (1 << (ecb - 1)) - 1
    vals = [0, hi, -hi, 1, -1, hi // 2, -(hi // 2)]
    out, _ = roundtrip(vals, ecb, tree)
    assert out == vals


def test_all_zero_stream_costs_one_bit_per_point():
    vals = np.zeros(64, dtype=np.int64)
    for tree in TREE_IDS:
        assert encoded_size_bits(vals, 3, tree) == 64


def test_rejects_unknown_tree_and_bad_ecb():
    with pytest.raises(ParameterError):
        encode_ecq(np.array([0]), 4, 6)
    with pytest.raises(ParameterError):
        encode_ecq(np.array([0]), 1, 1)
    blob = bytearray(build_blob((1, 1, 1, 1), 5, [("zero",)]))
    blob[5] &= 0x0F  # tree id 0
    with pytest.raises(FormatError, match="bad tree id 0"):
        fmt.read_header(BitReader(bytes(blob)))


def test_decode_zero_tokens_is_empty():
    # EC_b,max < 2: the block carries no ECQ segment at all
    blob = build_blob((1, 1, 2, 2), 5, [("pat", 3, np.arange(5), 1, False, [0] * 4)])
    parse = parse_both(blob)
    assert parse[7].size == 0 and parse[8].shape == (0, 4)
    assert parse[-1] == fmt.StreamHeader.NBITS + 2 + 6 + 5 * 3 + 6


def test_decode_is_bounded_by_segment():
    # decoding must stop after n tokens even with more bits in the stream
    codes, lengths = encode_ecq(np.array([0, 0, 1]), 2, 5)
    seg = BitWriter()
    seg.write_varlen_array(codes, lengths)
    seg.write_uint(0xFFFF, 16)  # trailing unrelated data
    blob, start = segment_blob(seg, 3, 2, 5)
    parse = parse_both(blob)
    assert parse[8].tolist() == [[0, 0, 1]]
    assert parse[-1] == start + 4
