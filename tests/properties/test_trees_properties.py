"""Property-based tests for the ECQ encoding trees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitio import BitWriter
from repro.core.trees import TREE_IDS, encode_ecq, encoded_size_bits
from tests.core.reference import parse_both, segment_blob


@st.composite
def ecq_streams(draw):
    ecb = draw(st.integers(2, 24))
    hi = (1 << (ecb - 1)) - 1
    n = draw(st.integers(1, 200))
    vals = draw(
        st.lists(st.integers(-hi, hi), min_size=n, max_size=n)
    )
    return np.array(vals, dtype=np.int64), ecb


@given(stream=ecq_streams(), tree=st.sampled_from(TREE_IDS))
@settings(max_examples=150, deadline=None)
def test_roundtrip_identity(stream, tree):
    vals, ecb = stream
    codes, lengths = encode_ecq(vals, ecb, tree)
    seg = BitWriter()
    seg.write_varlen_array(codes, lengths)
    # the kernel and the scalar oracle decode the segment identically
    blob, start = segment_blob(seg, vals.size, ecb, tree)
    parse = parse_both(blob)
    assert parse[-1] - start == int(lengths.sum())
    assert np.array_equal(parse[8][0], vals)


@given(stream=ecq_streams(), tree=st.sampled_from(TREE_IDS))
@settings(max_examples=80, deadline=None)
def test_size_formula_exact(stream, tree):
    vals, ecb = stream
    _, lengths = encode_ecq(vals, ecb, tree)
    assert int(lengths.sum()) == encoded_size_bits(vals, ecb, tree)


@given(stream=ecq_streams())
@settings(max_examples=80, deadline=None)
def test_tree5_never_loses_to_tree3_or_small_case(stream):
    vals, ecb = stream
    s5 = encoded_size_bits(vals, ecb, 5)
    s3 = encoded_size_bits(vals, ecb, 3)
    assert s5 <= s3  # adaptive tree is at least as good as its base


@given(stream=ecq_streams(), tree=st.sampled_from(TREE_IDS))
@settings(max_examples=50, deadline=None)
def test_zero_is_always_one_bit(stream, tree):
    vals, ecb = stream
    vals = np.zeros_like(vals)
    _, lengths = encode_ecq(vals, ecb, tree)
    assert np.all(lengths == 1)
