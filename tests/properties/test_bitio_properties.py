"""Property-based tests for the bitstream substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitio import BitReader, BitWriter
from tests.bitio.reference import write_bigint

fields = st.lists(
    st.integers(1, 64).flatmap(
        lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))
    ),
    min_size=1,
    max_size=80,
)


@given(fields=fields)
@settings(max_examples=150, deadline=None)
def test_heterogeneous_field_roundtrip(fields):
    w = BitWriter()
    for value, width in fields:
        w.write_uint(value, width)
    r = BitReader(w.getvalue())
    for value, width in fields:
        assert r.read_uint(width) == value


@given(
    values=st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=200),
    width=st.integers(20, 64),
)
@settings(max_examples=80, deadline=None)
def test_uint_array_roundtrip(values, width):
    arr = np.array(values, dtype=np.uint64)
    w = BitWriter()
    w.write_uint_array(arr, width)
    assert np.array_equal(BitReader(w.getvalue()).read_uint_array(len(values), width), arr)


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_doubles_roundtrip_bit_exact(values):
    w = BitWriter()
    for v in values:
        w.write_double(v)
    r = BitReader(w.getvalue())
    for v in values:
        assert r.read_double() == v


@given(st.integers(0, 2**200 - 1))
@settings(max_examples=60, deadline=None)
def test_bigint_roundtrip(value):
    nbits = max(value.bit_length(), 1)
    w = BitWriter()
    write_bigint(w, value, nbits)
    assert w.nbits == nbits
    r = BitReader(w.getvalue())
    got = 0
    for _ in range(nbits):
        got = (got << 1) | r.read_bit()
    assert got == value
