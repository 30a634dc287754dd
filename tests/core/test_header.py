"""Unit tests for the PaSTRI stream header (repro.core.header)."""

import pytest

from repro.bitio import BitReader, BitWriter
from repro.core import PaSTRICompressor
from repro.core import header as fmt
from repro.core.blocking import BlockSpec
from repro.core.scaling import ScalingMetric
from repro.errors import FormatError, ParameterError


def make_header(**overrides):
    kw = dict(
        error_bound=1e-10,
        spec=BlockSpec((6, 6, 6, 6)),
        n_blocks=123,
        n_tail=7,
        tree_id=5,
        metric=ScalingMetric.ER,
    )
    kw.update(overrides)
    return fmt.StreamHeader(**kw)


def test_header_roundtrip():
    hdr = make_header()
    w = BitWriter()
    fmt.write_header(w, hdr)
    assert w.nbits == fmt.StreamHeader.NBITS
    got = fmt.read_header(BitReader(w.getvalue()))
    assert got == hdr


def test_header_roundtrip_all_metrics_and_trees():
    for metric in ScalingMetric:
        for tree in (1, 2, 3, 4, 5):
            hdr = make_header(metric=metric, tree_id=tree)
            w = BitWriter()
            fmt.write_header(w, hdr)
            got = fmt.read_header(BitReader(w.getvalue()))
            assert got.metric is metric and got.tree_id == tree


def test_bad_magic_rejected():
    w = BitWriter()
    fmt.write_header(w, make_header())
    blob = bytearray(w.getvalue())
    blob[0] ^= 0xFF
    with pytest.raises(FormatError):
        fmt.read_header(BitReader(bytes(blob)))


@pytest.mark.parametrize("bad", [0, *range(6, 16)])
def test_bad_tree_id_rejected(bad):
    w = BitWriter()
    fmt.write_header(w, make_header())
    blob = bytearray(w.getvalue())
    blob[5] = (bad << 4) | (blob[5] & 0x0F)  # tree_id: high nibble of byte 5
    with pytest.raises(FormatError, match=f"bad tree id {bad}"):
        fmt.read_header(BitReader(bytes(blob)))


def test_bad_version_rejected():
    w = BitWriter()
    fmt.write_header(w, make_header())
    blob = bytearray(w.getvalue())
    blob[4] ^= 0x01  # version byte
    with pytest.raises(FormatError):
        fmt.read_header(BitReader(bytes(blob)))


def test_truncated_header_rejected():
    w = BitWriter()
    fmt.write_header(w, make_header())
    with pytest.raises(FormatError):
        fmt.read_header(BitReader(w.getvalue()[:10]))


def test_oversized_dims_rejected():
    hdr = make_header(spec=BlockSpec((1 << 16, 1, 1, 1)))
    with pytest.raises(ParameterError):
        fmt.write_header(BitWriter(), hdr)


@pytest.mark.parametrize("dims", [(300,) * 4, (65535,) * 4, (100,) * 4])
def test_corrupt_geometry_raises_format_error(dims):
    """A 33-byte blob declaring one zero-kind block of a geometry past
    MAX_BLOCK_SIZE must not drive a huge allocation (or succeed)."""
    w = BitWriter()
    fmt.write_header(w, make_header(spec=BlockSpec(dims), n_blocks=1, n_tail=0))
    w.write_uint(fmt.KIND_ZERO, 2)
    blob = w.getvalue()
    assert len(blob) == 33
    with pytest.raises(FormatError, match="bad block geometry"):
        fmt.read_header(BitReader(blob))
    with pytest.raises(FormatError, match="bad block geometry"):
        PaSTRICompressor(dims=(1, 1, 1, 1)).decompress(blob)
    with pytest.raises(ParameterError, match="exceeds"):
        PaSTRICompressor(dims=dims)


def test_zero_dim_raises_format_error():
    w = BitWriter()
    fmt.write_header(w, make_header())
    blob = bytearray(w.getvalue())
    blob[14:16] = b"\x00\x00"  # N1: the first 16-bit dim field
    with pytest.raises(FormatError, match="bad block geometry"):
        fmt.read_header(BitReader(bytes(blob)))


def test_largest_block_size_accepted():
    side = round(fmt.MAX_BLOCK_SIZE ** 0.25)
    assert side**4 == fmt.MAX_BLOCK_SIZE
    w = BitWriter()
    fmt.write_header(w, make_header(spec=BlockSpec((side,) * 4)))
    assert fmt.read_header(BitReader(w.getvalue())).spec.block_size == fmt.MAX_BLOCK_SIZE
    assert PaSTRICompressor(dims=(side,) * 4).spec.block_size == fmt.MAX_BLOCK_SIZE
