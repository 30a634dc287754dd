"""Tests for PSTF-v2 random access, corruption handling, and v1 compat."""

import io
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import PaSTRICompressor
from repro.errors import ChecksumError, FormatError
from repro.lossless.deflate import DeflateCodec
from repro.streamio import (
    ContainerWriter,
    compress_stream,
    decompress_file,
    open_container,
)
from repro.sz import SZCompressor
from tests.v1_oracle import write_v1_stream

EB = 1e-10
DATA_DIR = Path(__file__).parent / "data"


def pastri():
    return PaSTRICompressor(dims=(6, 6, 6, 6))


def make_chunks(n=3, size=6**4 * 2, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(size) * 1e-7 for _ in range(n)]


def make_container(chunks, codec=None, meta=None) -> bytes:
    buf = io.BytesIO()
    compress_stream(chunks, codec or pastri(), EB, buf, meta=meta)
    return buf.getvalue()


class CountingIO(io.BytesIO):
    """BytesIO that counts how many payload bytes each read touches."""

    bytes_read = 0

    def read(self, *args):
        out = super().read(*args)
        self.bytes_read += len(out)
        return out


# ---------------------------------------------------------------------------
# random access


def test_open_container_needs_no_codec_arguments():
    chunks = make_chunks()
    r = open_container(io.BytesIO(make_container(chunks)))
    assert r.codec_name == "pastri"
    assert r.codec.spec.dims == (6, 6, 6, 6)
    assert len(r) == 3
    for i, c in enumerate(chunks):
        assert np.max(np.abs(r.read_frame(i) - c)) <= EB


def test_single_frame_read_touches_only_that_frame():
    """O(1) access: serving frame i reads index + header + frame i, no more."""
    chunks = make_chunks(n=8)
    raw = make_container(chunks)
    fh = CountingIO(raw)
    r = open_container(fh)
    setup_bytes = fh.bytes_read  # header + footer index
    target = 5
    fh.bytes_read = 0
    out = r.read_frame(target)
    assert np.max(np.abs(out - chunks[target])) <= EB
    assert fh.bytes_read == r.frames[target].length
    other_frames = sum(f.length for i, f in enumerate(r.frames) if i != target)
    assert setup_bytes + fh.bytes_read < len(raw) - other_frames + 1


def test_frames_out_of_order_and_repeatedly():
    chunks = make_chunks(n=4, seed=3)
    r = open_container(io.BytesIO(make_container(chunks)))
    for i in (3, 0, 2, 2, 1, 3):
        assert np.max(np.abs(r.read_frame(i) - chunks[i])) <= EB


def test_iteration_and_read_all():
    chunks = make_chunks(n=3, seed=4)
    r = open_container(io.BytesIO(make_container(chunks)))
    assert [c.size for c in r] == [c.size for c in chunks]
    assert np.max(np.abs(r.read_all() - np.concatenate(chunks))) <= EB
    assert r.n_elements == sum(c.size for c in chunks)


def test_keyed_frames_and_dims():
    buf = io.BytesIO()
    rng = np.random.default_rng(5)
    blocks = {f"({i}, 0)": rng.standard_normal(36) * 1e-7 for i in range(3)}
    with ContainerWriter(buf, SZCompressor(), EB) as w:
        for key, b in blocks.items():
            w.append(b, key=key, dims=(6, 6, 1, 1))
    buf.seek(0)
    r = open_container(buf)
    assert r.keys() == list(blocks)
    assert r.frames[0].dims == (6, 6, 1, 1)
    for key, b in blocks.items():
        assert np.max(np.abs(r.get(key) - b)) <= EB
    with pytest.raises(KeyError):
        r.get("missing")


def test_meta_round_trips():
    r = open_container(
        io.BytesIO(make_container(make_chunks(1), meta={"error_bound": EB, "k": "v"}))
    )
    assert r.meta == {"error_bound": EB, "k": "v"}


def test_codec_spec_round_trips_through_header():
    codec = PaSTRICompressor(dims=(3, 3, 6, 6), metric="aar", tree_id=2)
    rng = np.random.default_rng(6)
    raw = make_container([rng.standard_normal(3 * 3 * 6 * 6) * 1e-7], codec=codec)
    r = open_container(io.BytesIO(raw))
    assert r.codec.spec.dims == (3, 3, 6, 6)
    assert r.codec.metric.value == "aar"
    assert r.codec.tree_id == 2


def test_explicit_codec_name_mismatch_rejected():
    raw = make_container(make_chunks(1))
    with pytest.raises(FormatError, match="written by codec"):
        open_container(io.BytesIO(raw), codec=SZCompressor())


def test_empty_container_round_trips():
    r = open_container(io.BytesIO(make_container([])))
    assert len(r) == 0
    assert r.read_all().size == 0


def test_unclosed_writer_is_recoverable_sequentially_but_not_indexed():
    buf = io.BytesIO()
    w = ContainerWriter(buf, pastri(), EB)
    chunk = make_chunks(1)[0]
    w.append(chunk)
    # no close(): footer missing
    with pytest.raises(FormatError, match="index"):
        open_container(io.BytesIO(buf.getvalue()))


# ---------------------------------------------------------------------------
# corruption matrix: every damage class raises FormatError, never garbage


def test_truncated_header_rejected():
    raw = make_container(make_chunks(1))
    for cut in (0, 3, 5, 8):
        with pytest.raises(FormatError):
            open_container(io.BytesIO(raw[:cut]))


def test_truncated_footer_rejected():
    raw = make_container(make_chunks(2))
    for cut in (len(raw) - 1, len(raw) - 9, len(raw) - 21):
        with pytest.raises(FormatError):
            open_container(io.BytesIO(raw[:cut]))


def test_truncated_frame_bytes_rejected():
    """Deleting payload bytes (index intact) is an index/payload mismatch."""
    chunks = make_chunks(2)
    raw = make_container(chunks)
    r = open_container(io.BytesIO(raw))
    f1 = r.frames[1]
    # drop 16 bytes out of frame 1's payload
    cut = raw[: f1.offset + 4] + raw[f1.offset + 20 :]
    with pytest.raises(FormatError):
        rr = open_container(io.BytesIO(cut))
        rr.read_frame(1)


def test_flipped_payload_bit_raises_checksum_error():
    chunks = make_chunks(2)
    raw = bytearray(make_container(chunks))
    r = open_container(io.BytesIO(bytes(raw)))
    f0 = r.frames[0]
    raw[f0.offset + f0.length // 2] ^= 0x10
    rr = open_container(io.BytesIO(bytes(raw)))
    with pytest.raises(ChecksumError, match="CRC mismatch"):
        rr.read_frame(0)
    # the other frame is untouched and still serves
    assert np.max(np.abs(rr.read_frame(1) - chunks[1])) <= EB


def test_bad_index_crc_rejected_at_open():
    raw = bytearray(make_container(make_chunks(2)))
    # index payload sits between the 0-sentinel and the 20-byte trailer;
    # flip a bit safely inside it (3 bytes before the trailer).
    raw[len(raw) - 20 - 3] ^= 0x01
    with pytest.raises(ChecksumError, match="index CRC"):
        open_container(io.BytesIO(bytes(raw)))


def test_index_pointing_past_payload_rejected():
    """An index whose offsets overrun the payload region is refused."""
    chunks = make_chunks(1)
    buf = io.BytesIO()
    w = ContainerWriter(buf, pastri(), EB)
    w.append(chunks[0])
    # forge the recorded length before close() writes the index
    f = w.frames[0]
    w.frames[0] = type(f)(f.offset, f.length + 10_000, f.n_elements, f.crc32)
    w.close()
    with pytest.raises(FormatError, match="index/payload mismatch"):
        open_container(io.BytesIO(buf.getvalue()))


def test_decoded_count_must_match_index():
    """A frame decoding to the wrong element count is flagged, not returned."""
    chunks = make_chunks(1)
    buf = io.BytesIO()
    w = ContainerWriter(buf, pastri(), EB)
    blob = pastri().compress(chunks[0], EB)
    w.append_blob(blob, chunks[0].size + 7)  # lie about the count
    w.close()
    r = open_container(io.BytesIO(buf.getvalue()))
    with pytest.raises(FormatError, match="index says"):
        r.read_frame(0)


def test_corrupt_header_json_rejected():
    raw = bytearray(make_container(make_chunks(1)))
    # header JSON starts at 4 + 2 + len("pastri") + 4
    raw[4 + 2 + 6 + 4] ^= 0xFF
    with pytest.raises(FormatError):
        open_container(io.BytesIO(bytes(raw)))


# ---------------------------------------------------------------------------
# v1 compatibility


def test_golden_v1_fixture_decodes_byte_identically():
    """Committed v1 bytes from the pre-v2 writer must keep decoding exactly."""
    path = str(DATA_DIR / "golden_v1.pstf")
    expected = np.load(DATA_DIR / "golden_v1_expected.npy")
    # deflate is lossless: reconstruction must be byte-identical
    out = decompress_file(path, DeflateCodec())
    assert out.dtype == np.float64
    assert np.array_equal(out, expected)
    # and through the random-access compat path, with no codec argument
    with open_container(path) as r:
        assert r.version == 1
        assert r.codec_name == "deflate"
        assert np.array_equal(r.read_all(), expected)
        assert len(r) == 3


def test_v1_pastri_codec_rebuilt_from_first_blob():
    """v1 headers carry no kwargs; PaSTRI geometry is peeked from frame 0."""
    codec = PaSTRICompressor(dims=(3, 3, 6, 6))
    rng = np.random.default_rng(7)
    chunks = [rng.standard_normal(3 * 3 * 6 * 6 * 2) * 1e-7 for _ in range(2)]
    buf = io.BytesIO()
    write_v1_stream(chunks, codec, EB, buf)
    buf.seek(0)
    r = open_container(buf)
    assert r.version == 1
    assert r.codec.spec.dims == (3, 3, 6, 6)
    for i, c in enumerate(chunks):
        assert np.max(np.abs(r.read_frame(i) - c)) <= EB
    # v1 entries have no counts until decoded, then they are backfilled
    assert r.frames[0].n_elements == chunks[0].size
    assert r.frames[0].crc32 is None  # v1 had no checksums


def test_v1_random_access_after_scan():
    data = np.linspace(0, 1, 300) * 1e-6
    buf = io.BytesIO()
    write_v1_stream([data, 2 * data, 3 * data], SZCompressor(), EB, buf)
    buf.seek(0)
    r = open_container(buf)
    assert np.max(np.abs(r.read_frame(2) - 3 * data)) <= EB
    assert np.max(np.abs(r.read_frame(0) - data)) <= EB


def test_v1_truncation_rejected_via_compat_scan():
    buf = io.BytesIO()
    write_v1_stream([np.ones(64)], SZCompressor(), EB, buf)
    raw = buf.getvalue()
    for cut in (7, len(raw) // 2, len(raw) - 4):
        with pytest.raises(FormatError):
            open_container(io.BytesIO(raw[:cut]))


# ---------------------------------------------------------------------------
# layout details worth pinning


def test_header_json_is_sorted_and_minimal():
    """Deterministic headers: same codec + meta → byte-identical container head."""
    a = make_container(make_chunks(1), meta={"b": 1, "a": 2})
    b = make_container(make_chunks(1), meta={"a": 2, "b": 1})
    (spec_len,) = struct.unpack("<I", a[12:16])
    assert a[: 16 + spec_len] == b[: 16 + spec_len]
    header = json.loads(a[16 : 16 + spec_len])
    assert set(header) == {"codec", "meta"}


def test_trailer_crc_matches_index_payload():
    raw = make_container(make_chunks(2))
    trailer = raw[-20:]
    crc, length = struct.unpack("<IQ", trailer[:12])
    assert trailer[12:] == b"PSTFIDX2"
    payload = raw[-20 - length : -20]
    assert zlib.crc32(payload) & 0xFFFFFFFF == crc
