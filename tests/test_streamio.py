"""Tests for the sequential paths of the PSTF container (repro.streamio).

Random access, corruption handling, and the v1 golden fixture live in
``tests/test_container.py``.
"""

import io
import struct

import numpy as np
import pytest

from repro.chem.synthetic import SyntheticERIModel
from repro.core import PaSTRICompressor
from repro.errors import FormatError
from repro.streamio import (
    StreamSummary,
    compress_dataset_to_file,
    compress_stream,
    decompress_file,
    decompress_stream,
    read_stream_header,
)
from repro.sz import SZCompressor
from tests.v1_oracle import write_v1_stream

EB = 1e-10


def codec():
    return PaSTRICompressor(dims=(6, 6, 6, 6))


def test_roundtrip_in_memory():
    model = SyntheticERIModel.from_config("(dd|dd)", seed=1)
    chunks = list(model.stream(40, chunk_blocks=16))
    buf = io.BytesIO()
    summary = compress_stream(chunks, codec(), EB, buf)
    assert summary.n_chunks == 3
    assert summary.ratio > 5

    buf.seek(0)
    assert read_stream_header(buf) == "pastri"
    out = list(decompress_stream(buf, codec()))
    assert len(out) == 3
    for got, want in zip(out, chunks):
        assert np.max(np.abs(got - want)) <= EB


def test_chunked_equals_whole(tmp_path):
    model = SyntheticERIModel.from_config("(dd|dd)", seed=2)
    whole = model.generate(32).data
    path = str(tmp_path / "c.pstf")
    compress_dataset_to_file(model.stream(32, chunk_blocks=10), codec(), EB, path)
    out = decompress_file(path, codec())
    assert out.size == whole.size
    assert np.max(np.abs(out - whole)) <= EB


def test_memory_bounded_iteration(tmp_path):
    """Frames decompress lazily — consuming one frame reads only one frame."""
    model = SyntheticERIModel.from_config("(dd|dd)", seed=3)
    path = str(tmp_path / "c.pstf")
    compress_dataset_to_file(model.stream(24, chunk_blocks=8), codec(), EB, path)
    with open(path, "rb") as fh:
        read_stream_header(fh)
        it = decompress_stream(fh, codec())
        first = next(it)
        assert first.size == 8 * 1296


def test_wrong_codec_rejected(tmp_path):
    path = str(tmp_path / "c.pstf")
    data = np.sin(np.linspace(0, 5, 4000)) * 1e-7
    compress_dataset_to_file([data], SZCompressor(), EB, path)
    with pytest.raises(FormatError):
        decompress_file(path, codec())
    out = decompress_file(path, SZCompressor())
    assert np.max(np.abs(out - data)) <= EB


def test_empty_stream(tmp_path):
    path = str(tmp_path / "c.pstf")
    summary = compress_dataset_to_file([], codec(), EB, path)
    assert summary.n_chunks == 0
    assert decompress_file(path, codec()).size == 0


def test_truncated_stream_rejected(tmp_path):
    """Cuts anywhere before the end-of-frames sentinel fail the sequential read."""
    path = str(tmp_path / "c.pstf")
    compress_dataset_to_file([np.ones(100)], codec(), EB, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    # last byte of the frame region: header | u64 len | frame | u64 sentinel
    for cut in (2, 5, 40, len(blob) // 3):
        buf = io.BytesIO(blob[:cut])
        with pytest.raises(FormatError):
            read_stream_header(buf)
            list(decompress_stream(buf, codec()))


def test_corrupt_frame_length_rejected_before_allocation(tmp_path):
    """A flipped length field must raise, not attempt a multi-GB read."""
    path = str(tmp_path / "c.pstf")
    compress_dataset_to_file([np.ones(100)], codec(), EB, path)
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
        fh.seek(0)
        read_stream_header(fh)
        frame_len_at = fh.tell()
    raw[frame_len_at : frame_len_at + 8] = struct.pack("<Q", 1 << 56)  # 64 PB
    buf = io.BytesIO(bytes(raw))
    read_stream_header(buf)
    with pytest.raises(FormatError, match="corrupt frame length"):
        list(decompress_stream(buf, codec()))


def test_corrupt_frame_length_nonseekable_hits_sanity_cap():
    """Non-seekable handles fall back to the sanity cap, not a blind read."""

    class Pipe(io.BytesIO):
        def seekable(self):
            return False

    buf = io.BytesIO()
    compress_stream([np.ones(64)], codec(), EB, buf)
    raw = bytearray(buf.getvalue())
    src = io.BytesIO(bytes(raw))
    read_stream_header(src)
    frame_len_at = src.tell()
    raw[frame_len_at : frame_len_at + 8] = struct.pack("<Q", 1 << 60)
    pipe = Pipe(bytes(raw))
    read_stream_header(pipe)
    with pytest.raises(FormatError, match="sanity cap"):
        list(decompress_stream(pipe, codec()))


def test_v1_stream_still_reads_sequentially():
    """Legacy v1 streams read through the same sequential entry points."""
    data = np.linspace(0, 1, 500) * 1e-7
    buf = io.BytesIO()
    s = write_v1_stream([data, data], SZCompressor(), EB, buf)
    assert s.n_chunks == 2
    assert s.compressed_bytes == buf.getbuffer().nbytes
    buf.seek(0)
    assert read_stream_header(buf) == "sz"
    out = list(decompress_stream(buf, SZCompressor()))
    assert len(out) == 2
    for got in out:
        assert np.max(np.abs(got - data)) <= EB


def test_summary_accounting():
    data = np.zeros(5000)
    buf = io.BytesIO()
    s = compress_stream([data, data], codec(), EB, buf)
    assert isinstance(s, StreamSummary)
    assert s.original_bytes == 2 * data.nbytes
    assert s.compressed_bytes == buf.getbuffer().nbytes
