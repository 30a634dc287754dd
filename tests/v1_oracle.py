"""Legacy PSTF v1 writer: the oracle for the v1 read path.

The library only reads v1 (``tests/data/golden_v1.pstf`` and any pre-v2
file); new containers are always v2.  This writer produces v1 streams
for the compatibility tests::

    magic 'PSTF' | version u8 = 1 | codec-name length u8 | codec name
    repeat: frame length u64 | codec blob
    end:    frame length 0

No index, no checksums, no codec spec.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable

import numpy as np

from repro.streamio import StreamSummary


def write_v1_stream(
    chunks: Iterable[np.ndarray], codec, error_bound: float, fh: BinaryIO
) -> StreamSummary:
    """Write a v1 stream of one frame per chunk; returns its totals."""
    name = codec.name.encode("utf-8")
    fh.write(b"PSTF" + struct.pack("<BB", 1, len(name)) + name)
    n = orig = comp = 0
    header_bytes = 4 + 2 + len(name)
    for chunk in chunks:
        chunk = np.ascontiguousarray(chunk, dtype=np.float64)
        blob = codec.compress(chunk, error_bound)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        n += 1
        orig += chunk.nbytes
        comp += len(blob) + 8
    fh.write(struct.pack("<Q", 0))
    return StreamSummary(n, orig, comp + header_bytes + 8)
