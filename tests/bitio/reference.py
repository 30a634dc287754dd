"""Test-side bit writers for shapes the production :class:`BitWriter` does not take.

Both append through :meth:`BitWriter.write_segments`, the writer's public
bulk path, so the bits they stage are exactly what the writer packs.
"""

from __future__ import annotations

import numpy as np

from repro.bitio import BitWriter
from repro.errors import ParameterError


def write_bits(w: BitWriter, bits) -> None:
    """Append raw bits: a ``"0101"`` string or an array of 0/1 values."""
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size:
        w.write_segments([arr])


def write_bigint(w: BitWriter, value: int, nbits: int) -> None:
    """Append an arbitrary-width unsigned integer MSB-first (e.g. a ZFP
    block payload of a few hundred bits)."""
    if nbits == 0:
        return
    if value < 0 or value >> nbits:
        raise ParameterError(f"value does not fit in {nbits} bits")
    nbytes = (nbits + 7) // 8
    bits = np.unpackbits(np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8))
    write_bits(w, bits[8 * nbytes - nbits :])
