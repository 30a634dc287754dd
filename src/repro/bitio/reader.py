"""MSB-first bitstream reader backed by an unpacked numpy bit array.

Beside :class:`BitReader`, :func:`gather_uint_fields` reads runs of
fixed-width fields at many non-contiguous bit offsets with one vectorised
gather — the read-side counterpart of
:func:`repro.bitio.writer.pack_uint_rows`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError, ParameterError


def gather_uint_fields(
    bits: np.ndarray, starts: np.ndarray, count: int, nbits: int
) -> np.ndarray:
    """Read ``count`` consecutive ``nbits``-wide unsigned ints at each offset.

    ``bits`` is an unpacked 0/1 uint8 array; ``starts`` holds one bit offset
    per row.  Returns a ``(len(starts), count)`` uint64 matrix.  One fancy
    gather plus one shift-dot replaces ``len(starts)`` separate
    ``read_uint_array`` calls, which is what makes class-batched
    decompression cheap for fields scattered across the stream.
    """
    if nbits > 64:
        raise ParameterError("nbits must be <= 64")
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    n = starts.size
    if n == 0 or count == 0 or nbits == 0:
        return np.zeros((n, count), dtype=np.uint64)
    span = count * nbits
    if int(starts.min()) < 0 or int(starts.max()) + span > bits.size:
        raise FormatError("bit-field gather out of range")
    win = bits[starts[:, None] + np.arange(span, dtype=np.int64)[None, :]]
    win = win.reshape(n, count, nbits).astype(np.uint64)
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
    return (win << shifts[None, None, :]).sum(axis=2, dtype=np.uint64)


class BitReader:
    """Reads MSB-first bitstreams written by :class:`repro.bitio.BitWriter`.

    The whole payload is unpacked once into a uint8 0/1 array; all reads are
    slices of that array, so bulk reads (``read_uint_array``) are vectorised.
    """

    def __init__(self, data: bytes | np.ndarray) -> None:
        if isinstance(data, np.ndarray) and data.dtype == np.uint8 and data.ndim == 1:
            buf = data
        else:
            buf = np.frombuffer(bytes(data), dtype=np.uint8)
        self._bits = np.unpackbits(buf)
        self._pos = 0

    @property
    def pos(self) -> int:
        """Current bit offset."""
        return self._pos

    @property
    def bits(self) -> np.ndarray:
        """The underlying unpacked 0/1 bit array (read-only use)."""
        return self._bits

    @property
    def nbits(self) -> int:
        """Total number of bits available (including byte padding)."""
        return self._bits.size

    @property
    def remaining(self) -> int:
        return self._bits.size - self._pos

    def _take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError("cannot read a negative number of bits")
        if self._pos + n > self._bits.size:
            raise FormatError(
                f"bitstream underflow: need {n} bits at offset {self._pos}, "
                f"have {self._bits.size - self._pos}"
            )
        out = self._bits[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_bit(self) -> int:
        """Read a single bit."""
        return int(self._take(1)[0])

    def read_uint(self, nbits: int) -> int:
        """Read an ``nbits``-wide unsigned integer (MSB first)."""
        if nbits > 64:
            raise ParameterError("nbits must be <= 64")
        if nbits == 0:
            return 0
        bits = self._take(nbits).astype(np.uint64)
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return int((bits << shifts).sum(dtype=np.uint64))

    def read_uint_array(self, count: int, nbits: int) -> np.ndarray:
        """Read ``count`` unsigned integers of ``nbits`` bits each (vectorised)."""
        if nbits > 64:
            raise ParameterError("nbits must be <= 64")
        if count == 0 or nbits == 0:
            self._take(count * nbits)
            return np.zeros(count, dtype=np.uint64)
        bits = self._take(count * nbits).reshape(count, nbits).astype(np.uint64)
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)

    def read_double(self) -> float:
        """Read a float64 stored as 64 raw IEEE bits."""
        return float(np.uint64(self.read_uint(64)).view(np.float64))

    def seek(self, bit_offset: int) -> None:
        """Jump to an absolute bit offset."""
        if bit_offset < 0 or bit_offset > self._bits.size:
            raise FormatError(f"seek out of range: {bit_offset}")
        self._pos = bit_offset

    def skip(self, nbits: int) -> None:
        """Advance the cursor by ``nbits`` without decoding."""
        self._take(nbits)
