"""Quantization calculus for PaSTRI (paper §IV-B, Eq. 5–23).

The compressed block stores three quantized streams:

* ``PQ`` — the pattern, quantized on a ``2·EB`` grid (``P_binsize = 2·EB``),
  so its quantization error never exceeds ``EB`` (Eq. 6).
* ``SQ`` — the scaling coefficients.  ``|S| <= 1`` always, so
  ``S_binsize = 2^-(S_b - 1)``; the paper's key optimisation (Eq. 21–23) is
  to reuse ``S_b = P_b`` instead of quantizing S on a ``2·EB`` grid, which
  would cost ~33 bits per coefficient at EB = 1e-10.
* ``ECQ`` — error-correction codes, ``round(dev / (2·EB))`` (Eq. 5 with
  ``ECQ_binsize = 2·EB``).

Correctness is *by construction*: ECQ is computed against the actual
quantized reconstruction ``SQ·S_binsize × PQ·P_binsize``, so the point-wise
bound ``|x - x'| <= EB`` holds for every input, independent of how well the
bit-width analysis predicts the residual magnitudes.  The analysis (Eq. 23)
only governs how *large* the ECQ values — and hence the output — get.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError

#: Fractional deflation of the nominal 2·EB quantization bin.  A value
#: landing exactly on a bin boundary reconstructs with error exactly EB;
#: float64 rounding noise on top would then exceed the bound by an ulp.
#: Shrinking the working bin by 2^-10 absorbs both (≤0.1 % ratio cost).
BIN_DEFLATION = 1.0 - 2.0**-10


def working_binsize(eb: float) -> float:
    """The deflated quantization bin used by every 2·EB grid in PaSTRI."""
    return 2.0 * eb * BIN_DEFLATION


#: Hard cap on per-value bit widths; blocks needing more fall back to raw
#: 64-bit storage.  Beyond ~2^46 grid steps the float64 reconstruction
#: arithmetic itself rounds by more than the bound (ulp(x) approaches EB),
#: so patterned coding cannot honour the contract — raw storage (exact)
#: takes over.  Never triggered by realistic ERI data/EB combinations.
MAX_FIELD_BITS = 46


def bits_for_symmetric_range(ext: int) -> int:
    """Minimal two's-complement width holding all integers in ``[-ext, ext]``.

    A ``b``-bit signed field covers ``[-2^(b-1), 2^(b-1) - 1]``; we require
    ``ext <= 2^(b-1) - 1`` so both signs of the extremum fit.
    """
    if ext < 0:
        raise ParameterError("range extremum must be non-negative")
    if ext == 0:
        return 1
    return 1 + int(ext).bit_length()


def quantize_pattern(pattern: np.ndarray, eb: float) -> tuple[np.ndarray, int]:
    """Quantize the pattern on the ``2·EB`` grid; return ``(PQ, P_b)``.

    ``P_b`` follows Eq. 8 with ``P_binsize = 2·EB``: the number of bits
    needed for the signed range ``[-PQ_ext, PQ_ext]``.
    """
    pq = np.rint(pattern / working_binsize(eb)).astype(np.int64)
    ext = int(np.abs(pq).max(initial=0))
    return pq, bits_for_symmetric_range(ext)


def quantize_scales(scales: np.ndarray, s_b: int) -> np.ndarray:
    """Quantize coefficients in ``[-1, 1]`` to ``S_b``-bit signed integers.

    ``S_binsize = 2^-(S_b - 1)`` (Eq. 9 with ``S_ext = 1``).  ``S = +1``
    would land on ``2^(S_b-1)``, one past the two's-complement maximum; it is
    clamped and the ≤ one-bin slack is absorbed by the EC codes (paper:
    "EC should accommodate for only 2 more bins", Eq. 23).
    """
    hi = (1 << (s_b - 1)) - 1
    lo = -(1 << (s_b - 1))
    sq = np.rint(scales * (1 << (s_b - 1))).astype(np.int64)
    return np.clip(sq, lo, hi)


def dequantize_pattern(pq: np.ndarray, eb: float) -> np.ndarray:
    """Inverse of :func:`quantize_pattern`."""
    return pq.astype(np.float64) * working_binsize(eb)


def dequantize_scales(sq: np.ndarray, s_b: int) -> np.ndarray:
    """Inverse of :func:`quantize_scales`."""
    return sq.astype(np.float64) * (2.0 ** -(s_b - 1))


def reconstruct_block(pq: np.ndarray, sq: np.ndarray, eb: float, s_b: int) -> np.ndarray:
    """Scaled-pattern approximation (Eq. 10): outer(SQ·S_bin, PQ·P_bin)."""
    return np.outer(dequantize_scales(sq, s_b), dequantize_pattern(pq, eb))


def error_correction_codes(
    block2d: np.ndarray, approx2d: np.ndarray, eb: float
) -> np.ndarray:
    """ECQ = round(dev / (2·EB)) against the *quantized* reconstruction (Eq. 5)."""
    return np.rint((block2d - approx2d) / working_binsize(eb)).astype(np.int64)


def ecq_bin_numbers(ecq: np.ndarray) -> np.ndarray:
    """Fig. 6 binning: bits needed per value — 0→1, ±1→2, ±[2,3]→3, ...

    ``i`` bits represent the range ±[2^(i-2), 2^(i-1) - 1]; i.e.
    ``bin(v) = floor(log2 |v|) + 2`` for v ≠ 0.
    """
    a = np.abs(ecq)
    bins = np.ones(a.shape, dtype=np.int64)
    nz = a > 0
    if nz.any():
        # floor(log2) via the exponent of the float representation: exact for
        # |v| < 2^53, far beyond any realistic ECQ.
        bins[nz] = np.frexp(a[nz].astype(np.float64))[1] + 1
    return bins


def ec_b_max(ecq: np.ndarray) -> int:
    """Per-block ``EC_b,max`` — the largest Fig. 6 bin present."""
    if ecq.size == 0:
        return 1
    ext = int(np.abs(ecq).max())
    if ext == 0:
        return 1
    return ext.bit_length() + 1


@dataclass(frozen=True)
class BlockQuantization:
    """All quantized streams for one block plus their bit widths."""

    pq: np.ndarray  # int64, len = sb_size
    sq: np.ndarray  # int64, len = num_sb
    ecq: np.ndarray  # int64, shape (num_sb, sb_size)
    p_b: int
    s_b: int
    ec_b_max: int


def quantize_block(
    block2d: np.ndarray,
    pattern: np.ndarray,
    scales: np.ndarray,
    eb: float,
) -> BlockQuantization:
    """Run the full §IV-B pipeline on one block.

    Pattern binsize is pinned at ``2·EB``; ``S_b = P_b`` (the paper's
    practical method); ECQ is computed against the exact reconstruction the
    decompressor will build, guaranteeing the error bound.

    Precondition: ``max|block| / EB < 2^MAX_FIELD_BITS`` — beyond that the
    float64 reconstruction rounds by more than EB and the caller must store
    the block raw (the compressor's fallback does exactly this).
    """
    pq, p_b = quantize_pattern(pattern, eb)
    s_b = p_b
    sq = quantize_scales(scales, s_b)
    approx = reconstruct_block(pq, sq, eb, s_b)
    ecq = error_correction_codes(block2d, approx, eb)
    return BlockQuantization(pq=pq, sq=sq, ecq=ecq, p_b=p_b, s_b=s_b, ec_b_max=ec_b_max(ecq))


def naive_s_bits(eb: float) -> int:
    """Bit width of S when naively quantized on a ``2·EB`` grid (§IV-B example).

    With ``S_binsize = 2·EB`` and ``S_ext = 1`` the signed range is
    ``[-1/(2·EB), 1/(2·EB)]``; at EB = 1e-10 this gives 33 bits, the cost the
    paper's ``S_b = P_b`` trick avoids.  Used by the S_b ablation benchmark.
    """
    ext = int(np.rint(1.0 / (2.0 * eb)))
    return bits_for_symmetric_range(ext)
