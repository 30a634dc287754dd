"""Pattern-scaling metrics (paper §IV-A, Fig. 4).

Five candidate metrics decide (a) which sub-block becomes the *scaled
pattern* (SP) and (b) how each sub-block's single scaling coefficient is
computed:

* ``FR``  — ratio of firsts: pattern has the largest |first element|.
* ``ER``  — ratio of extremums: pattern contains the block-wide extremum
  (the paper's winner: most reliable and cheapest).
* ``AR``  — ratio of averages: pattern has the largest |mean|.
* ``AAR`` — ratio of absolute averages (needs sign correction).
* ``IS``  — interval scaling: pattern has the largest value range
  (needs sign correction).

Every metric guarantees ``|S| <= 1`` because the pattern is always the
sub-block that *maximises* the metric (paper: "the scaling coefficient of
any subblock must be in the range [-1, 1]").  Sign correction for AAR/IS
uses the sign of the inner product with the pattern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ScalingMetric(str, enum.Enum):
    """Pattern-scaling metric selector (paper Fig. 4)."""

    FR = "fr"
    ER = "er"
    AR = "ar"
    AAR = "aar"
    IS = "is"

    @classmethod
    def coerce(cls, value: "ScalingMetric | str") -> "ScalingMetric":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            # ParameterError subclasses ValueError, so existing except
            # clauses keep working while corrupt container headers (which
            # feed codec kwargs from untrusted bytes) stay contained in
            # the library's error hierarchy.
            from repro.errors import ParameterError

            raise ParameterError(
                f"{value!r} is not a valid ScalingMetric "
                f"(expected one of {[m.value for m in cls]})"
            ) from None


@dataclass
class PatternFit:
    """Result of fitting a scaled pattern to one block.

    Attributes
    ----------
    pattern_index:
        Row index (sub-block number) of the chosen pattern.
    pattern:
        The pattern sub-block, float64 (a *view* into the block).
    scales:
        One scaling coefficient per sub-block, all in ``[-1, 1]``.
    degenerate:
        True when the metric's reference statistic was zero (e.g. FR on a
        block whose first elements are all zero) and scaling fell back to
        zero coefficients — the block is then carried entirely by the
        error-correction codes.
    """

    pattern_index: int
    pattern: np.ndarray
    scales: np.ndarray
    degenerate: bool = False


def _sign_correction(block2d: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Per-sub-block ±1 from the sign of the inner product with the pattern."""
    dots = block2d @ pattern
    signs = np.sign(dots)
    signs[signs == 0] = 1.0
    return signs


def fit_pattern(block2d: np.ndarray, metric: ScalingMetric | str) -> PatternFit:
    """Choose the pattern sub-block and compute all scaling coefficients.

    Parameters
    ----------
    block2d:
        ``(num_sb, sb_size)`` view of one shell block.
    metric:
        Which of the five paper metrics to use.

    The whole fit is vectorised: one reduction to choose the pattern, one
    broadcast division for the coefficients.
    """
    metric = ScalingMetric.coerce(metric)
    absblock = np.abs(block2d)

    if metric is ScalingMetric.FR:
        firsts = block2d[:, 0]
        p_idx = int(np.argmax(np.abs(firsts)))
        ref = firsts[p_idx]
        if ref == 0.0:
            return _degenerate(block2d, p_idx)
        scales = firsts / ref
    elif metric is ScalingMetric.ER:
        flat_idx = int(np.argmax(absblock))
        p_idx, ref_col = divmod(flat_idx, block2d.shape[1])
        ref = block2d[p_idx, ref_col]
        if ref == 0.0:
            return _degenerate(block2d, p_idx)
        scales = block2d[:, ref_col] / ref
    elif metric is ScalingMetric.AR:
        means = block2d.mean(axis=1)
        p_idx = int(np.argmax(np.abs(means)))
        ref = means[p_idx]
        if ref == 0.0:
            return _degenerate(block2d, p_idx)
        scales = means / ref
    elif metric is ScalingMetric.AAR:
        ameans = absblock.mean(axis=1)
        p_idx = int(np.argmax(ameans))
        ref = ameans[p_idx]
        if ref == 0.0:
            return _degenerate(block2d, p_idx)
        scales = (ameans / ref) * _sign_correction(block2d, block2d[p_idx])
    elif metric is ScalingMetric.IS:
        ranges = block2d.max(axis=1) - block2d.min(axis=1)
        p_idx = int(np.argmax(ranges))
        ref = ranges[p_idx]
        if ref == 0.0:
            return _degenerate(block2d, p_idx)
        scales = (ranges / ref) * _sign_correction(block2d, block2d[p_idx])
    else:  # pragma: no cover - enum is exhaustive
        raise AssertionError(metric)

    # Numerical safety: the argmax construction bounds |S| by 1 up to
    # floating-point rounding; clip the ulp-level excursions.
    np.clip(scales, -1.0, 1.0, out=scales)
    return PatternFit(p_idx, block2d[p_idx], scales)


def _degenerate(block2d: np.ndarray, p_idx: int) -> PatternFit:
    """Fallback when the metric's reference statistic is exactly zero."""
    scales = np.zeros(block2d.shape[0])
    scales[p_idx] = 1.0
    return PatternFit(p_idx, block2d[p_idx], scales, degenerate=True)


def fit_pattern_batch(
    blocks3d: np.ndarray,
    metric: ScalingMetric | str,
    abs3d: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`fit_pattern` over a whole batch of blocks.

    Parameters
    ----------
    blocks3d:
        ``(n_blocks, num_sb, sb_size)`` float64 array.
    abs3d:
        optional precomputed ``np.abs(blocks3d)`` (same shape), reused by
        the magnitude-driven metrics to skip one full-batch pass.

    Returns
    -------
    (p_idx, scales, degenerate):
        pattern row per block ``(B,)``, coefficients ``(B, num_sb)``, and a
        boolean mask of blocks whose reference statistic was exactly zero.

    One fused pass over the batch replaces ``B`` separate fits — this is the
    hot path of compression, so everything is reductions and gathers.
    """
    metric = ScalingMetric.coerce(metric)
    B, M, L = blocks3d.shape
    rows = np.arange(B)

    if metric is ScalingMetric.FR:
        firsts = blocks3d[:, :, 0]
        p_idx = np.argmax(np.abs(firsts), axis=1)
        ref = firsts[rows, p_idx]
        scales = _safe_divide(firsts, ref)
    elif metric is ScalingMetric.ER:
        flat = (np.abs(blocks3d) if abs3d is None else abs3d).reshape(B, M * L)
        arg = np.argmax(flat, axis=1)
        p_idx, ref_col = np.divmod(arg, L)
        ref = blocks3d[rows, p_idx, ref_col]
        at_col = blocks3d[rows[:, None], np.arange(M)[None, :], ref_col[:, None]]
        scales = _safe_divide(at_col, ref)
    elif metric is ScalingMetric.AR:
        means = blocks3d.mean(axis=2)
        p_idx = np.argmax(np.abs(means), axis=1)
        ref = means[rows, p_idx]
        scales = _safe_divide(means, ref)
    elif metric is ScalingMetric.AAR:
        ameans = (np.abs(blocks3d) if abs3d is None else abs3d).mean(axis=2)
        p_idx = np.argmax(ameans, axis=1)
        ref = ameans[rows, p_idx]
        scales = _safe_divide(ameans, ref)
        scales *= _sign_correction_batch(blocks3d, blocks3d[rows, p_idx])
    elif metric is ScalingMetric.IS:
        ranges = blocks3d.max(axis=2) - blocks3d.min(axis=2)
        p_idx = np.argmax(ranges, axis=1)
        ref = ranges[rows, p_idx]
        scales = _safe_divide(ranges, ref)
        scales *= _sign_correction_batch(blocks3d, blocks3d[rows, p_idx])
    else:  # pragma: no cover - enum is exhaustive
        raise AssertionError(metric)

    degenerate = ref == 0.0
    if degenerate.any():
        scales[degenerate] = 0.0
        scales[rows[degenerate], p_idx[degenerate]] = 1.0
    np.clip(scales, -1.0, 1.0, out=scales)
    return p_idx, scales, degenerate


def _safe_divide(num: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Row-wise ``num / ref`` with zero references mapped to zero output."""
    denom = np.where(ref == 0.0, 1.0, ref)
    return num / denom[:, None]


def _sign_correction_batch(blocks3d: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Batch version of :func:`_sign_correction`."""
    dots = np.einsum("bml,bl->bm", blocks3d, patterns)
    signs = np.sign(dots)
    signs[signs == 0] = 1.0
    return signs

