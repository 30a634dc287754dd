"""Unit tests for the five pattern-scaling metrics (repro.core.scaling)."""

import numpy as np
import pytest

from repro.core.scaling import (
    PatternFit,
    ScalingMetric,
    fit_pattern,
    fit_pattern_batch,
)


def exact_block(rng, M=6, L=9):
    """A perfectly scalable block: outer(s, p)."""
    p = rng.standard_normal(L)
    s = rng.uniform(-1, 1, M)
    s[2] = 1.0  # ensure the pattern row itself has the extremum
    p *= 2.0 / np.abs(p).max()
    return np.outer(s, p), s


@pytest.mark.parametrize("metric", list(ScalingMetric))
def test_scales_bounded_by_one(metric, rng):
    block = rng.standard_normal((8, 12))
    fit = fit_pattern(block, metric)
    assert np.all(np.abs(fit.scales) <= 1.0)


@pytest.mark.parametrize("metric", list(ScalingMetric))
def test_exact_outer_product_recovered(metric, rng):
    block, s = exact_block(rng)
    fit = fit_pattern(block, metric)
    approx = np.outer(fit.scales, fit.pattern)
    assert np.allclose(approx, block, atol=1e-12 * np.abs(block).max())


def test_er_picks_the_extremum_subblock(rng):
    block = rng.standard_normal((5, 7))
    block[3, 2] = 100.0
    fit = fit_pattern(block, ScalingMetric.ER)
    assert fit.pattern_index == 3
    assert fit.scales[3] == 1.0


def test_fr_picks_largest_first_element():
    block = np.array([[1.0, 5.0], [-3.0, 0.1], [2.0, 2.0]])
    fit = fit_pattern(block, ScalingMetric.FR)
    assert fit.pattern_index == 1
    assert np.allclose(fit.scales, [1.0 / -3.0, 1.0, 2.0 / -3.0])


def test_fr_degenerates_on_zero_firsts():
    block = np.array([[0.0, 5.0], [0.0, 1.0]])
    fit = fit_pattern(block, ScalingMetric.FR)
    assert fit.degenerate
    assert fit.scales[fit.pattern_index] == 1.0


def test_ar_uses_signed_means():
    block = np.array([[1.0, 1.0], [-4.0, -4.0], [2.0, 2.0]])
    fit = fit_pattern(block, ScalingMetric.AR)
    assert fit.pattern_index == 1
    assert np.allclose(fit.scales, [-0.25, 1.0, -0.5])


def test_aar_applies_sign_correction():
    p = np.array([3.0, -1.0, 2.0])
    block = np.vstack([p, -0.5 * p])
    fit = fit_pattern(block, ScalingMetric.AAR)
    # second row is anti-correlated: coefficient must be negative
    assert fit.scales[1] == pytest.approx(-0.5)


def test_is_uses_value_range():
    block = np.array([[0.0, 10.0], [5.0, 6.0]])
    fit = fit_pattern(block, ScalingMetric.IS)
    assert fit.pattern_index == 0
    assert fit.scales[1] == pytest.approx(0.1)


def test_zero_block_degenerate_for_every_metric():
    block = np.zeros((4, 5))
    for metric in ScalingMetric:
        fit = fit_pattern(block, metric)
        assert fit.degenerate


@pytest.mark.parametrize("metric", list(ScalingMetric))
def test_batch_matches_single_block_fits(metric, rng):
    blocks = rng.standard_normal((12, 6, 9)) * np.exp(
        rng.uniform(-8, 2, (12, 1, 1))
    )
    p_idx, scales, degenerate = fit_pattern_batch(blocks, metric)
    for b in range(12):
        fit = fit_pattern(blocks[b], metric)
        assert p_idx[b] == fit.pattern_index
        assert np.allclose(scales[b], fit.scales)
        assert degenerate[b] == fit.degenerate


def test_batch_flags_degenerate_rows(rng):
    blocks = rng.standard_normal((3, 4, 5))
    blocks[1] = 0.0
    _, scales, degenerate = fit_pattern_batch(blocks, ScalingMetric.ER)
    assert degenerate.tolist() == [False, True, False]
    assert np.count_nonzero(scales[1]) == 1  # only the pattern's own 1.0


def test_metric_coercion_from_string():
    assert ScalingMetric.coerce("ER") is ScalingMetric.ER
    assert ScalingMetric.coerce(ScalingMetric.IS) is ScalingMetric.IS
    with pytest.raises(ValueError):
        ScalingMetric.coerce("nope")


def test_fit_returns_view_not_copy(rng):
    block = rng.standard_normal((3, 4))
    fit = fit_pattern(block, ScalingMetric.ER)
    assert isinstance(fit, PatternFit)
    assert np.shares_memory(fit.pattern, block)
