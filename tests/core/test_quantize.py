"""Unit tests for the §IV-B quantization calculus (repro.core.quantize)."""

import numpy as np
import pytest

from repro.core import quantize as qz
from repro.errors import ParameterError


@pytest.mark.parametrize(
    "ext,bits",
    [(0, 1), (1, 2), (2, 3), (3, 3), (4, 4), (7, 4), (8, 5), (511, 10), (512, 11)],
)
def test_bits_for_symmetric_range(ext, bits):
    b = qz.bits_for_symmetric_range(ext)
    assert b == bits
    # The claimed property: [-ext, ext] fits a b-bit two's-complement field.
    assert -(1 << (b - 1)) <= -ext and ext <= (1 << (b - 1)) - 1


def test_bits_for_symmetric_range_rejects_negative():
    with pytest.raises(ParameterError):
        qz.bits_for_symmetric_range(-1)


def test_pattern_quantization_error_at_most_eb(rng):
    eb = 1e-10
    pattern = rng.standard_normal(64) * 1e-7
    pq, p_b = qz.quantize_pattern(pattern, eb)
    back = qz.dequantize_pattern(pq, eb)
    assert np.max(np.abs(back - pattern)) <= eb
    assert int(np.abs(pq).max()) <= (1 << (p_b - 1)) - 1


def test_pattern_bits_match_paper_example():
    # §IV-B: P in [-1e-7, 1e-7] at EB=1e-10 needs ~10 bits.
    pattern = np.array([1e-7, -1e-7, 3e-8])
    _, p_b = qz.quantize_pattern(pattern, 1e-10)
    assert p_b == 10  # PQ_ext = 500 -> 9 magnitude bits + sign (paper: ~10)


def test_scale_quantization_covers_unit_interval():
    s_b = 10
    scales = np.linspace(-1, 1, 101)
    sq = qz.quantize_scales(scales, s_b)
    back = qz.dequantize_scales(sq, s_b)
    # binsize = 2^-(s_b-1); +1 is clamped by one extra bin
    binsize = 2.0 ** -(s_b - 1)
    assert np.max(np.abs(back - scales)) <= binsize
    assert sq.max() <= (1 << (s_b - 1)) - 1
    assert sq.min() >= -(1 << (s_b - 1))


def test_quantize_block_guarantees_error_bound(rng):
    eb = 1e-10
    pattern = rng.standard_normal(16) * 1e-7
    scales = rng.uniform(-1, 1, 8)
    block = np.outer(scales, pattern) + rng.standard_normal((8, 16)) * 1e-9
    q = qz.quantize_block(block, pattern, scales, eb)
    approx = qz.reconstruct_block(q.pq, q.sq, eb, q.s_b)
    recon = approx + q.ecq * qz.working_binsize(eb)
    assert np.max(np.abs(recon - block)) <= eb
    assert q.s_b == q.p_b  # the paper's practical coupling


def test_ecq_bin_numbers_match_fig6_binning():
    vals = np.array([0, 1, -1, 2, 3, -3, 4, 7, 8, -8, 1 << 20])
    bins = qz.ecq_bin_numbers(vals)
    assert bins.tolist() == [1, 2, 2, 3, 3, 3, 4, 4, 5, 5, 22]


def test_ec_b_max_from_extremum():
    assert qz.ec_b_max(np.array([0, 0])) == 1
    assert qz.ec_b_max(np.array([0, -1])) == 2
    assert qz.ec_b_max(np.array([5])) == 4
    assert qz.ec_b_max(np.zeros(0, dtype=np.int64)) == 1


def test_naive_s_bits_reproduces_paper_33():
    # §IV-B worked example: EB=1e-10 -> S_b = 33 with the naive method.
    assert qz.naive_s_bits(1e-10) == 34  # 33 magnitude bits + sign

def test_small_eb_relative_to_pattern_gives_wide_pq(rng):
    pattern = np.array([1.0, -0.5])
    pq, p_b = qz.quantize_pattern(pattern, 1e-12)
    assert p_b >= 40
    assert qz.dequantize_pattern(pq, 1e-12) == pytest.approx(pattern, abs=1e-12)
