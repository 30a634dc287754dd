"""Property-based tests for the PaSTRI quantization calculus."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import quantize as qz
from repro.core.scaling import ScalingMetric, fit_pattern

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


@given(
    block=hnp.arrays(np.float64, (5, 8), elements=finite),
    eb=st.sampled_from([1e-9, 1e-6, 1e-3]),
    metric=st.sampled_from(list(ScalingMetric)),
)
@settings(max_examples=150, deadline=None)
def test_full_quantization_respects_bound(block, eb, metric):
    """Pattern fit + quantization + EC reconstructs within EB.

    Domain restricted to ``max|x|/EB < 2^MAX_FIELD_BITS`` — beyond it
    ``quantize_block``'s documented precondition fails and the compressor's
    raw fallback (tested in test_codec_roundtrip) takes over.
    """
    fit = fit_pattern(block, metric)
    q = qz.quantize_block(block, fit.pattern, fit.scales, eb)
    approx = qz.reconstruct_block(q.pq, q.sq, eb, q.s_b)
    recon = approx + q.ecq * qz.working_binsize(eb)
    assert np.max(np.abs(recon - block)) <= eb


@given(values=hnp.arrays(np.int64, st.integers(1, 100), elements=st.integers(-(2**40), 2**40)))
@settings(max_examples=100, deadline=None)
def test_bin_numbers_define_minimal_widths(values):
    bins = qz.ecq_bin_numbers(values)
    # every value fits its bin's signed range and not the next smaller one
    for v, b in zip(values, bins):
        hi = (1 << (b - 1)) - 1
        assert -hi <= v <= hi or (b == 1 and v == 0)
        if b > 1:
            smaller_hi = (1 << (b - 2)) - 1
            assert abs(v) > smaller_hi


@given(ext=st.integers(0, 2**50))
@settings(max_examples=100, deadline=None)
def test_symmetric_range_width_minimal(ext):
    b = qz.bits_for_symmetric_range(ext)
    assert ext <= (1 << (b - 1)) - 1
    if b > 1:
        assert ext > (1 << (b - 2)) - 1
