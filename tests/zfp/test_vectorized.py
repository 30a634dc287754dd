"""The vectorised ZFP encoder must be bit-identical to the scalar reference."""

import numpy as np
import pytest

from repro import api
from repro.bitio import BitWriter
from repro.streamio import ContainerWriter, open_container
from repro.zfp import ZFPCompressor
from repro.zfp import transform as tf
from repro.zfp.vectorized import encode_blocks, msb_positions
from tests.zfp.reference import encode_block, scalar_compress


def test_msb_positions_exact(rng):
    vals = np.concatenate(
        [
            rng.integers(0, 2**63 - 1, 2000, dtype=np.uint64),
            np.array([0, 1, 2, 2**52, 2**53 + 1, 2**62, 2**63 - 1], dtype=np.uint64),
        ]
    )
    got = msb_positions(vals)
    want = np.array([int(v).bit_length() - 1 for v in vals])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("maxprec", [1, 2, 7, 23, 58])
def test_tokens_concatenate_to_scalar_payload(maxprec, rng):
    top = tf.TOP_PLANE
    u = rng.integers(0, 2**62, (50, 4), dtype=np.uint64)
    codes, lengths = encode_blocks(u, top, maxprec)
    for g in range(u.shape[0]):
        w = BitWriter()
        w.write_varlen_array(codes[g], lengths[g])
        got = w.getvalue()
        payload, nbits = encode_block(tuple(int(x) for x in u[g]), top, maxprec)
        ref = BitWriter()
        ref.write_bigint(payload, nbits)
        assert nbits == int(lengths[g].sum())
        assert got == ref.getvalue()


@pytest.mark.parametrize("eb", [1e-6, 1e-10, 1e-13])
def test_full_streams_bit_identical(eb, rng):
    data = rng.standard_normal(4096) * np.exp(rng.uniform(-25, 2, 4096))
    data[100:120] = 0.0
    assert ZFPCompressor().compress(data, eb) == scalar_compress(data, eb)


def test_vectorized_roundtrip_and_speed(rng):
    data = rng.standard_normal(20000) * 1e-6
    c = ZFPCompressor()
    out = c.decompress(c.compress(data, 1e-10))
    assert np.max(np.abs(out - data)) <= 1e-10


def test_raw_and_zero_blocks_in_vector_path(rng):
    data = np.concatenate(
        [np.zeros(8), rng.standard_normal(8) * 1e20, rng.standard_normal(8) * 1e-7]
    )
    eb = 1e-12
    fast = ZFPCompressor().compress(data, eb)
    assert fast == scalar_compress(data, eb)
    out = ZFPCompressor().decompress(fast)
    assert np.max(np.abs(out - data)) <= eb


def test_new_specs_carry_no_kwargs():
    assert api.codec_spec(ZFPCompressor()) == {"name": "zfp", "kwargs": {}}


@pytest.mark.parametrize("flag", [False, True])
def test_container_with_legacy_vectorized_spec(flag, rng, tmp_path):
    """Containers whose header spec still stores ``vectorized`` open and
    decode exactly like new ones: the flag never changed a byte."""

    class LegacySpec(ZFPCompressor):
        def spec_kwargs(self):
            return {"vectorized": flag}

    data = rng.standard_normal(1000) * 1e-6
    path = str(tmp_path / "legacy.pstf")
    with ContainerWriter.create(path, LegacySpec(), 1e-10) as w:
        w.append(data)
    blob = ZFPCompressor().compress(data, 1e-10)
    with open_container(path) as r:
        assert r.codec_spec["kwargs"] == {"vectorized": flag}
        assert type(r.codec) is ZFPCompressor
        assert bytes(r.read_blob(0)) == blob
        out = r.read_frame(0)
    assert out.tobytes() == ZFPCompressor().decompress(blob).tobytes()
