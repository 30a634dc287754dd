"""The compiled index pass against its scalar oracle.

``PaSTRICompressor._index_pass`` is one call into ``_ecqkernel.c``.  The
kernel and :func:`tests.core.reference.index_pass` must return the same
parse tuple (values, dtypes, shapes, body end) and raise the same exception
class on every input, valid or corrupt.  Streams here come from the
compressor and from the hand-built reference writer, which reaches field
values the compressor never emits (generic tree 4 up to EC_b,max = 40, raw
blocks with arbitrary bits).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import PaSTRICompressor, kernel
from repro.core import header as fmt
from repro.core.blocking import BlockSpec
from repro.errors import FormatError, KernelBuildError, ParameterError
from repro.harness.datasets import standard_dataset
from tests.conftest import make_patterned_stream
from tests.core import reference
from tests.core.reference import build_blob, parse_both
from tests.core.test_batched_golden import GOLDEN

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# the decode helpers scope their monkeypatching to one call
SLOW_OK = [HealthCheck.too_slow, HealthCheck.function_scoped_fixture]


DIMS = st.sampled_from([(1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 1, 3), (2, 2, 3, 3)])


@st.composite
def blocks_strategy(draw, dims, tree):
    """Zero, raw and patterned blocks; patterned ECQ dense or sparse."""
    spec = BlockSpec(dims)
    M, L, N = spec.num_sb, spec.sb_size, spec.block_size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["zero", "raw", "pat", "pat", "pat"]))
        if kind == "zero":
            blocks.append(("zero",))
            continue
        if kind == "raw":
            blocks.append(("raw", rng.integers(0, 2**64, N, dtype=np.uint64)))
            continue
        pb = draw(st.integers(1, 46))
        pqsq = rng.integers(0, 1 << pb, L + M, dtype=np.uint64)
        ecb = draw(st.integers(0, 40))
        sparse = draw(st.booleans())
        if ecb < 2:
            vals = np.zeros(N, dtype=np.int64)
        else:
            hi = (1 << (ecb - 1)) - 1
            big = rng.integers(-hi, hi + 1, N)
            pick = rng.random(N)
            vals = np.where(pick < 0.5, 0, np.where(pick < 0.8, rng.choice([-1, 1], N), big))
        blocks.append(("pat", pb, pqsq, ecb, sparse, vals.astype(np.int64).tolist()))
    return blocks


# ---------------------------------------------------------------------------
# Helpers: both paths on one blob.


def decode_with(blob: bytes, impl: str, monkeypatch) -> np.ndarray:
    with monkeypatch.context() as m:
        if impl == "oracle":
            m.setattr(kernel, "index_pass", reference.index_pass)
        return PaSTRICompressor(dims=(1, 1, 1, 1)).decompress(blob)


def outcome(blob: bytes, impl: str, monkeypatch):
    """Decoded bytes, or the exception class a decode raised."""
    try:
        return decode_with(blob, impl, monkeypatch).tobytes()
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


# ---------------------------------------------------------------------------
# Byte identity on valid streams.


@settings(max_examples=150, deadline=None, suppress_health_check=SLOW_OK)
@given(data=st.data(), dims=DIMS, tree=st.integers(1, 5), n_tail=st.integers(0, 3))
def test_hand_built_streams_parse_identically(data, dims, tree, n_tail, monkeypatch):
    blocks = data.draw(blocks_strategy(dims, tree))
    tail = np.random.default_rng(n_tail).standard_normal(n_tail)
    blob = build_blob(dims, tree, blocks, tail)
    parse_both(blob)
    assert outcome(blob, "kernel", monkeypatch) == outcome(blob, "oracle", monkeypatch)


@pytest.mark.parametrize("tree", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("sparse", [False, True])
def test_every_tree_and_ecb_decodes_reference_values(tree, sparse):
    """Each (tree, EC_b,max) pair, extremes included, recovers exact values."""
    for ecb in range(2, 41):
        hi = (1 << (ecb - 1)) - 1
        vals = [0, 1, -1, hi, -hi, 0, 0, hi // 2, -(hi // 3), 1, 0, -1]
        pqsq = np.arange(8)
        blob = build_blob((1, 2, 2, 3), tree, [("pat", 3, pqsq, ecb, sparse, vals), ("zero",)])
        parse = parse_both(blob)
        assert parse[8].shape[1] == 12
        if sparse:
            assert parse[6][0] and parse[4][0] == sum(1 for v in vals if v)
        else:
            assert parse[7].tolist() == [0]
            assert parse[8].tolist() == [vals]


@settings(max_examples=60, deadline=None, suppress_health_check=SLOW_OK)
@given(
    tree=st.integers(1, 5),
    mode=st.sampled_from(["adaptive", "dense", "sparse"]),
    n_blocks=st.integers(0, 6),
    n_tail=st.integers(0, 5),
    amp_exp=st.integers(-12, 3),
    rel_dev=st.sampled_from([0.0, 1e-6, 1e-3, 0.5]),
    eb=st.sampled_from([1e-14, 1e-10, 1e-6]),
    seed=st.integers(0, 1000),
)
def test_compressor_streams_parse_identically(
    tree, mode, n_blocks, n_tail, amp_exp, rel_dev, eb, seed, monkeypatch
):
    rng = np.random.default_rng(seed)
    dims = (2, 2, 3, 3)
    body = make_patterned_stream(
        rng, n_blocks=n_blocks, dims=dims, amp=10.0**amp_exp, rel_dev=rel_dev,
        zero_blocks=min(1, n_blocks),
    ) if n_blocks else np.zeros(0)
    data = np.concatenate([body, rng.standard_normal(n_tail) * 10.0**amp_exp])
    assume(data.size)
    codec = PaSTRICompressor(dims=dims, tree_id=tree, ecq_mode=mode)
    try:
        blob = codec.compress(data, eb)
    except ParameterError:
        assume(False)  # tree 4 codewords past 64 bits cannot be emitted
    parse_both(blob)
    out = decode_with(blob, "kernel", monkeypatch)
    assert out.tobytes() == decode_with(blob, "oracle", monkeypatch).tobytes()
    assert np.max(np.abs(out - data)) <= eb


@pytest.mark.parametrize("eb", sorted(GOLDEN))
def test_golden_streams_decode_unchanged(index_pass_impl, eb):
    data = standard_dataset("trialanine", "(dd|dd)", "small").data
    blob = PaSTRICompressor(config="(dd|dd)").compress(data, eb)
    blob_d, _, out_d, _ = GOLDEN[eb]
    assert hashlib.sha256(blob).hexdigest() == blob_d
    out = PaSTRICompressor(config="(dd|dd)").decompress(blob)
    assert hashlib.sha256(out.tobytes()).hexdigest() == out_d


@pytest.mark.parametrize("tree", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", ["adaptive", "dense", "sparse"])
def test_round_trip_within_bound(index_pass_impl, tree, mode):
    data = standard_dataset("trialanine", "(dd|dd)", "small").data[: 40 * 1296 + 17]
    codec = PaSTRICompressor(config="(dd|dd)", tree_id=tree, ecq_mode=mode)
    out = codec.decompress(codec.compress(data, 1e-10))
    assert np.max(np.abs(out - data)) <= 1e-10


# ---------------------------------------------------------------------------
# Corrupt EC_b,max: a typed FormatError from the kernel and the oracle.


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("bad", [41, 50, 63])
def test_corrupt_ecb_raises_format_error(index_pass_impl, sparse, bad):
    vals = [0, 1, -1, 5] * 3
    good = build_blob((1, 2, 2, 3), 5, [("pat", 3, np.arange(8), 4, sparse, vals)])
    # the 6-bit EC_b,max field follows kind (2), P_b (6) and 8 x 3 PQ/SQ bits
    at = fmt.StreamHeader.NBITS + 2 + 6 + 8 * 3
    bits = np.unpackbits(np.frombuffer(good, dtype=np.uint8))
    bits[at : at + 6] = [int(c) for c in format(bad, "06b")]
    blob = np.packbits(bits).tobytes()
    with pytest.raises(FormatError, match=f"bad EC_b,max {bad} in block 0"):
        PaSTRICompressor(dims=(1, 2, 2, 3)).decompress(blob)


@pytest.mark.parametrize("bad", [0, *range(6, 16)])
def test_corrupt_tree_id_raises_format_error(index_pass_impl, bad):
    good = build_blob((1, 2, 2, 3), 5, [("pat", 3, np.arange(8), 4, False, [1] * 12)])
    blob = bytearray(good)
    blob[5] = (bad << 4) | (blob[5] & 0x0F)  # tree_id: high nibble of byte 5
    with pytest.raises(FormatError, match=f"bad tree id {bad}"):
        PaSTRICompressor(dims=(1, 2, 2, 3)).decompress(bytes(blob))


# ---------------------------------------------------------------------------
# Corruption parity: truncations and bit flips.


def _small_blobs() -> list[bytes]:
    rng = np.random.default_rng(5)
    dims = (2, 2, 3, 3)
    data = make_patterned_stream(rng, n_blocks=5, dims=dims, rel_dev=1e-3)
    data[3 * 36 : 4 * 36] *= 1e12  # a raw block
    data = np.concatenate([data, [1.5, -2.0]])
    blobs = [
        PaSTRICompressor(dims=dims, tree_id=t, ecq_mode=m).compress(data, 1e-10)
        for t, m in ((5, "adaptive"), (3, "dense"), (4, "dense"), (1, "sparse"))
    ]
    blobs.append(build_blob((1, 2, 2, 3), 4, [
        ("pat", 5, np.arange(8), 30, False, [0, 7, -9, 1 << 20, 0, 0, 1, -1, 0, 3, 0, 0]),
        ("zero",),
        ("pat", 2, np.arange(8) % 4, 2, True, [0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 1]),
    ], tail=[3.0]))
    # streams that end on a dense block's escape token, with no tail
    last = [0] * 11 + [1000]
    for tree in (1, 2, 3, 4):
        blobs.append(build_blob((1, 2, 2, 3), tree, [("zero",), ("pat", 4, np.arange(8), 12, False, last)]))
    return blobs


def test_every_truncation_fails_alike(monkeypatch):
    for blob in _small_blobs():
        for cut in range(len(blob)):
            got = outcome(blob[:cut], "kernel", monkeypatch)
            assert got == outcome(blob[:cut], "oracle", monkeypatch), (len(blob), cut)


def test_random_bit_flips_fail_or_decode_alike(monkeypatch):
    rng = np.random.default_rng(2024)
    for blob in _small_blobs():
        for _ in range(150):
            bad = bytearray(blob)
            for p in rng.integers(0, 8 * len(blob), rng.integers(1, 4)):
                bad[p // 8] ^= 0x80 >> (p % 8)
            bad = bytes(bad)
            assert outcome(bad, "kernel", monkeypatch) == outcome(bad, "oracle", monkeypatch)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="uses mprotect")
def test_kernel_never_reads_past_the_blob():
    """Every truncation sits flush against a PROT_NONE page: any load past
    ``len(blob)`` faults the child process."""
    blobs = [b.hex() for b in _small_blobs()]
    script = textwrap.dedent(f"""
        import ctypes, mmap
        import numpy as np
        from repro.bitio import BitReader
        from repro.core import header as fmt, kernel
        from repro.core.compressor import MAX_ECB
        from repro.core.quantize import MAX_FIELD_BITS
        from repro.errors import FormatError
        libc = ctypes.CDLL(None)
        page = mmap.PAGESIZE
        for blob in map(bytes.fromhex, {blobs!r}):
            n = -(-len(blob) // page) * page
            mm = mmap.mmap(-1, n + page)
            base = ctypes.addressof(ctypes.c_char.from_buffer(mm))
            assert libc.mprotect(ctypes.c_void_p(base + n), page, 0) == 0
            arr = np.frombuffer(mm, dtype=np.uint8, count=n)
            for cut in range(fmt.StreamHeader.NBITS // 8 + 1, len(blob) + 1):
                view = arr[n - cut:]
                view[:] = np.frombuffer(blob[:cut], dtype=np.uint8)
                r = BitReader(blob[:cut])
                try:
                    hdr = fmt.read_header(r)
                    kernel.index_pass(view, hdr, r.pos, MAX_FIELD_BITS, MAX_ECB)
                except FormatError:
                    pass
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(REPO, "src"), REPO]))
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "ok"


# ---------------------------------------------------------------------------
# Loader: cache, atomic build, typed failure.


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """The loader building into ``tmp_path/_build``, with an empty
    ``TMPDIR``; returns ``(build_dir, tmpdir)``."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(kernel, "BUILD_DIR", str(tmp_path / "_build"))
    return tmp_path / "_build", tmpdir


def test_build_caches_by_source_hash(fresh_loader, monkeypatch):
    build_dir, tmpdir = fresh_loader
    assert kernel.load() is not None
    assert os.listdir(build_dir) == [os.path.basename(kernel.library_path())]
    assert os.listdir(tmpdir) == []
    # a new process loads the cached library without rebuilding
    monkeypatch.setattr(kernel, "build", lambda path: pytest.fail("rebuilt a cached kernel"))
    assert kernel.load() is not None


@pytest.mark.parametrize("broken", ["link", "no-compiler", "unwritable"])
def test_failed_build_raises_and_leaves_nothing(fresh_loader, tmp_path, monkeypatch, broken):
    build_dir, tmpdir = fresh_loader
    if broken == "link":  # compiles (gcc scratch files appear), then fails to link
        monkeypatch.setattr(kernel, "CC", (*kernel.CC, "-Wl,--no-such-linker-flag"))
    elif broken == "no-compiler":
        monkeypatch.setattr(kernel, "CC", (str(tmp_path / "no-such-gcc"), *kernel.CC[1:]))
    else:  # a regular file where the build directory should be
        (tmp_path / "ro").write_text("")
        build_dir = tmp_path / "ro" / "_build"
        monkeypatch.setattr(kernel, "BUILD_DIR", str(build_dir))
    with pytest.raises(KernelBuildError) as exc:
        kernel.load()
    msg = str(exc.value)
    assert " ".join(kernel.CC) in msg and kernel.SOURCE in msg and str(build_dir) in msg
    if broken == "link":
        assert "no-such-linker-flag" in msg  # gcc's stderr
    assert os.listdir(tmpdir) == []
    if build_dir.is_dir():
        assert os.listdir(build_dir) == []


def test_import_without_gcc_raises_typed_error(tmp_path):
    """A tree with no cached kernel on a host without gcc fails at import."""
    src = os.path.join(REPO, "src", "repro")
    shutil.copytree(src, tmp_path / "repro", ignore=shutil.ignore_patterns("_build", "__pycache__"))
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PATH="", TMPDIR=str(tmpdir))
    res = subprocess.run([sys.executable, "-c", "import repro"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert "repro.errors.KernelBuildError" in res.stderr
    assert "`gcc -O2 -shared -fPIC`" in res.stderr
    assert os.listdir(tmpdir) == []
    assert os.listdir(tmp_path / "repro" / "core" / "_build") == []
