"""Loader and wrapper for the compiled index-pass kernel (``_ecqkernel.c``).

The PaSTRI index pass is a sequential walk over fixed-width block fields
and prefix-coded ECQ tokens — a tight scalar loop, which is what the paper's
decoder is too.  Importing this module builds the C source once with the
local ``gcc -O2 -shared -fPIC`` (:data:`CC`) into ``_build/`` beside this
file, under a name carrying the source hash and platform tag, and opens it
with :mod:`ctypes`.  The build writes to a temp file in that directory and
``os.replace``-s it into place, so concurrent processes cannot race; gcc's
own scratch files also stay inside ``_build/`` and are removed with it.

The kernel is required: on a host where it cannot be built or opened (no
gcc, a read-only tree) the import raises
:class:`~repro.errors.KernelBuildError`, whose message names the compiler
command, the source, the build directory and gcc's stderr.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile

import numpy as np

from repro.core.header import MAX_BLOCK_SIZE
from repro.errors import FormatError, KernelBuildError

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_ecqkernel.c")
BUILD_DIR = os.path.join(_HERE, "_build")
CC = ("gcc", "-O2", "-shared", "-fPIC")

_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,  # buf, nbytes, pos
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # n_blocks, M, L
    ctypes.c_int, ctypes.c_int, ctypes.c_int,  # tree_id, max_pb, max_ecb
    ctypes.c_void_p, ctypes.c_void_p,  # flags (int8), ints (int64)
    ctypes.c_void_p, ctypes.c_int64,  # dense_mat (int64), dense_cap
]


def library_path() -> str:
    """Cache path of the compiled kernel for the current source and platform."""
    with open(SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read() + " ".join(CC).encode()).hexdigest()[:16]
    tag = sysconfig.get_platform().replace("-", "_").replace(".", "_")
    return os.path.join(BUILD_DIR, f"ecqkernel-{digest}-{tag}.so")


def build(path: str) -> None:
    """Compile :data:`SOURCE` with :data:`CC` to ``path``, atomically.

    Nothing is left behind on failure: the temp library and gcc's scratch
    directory (``TMPDIR`` for the compiler) both live in ``path``'s
    directory and are removed whatever happens.
    """
    build_dir = os.path.dirname(path)
    os.makedirs(build_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=".cc-", dir=build_dir)
    try:
        tmp = os.path.join(scratch, os.path.basename(path))
        env = dict(os.environ, TMPDIR=scratch)
        subprocess.run(
            [*CC, "-o", tmp, SOURCE],
            check=True, env=env, capture_output=True, timeout=120,
        )
        os.replace(tmp, path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _open(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    fn = lib.pastri_index_pass
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int
    return lib


def load() -> ctypes.CDLL:
    """The compiled kernel, built first when no cached library exists.

    Raises :class:`KernelBuildError` when it cannot be built or opened.
    """
    try:
        path = library_path()
        if not os.path.exists(path):
            build(path)
        return _open(path)
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None) or b""
        raise KernelBuildError(
            f"cannot build the compiled PaSTRI index pass with `{' '.join(CC)}` "
            f"from {SOURCE} into {BUILD_DIR} (gcc is required): {exc}\n"
            f"{stderr.decode(errors='replace').strip()}".rstrip()
        ) from exc


_ERRORS = {
    2: "bad block kind {v} in block {b}",
    3: "bad P_b {v} in block {b}",
    4: "bad EC_b,max {v} in block {b}",
    5: "oversized outlier fields in block {b}",
    6: "ECQ segment overruns its bound",
}


def index_pass(blob: bytes, hdr, pos: int, max_pb: int, max_ecb: int) -> tuple:
    """Run the kernel over ``blob``'s block body starting at bit ``pos``.

    ``hdr`` is the stream's parsed header; ``max_pb`` and ``max_ecb`` are
    the largest legal P_b and EC_b,max field values.

    Returns the parse tuple ``(kind, pb, ecb, off, sp_nol, sp_off, sparse,
    dense_idx, dense_mat, body_end)`` that
    :meth:`~repro.core.compressor.PaSTRICompressor._reconstruct` consumes;
    a corrupt stream raises :class:`FormatError`, as does a block larger
    than :data:`MAX_BLOCK_SIZE`.  Dense rows are written into scratch
    sized by how many dense blocks the remaining bits could hold (each
    costs at least its fixed fields plus one bit per token), then trimmed
    in place.
    """
    n_blocks, tree_id = hdr.n_blocks, hdr.tree_id
    M, L = hdr.spec.num_sb, hdr.spec.sb_size
    N = M * L
    if N > MAX_BLOCK_SIZE:
        raise FormatError(f"block size {N} exceeds {MAX_BLOCK_SIZE}")
    nbits = 8 * len(blob)
    cap = min(n_blocks, max(0, nbits - pos) // (2 + 6 + (L + M) + 6 + 1 + N))
    # Per-block outputs share two buffers (layout in _ecqkernel.c): each
    # array handed to ctypes costs microseconds, a visible share of a
    # single-block decode.
    flags = np.zeros((2, n_blocks), dtype=np.int8)
    ints = np.zeros(5 * n_blocks + cap + 5, dtype=np.int64)
    dense_mat = np.empty((cap, N), dtype=np.int64)
    buf = np.frombuffer(blob, dtype=np.uint8)
    status = _LIB.pastri_index_pass(
        buf.ctypes.data, buf.size, pos, n_blocks, M, L, tree_id, max_pb, max_ecb,
        flags.ctypes.data, ints.ctypes.data, dense_mat.ctypes.data, cap,
    )
    info = ints[-5:]
    if status:
        b, v, at = (int(x) for x in info[2:5])
        if status == 1:
            raise FormatError(
                f"bitstream underflow: need {v} bits at offset {at}, have {nbits - at}"
            )
        if status in _ERRORS:
            raise FormatError(_ERRORS[status].format(b=b, v=v))
        raise RuntimeError(f"index-pass kernel failed with status {status}")
    n_dense = int(info[1])
    # Shrinking in place keeps a single allocation (no copy of the rows).
    dense_mat.resize((n_dense, N), refcheck=False)
    pb, ecb, off, sp_nol, sp_off = ints[: 5 * n_blocks].reshape(5, n_blocks)
    dense_idx = ints[5 * n_blocks : 5 * n_blocks + n_dense]
    return (flags[0], pb, ecb, off, sp_nol, sp_off, flags[1].view(bool),
            dense_idx, dense_mat, int(info[0]))


# Load at import, so forked pool workers inherit the loaded kernel.
_LIB = load()
