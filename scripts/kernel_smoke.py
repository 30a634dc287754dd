"""Compiled index-pass gate (``make kernel-smoke``).

Fails unless the compiled kernel (``repro/core/_ecqkernel.c``) builds and
loads — importing :mod:`repro` raises ``KernelBuildError`` otherwise, which
ends the script with a non-zero status — and unless the kernel and the
scalar oracle of ``tests/core/reference.py`` decode the committed golden
fixture, the golden trialanine (dd|dd) streams and a trialanine stream
under every ECQ tree to identical bytes.  Prints the cold index-pass time
of the kernel.
"""

import contextlib
import hashlib
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, REPO)

import numpy as np  # noqa: E402

from repro.bitio import BitReader  # noqa: E402
from repro.core import PaSTRICompressor, kernel  # noqa: E402
from repro.core import header as fmt  # noqa: E402
from repro.core.compressor import MAX_ECB  # noqa: E402
from repro.core.quantize import MAX_FIELD_BITS  # noqa: E402
from repro.harness.datasets import standard_dataset  # noqa: E402
from repro.streamio import open_container  # noqa: E402
from tests.core import reference  # noqa: E402
from tests.core.test_batched_golden import GOLDEN  # noqa: E402

DATA_DIR = os.path.join(REPO, "tests", "data")
PATHS = ("kernel", "oracle")


@contextlib.contextmanager
def index_path(path: str):
    """Decode through the scalar oracle instead of the kernel when asked."""
    real = kernel.index_pass
    if path == "oracle":
        kernel.index_pass = reference.index_pass
    try:
        yield
    finally:
        kernel.index_pass = real


def decode(blob: bytes, path: str) -> np.ndarray:
    with index_path(path):
        return PaSTRICompressor(dims=(1, 1, 1, 1)).decompress(blob)


def index_pass_ms(blob: bytes) -> float:
    r = BitReader(blob)
    hdr = fmt.read_header(r)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel.index_pass(blob, hdr, r.pos, MAX_FIELD_BITS, MAX_ECB)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main() -> int:
    print(f"kernel: {kernel.library_path()}")

    expected = np.load(os.path.join(DATA_DIR, "golden_v1_expected.npy"))
    for path in PATHS:
        with index_path(path), open_container(
            os.path.join(DATA_DIR, "golden_v1.pstf")
        ) as r:
            out = r.read_all()
        if not np.array_equal(out, expected):
            print(f"FAIL: golden_v1.pstf decodes differently ({path})")
            return 1
    print("golden_v1.pstf: identical through the kernel and the oracle")

    data = standard_dataset("trialanine", "(dd|dd)", "small").data
    for eb, (blob_d, _, out_d, _) in sorted(GOLDEN.items()):
        blob = PaSTRICompressor(config="(dd|dd)").compress(data, eb)
        if hashlib.sha256(blob).hexdigest() != blob_d:
            print(f"FAIL: golden blob at EB={eb:g} changed")
            return 1
        for path in PATHS:
            got = hashlib.sha256(decode(blob, path).tobytes()).hexdigest()
            if got != out_d:
                print(f"FAIL: golden EB={eb:g} output differs ({path})")
                return 1
    print(f"golden trialanine streams: identical through both at EB {sorted(GOLDEN)}")

    for tree in (1, 2, 3, 4, 5):
        blob = PaSTRICompressor(config="(dd|dd)", tree_id=tree).compress(data, 1e-10)
        fast, ref = decode(blob, "kernel"), decode(blob, "oracle")
        if fast.tobytes() != ref.tobytes() or np.max(np.abs(fast - data)) > 1e-10:
            print(f"FAIL: tree {tree} stream decodes differently through the oracle")
            return 1
        print(f"tree {tree}: identical; cold index pass "
              f"{index_pass_ms(blob):.2f} ms ({len(blob)} B blob)")
    print("kernel-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
