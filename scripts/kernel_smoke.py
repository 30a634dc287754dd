"""Compiled index-pass gate (``make kernel-smoke``).

Fails unless the compiled kernel (``repro/core/_ecqkernel.c``) loaded — a
host with gcc must never fall back to numpy silently — and unless the
kernel and the numpy index pass decode the committed golden fixture, the
golden trialanine (dd|dd) streams and a trialanine stream under every ECQ
tree to identical bytes.  Prints the cold index-pass time of both paths.
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
from repro.harness.datasets import standard_dataset  # noqa: E402
from repro.streamio import open_container  # noqa: E402
from tests.core.test_batched_golden import GOLDEN  # noqa: E402

DATA_DIR = os.path.join(REPO, "tests", "data")


@contextlib.contextmanager
def index_path(numpy_path: bool):
    """Decode through the numpy index pass (as without gcc) when asked."""
    real_load = kernel.load
    if numpy_path:
        kernel.load = lambda: None
    try:
        yield
    finally:
        kernel.load = real_load


def decode(blob: bytes, numpy_path: bool) -> np.ndarray:
    with index_path(numpy_path):
        return PaSTRICompressor(dims=(1, 1, 1, 1)).decompress(blob)


def index_pass_ms(blob: bytes, numpy_path: bool) -> float:
    codec = PaSTRICompressor(dims=(1, 1, 1, 1))
    fn = codec._index_pass_numpy if numpy_path else codec._index_pass
    r = BitReader(blob)
    hdr = fmt.read_header(r)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn(blob, hdr, r)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main() -> int:
    if kernel.load() is None:
        print("FAIL: the compiled index pass did not load (see the warning above)")
        return 1
    print(f"kernel: {kernel.library_path()}")

    expected = np.load(os.path.join(DATA_DIR, "golden_v1_expected.npy"))
    for numpy_path in (False, True):
        with index_path(numpy_path), open_container(
            os.path.join(DATA_DIR, "golden_v1.pstf")
        ) as r:
            out = r.read_all()
        if not np.array_equal(out, expected):
            print(f"FAIL: golden_v1.pstf decodes differently (numpy path: {numpy_path})")
            return 1
    print("golden_v1.pstf: identical on both paths")

    data = standard_dataset("trialanine", "(dd|dd)", "small").data
    for eb, (blob_d, _, out_d, _) in sorted(GOLDEN.items()):
        blob = PaSTRICompressor(config="(dd|dd)").compress(data, eb)
        if hashlib.sha256(blob).hexdigest() != blob_d:
            print(f"FAIL: golden blob at EB={eb:g} changed")
            return 1
        for numpy_path in (False, True):
            got = hashlib.sha256(decode(blob, numpy_path).tobytes()).hexdigest()
            if got != out_d:
                print(f"FAIL: golden EB={eb:g} output differs (numpy path: {numpy_path})")
                return 1
    print(f"golden trialanine streams: identical on both paths at EB {sorted(GOLDEN)}")

    for tree in (1, 2, 3, 4, 5):
        blob = PaSTRICompressor(config="(dd|dd)", tree_id=tree).compress(data, 1e-10)
        fast, slow = decode(blob, False), decode(blob, True)
        if fast.tobytes() != slow.tobytes() or np.max(np.abs(fast - data)) > 1e-10:
            print(f"FAIL: tree {tree} stream decodes differently on the two paths")
            return 1
        print(f"tree {tree}: identical; cold index pass "
              f"{index_pass_ms(blob, False):.2f} ms compiled, "
              f"{index_pass_ms(blob, True):.2f} ms numpy ({len(blob)} B blob)")
    print("kernel-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
