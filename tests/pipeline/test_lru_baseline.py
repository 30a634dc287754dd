"""The LRU spill oracle reproduces the pathology the store-bench gate needs."""

import numpy as np

from repro.core import PaSTRICompressor
from repro.pipeline import CompressedERIStore
from tests.conftest import make_patterned_stream
from tests.pipeline.lru_baseline import LRUSpillBackend

EB = 1e-10
DIMS = (2, 2, 3, 3)


def test_cyclic_sweep_wider_than_budget_reads_every_get_from_disk(tmp_path):
    rng = np.random.default_rng(7)
    blocks = [
        make_patterned_stream(rng, n_blocks=1, dims=DIMS, zero_blocks=0)
        for _ in range(12)
    ]
    path = tmp_path / "spill.pstf"
    store = CompressedERIStore(
        PaSTRICompressor(dims=DIMS), EB,
        backend=LRUSpillBackend(path, memory_budget_bytes=256),  # ~4 blobs
    )
    for i, b in enumerate(blocks):
        store.put(i, b, dims=DIMS)
    n_uses = 3
    for _ in range(n_uses):
        for i, b in enumerate(blocks):
            assert np.max(np.abs(store.get(i) - b)) <= EB
    st = store.stats
    assert st.disk_reads == st.gets == n_uses * len(blocks)
    assert st.blob_hits == 0
    # forget-on-promote: every read-back blob is spilled again on eviction
    assert st.spills > st.disk_reads
    store.close()
    assert not (tmp_path / "spill.pstf.journal").exists()
