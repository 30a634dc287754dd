"""Seeded inputs: (dd|dd) shell blocks, keys and operation draws.

Every workload draws from one :class:`numpy.random.Generator` seeded with
``--seed``.  The block pool mixes blocks sampled from the cached
real-engine trialanine datasets in ``.repro_cache/`` with blocks from the
asymptotic synthetic model (``SyntheticERIModel(seed=...)``), so a seed
fixes which real blocks appear, which synthetic blocks appear and in
which order.  The program under test only ever sees the arrays built here.
"""

from __future__ import annotations

import os

import numpy as np

CONFIG = "(dd|dd)"
DIMS = (6, 6, 6, 6)
BLOCK_ELEMS = 6 ** 4
ERROR_BOUND = 1e-10
#: Cached real-engine datasets (committed; loading never runs the engine).
REAL_DATASETS = ("trialanine_dd_dd_120_0_1.npz", "trialanine_dd_dd_400_0_1.npz")
#: Block count whose real share every pool copies: the ``pack_unpack``
#: stream.  The cached datasets hold 520 real blocks; each appears once in
#: that stream (17.3 %), and smaller pools draw the same share without
#: replacement, so no pool repeats a real block.
MIX_BLOCKS = 3000
#: Blocks in :data:`REAL_DATASETS` (120 + 400).
N_REAL_CACHED = 520


def real_blocks(root: str) -> np.ndarray:
    """All cached real (dd|dd) blocks as an ``(n, 1296)`` array."""
    from repro.chem.dataset import ERIDataset

    parts = []
    for name in REAL_DATASETS:
        ds = ERIDataset.load(os.path.join(root, ".repro_cache", name))
        parts.append(ds.data.reshape(-1, BLOCK_ELEMS))
    return np.concatenate(parts)


def n_real(n_blocks: int, n_cached: int) -> int:
    """Real blocks in a pool of ``n_blocks``: the share ``n_cached`` real
    blocks have in :data:`MIX_BLOCKS`, never more than are cached."""
    return min(n_cached, int(round(n_blocks * n_cached / MIX_BLOCKS)))


def block_pool(rng: np.random.Generator, real: np.ndarray, n_blocks: int,
               synth_seed: int) -> np.ndarray:
    """``n_blocks`` (dd|dd) blocks, real and synthetic, in seeded order.

    The real blocks are a seeded sample of ``real`` without replacement;
    synthetic blocks fill the rest.
    """
    from repro.chem.synthetic import SyntheticERIModel

    n = n_real(n_blocks, len(real))
    picked = real[rng.choice(len(real), n, replace=False)]
    model = SyntheticERIModel.from_config(CONFIG, seed=synth_seed)
    synth = model.generate_blocks(n_blocks - n).reshape(-1, BLOCK_ELEMS)
    blocks = np.concatenate([picked, synth])
    return np.ascontiguousarray(blocks[rng.permutation(n_blocks)])


def zipf_ranks(rng: np.random.Generator, n_keys: int, size: int,
               a: float = 1.1) -> np.ndarray:
    """``size`` popularity ranks in ``[0, n_keys)`` from a bounded Zipf law
    (rank 0 is the hottest); map them through a fixed permutation to
    spread the hot keys over the key space."""
    weights = 1.0 / np.arange(1, n_keys + 1) ** a
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(ranks, n_keys - 1)


def quartet_keys(rng: np.random.Generator, n: int) -> list[tuple]:
    """``n`` distinct shell-quartet-like keys in canonical (sorted) order."""
    flat = np.sort(rng.choice(64 ** 4, size=n, replace=False))
    return [tuple(int(x) for x in np.unravel_index(f, (64,) * 4)) for f in flat]
