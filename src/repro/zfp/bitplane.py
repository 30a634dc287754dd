"""Shared constants of ZFP's embedded bit-plane coder (block size 4).

Each plane is coded as (1) verbatim bits for the values already known
significant, then (2) a unary-style run: a group-test bit saying "any new
significant value in the rest?", followed by value bits up to and including
the first 1 (the last value's 1 is implied) — ZFP's ``encode_ints`` /
``decode_ints``.  The coders themselves are table-driven
(:mod:`repro.zfp.vectorized`); a one-block-at-a-time transcription of
ZFP's loops is kept with the tests as their oracle.
"""

from __future__ import annotations

BLOCK = 4


def max_payload_bits(maxprec: int) -> int:
    """Upper bound on a block's payload: 4 value bits + 4 group bits/plane."""
    return maxprec * (BLOCK + 4)
