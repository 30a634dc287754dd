"""The PaSTRI compressor (paper Alg. 1) and its inverse.

Compression pipeline per full-sized block:

1. fit the scaled pattern with the configured metric (default ER),
2. quantize pattern (``P_binsize = 2·EB``), scales (``S_b = P_b``) and the
   residual ECQ codes (§IV-B),
3. choose dense (tree-coded) or sparse (index+value) ECQ representation,
   or fall back to verbatim storage if patterned coding would not pay,
4. emit the bitstream (format in :mod:`repro.core.header`).

Both directions run *batched by block class*: the numeric stages are one
fused numpy pass over all blocks, the coding decisions are vectorised, and
bit emission/parsing groups blocks by their ``(kind, P_b, EC_b,max,
sparse)`` class so each class's fixed-width fields move through one bit
matrix and each class's ECQ symbols through one tree-codec call.  The
remaining Python loops only stage precomputed arrays (compress); the
sequential decompress index pass is one call into a compiled kernel
(:mod:`repro.core.kernel`), with a numpy walk as fallback; see
``docs/ALGORITHM.md`` §"Batched execution".  The emitted bits are
*identical* to the historical per-block loop — batching is an execution
strategy, not a format change.
"""

from __future__ import annotations

import numpy as np

from repro import api, telemetry
from repro.bitio import (
    BitReader,
    BitWriter,
    FieldScanner,
    gather_uint_fields,
    pack_uint_rows,
    uint_to_bits,
    varlen_bits,
)
from repro.core import header as fmt
from repro.core import kernel
from repro.core.blocking import BlockSpec, split_blocks
from repro.core.classify import BlockType
from repro.core.quantize import MAX_FIELD_BITS, ecq_bin_numbers, working_binsize
from repro.core.scaling import ScalingMetric, fit_pattern_batch
from repro.core.stats import BlockRecord, StreamStats
from repro.core.trees import (
    TREE_IDS,
    ECQDecoder,
    encode_ecq,
    encode_ecq2_bits,
    encode_ecq_rows,
    encode_ecq_rows_bits,
    encoded_size_bits_batch,
    encoded_size_bits_from_moments,
)
from repro.errors import FormatError, ParameterError

#: EC_b,max above which a block is stored raw (never hit by ERI data; the
#: paper reports EC_b,max <= 22 at EB = 1e-10).
MAX_ECB = 40


#: Parse-cache entries kept per codec (each holds its blob plus the index
#: arrays; two covers the common compress→verify→re-read loop).
_PARSE_CACHE_MAX = 2


def _float_bit_length(values: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for non-negative integer-valued floats.

    Exact for values below 2^53; above that, exact whenever the float is (as
    here) a rounded representation whose exponent alone decides the width.
    """
    out = np.zeros(values.shape, dtype=np.int64)
    nz = values > 0
    if nz.any():
        out[nz] = np.frexp(values[nz])[1]
    return out


def _block_types(ecb: np.ndarray) -> np.ndarray:
    """Vectorised :meth:`BlockType.from_ec_b_max` over an EC_b,max array."""
    from repro.core.classify import TYPE2_MAX_ECB

    return np.select(
        [ecb <= 1, ecb == 2, ecb <= TYPE2_MAX_ECB],
        [BlockType.TYPE0, BlockType.TYPE1, BlockType.TYPE2],
        default=BlockType.TYPE3,
    )


@telemetry.instrument_codec
class PaSTRICompressor:
    """Error-bounded lossy compressor for ERI shell blocks.

    Parameters
    ----------
    dims:
        Block geometry ``(N1, N2, N3, N4)``; mutually exclusive with
        ``config``.
    config:
        BF-configuration string such as ``"(dd|dd)"``.
    metric:
        Pattern-scaling metric (paper Fig. 4); default ER.
    tree_id:
        ECQ encoding tree 1–5 (paper Fig. 7); default 5.
    ecq_mode:
        ``"adaptive"`` (default) picks per block whichever of the dense
        tree-coded or sparse index+value ECQ representation is smaller
        (§IV-C); ``"dense"`` / ``"sparse"`` force one — used by the
        ablation benchmarks.
    collect_stats:
        When True, :attr:`last_stats` holds a :class:`StreamStats` with the
        full bit/type breakdown after each :meth:`compress`.

    Examples
    --------
    >>> codec = PaSTRICompressor(config="(dd|dd)")
    >>> blob = codec.compress(data, error_bound=1e-10)
    >>> out = codec.decompress(blob)
    >>> bool(np.max(np.abs(out - data)) <= 1e-10)
    True
    """

    name = "pastri"

    def __init__(
        self,
        dims: tuple[int, int, int, int] | None = None,
        config: str | None = None,
        metric: ScalingMetric | str = ScalingMetric.ER,
        tree_id: int = 5,
        ecq_mode: str = "adaptive",
        collect_stats: bool = False,
    ) -> None:
        if (dims is None) == (config is None):
            raise ParameterError("provide exactly one of dims= or config=")
        self.spec = BlockSpec(dims) if dims is not None else BlockSpec.from_config(config)
        self.metric = ScalingMetric.coerce(metric)
        if tree_id not in TREE_IDS:
            raise ParameterError(f"tree_id must be one of {TREE_IDS}")
        self.tree_id = tree_id
        if ecq_mode not in ("adaptive", "dense", "sparse"):
            raise ParameterError("ecq_mode must be adaptive/dense/sparse")
        self.ecq_mode = ecq_mode
        self.collect_stats = collect_stats
        self.last_stats: StreamStats | None = None
        # Adaptive ECQ scan-bound estimates, shared across decompress calls
        # keyed by tree id (see ECQDecoder: stale hints cost only a retry).
        self._scan_hints: dict[int, dict[int, float]] = {}
        # Sequential index-pass results keyed by blob, so repeat decodes of a
        # held stream (the SCF-store access pattern) only pay the batched
        # reconstruction.  Entries are read-only once stored.
        self._parse_cache: dict[bytes, tuple] = {}

    def spec_kwargs(self) -> dict:
        """Constructor kwargs for :func:`repro.api.codec_spec` (JSON-pure)."""
        return {
            "dims": list(self.spec.dims),
            "metric": self.metric.value,
            "tree_id": self.tree_id,
            "ecq_mode": self.ecq_mode,
        }

    def reshaped(self, dims) -> "PaSTRICompressor":
        """A same-config codec for a different block geometry.

        Shape-aware codecs expose this so per-``dims`` dispatch (the
        spill store, the worker pool) can stay codec-agnostic: anything
        with a ``reshaped`` method gets a per-geometry instance, anything
        without is shape-independent and shared as-is.
        """
        return PaSTRICompressor(
            dims=tuple(int(d) for d in dims),
            metric=self.metric,
            tree_id=self.tree_id,
            ecq_mode=self.ecq_mode,
        )

    # -- compression --------------------------------------------------------

    def compress(self, data: np.ndarray, error_bound: float) -> bytes:
        """Compress a 1-D float64 stream of shell blocks."""
        data = api.validate_input(data)
        eb = api.validate_error_bound(error_bound)
        spec = self.spec
        N = spec.block_size
        n_blocks, n_tail = split_blocks(data.size, N)

        w = BitWriter()
        hdr = fmt.StreamHeader(
            error_bound=eb,
            spec=spec,
            n_blocks=n_blocks,
            n_tail=n_tail,
            tree_id=self.tree_id,
            metric=self.metric,
        )
        fmt.write_header(w, hdr)

        stats = StreamStats(n_points=data.size, bits_global_header=w.nbits) if self.collect_stats else None

        if n_blocks:
            self._compress_blocks(w, data[: n_blocks * N], n_blocks, eb, stats)

        if n_tail:
            tail = data[n_blocks * N :]
            w.write_uint_array(tail.view(np.uint64), 64)
            if stats is not None:
                stats.bits_tail += 64 * n_tail

        self.last_stats = stats
        return w.getvalue()

    def _compress_blocks(
        self,
        w: BitWriter,
        body: np.ndarray,
        n_blocks: int,
        eb: float,
        stats: StreamStats | None,
    ) -> None:
        parts = self._block_parts(body, n_blocks, eb, stats)
        w.write_segments(seg for block_parts in parts for seg in block_parts)

    def compress_many(self, arrays, error_bound: float) -> list[bytes]:
        """Compress several streams in one fused batched kernel pass.

        The service micro-batcher coalesces same-class requests; running
        their whole-block bodies through a single :meth:`_block_parts`
        call amortises the batched numeric front (pattern fit, ECQ
        quantise, class grouping) across requests instead of paying it
        once per stream.  Every per-block decision is independent of its
        batch neighbours, so each returned blob is **byte-identical** to
        ``compress(arrays[i], error_bound)`` — tested as an invariant.
        ``last_stats`` is cleared (per-stream attribution is meaningless
        for a fused pass).
        """
        eb = api.validate_error_bound(error_bound)
        N = self.spec.block_size
        prepped = []
        bodies = []
        for a in arrays:
            d = api.validate_input(a)
            n_blocks, n_tail = split_blocks(d.size, N)
            prepped.append((d, n_blocks, n_tail))
            if n_blocks:
                bodies.append(d[: n_blocks * N])
        parts: list[tuple[np.ndarray, ...]] = []
        if bodies:
            body = bodies[0] if len(bodies) == 1 else np.concatenate(bodies)
            parts = self._block_parts(body, body.size // N, eb, None)
        blobs = []
        lo = 0
        for d, n_blocks, n_tail in prepped:
            w = BitWriter()
            fmt.write_header(
                w,
                fmt.StreamHeader(
                    error_bound=eb,
                    spec=self.spec,
                    n_blocks=n_blocks,
                    n_tail=n_tail,
                    tree_id=self.tree_id,
                    metric=self.metric,
                ),
            )
            if n_blocks:
                w.write_segments(
                    seg for bp in parts[lo : lo + n_blocks] for seg in bp
                )
                lo += n_blocks
            if n_tail:
                tail = d[n_blocks * N :]
                w.write_uint_array(tail.view(np.uint64), 64)
            blobs.append(w.getvalue())
        self.last_stats = None
        return blobs

    def _block_parts(
        self,
        body: np.ndarray,
        n_blocks: int,
        eb: float,
        stats: StreamStats | None,
    ) -> list[tuple[np.ndarray, ...]]:
        """Per-block bit segments for ``n_blocks`` whole blocks of ``body``.

        This is the batched numeric front plus group-by-class emission;
        block ``b``'s output tuple depends only on block ``b``'s values,
        which is what lets :meth:`compress_many` fuse blocks from several
        streams into one pass.
        """
        spec = self.spec
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        blocks3d = body.reshape(n_blocks, M, L)
        rows = np.arange(n_blocks)

        # Batched numeric pipeline (Alg. 1 lines 5-16, fused across blocks).
        # One |.| buffer serves the pattern fit, the zero-block test and
        # (overwritten) the ECQ magnitude moments below.
        abs3d = np.abs(blocks3d)
        p_idx, scales, degenerate = fit_pattern_batch(blocks3d, self.metric, abs3d=abs3d)
        zero_block = abs3d.reshape(n_blocks, N).max(axis=1) == 0.0
        patterns = blocks3d[rows, p_idx]
        binsize = working_binsize(eb)
        pq_f = np.rint(patterns / binsize)
        pq_ext_f = np.abs(pq_f).max(axis=1)
        p_b = 1 + _float_bit_length(pq_ext_f)
        # Blocks whose pattern grid would overflow the field width are stored
        # raw; zero their rows before the int64 cast to avoid UB.
        raw_p = p_b > MAX_FIELD_BITS
        if raw_p.any():
            pq_f[raw_p] = 0.0
            p_b[raw_p] = 1
        pq = pq_f.astype(np.int64)

        half = np.exp2(p_b - 1)  # exact: powers of two
        half_int = np.left_shift(np.int64(1), p_b - 1)
        sq = np.rint(scales * half[:, None]).astype(np.int64)
        np.clip(sq, -half_int[:, None], half_int[:, None] - 1, out=sq)
        approx = (sq / half[:, None])[:, :, None] * (pq * binsize)[:, None, :]
        # The residual quantisation reuses `approx` as scratch: each step
        # applies the exact same FP op sequence as the naive expression, so
        # the quantised values (and the stream) are unchanged.
        ecq_f = np.subtract(blocks3d, approx, out=approx)
        np.divide(ecq_f, binsize, out=ecq_f)
        np.rint(ecq_f, out=ecq_f)
        abs_f = np.abs(ecq_f, out=abs3d).reshape(n_blocks, N)
        ecq_ext_f = abs_f.max(axis=1)
        ecb = np.where(ecq_ext_f == 0, 1, _float_bit_length(ecq_ext_f) + 1)
        raw_e = ecb > MAX_ECB
        if raw_e.any():
            ecq_f[raw_e] = 0.0
        # int32 halves the cast and every downstream gather whenever the
        # residuals fit (always, on ERI data: the paper sees EC_b,max <= 22).
        # Raw rows are zeroed above, so only surviving rows bound the width.
        ecq_dt = np.int32 if int(ecb[~raw_e].max(initial=1)) <= 31 else np.int64
        ecq2d = ecq_f.astype(ecq_dt).reshape(n_blocks, N)
        force_raw = raw_p | raw_e

        # Magnitude moments from the float residuals (integer-exact for
        # quantised values): nnz and sum(min(|v|, 2)) drive both the outlier
        # count and the dense-size formula for the fixed-shape trees.
        # raw_e rows were zeroed only in ecq2d, so patch their moments.
        nnz_f = np.count_nonzero(abs_f, axis=1)
        np.minimum(abs_f, 2.0, out=abs_f)
        s_f = abs_f.sum(axis=1)
        if raw_e.any():
            nnz_f[raw_e] = 0
            s_f[raw_e] = 0.0
        nol = nnz_f.astype(np.int64)
        idx_bits = max(1, (N - 1).bit_length())
        nol_bits = N.bit_length()
        sparse_bits = nol_bits + nol * (idx_bits + ecb)

        # Batched coding decisions: dense vs sparse per block, then the
        # patterned-vs-raw payoff test — one vectorised pass instead of the
        # historical per-block arithmetic (bit-identical outcomes).
        has_ecq = ecb >= 2
        if self.tree_id in (1, 3, 5):
            dense_bits = encoded_size_bits_from_moments(
                N, nol, s_f.astype(np.int64), ecb, self.tree_id
            )
        else:
            dense_bits = encoded_size_bits_batch(ecq2d, ecb, self.tree_id, nnz=nol)
        if self.ecq_mode == "adaptive":
            use_sparse = has_ecq & (sparse_bits < dense_bits)
        elif self.ecq_mode == "sparse":
            use_sparse = has_ecq.copy()
        else:
            use_sparse = np.zeros(n_blocks, dtype=bool)
        ecq_cost = np.where(has_ecq, 1 + np.where(use_sparse, sparse_bits, dense_bits), 0)
        patterned_total = 2 + 6 + 6 + (L + M) * p_b + ecq_cost
        force_raw |= patterned_total >= 2 + 64 * N

        kinds = np.full(n_blocks, fmt.KIND_PATTERNED, dtype=np.int8)
        kinds[force_raw] = fmt.KIND_RAW
        kinds[zero_block] = fmt.KIND_ZERO

        # Group-by-class batched emission: one bit matrix per class for the
        # fixed-width fields, one tree-codec call per class for dense ECQ,
        # then an assembly loop that only interleaves precomputed segments.
        parts: list[tuple[np.ndarray, ...]] = [()] * n_blocks

        zero_ids = np.flatnonzero(kinds == fmt.KIND_ZERO)
        if zero_ids.size:
            zero_tag = uint_to_bits(fmt.KIND_ZERO, 2)
            zero_parts = (zero_tag,)
            for b in zero_ids:
                parts[b] = zero_parts

        raw_ids = np.flatnonzero(kinds == fmt.KIND_RAW)
        if raw_ids.size:
            raw_tag = uint_to_bits(fmt.KIND_RAW, 2)
            raw_rows = pack_uint_rows(
                blocks3d[raw_ids].reshape(raw_ids.size, N).view(np.uint64), 64
            )
            for i, b in enumerate(raw_ids):
                parts[b] = (raw_tag, raw_rows[i])

        pat_ids = np.flatnonzero(kinds == fmt.KIND_PATTERNED)
        if pat_ids.size:
            # Each field family is batched over the widest grouping that
            # preserves its bits: headers over all patterned blocks at once
            # (kind|P_b is one fixed 8-bit field, EC_b,max[|flag] a 6/7-bit
            # one), PQ+SQ rows per P_b class, ECQ payloads per EC_b,max
            # class (the payload bits do not depend on P_b).
            n_pat = pat_ids.size
            pb_p = p_b[pat_ids]
            ecb_p = ecb[pat_ids]
            sp_p = use_sparse[pat_ids]
            has_p = ecb_p >= 2

            hdr1_vals = (np.int64(fmt.KIND_PATTERNED) << 6) | pb_p
            hdr1_rows = pack_uint_rows(hdr1_vals[:, None].astype(np.uint64), 8)

            hdr2_seg: list[np.ndarray] = [None] * n_pat  # type: ignore[list-item]
            loc6 = np.flatnonzero(~has_p)
            if loc6.size:
                rows6 = pack_uint_rows(ecb_p[loc6][:, None].astype(np.uint64), 6)
                for j, i in enumerate(loc6):
                    hdr2_seg[i] = rows6[j]
            loc7 = np.flatnonzero(has_p)
            if loc7.size:
                vals7 = ((ecb_p[loc7] << 1) | sp_p[loc7]).astype(np.uint64)
                rows7 = pack_uint_rows(vals7[:, None], 7)
                for j, i in enumerate(loc7):
                    hdr2_seg[i] = rows7[j]

            pqsq_seg: list[np.ndarray] = [None] * n_pat  # type: ignore[list-item]
            for pbv in np.unique(pb_p):
                loc = np.flatnonzero(pb_p == pbv)
                ids = pat_ids[loc]
                offset = 1 << (int(pbv) - 1)
                vals = np.concatenate(
                    [pq[ids] + offset, sq[ids] + offset], axis=1
                ).astype(np.uint64)
                rows = pack_uint_rows(vals, int(pbv))
                for j, i in enumerate(loc):
                    pqsq_seg[i] = rows[j]

            payload_seg: list[tuple[np.ndarray, ...]] = [()] * n_pat
            dense_loc = np.flatnonzero(has_p & ~sp_p)

            def _emit_chunks(loc: np.ndarray, stream, blk_bits) -> None:
                chunks = np.split(stream, np.cumsum(blk_bits[:-1]))
                for j, i in enumerate(loc):
                    payload_seg[i] = (chunks[j],)

            def _emit_dense(loc: np.ndarray, codes, lengths) -> None:
                stream = varlen_bits(codes, lengths)
                _emit_chunks(loc, stream, lengths.reshape(loc.size, N).sum(axis=1))

            if dense_loc.size:
                tid = self.tree_id
                vec_loc = dense_loc
                if tid == 5:
                    # Tree 5's EC_b,max == 2 rows use the 3-leaf tree-4 code;
                    # every other row is plain tree 3 and can be encoded with
                    # per-row widths in one shot.
                    two = ecb_p[dense_loc] == 2
                    loc2 = dense_loc[two]
                    vec_loc = dense_loc[~two]
                    if loc2.size:
                        stream = encode_ecq2_bits(ecq2d[pat_ids[loc2]])
                        _emit_chunks(loc2, stream, dense_bits[pat_ids[loc2]])
                if vec_loc.size and tid in (1, 2, 3, 5):
                    t3 = 3 if tid == 5 else tid
                    # Bucket rows by codeword-width class so one wide row
                    # cannot push the whole batch onto a wider emission path.
                    # The ≤16-bit bucket (virtually all blocks in practice)
                    # encodes straight to bits; its per-block bit counts are
                    # exactly the dense_bits already computed above.
                    wmax = np.searchsorted([16, 32], {1: 1, 2: 3, 3: 2}[t3] + ecb_p[vec_loc])
                    for grp in np.unique(wmax):
                        loc = vec_loc[wmax == grp]
                        if grp == 0:
                            stream = encode_ecq_rows_bits(
                                ecq2d[pat_ids[loc]], ecb_p[loc], t3
                            )
                            _emit_chunks(loc, stream, dense_bits[pat_ids[loc]])
                        else:
                            codes, lengths = encode_ecq_rows(
                                ecq2d[pat_ids[loc]], ecb_p[loc], t3
                            )
                            _emit_dense(loc, codes, lengths)
                elif vec_loc.size:  # tree 4: codeword shape varies with EC_b,max
                    for ebv in np.unique(ecb_p[vec_loc]):
                        loc = vec_loc[ecb_p[vec_loc] == ebv]
                        codes, lengths = encode_ecq(
                            ecq2d[pat_ids[loc]].ravel(), int(ebv), tid
                        )
                        _emit_dense(loc, codes, lengths)
            sparse_loc = np.flatnonzero(sp_p)
            for ebv in np.unique(ecb_p[sparse_loc]):
                loc = sparse_loc[ecb_p[sparse_loc] == ebv]
                eb_max = int(ebv)
                sub = ecq2d[pat_ids[loc]]
                r_i, cols = np.nonzero(sub)  # row-major == flatnonzero order
                packed = (cols.astype(np.uint64) << np.uint64(eb_max)) | (
                    sub[r_i, cols] + (1 << (eb_max - 1))
                ).astype(np.uint64)
                width = idx_bits + eb_max
                entry_bits = pack_uint_rows(packed[None, :], width).ravel()
                counts = nol[pat_ids[loc]]
                chunks = np.split(entry_bits, np.cumsum(counts[:-1] * width))
                nol_rows = pack_uint_rows(counts[:, None].astype(np.uint64), nol_bits)
                for j, i in enumerate(loc):
                    payload_seg[i] = (nol_rows[j], chunks[j])

            for i, b in enumerate(pat_ids):
                parts[b] = (hdr1_rows[i], pqsq_seg[i], hdr2_seg[i]) + payload_seg[i]

        if stats is not None:
            self._collect_stats(
                stats, kinds, p_b, ecb, nol, use_sparse, dense_bits, sparse_bits,
                ecq2d, degenerate, M, L, N,
            )
        return parts

    def _collect_stats(
        self,
        stats: StreamStats,
        kinds: np.ndarray,
        p_b: np.ndarray,
        ecb: np.ndarray,
        nol: np.ndarray,
        use_sparse: np.ndarray,
        dense_bits: np.ndarray,
        sparse_bits: np.ndarray,
        ecq2d: np.ndarray,
        degenerate: np.ndarray,
        M: int,
        L: int,
        N: int,
    ) -> None:
        """Per-block bit accounting, identical to the historical loop."""
        if degenerate.any():
            stats.degenerate_blocks = int(degenerate.sum())
        for b in range(kinds.size):
            kind = int(kinds[b])
            if kind == fmt.KIND_ZERO:
                stats.add_block(BlockRecord(
                    kind=fmt.KIND_ZERO, block_type=BlockType.TYPE0, p_b=0,
                    ec_b_max=1, sparse=False, nol=0,
                    bits_header=2, bits_pattern=0, bits_scales=0, bits_ecq=0,
                ))
                continue
            pb, eb_max = int(p_b[b]), int(ecb[b])
            if kind == fmt.KIND_RAW:
                stats.bits_raw += 64 * N
                stats.add_block(BlockRecord(
                    kind=fmt.KIND_RAW, block_type=BlockType.from_ec_b_max(eb_max),
                    p_b=pb, ec_b_max=eb_max, sparse=False, nol=int(nol[b]),
                    bits_header=2, bits_pattern=0, bits_scales=0, bits_ecq=0,
                ))
                continue
            if eb_max >= 2:
                bits_ecq = int(sparse_bits[b] if use_sparse[b] else dense_bits[b])
            else:
                bits_ecq = 0
            stats.add_block(BlockRecord(
                kind=fmt.KIND_PATTERNED, block_type=BlockType.from_ec_b_max(eb_max),
                p_b=pb, ec_b_max=eb_max,
                sparse=bool(eb_max >= 2 and use_sparse[b]), nol=int(nol[b]),
                bits_header=2 + 6 + 6 + (1 if eb_max >= 2 else 0),
                bits_pattern=L * pb, bits_scales=M * pb, bits_ecq=bits_ecq,
            ))
        pat_ids = np.flatnonzero(kinds == fmt.KIND_PATTERNED)
        if pat_ids.size:
            stats.add_ecq_histograms(
                _block_types(ecb[pat_ids]), ecq_bin_numbers(ecq2d[pat_ids])
            )

    # -- decompression -------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the stream; output satisfies the stored error bound.

        Two passes (see ``docs/ALGORITHM.md``): a sequential *index pass*
        records each block's (kind, P_b, EC_b,max, bit offsets) — decoding
        dense ECQ segments as it goes, since their end offsets are only
        known by decoding — then a *batched reconstruction pass* gathers
        each class's fields at once, forms all scale×pattern outer products
        with one einsum per class, and scatter-adds every correction.

        Index-pass results are memoised per blob (a small LRU): repeat
        decodes of a held stream — the SCF-store access pattern — skip
        straight to the batched reconstruction.
        """
        if not isinstance(blob, (bytes, bytearray)):
            blob = bytes(blob)  # mmap views etc.: parse memo needs a hashable key
        r = BitReader(blob)
        hdr = fmt.read_header(r)
        # Corrupt count fields must not drive allocations: every block costs
        # at least its 2-bit kind tag, every tail value 64 bits.
        if hdr.n_blocks * 2 + hdr.n_tail * 64 > r.remaining:
            raise FormatError("block/tail counts exceed the stream length")
        parse = self._parse_cache.get(blob)
        if parse is None:
            parse = self._index_pass(blob, hdr, r)
            self._parse_cache[blob] = parse
            while len(self._parse_cache) > _PARSE_CACHE_MAX:
                self._parse_cache.pop(next(iter(self._parse_cache)))
        return self._reconstruct(hdr, r, parse)

    def _index_pass(self, blob: bytes, hdr: fmt.StreamHeader, r: BitReader) -> tuple:
        """Sequential field-location pass; returns the read-only parse tuple.

        One call into the compiled kernel (:mod:`repro.core.kernel`) when it
        is available, else :meth:`_index_pass_numpy` — same tuple, same
        exception classes; the numpy pass is also the kernel's test oracle.
        """
        lib = kernel.load()
        if lib is None or hdr.spec.block_size > kernel.MAX_BLOCK_SIZE:
            return self._index_pass_numpy(blob, hdr, r)
        return kernel.index_pass(lib, blob, hdr, r.pos, MAX_FIELD_BITS, MAX_ECB)

    def _index_pass_numpy(
        self, blob: bytes, hdr: fmt.StreamHeader, r: BitReader
    ) -> tuple:
        """Index pass in Python + numpy: a scalar field walk that decodes
        each dense ECQ segment with the vectorised event-chain decoder."""
        spec = hdr.spec
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        idx_bits = max(1, (N - 1).bit_length())
        nol_bits = N.bit_length()
        n_b = hdr.n_blocks
        bits = r.bits
        kind_arr = np.zeros(n_b, dtype=np.int8)
        pb_arr = np.zeros(n_b, dtype=np.int64)
        ecb_arr = np.zeros(n_b, dtype=np.int64)
        off_arr = np.zeros(n_b, dtype=np.int64)  # PQ start / raw-data start
        sp_nol = np.zeros(n_b, dtype=np.int64)
        sp_off = np.zeros(n_b, dtype=np.int64)
        sparse_mask = np.zeros(n_b, dtype=bool)
        dense_ids: list[int] = []
        dense_vals: list[np.ndarray] = []
        decoder = ECQDecoder(
            bits, hdr.tree_id, hints=self._scan_hints.setdefault(hdr.tree_id, {})
        )
        sc = FieldScanner(blob, pos=r.pos)
        pqsq_bits = L + M

        for b in range(n_b):
            kind = sc.read(2)
            if kind == fmt.KIND_ZERO:
                continue
            if kind == fmt.KIND_RAW:
                kind_arr[b] = fmt.KIND_RAW
                off_arr[b] = sc.pos
                sc.skip(64 * N)
                continue
            if kind != fmt.KIND_PATTERNED:
                raise FormatError(f"bad block kind {kind} in block {b}")
            kind_arr[b] = fmt.KIND_PATTERNED
            pb = sc.read(6)
            if not 1 <= pb <= MAX_FIELD_BITS:
                raise FormatError(f"bad P_b {pb} in block {b}")
            pb_arr[b] = pb
            off_arr[b] = sc.pos
            sc.skip(pqsq_bits * pb)
            eb_max = sc.read(6)
            ecb_arr[b] = eb_max
            if eb_max < 2:
                continue
            if eb_max > MAX_ECB:
                raise FormatError(f"bad EC_b,max {eb_max} in block {b}")
            if sc.read(1):  # sparse ECQ: record the entry run, skip it
                if idx_bits + eb_max > 64:
                    raise FormatError(f"oversized outlier fields in block {b}")
                sparse_mask[b] = True
                cnt = sc.read(nol_bits)
                sp_nol[b] = cnt
                sp_off[b] = sc.pos
                sc.skip(cnt * (idx_bits + eb_max))
            else:  # dense ECQ: the end offset is only known by decoding
                vals, end = decoder.decode(sc.pos, N, eb_max)
                dense_ids.append(b)
                dense_vals.append(vals)
                sc.seek(end)

        dense_idx = np.asarray(dense_ids, dtype=np.int64)
        dense_mat = (
            np.concatenate(dense_vals).reshape(dense_idx.size, N)
            if dense_ids
            else np.zeros((0, N), dtype=np.int64)
        )
        return (kind_arr, pb_arr, ecb_arr, off_arr, sp_nol, sp_off,
                sparse_mask, dense_idx, dense_mat, sc.pos)

    def _reconstruct(
        self, hdr: fmt.StreamHeader, r: BitReader, parse: tuple
    ) -> np.ndarray:
        """Batched reconstruction from a parse tuple (cold or memoised)."""
        (kind_arr, pb_arr, ecb_arr, off_arr, sp_nol, sp_off, sparse_mask,
         dense_idx, dense_mat, body_end) = parse
        spec = hdr.spec
        binsize = working_binsize(hdr.error_bound)
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        idx_bits = max(1, (N - 1).bit_length())
        pqsq_bits = L + M
        n_b = hdr.n_blocks
        bits = r.bits
        out = np.zeros(n_b * N + hdr.n_tail, dtype=np.float64)
        flat = out[: n_b * N]
        body = flat.reshape(n_b, N)

        raw_ids = np.flatnonzero(kind_arr == fmt.KIND_RAW)
        if raw_ids.size:
            # Chunked: the bit gather costs 8 bytes per stream bit.
            step = max(1, (1 << 23) // (64 * N))
            for i in range(0, raw_ids.size, step):
                ids = raw_ids[i : i + step]
                u = gather_uint_fields(bits, off_arr[ids], N, 64)
                body[ids] = u.view(np.float64)

        pat_ids = np.flatnonzero(kind_arr == fmt.KIND_PATTERNED)
        if pat_ids.size:
            for pb in np.unique(pb_arr[pat_ids]):
                ids = pat_ids[pb_arr[pat_ids] == pb]
                pbi = int(pb)
                offset = np.int64(1) << (pbi - 1)
                fields = gather_uint_fields(bits, off_arr[ids], pqsq_bits, pbi)
                fields = fields.astype(np.int64) - offset
                pqs, sqs = fields[:, :L], fields[:, L:]
                # Broadcasting multiply, not einsum: einsum does not preserve
                # IEEE signed zeros (0.0 * -x -> +0.0), so it would break
                # bit-identity with the per-block np.outer it replaces.
                scaled_sq = sqs * 2.0 ** -(pbi - 1)
                scaled_pq = pqs * binsize
                body[ids] = (scaled_sq[:, :, None] * scaled_pq[:, None, :]).reshape(
                    ids.size, N
                )

        if dense_idx.size:
            body[dense_idx] += dense_mat * binsize

        sp_ids = np.flatnonzero(sparse_mask)
        if sp_ids.size:
            for eb_max in np.unique(ecb_arr[sp_ids]):
                ids = sp_ids[ecb_arr[sp_ids] == eb_max]
                ebi = int(eb_max)
                width = idx_bits + ebi
                counts = sp_nol[ids]
                total = int(counts.sum())
                if total == 0:
                    continue
                first_entry = np.cumsum(counts) - counts
                intra = np.arange(total, dtype=np.int64) - np.repeat(first_entry, counts)
                starts = np.repeat(sp_off[ids], counts) + intra * width
                packed = gather_uint_fields(bits, starts, 1, width).ravel()
                idxs = (packed >> np.uint64(ebi)).astype(np.int64)
                vals = (packed & np.uint64((1 << ebi) - 1)).astype(np.int64)
                vals -= 1 << (ebi - 1)
                bids = np.repeat(ids, counts)
                if (idxs >= N).any():
                    bad = int(bids[int(np.argmax(idxs >= N))])
                    raise FormatError(f"outlier index out of range in block {bad}")
                gpos = bids * N + idxs
                # The compressor emits outliers in flatnonzero order, so
                # indices must be strictly increasing within each block; a
                # duplicate would otherwise be silently dropped by the
                # scatter-add below.
                bad_step = np.diff(gpos) <= 0
                if bad_step.any():
                    bad = int(bids[1 + int(np.argmax(bad_step))])
                    raise FormatError(
                        f"outlier indices not strictly increasing in block {bad}"
                    )
                flat[gpos] += vals * binsize

        if hdr.n_tail:
            r.seek(body_end)
            out[n_b * N :] = r.read_uint_array(hdr.n_tail, 64).view(np.float64)
        return out


def _factory(**kwargs) -> PaSTRICompressor:
    return PaSTRICompressor(**kwargs)


api.register_codec("pastri", _factory)
