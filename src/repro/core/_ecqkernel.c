/*
 * Compiled index pass for PaSTRI streams (see repro/core/kernel.py).
 *
 * One call walks every block of a stream body: it reads the kind tag, P_b
 * and EC_b,max, skips the PQ/SQ run, raw doubles and sparse outlier runs by
 * arithmetic, and decodes each dense ECQ segment token by token (trees 1-5,
 * paper Fig. 7).  Every field read and skip is checked against the stream's
 * bit length, and every dense segment against the window
 * min(nbits - start, N * max_token_len).  Bytes past the end of the blob
 * are never loaded: reads that straddle the end see zero bits instead.
 *
 * The caller owns every output array; the kernel allocates nothing.
 */

#include <stdint.h>
#include <string.h>

enum {
    PASTRI_OK = 0,
    PASTRI_UNDERFLOW = 1,   /* info[3] = bits needed, info[4] = at offset */
    PASTRI_BAD_KIND = 2,    /* info[3] = kind */
    PASTRI_BAD_PB = 3,      /* info[3] = P_b */
    PASTRI_BAD_ECB = 4,     /* info[3] = EC_b,max */
    PASTRI_WIDE_OUTLIER = 5,
    PASTRI_OVERRUN = 6,     /* dense ECQ segment overruns its window */
    PASTRI_NO_ROOM = 7,     /* more dense blocks than dense_cap rows */
};

enum { KIND_ZERO = 0, KIND_PATTERNED = 1, KIND_RAW = 2 };

typedef struct {
    const uint8_t *buf;
    int64_t nbytes;
    int64_t nbits;
} stream_t;

/* The 64 bits starting at bit `pos`, MSB first; at least 57 are valid. */
static inline uint64_t peek(const stream_t *s, int64_t pos)
{
    int64_t j = pos >> 3;
    uint64_t w = 0;
    if (j + 8 <= s->nbytes) {
        memcpy(&w, s->buf + j, 8);
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
        w = __builtin_bswap64(w);
#endif
    } else {
        for (int k = 0; k < 8; k++)
            w = (w << 8) | (j + k < s->nbytes ? s->buf[j + k] : 0u);
    }
    return w << (pos & 7);
}

/* An n-bit field at `pos`, 1 <= n <= 57; no bounds check. */
static inline uint64_t field(const stream_t *s, int64_t pos, int n)
{
    return peek(s, pos) >> (64 - n);
}

static inline int64_t offset_decode(uint64_t payload, int ecb)
{
    return (int64_t)payload - ((int64_t)1 << (ecb - 1));
}

static int64_t max_token_len(int ecb, int tree_id)
{
    switch (tree_id) {
    case 1: return 1 + ecb;
    case 2: return 3 + ecb;
    case 4: return 2 * (ecb - 1);
    default: return 3 + ecb; /* trees 3 and 5 */
    }
}

/*
 * Decode n tokens at *pos into out[0..n); returns PASTRI_OK and advances
 * *pos, or PASTRI_OVERRUN when a token would end past `wend`.
 * `tree` is the effective tree: 5 resolves to 4 (EC_b = 2) or 3.
 */
static int decode_segment(const stream_t *s, int64_t *pos, int64_t wend,
                          int64_t n, int ecb, int tree, int64_t *out)
{
    int64_t p = *pos;
    int64_t i = 0;
    while (i < n) {
        uint64_t w = peek(s, p);
        int64_t len;
        int64_t v;
        if (!(w >> 63)) {
            /* Every tree codes 0 as a lone 0 bit: take the whole run of
             * zero tokens.  A nonzero w's leading zeros are all stream
             * bits; a zero w vouches for the 57 bits peek guarantees. */
            int64_t run = w ? __builtin_clzll(w) : 57;
            if (run > n - i)
                run = n - i;
            if (p + run > wend)
                return PASTRI_OVERRUN;
            memset(out + i, 0, (size_t)run * sizeof *out);
            i += run;
            p += run;
            continue;
        }
        if (tree == 1) {
            len = 1 + ecb;
            v = offset_decode((w << 1) >> (64 - ecb), ecb);
        } else if (tree == 2) {
            if (!((w >> 62) & 1)) {
                len = 2;
                v = 1;
            } else if (!((w >> 61) & 1)) {
                len = 3;
                v = -1;
            } else {
                len = 3 + ecb;
                v = offset_decode((w << 3) >> (64 - ecb), ecb);
            }
        } else if (tree == 3) {
            if (!((w >> 62) & 1)) {
                len = 2 + ecb;
                v = offset_decode((w << 2) >> (64 - ecb), ecb);
            } else {
                len = 3;
                v = ((w >> 61) & 1) ? -1 : 1;
            }
        } else {
            /* Tree 4: i <= ecb-1 leading ones pick bin i+1, whose payload
             * is i bits (sign-magnitude folded as in _encode_tree4); the
             * top bin, ecb-1 ones, drops the 0 terminator. */
            int top = ecb - 1;
            int ones = __builtin_clzll(~w | 1);
            int width = ones < top ? ones : top;
            int64_t pay_at = p + width + (ones < top);
            len = 2 * (int64_t)width + (ones < top);
            uint64_t payload = field(s, pay_at, width);
            uint64_t half = (uint64_t)1 << (width - 1);
            v = payload >= half ? -(int64_t)payload : (int64_t)(payload + half);
        }
        if (p + len > wend)
            return PASTRI_OVERRUN;
        out[i++] = v;
        p += len;
    }
    *pos = p;
    return PASTRI_OK;
}

#define NEED(nb)                                     \
    do {                                             \
        if (pos + (nb) > s.nbits) {                  \
            info[3] = (nb);                          \
            info[4] = pos;                           \
            st = PASTRI_UNDERFLOW;                   \
            goto fail;                               \
        }                                            \
    } while (0)

/*
 * Walk n_blocks blocks starting at bit `pos` of buf[0..nbytes).
 *
 * Outputs form the Python parse tuple and live in two caller buffers, so
 * one call passes few pointers:
 *   flags: kind[n_blocks], sparse[n_blocks];
 *   ints:  pb, ecb, off, sp_nol, sp_off [n_blocks each], dense_idx
 *          [dense_cap], info[5];
 * entries of zero blocks are left untouched.  dense_mat is the row-major
 * (dense_cap, M*L) int64 matrix of dense blocks' ECQ values.
 * info[0] = end of the block body, info[1] = dense blocks written,
 * info[2] = block index of a failure, info[3..4] = failure details.
 */
int pastri_index_pass(const uint8_t *buf, int64_t nbytes, int64_t pos,
                      int64_t n_blocks, int64_t M, int64_t L, int tree_id,
                      int max_pb, int max_ecb, int8_t *flags, int64_t *ints,
                      int64_t *dense_mat, int64_t dense_cap)
{
    int8_t *kind = flags, *sparse = flags + n_blocks;
    int64_t *pb = ints, *ecb = pb + n_blocks, *off = ecb + n_blocks;
    int64_t *sp_nol = off + n_blocks, *sp_off = sp_nol + n_blocks;
    int64_t *dense_idx = sp_off + n_blocks, *info = dense_idx + dense_cap;
    stream_t s = {buf, nbytes, 8 * nbytes};
    const int64_t N = M * L;
    int idx_bits = 0, nol_bits = 0;
    while (((int64_t)1 << idx_bits) < N) /* max(1, (N - 1).bit_length()) */
        idx_bits++;
    if (idx_bits == 0)
        idx_bits = 1;
    while ((N >> nol_bits) != 0) /* N.bit_length() */
        nol_bits++;
    int64_t n_dense = 0;
    int64_t b = 0;
    int st = PASTRI_OK;

    for (; b < n_blocks; b++) {
        NEED(2);
        int k = (int)field(&s, pos, 2);
        pos += 2;
        if (k == KIND_ZERO)
            continue;
        if (k == KIND_RAW) {
            kind[b] = KIND_RAW;
            off[b] = pos;
            NEED(64 * N);
            pos += 64 * N;
            continue;
        }
        if (k != KIND_PATTERNED) {
            info[3] = k;
            st = PASTRI_BAD_KIND;
            goto fail;
        }
        kind[b] = KIND_PATTERNED;
        NEED(6);
        int p_b = (int)field(&s, pos, 6);
        pos += 6;
        if (p_b < 1 || p_b > max_pb) {
            info[3] = p_b;
            st = PASTRI_BAD_PB;
            goto fail;
        }
        pb[b] = p_b;
        off[b] = pos;
        NEED((L + M) * p_b);
        pos += (L + M) * p_b;
        NEED(6);
        int eb = (int)field(&s, pos, 6);
        pos += 6;
        ecb[b] = eb;
        if (eb < 2)
            continue;
        if (eb > max_ecb) {
            info[3] = eb;
            st = PASTRI_BAD_ECB;
            goto fail;
        }
        NEED(1);
        int is_sparse = (int)field(&s, pos, 1);
        pos += 1;
        if (is_sparse) {
            if (idx_bits + eb > 64) {
                st = PASTRI_WIDE_OUTLIER;
                goto fail;
            }
            sparse[b] = 1;
            NEED(nol_bits);
            int64_t cnt = (int64_t)field(&s, pos, nol_bits);
            pos += nol_bits;
            sp_nol[b] = cnt;
            sp_off[b] = pos;
            NEED(cnt * (idx_bits + eb));
            pos += cnt * (idx_bits + eb);
            continue;
        }
        if (n_dense == dense_cap) {
            st = PASTRI_NO_ROOM;
            goto fail;
        }
        int64_t window = N * max_token_len(eb, tree_id);
        if (window > s.nbits - pos)
            window = s.nbits - pos;
        int tree = tree_id == 5 ? (eb == 2 ? 4 : 3) : tree_id;
        st = decode_segment(&s, &pos, pos + window, N, eb, tree,
                            dense_mat + n_dense * N);
        if (st != PASTRI_OK)
            goto fail;
        dense_idx[n_dense++] = b;
    }
    info[0] = pos;
    info[1] = n_dense;
    return PASTRI_OK;

fail:
    info[1] = n_dense;
    info[2] = b;
    return st;
}
