/* Native direct-form absorb loops for badderlocks.fastcrc, which calls them
 * through the extension module _absorbmodule.c; that file includes this one,
 * which stays plain C for the sanitizer programs that include it too.
 *
 * A degree-d register is passed in w = ceil(d / 64) words, most significant
 * word first, shifted up by pad = 64w - d bits so its top 9 bits are bits
 * 55-63 of word 0.  Every loop leaves it holding prefix * x^d mod g after
 * every call, whatever the number of bytes.  Every table a loop reads starts
 * with w, so no call passes it, and w is at most MAX_WORDS = B / 2.
 *
 * Three loops with one signature, (reg, table, cw, data, n): absorb, a
 * 512-row table walk that any CPU runs, and on x86-64 two table-free
 * carry-less kernels with one shared loop, absorb_clmul (PCLMULQDQ, two
 * words of each product per instruction pair) and absorb_vpclmul
 * (VPCLMULQDQ on AVX-512F, eight words per pair).  Each carry-less kernel
 * is compiled for its own instruction set through target attributes, never
 * -march=native, so no AVX-512 instruction reaches code that a
 * PCLMULQDQ-only CPU runs; carryless() reports which kernels this CPU can
 * run.
 *
 * Both carry-less kernels read one table, each constant once, in place,
 * least significant word first: w, mu, seven zero words, G = (g - x^d) *
 * x^pad zero-padded to whole blocks of eight words, seven more zero words,
 * then mu' (B words) one word up, zero-padded to MU_BLOCKS whole blocks of
 * eight.  A product eight words at a time reads a constant shifted up s < 8
 * words by one unaligned load at offset -s, which brings in the zeros
 * around it.
 *
 * Both carry-less kernels reduce one 64-bit word of codewords per Barrett
 * step, and each step's quotient waits on the last one's register.
 * absorb_vpclmul first reduces whole blocks of B = 144 words (1 KiB) with
 * one Barrett step per block, whose quotient Q = T + (T * mu' >> 64B) uses
 * mu' = floor(x^(d + 64B) / g) - x^(64B) (P. Barrett, CRYPTO '86, over
 * GF(2)); the word step takes the rest of the call.  fill_carryless
 * computes mu' by the word step when the table is built; absorb_clmul does
 * not read it.
 *
 * Each carry-less kernel also has a two-thread entry, absorb_split_clmul and
 * absorb_split_vpclmul, and split_join finishes what they start.  One
 * persistent worker thread per process absorbs the first n - q bytes of a
 * chunk into a copy of the register while the calling thread absorbs the
 * last q bytes into a zeroed one, s, and returns; the join, which the caller
 * makes once it has done other work, joins them by
 * reg(A || B) = reg(A) * x^(9|B|) + reg(B) mod g (zlib's crc32_combine, in
 * the Barrett algebra of the carry-less kernels), with constants
 * K_j = x^(9 * 2^j - 2pad - d) mod g, q = 2^j, and K_(j+1), that the caller
 * supplies in the register layout.  On vpclmul every part and the combine
 * take the block step.  The threads are POSIX threads: build with -pthread.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Table kernel.  The table is w, then 512 reduction rows stored like the
 * register, w words each.  One cycle per byte: XOR the top 9 bits with
 * cw[byte], shift up 9, add the row.  The word loop runs forward, most
 * significant word first: gcc -O3 vectorises that order. */
void absorb(uint64_t *restrict reg, const uint64_t *restrict table, const uint16_t *cw,
            const uint8_t *data, size_t n)
{
    const size_t w = table[0];
    const uint64_t *restrict rows = table + 1;
    for (size_t k = 0; k < n; k++) {
        const uint64_t *restrict row = rows + ((reg[0] >> 55) ^ cw[data[k]]) * w;
        for (size_t i = 0; i + 1 < w; i++)
            reg[i] = (reg[i] << 9 | reg[i + 1] >> 55) ^ row[i];
        reg[w - 1] = reg[w - 1] << 9 ^ row[w - 1];
    }
}

/* Build rows[v] = rows[v & (v - 1)] ^ rows[lowest bit of v] in place, the
 * rows following w in table; the caller sets rows[0] to zero and rows[1 << j]
 * to the 9 basis rows, which the recurrence leaves as they are. */
void fill(uint64_t *table)
{
    const size_t w = table[0];
    uint64_t *rows = table + 1;
    for (size_t v = 1; v < 512; v++) {
        size_t low = v & (v - 1);
        for (size_t i = 0; i < w; i++)
            rows[v * w + i] = rows[low * w + i] ^ rows[(v ^ low) * w + i];
    }
}

/* B, the words one block step reduces: a multiple of 9, so a block is
 * BLOCK_BYTES = 64B / 9 = 1024 whole bytes.  Larger blocks spread the step's
 * fixed work, the w-by-w product and the ends of the mu' product, over more
 * words: B = 144 ran 5-8% faster than B = 72 at 1744-4288 bits, and B = 216
 * or 288 no faster again.  No register has more than MAX_WORDS = B / 2
 * words (the registry's largest has 67), so a product of two registers is
 * one block. */
enum { B = 144, BLOCK_BYTES = 64 * B / 9, MAX_WORDS = B / 2 };

/* Offsets in a carry-less table, which the module checks on every platform:
 * G after w, mu and seven zero words; the tail after G's whole blocks of
 * eight words, TAIL_WORDS long: seven zero words, then from MU_AT(w) mu' one
 * word up in MU_BLOCKS blocks, room for its copies shifted up s < 8 words. */
#define G_AT 9
#define TAIL_AT(w) (G_AT + 8 * (((w) + 7) / 8))
#define MU_AT(w) (TAIL_AT(w) + 7)
#define MU_BLOCKS ((B + 15) / 8)
#define TAIL_WORDS (7 + 8 * MU_BLOCKS)
#define CARRYLESS_WORDS(w) (TAIL_AT(w) + TAIL_WORDS)

#if defined(__x86_64__)
#include <immintrin.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <unistd.h>

#define VPCLMUL __attribute__((target("pclmul,avx512f,vpclmulqdq")))

__attribute__((target("pclmul"))) static inline __m128i clmul(uint64_t a, uint64_t b)
{
    return _mm_clmulepi64_si128(_mm_cvtsi64_si128((long long)a),
                                _mm_cvtsi64_si128((long long)b), 0);
}

static inline uint64_t lo64(__m128i p) { return (uint64_t)_mm_cvtsi128_si64(p); }
static inline uint64_t hi64(__m128i p) { return lo64(_mm_unpackhi_epi64(p, p)); }

/* Barrett quotient of the top b bits of t, for 1 <= b <= 64: floor(u * x^d / g)
 * where u = t >> (64 - b).  The bits of t below those b do not reach it. */
__attribute__((target("pclmul"))) static inline uint64_t quotient(uint64_t t, uint64_t mu,
                                                                  unsigned b)
{
    return (t ^ hi64(clmul(t, mu))) >> (64 - b);
}

/* In the carry-less kernels the register r and G are held least significant
 * word first, so the product q * G[i] lands on words i and i + 1. */

/* r ^= the low w words of q * G, one word at a time. */
__attribute__((target("pclmul"))) static inline void add_multiple(uint64_t *r, const uint64_t *G,
                                                                  size_t w, uint64_t q)
{
    uint64_t carry = 0;
    for (size_t i = 0; i < w; i++) {
        __m128i p = clmul(q, G[i]);
        r[i] ^= lo64(p) ^ carry;
        carry = hi64(p);
    }
}

/* r = the low w words of r * x^64 ^ q * G, two words at a time.  In each pair
 * the product with the even word of G is in place; the product with the odd
 * word and the register's own words move up one word, together. */
__attribute__((target("pclmul"))) static inline void shift_add_clmul(uint64_t *r,
                                                                     const uint64_t *G,
                                                                     size_t w, uint64_t q)
{
    const __m128i qv = _mm_cvtsi64_si128((long long)q);
    __m128i below = _mm_setzero_si128(); /* the last pair's words to move up */
    size_t i = 0;
    for (; i + 2 <= w; i += 2) {
        __m128i g = _mm_loadu_si128((const __m128i *)(G + i)), *p = (__m128i *)(r + i);
        __m128i up = _mm_xor_si128(_mm_loadu_si128(p), _mm_clmulepi64_si128(qv, g, 0x10));
        __m128i moved = _mm_castpd_si128(_mm_shuffle_pd(_mm_castsi128_pd(below),
                                                        _mm_castsi128_pd(up), 1));
        _mm_storeu_si128(p, _mm_xor_si128(_mm_clmulepi64_si128(qv, g, 0x00), moved));
        below = up;
    }
    if (i < w)
        r[i] = lo64(clmul(q, G[i])) ^ hi64(below);
}

/* The same eight words at a time: one VPCLMULQDQ for the even words of G and
 * one for the odd, one align across the block boundary to move up a word.
 * Whole blocks are read and written: r and G have room for them, G is zero
 * past w in the table, so words past w take no part in the low w. */
VPCLMUL static inline void shift_add_vpclmul(uint64_t *r, const uint64_t *G, size_t w,
                                             uint64_t q)
{
    const __m512i qv = _mm512_set1_epi64((long long)q);
    __m512i below = _mm512_setzero_si512();
    for (size_t i = 0; i < w; i += 8) {
        __m512i g = _mm512_loadu_si512(G + i);
        __m512i up = _mm512_xor_si512(_mm512_loadu_si512(r + i),
                                      _mm512_clmulepi64_epi128(qv, g, 0x10));
        _mm512_storeu_si512(r + i, _mm512_xor_si512(_mm512_clmulepi64_epi128(qv, g, 0x00),
                                                     _mm512_alignr_epi64(up, below, 7)));
        below = up;
    }
}

typedef void shift_add_fn(uint64_t *r, const uint64_t *G, size_t w, uint64_t q);

/* The block step, on the vpclmul path only.  With the register r and a block
 * M of B codeword words, both least significant word first, and
 * T = r * x^(64(B - w)) + M, the new register r * x^(64B) + M * x^(64w)
 * mod g * x^pad is T * x^(64w) mod g * x^pad: with the Barrett quotient
 * Q = the low w words of T + (T * mu' >> 64B), it is the low w words of
 * Q * G, G = (g - x^d) * x^pad.  Only the product words that reach Q and
 * the new r are formed. */

/* Blocks o_lo <= o < o_hi of the product a * c into out, eight words each;
 * a has n words, and c is nc blocks with seven zero words below them.  Copy
 * s of c, c shifted up s words, has its block j at c + 8j - s, one unaligned
 * load.  Word a[8i + s] times block j of copy s lands lane-aligned in block
 * i + j: the even words of each block through VPCLMULQDQ 0x00, the odd ones
 * through 0x10 and one word further up, which one valignq per block
 * applies.  Block o_lo takes no odd words from the block below it, so its
 * lowest word is short unless o_lo is 0.  Two products at a time go into
 * each sum by one three-way XOR. */
VPCLMUL static inline void product_vpclmul(uint64_t *out, const uint64_t *a, size_t n,
                                           const uint64_t *c, size_t nc, size_t o_lo,
                                           size_t o_hi)
{
    __m512i below = _mm512_setzero_si512();
    for (size_t o = o_lo; o < o_hi; o++) {
        __m512i even = _mm512_setzero_si512(), odd = _mm512_setzero_si512();
        for (size_t i = o < nc ? 0 : o - nc + 1; i <= o && 8 * i < n; i++) {
            const uint64_t *block = c + 8 * (o - i), *word = a + 8 * i;
            size_t words = n - 8 * i < 8 ? n - 8 * i : 8, s = 0;
            for (; s + 2 <= words; s += 2) {
                __m512i t0 = _mm512_set1_epi64((long long)word[s]);
                __m512i t1 = _mm512_set1_epi64((long long)word[s + 1]);
                __m512i c0 = _mm512_loadu_si512(block - s);
                __m512i c1 = _mm512_loadu_si512(block - s - 1);
                even = _mm512_ternarylogic_epi64(even, _mm512_clmulepi64_epi128(t0, c0, 0x00),
                                                 _mm512_clmulepi64_epi128(t1, c1, 0x00), 0x96);
                odd = _mm512_ternarylogic_epi64(odd, _mm512_clmulepi64_epi128(t0, c0, 0x10),
                                                _mm512_clmulepi64_epi128(t1, c1, 0x10), 0x96);
            }
            if (s < words) {
                __m512i t = _mm512_set1_epi64((long long)word[s]);
                __m512i copy = _mm512_loadu_si512(block - s);
                even = _mm512_xor_si512(even, _mm512_clmulepi64_epi128(t, copy, 0x00));
                odd = _mm512_xor_si512(odd, _mm512_clmulepi64_epi128(t, copy, 0x10));
            }
        }
        _mm512_storeu_si512(out + 8 * (o - o_lo),
                            _mm512_xor_si512(even, _mm512_alignr_epi64(odd, below, 7)));
        below = odd;
    }
}

/* r = the low w words of T * x^(64w) mod g * x^pad, for T of n <= B words;
 * r has room for whole blocks.  mu' is stored one word up: B is a multiple
 * of 8, and word B of T * mu', the lowest that reaches Q, would otherwise be
 * the short lowest word of a block.  The low w words of Q * G read only G's
 * first (w + 7) / 8 blocks. */
VPCLMUL __attribute__((noinline, noclone)) static void
block_step_vpclmul(uint64_t *r, const uint64_t *table, const uint64_t *T, size_t n)
{
    size_t w = table[0], o_lo = (B + 1) / 8, o_hi = (B + w) / 8 + 1;
    uint64_t P[8 * (o_hi - o_lo)], Q[w];
    product_vpclmul(P, T, n, table + MU_AT(w), MU_BLOCKS, o_lo, o_hi);
    for (size_t k = 0; k < w; k++)
        Q[k] = T[k] ^ P[B + 1 - 8 * o_lo + k];
    product_vpclmul(r, Q, w, table + G_AT, (w + 7) / 8, 0, (w + 7) / 8);
}

/* M = the codewords of 64 bytes as nine words, least significant first, the
 * first codeword highest.  Each 8 bytes give 72 bits from eight independent
 * loads; group 7 - j lands in word j, shifted up 8j bits, and its top bits
 * spill into word j + 1. */
VPCLMUL static inline void pack_vpclmul(uint64_t *M, const uint16_t *cw, const uint8_t *data)
{
    uint64_t spill = 0;
#pragma GCC unroll 8
    for (unsigned j = 0; j < 8; j++) {
        const uint8_t *b = data + 8 * (7 - j);
        uint64_t lo = (uint64_t)cw[b[0]] << 63 | (uint64_t)cw[b[1]] << 54 |
                      (uint64_t)cw[b[2]] << 45 | (uint64_t)cw[b[3]] << 36 |
                      (uint64_t)cw[b[4]] << 27 | (uint64_t)cw[b[5]] << 18 |
                      (uint64_t)cw[b[6]] << 9 | cw[b[7]];
        unsigned __int128 group = ((unsigned __int128)(cw[b[0]] >> 1) << 64 | lo) << 8 * j;
        M[j] = spill | (uint64_t)group;
        spill = (uint64_t)(group >> 64);
    }
    M[8] = spill;
}

/* Absorb one block of BLOCK_BYTES into r, the register least significant
 * word first. */
VPCLMUL static inline void pack_and_step_vpclmul(uint64_t *r, const uint64_t *table,
                                                 const uint16_t *cw, const uint8_t *data)
{
    size_t w = table[0];
    uint64_t T[B];
    for (size_t c = 0; c < B / 9; c++)
        pack_vpclmul(T + B - 9 * (c + 1), cw, data + 64 * c); /* first 64 bytes highest */
    for (size_t k = 0; k < w; k++)
        T[B - w + k] ^= r[k];
    block_step_vpclmul(r, table, T, B);
}

typedef void absorb_block_fn(uint64_t *r, const uint64_t *table, const uint16_t *cw,
                             const uint8_t *data);

/* The carry-less kernels' shared loop, no table of rows.  The table holds
 * w, mu = floor(x^(d+64) / g) - x^64 and, from word G_AT, G; reg is copied
 * into r least significant word first.  With absorb_block (vpclmul only),
 * whole blocks of BLOCK_BYTES go through the block step first.  The rest
 * of the codewords are packed into 64-bit words c, first codeword highest.  Per
 * word, t = r[w - 1] ^ c and q = floor(t * x^d / g) = t ^ clmul_hi(t, mu)
 * (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ", Intel 2009); the register moves up one word and takes the low
 * w words of q * G.  A last b < 64 bits take the same step with q cut to b
 * bits and a b-bit shift in place of the word move. */
__attribute__((target("pclmul"), always_inline)) static inline void
absorb_carryless(uint64_t *restrict reg, const uint64_t *restrict table, const uint16_t *cw,
                 const uint8_t *data, size_t n, uint64_t *restrict r, shift_add_fn *shift_add,
                 absorb_block_fn *absorb_block)
{
    const size_t w = table[0];
    const uint64_t mu = table[1], *G = table + G_AT;
    for (size_t i = 0; i < w; i++)
        r[i] = reg[w - 1 - i];
    if (absorb_block)
        for (; n >= BLOCK_BYTES; n -= BLOCK_BYTES, data += BLOCK_BYTES)
            absorb_block(r, table, cw, data);
    uint64_t acc = 0; /* codeword bits not yet in a word, right-aligned */
    unsigned held = 0; /* how many: 0 to 63 */
    for (size_t k = 0; k < n; k++) {
        uint64_t c = cw[data[k]];
        if (held + 9 < 64) {
            acc = acc << 9 | c;
            held += 9;
            continue;
        }
        held -= 55; /* bits of c left over once the word is full: 0 to 8 */
        uint64_t q = quotient(r[w - 1] ^ (acc << (9 - held) | c >> held), mu, 64);
        acc = c & ((UINT64_C(1) << held) - 1);
        shift_add(r, G, w, q);
    }
    if (held) {
        uint64_t q = quotient(r[w - 1] ^ acc << (64 - held), mu, held);
        for (size_t i = w - 1; i > 0; i--)
            r[i] = r[i] << held | r[i - 1] >> (64 - held);
        r[0] <<= held;
        add_multiple(r, G, w, q);
    }
    for (size_t i = 0; i < w; i++)
        reg[i] = r[w - 1 - i];
}

__attribute__((target("pclmul"))) void absorb_clmul(uint64_t *restrict reg,
                                                    const uint64_t *restrict table,
                                                    const uint16_t *cw, const uint8_t *data,
                                                    size_t n)
{
    uint64_t r[table[0]];
    absorb_carryless(reg, table, cw, data, n, r, shift_add_clmul, NULL);
}

/* Whole blocks first, then the word step. */
VPCLMUL void absorb_vpclmul(uint64_t *restrict reg, const uint64_t *restrict table,
                            const uint16_t *cw, const uint8_t *data, size_t n)
{
    /* whole 8-word blocks, unmasked: a masked store does not forward to the
     * next word's load of r[w - 1], which cost a third of the rate at 1744 bits */
    uint64_t r[(table[0] + 7) & ~(size_t)7];
    memset(r, 0, sizeof r);
    absorb_carryless(reg, table, cw, data, n, r, shift_add_vpclmul, pack_and_step_vpclmul);
}

/* mu' into a carry-less table whose tail is zero.
 * x^(d + 64B) = g * x^(64B) + (g - x^d) * x^(64B), so mu' is
 * floor((g - x^d) * x^(64B) / g): the B quotients of the word step from the
 * register r = G through B zero words, the first one highest.  PCLMULQDQ
 * alone, so every carry-less table is built the same on either kernel. */
__attribute__((target("pclmul"))) void fill_carryless(uint64_t *table)
{
    size_t w = table[0];
    uint64_t r[w], *mu = table + MU_AT(w) + 1;
    memcpy(r, table + G_AT, sizeof r);
    for (size_t i = 0; i < B; i++) {
        uint64_t q = quotient(r[w - 1], table[1], 64);
        shift_add_clmul(r, table + G_AT, w, q);
        mu[B - 1 - i] = q;
    }
}

/* reg = reg * k * x^d + s mod g, all three laid out like the register.  With
 * k = K_j = x^(9 * 2^j - 2pad - d) mod g that is reg * x^(9 * 2^j) + s: the
 * register moved past 2^j more bytes.  With reg = k = K_j and s = 0 it is
 * K_(j+1).  The 2w-word product reg * k, schoolbook with scalar PCLMULQDQ,
 * is fed through the word step from a zero register, which leaves it times
 * x^d mod g. */
__attribute__((target("pclmul"))) void combine_clmul(uint64_t *reg,
                                                     const uint64_t *restrict table,
                                                     const uint64_t *k, const uint64_t *s)
{
    const size_t w = table[0];
    uint64_t r[w], k_lsw[w + 1], p[2 * w]; /* k with a zero word on top; the product */
    for (size_t i = 0; i < w; i++) {
        k_lsw[i] = k[w - 1 - i];
        r[i] = 0;
    }
    k_lsw[w] = 0;
    memset(p, 0, sizeof p);
    for (size_t i = 0; i < w; i++)
        add_multiple(p + i, k_lsw, w + 1, reg[w - 1 - i]);
    for (size_t i = 2 * w; i-- > 0;)
        shift_add_clmul(r, table + G_AT, w, quotient(r[w - 1] ^ p[i], table[1], 64));
    for (size_t i = 0; i < w; i++)
        reg[i] = r[w - 1 - i] ^ s[i];
}

/* The same on the block machinery: the product through product_vpclmul with
 * one copy of k, least significant word first after seven zero words and
 * zero-padded to whole blocks, then one block step: w <= B / 2, so the
 * 2w-word product is one block. */
VPCLMUL void combine_vpclmul(uint64_t *reg, const uint64_t *restrict table, const uint64_t *k,
                             const uint64_t *s)
{
    size_t w = table[0], n_k = (w + 14) / 8, n_p = (2 * w + 7) / 8;
    uint64_t a[w], k_lsw[7 + 8 * n_k], T[8 * n_p], r[(w + 7) & ~(size_t)7];
    memset(k_lsw, 0, sizeof k_lsw);
    memset(T, 0, sizeof T); /* product_vpclmul fills it, but gcc warns it may not */
    for (size_t i = 0; i < w; i++) {
        a[i] = reg[w - 1 - i];
        k_lsw[7 + i] = k[w - 1 - i];
    }
    product_vpclmul(T, a, w, k_lsw + 7, n_k, 0, n_p);
    block_step_vpclmul(r, table, T, 2 * w);
    for (size_t i = 0; i < w; i++)
        reg[i] = r[w - 1 - i] ^ s[i];
}

/* The worker: one thread per process, started by the first split and
 * restarted in a forked child, whose pid differs.  A split chunk of n bytes
 * is cut into [H1 | H2 | T], H2 and T q bytes each.  One caller at a time
 * owns the worker, by the atomic flag owned, and posts it the job: the
 * worker continues a copy of the register through H1, then H2, while the
 * caller absorbs T into a zeroed register s and returns, free to do other
 * work until it joins the split.  A caller that finds the worker owned runs
 * the plain loop instead.  The flag is not a mutex because the join that
 * releases it may run on another thread than the post.
 *
 * Whichever side comes to H2 first claims it, by the atomic flag second: a
 * caller that joins before the worker is done with H1 takes H2 into a
 * zeroed register of its own, as a thief takes the unstarted tail of a
 * victim's work (Blumofe & Leiserson, JACM 1999), and moves it past T with
 * s added, one combine with K_j, while the worker finishes H1.  If the
 * worker has not started H1 by then, the caller takes H1 back too, so a
 * worker that another process keeps off the CPU costs one thread and two
 * combines.  Claiming H2 before looking for the worker gives it T and
 * H2, half the chunk as in an even split, to start in.  The worker, done
 * with its parts, moves its register past the rest of the chunk by one
 * combine with a zero register, with K_j after H2 or K_(j+1) after H1
 * alone, so a join that finds it done only adds the two registers: each
 * side makes one combine, and neither waits on the other's.  In a forked
 * child no worker has the job: the child's flags are reset at the fork and
 * its join takes the job all back.  The engine's register is written at
 * the join only.
 *
 * A join waits for a started worker by spinning on pause a while, then by
 * sleeping on wake: with a busy process on the other CPU, yielding the CPU
 * there gave it to that process for a whole time slice, ~4 ms a join.  The
 * job is written before a release store of state and read after the
 * worker's acquire exchange from POSTED to RUNNING; its register, after the
 * worker's release store of IDLE and the caller's acquire load of it.  The
 * worker waits for a job by yielding the CPU a while, then sleeping on
 * wake: pause in place of sched_yield there ran 3x slower than one thread
 * when another busy process shared the two CPUs.  This code is compiled
 * for the baseline instruction set: it reaches the kernels only through
 * pointers. */
typedef void absorb_fn(uint64_t *restrict reg, const uint64_t *restrict table, const uint16_t *cw,
                       const uint8_t *data, size_t n);
typedef void combine_fn(uint64_t *reg, const uint64_t *restrict table, const uint64_t *k,
                        const uint64_t *s);

/* One split chunk, [H1 | H2 | T], from its post to its join: work is the
 * register the worker continues through H1 (n1 bytes) and H2, s the
 * caller's from T; k is K_j and k2 K_(j+1); pid is the process whose worker
 * has the job, 0 once it is joined or if the caller absorbed the whole
 * chunk at the post. */
struct split {
    absorb_fn *absorb;
    combine_fn *combine;
    uint64_t *reg;
    const uint64_t *table, *k, *k2;
    const uint16_t *cw;
    const uint8_t *data;
    size_t n1, q;
    pid_t pid;
    uint64_t work[MAX_WORDS], s[MAX_WORDS];
};

/* IDLE, POSTED by the caller, then RUNNING once the worker takes the job,
 * or IDLE again if the caller takes it back. */
enum { IDLE, POSTED, RUNNING };
/* about 400 us of sched_yield: long enough to catch the next chunk of a stream */
#define SPINS 1000
/* the join's spin: 4096 pauses, 60-200 us, before it sleeps */
#define PAUSES 4096

static atomic_int owned; /* whether a caller owns the worker */
static atomic_int second; /* whether a side has claimed the posted job's H2 */
static pthread_mutex_t lock; /* with wake, for a side that has stopped spinning */
static pthread_cond_t wake;
static atomic_int state;
static pid_t worker_pid; /* the process the worker runs in; 0 before the first split */
static struct split *job;
static const uint64_t zero[MAX_WORDS];

static void set_state(int value)
{
    pthread_mutex_lock(&lock);
    atomic_store_explicit(&state, value, memory_order_release);
    pthread_mutex_unlock(&lock);
    pthread_cond_broadcast(&wake);
}

/* Sleep on wake until state is value. */
static void sleep_for(int value)
{
    pthread_mutex_lock(&lock);
    while (atomic_load_explicit(&state, memory_order_acquire) != value)
        pthread_cond_wait(&wake, &lock);
    pthread_mutex_unlock(&lock);
}

/* The worker's wait for a job. */
static void wait_for(int value)
{
    for (int i = 0; i < SPINS; i++) {
        if (atomic_load_explicit(&state, memory_order_acquire) == value)
            return;
        sched_yield();
    }
    sleep_for(value);
}

/* The join's wait for the worker to finish its job. */
static void wait_idle(void)
{
    for (int i = 0; i < PAUSES; i++) {
        if (atomic_load_explicit(&state, memory_order_acquire) == IDLE)
            return;
        __builtin_ia32_pause();
    }
    sleep_for(IDLE);
}

/* Whether this side is the first to claim the posted job's H2. */
static int claim_second(void)
{
    return !atomic_exchange_explicit(&second, 1, memory_order_relaxed);
}

static void *work(void *unused)
{
    (void)unused;
    for (;;) {
        wait_for(POSTED);
        int posted = POSTED;
        if (!atomic_compare_exchange_strong_explicit(&state, &posted, RUNNING, memory_order_acquire,
                                                     memory_order_relaxed))
            continue; /* the caller took the job back */
        struct split *sp = job;
        sp->absorb(sp->work, sp->table, sp->cw, sp->data, sp->n1);
        if (claim_second()) { /* H2, then past T */
            sp->absorb(sp->work, sp->table, sp->cw, sp->data + sp->n1, sp->q);
            sp->combine(sp->work, sp->table, sp->k, zero);
        } else /* the caller took H2: past H2 and T */
            sp->combine(sp->work, sp->table, sp->k2, zero);
        set_state(IDLE);
    }
    return NULL;
}

/* A forked child has no worker yet, and none of its splits owns one. */
static void forked_child(void)
{
    atomic_store_explicit(&owned, 0, memory_order_relaxed);
    atomic_store_explicit(&state, IDLE, memory_order_relaxed);
}

/* Whether this process's worker runs, starting it if not; called by the
 * caller that owns it. */
static int start_worker(void)
{
    pid_t pid = getpid();
    if (worker_pid == pid)
        return 1;
    if (!worker_pid && pthread_atfork(NULL, NULL, forked_child))
        return 0;
    pthread_mutex_init(&lock, NULL);
    pthread_cond_init(&wake, NULL);
    /* signals are for the caller's threads: the worker starts with all blocked */
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    pthread_t thread;
    int failed = pthread_create(&thread, NULL, work, NULL);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    if (failed)
        return 0;
    pthread_detach(thread);
    worker_pid = pid;
    return 1;
}

/* Absorb n bytes of data into reg as a split with H2 and T q bytes each,
 * 2q <= n; k is K_j for q = 2^j, and k2 K_(j+1).  Returns 1 with the job
 * pending until split_join, which writes reg; 0 if this thread absorbed all
 * n bytes into reg, the worker being owned or unable to start.  The buffers
 * stay in place until the join. */
static int split_post(struct split *sp, absorb_fn *absorb, combine_fn *combine, uint64_t *reg,
                      const uint64_t *table, const uint16_t *cw, const uint8_t *data, size_t n,
                      size_t q, const uint64_t *k, const uint64_t *k2)
{
    size_t w = table[0];
    sp->absorb = absorb;
    sp->combine = combine;
    sp->reg = reg;
    sp->table = table;
    sp->k = k;
    sp->k2 = k2;
    sp->cw = cw;
    sp->data = data;
    sp->n1 = n - 2 * q;
    sp->q = q;
    sp->pid = 0;
    if (!atomic_exchange_explicit(&owned, 1, memory_order_acquire)) {
        if (start_worker()) {
            memcpy(sp->work, reg, 8 * w);
            sp->pid = worker_pid;
            job = sp;
            atomic_store_explicit(&second, 0, memory_order_relaxed);
            set_state(POSTED);
            memset(sp->s, 0, 8 * w);
            absorb(sp->s, table, cw, data + n - q, q);
            return 1;
        }
        atomic_store_explicit(&owned, 0, memory_order_release);
    }
    absorb(reg, table, cw, data, n);
    return 0;
}

/* Finish a posted split into its reg, from any thread.  Returns how many of
 * H1 and H2 the worker absorbed for it: 2, 1 (this thread took H2) or 0
 * (this thread ran both); a split already joined, or never posted, is left
 * as it is and gives 0. */
int split_join(struct split *sp)
{
    if (!sp->pid)
        return 0;
    size_t w = sp->table[0];
    uint64_t rest[w]; /* the register of what follows the worker's parts: H2 and T, or T */
    int forked = sp->pid != getpid(), took = forked || claim_second(), parts = 0, seen = POSTED;
    if (took) {
        memset(rest, 0, sizeof rest);
        sp->absorb(rest, sp->table, sp->cw, sp->data + sp->n1, sp->q);
        sp->combine(rest, sp->table, sp->k, sp->s);
    } else
        memcpy(rest, sp->s, sizeof rest);
    if (!forked) {
        if (!atomic_compare_exchange_strong_explicit(&state, &seen, IDLE, memory_order_relaxed,
                                                     memory_order_relaxed)) {
            wait_idle(); /* the worker has started */
            parts = took ? 1 : 2;
        }
        atomic_store_explicit(&owned, 0, memory_order_release);
    }
    sp->pid = 0;
    if (parts) {
        for (size_t i = 0; i < w; i++)
            sp->reg[i] = sp->work[i] ^ rest[i];
    } else { /* this thread runs H1 too, and took H2 */
        sp->absorb(sp->reg, sp->table, sp->cw, sp->data, sp->n1);
        sp->combine(sp->reg, sp->table, sp->k2, rest);
    }
    return parts;
}

int absorb_split_clmul(struct split *sp, uint64_t *reg, const uint64_t *table, const uint16_t *cw,
                       const uint8_t *data, size_t n, size_t q, const uint64_t *k,
                       const uint64_t *k2)
{
    return split_post(sp, absorb_clmul, combine_clmul, reg, table, cw, data, n, q, k, k2);
}

int absorb_split_vpclmul(struct split *sp, uint64_t *reg, const uint64_t *table,
                         const uint16_t *cw, const uint8_t *data, size_t n, size_t q,
                         const uint64_t *k, const uint64_t *k2)
{
    return split_post(sp, absorb_vpclmul, combine_vpclmul, reg, table, cw, data, n, q, k, k2);
}
#endif

/* Which carry-less kernels are compiled in and this CPU can run: 0 neither,
 * 1 absorb_clmul, 2 absorb_clmul and absorb_vpclmul. */
int carryless(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("pclmul"))
        return 0;
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("vpclmulqdq") ? 2 : 1;
#else
    return 0;
#endif
}
