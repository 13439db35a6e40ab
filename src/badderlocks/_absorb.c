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
 * (VPCLMULQDQ on AVX-512F, BW and VBMI, eight words per pair).  Each
 * carry-less kernel is compiled for its own instruction set through target
 * attributes, never -march=native, so no AVX-512 instruction reaches code
 * that a PCLMULQDQ-only CPU runs; carryless() reports which kernels this
 * CPU can run.
 *
 * A carry-less table holds, least significant word first: w, mu, seven zero
 * words, G = (g - x^d) * x^pad zero-padded to whole blocks of eight words,
 * and on vpclmul only the block step's tail: mu' (B words) one word up and
 * G again, each with the family of sums its Karatsuba tiles read (see
 * fill_sums and the block step).  A product eight words at a time reads a
 * constant shifted up s < 8 words by one unaligned load at offset -s, which
 * brings in the zeros or sums around it.
 *
 * Both carry-less kernels reduce one 64-bit word of codewords per Barrett
 * step, and each step's quotient waits on the last one's register.
 * absorb_vpclmul first reduces whole blocks of B = 144 words (1 KiB) with
 * one Barrett step per block, whose quotient Q = T + (T * mu' >> 64B) uses
 * mu' = floor(x^(d + 64B) / g) - x^(64B) (P. Barrett, CRYPTO '86, over
 * GF(2)); the word step takes the rest of the call.  The block step's
 * products T * mu' and Q * G take Karatsuba on square tiles of 2, 4 and 8
 * blocks, by plans that depend on w alone, made when the library loads;
 * its codewords are packed 64 bytes at a time by AVX-512 byte permutations.
 * fill_carryless computes mu' by the word step and both families of sums
 * when a vpclmul table is built.
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
 * supplies in the register layout.  The join tells the caller how it went,
 * so that the caller can size its next q.  On vpclmul every part and the
 * combine take the block step.  The threads are POSIX threads: build with
 * -pthread.
 */
#ifndef _GNU_SOURCE
#define _GNU_SOURCE /* sched_getcpu and thread affinity on Linux; Python.h defines it first */
#endif
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
 * G after w, mu and seven zero words; on vpclmul only, the tail after G's
 * whole blocks of eight words, TAIL_WORDS long.  The tail holds two families
 * of SUMS sequences, one slot each: first mu' one word up in MU_BLOCKS
 * blocks, then G in G_BLOCKS, each followed by the sums Karatsuba reads (see
 * fill_sums).  A slot is eight words below the sequence's origin, room for a
 * load shifted down s < 8 words, then its whole blocks. */
#define G_AT 9
#define TAIL_AT(w) (G_AT + 8 * (((w) + 7) / 8))
enum { LEVELS = 3, SUMS = 1 << LEVELS };
#define MU_BLOCKS ((B + 15) / 8)
#define G_BLOCKS (MAX_WORDS / 8)
#define SLOT(blocks) (8 + 8 * (blocks))
#define MU_AT(w) (TAIL_AT(w) + 8)
#define G_SUMS_AT(w) (MU_AT(w) + SUMS * SLOT(MU_BLOCKS))
#define TAIL_WORDS (SUMS * (SLOT(MU_BLOCKS) + SLOT(G_BLOCKS)))
#define CARRYLESS_WORDS(w) (TAIL_AT(w) + TAIL_WORDS)

/* How a split's join went: the joining thread absorbed H1 and H2 (TOOK_ALL),
 * or H2 while the worker ran H1 (TOOK_H2), or the worker ran both, and the
 * join waited for it (WAITED) or found it done (DONE).  A split never
 * posted, or joined already, gives TOOK_ALL. */
enum { TOOK_ALL, TOOK_H2, WAITED, DONE };

typedef void absorb_fn(uint64_t *restrict reg, const uint64_t *restrict table, const uint16_t *cw,
                       const uint8_t *data, size_t n);
typedef void combine_fn(uint64_t *reg, const uint64_t *restrict table, const uint64_t *k,
                        const uint64_t *s);

#if defined(__x86_64__)
#include <immintrin.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <unistd.h>

/* Sequences 1 to SUMS - 1 of a family from its sequence 0, c, of `blocks`
 * blocks, each slot stride words after the last.  Bit b of s moves a copy
 * 2^b blocks down: sequence s is the sum of c moved down 8k words over the
 * sums k of the moves in s, from seven words below its origin, so its block
 * at diagonal j, read as c's is, is the sum of c's blocks at j + k.  Each
 * is its lower sequence s - h, h the top bit of s, plus that sequence moved
 * down h blocks; c is zero below its origin and past its blocks. */
static void fill_sums(uint64_t *c, size_t stride, size_t blocks)
{
    size_t words = 8 * blocks + 7;
    for (size_t s = 1; s < SUMS; s++) {
        size_t h = 1;
        while (2 * h <= s)
            h *= 2;
        const uint64_t *from = c + (s - h) * stride - 7;
        uint64_t *to = c + s * stride - 7;
        for (size_t r = 0; r < words; r++)
            to[r] = from[r] ^ (r + 8 * h < words ? from[r + 8 * h] : 0);
    }
}

#define VPCLMUL __attribute__((target("pclmul,avx512f,avx512bw,avx512vbmi,vpclmulqdq")))

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
 * the new r are formed.
 *
 * A product a * c in blocks of eight words is a block Toeplitz matrix times
 * a: row o, column i holds c's block at diagonal j = o - i.  Word a[8i + s]
 * times the block at j of copy s of c, c shifted up s words, lands
 * lane-aligned in row o: copy s's block j is at c + 8j - s, one unaligned
 * load.  The even words of each block go through VPCLMULQDQ 0x00 into one
 * sum per row, the odd ones through 0x10 into another, which lands one word
 * low, and one valignq per row moves it up.  That 8-by-8 block product is
 * the base case.  Square tiles of 2^L rows, L <= LEVELS, whose entries all
 * lie inside the product take Karatsuba's 3^L block products in place of
 * 4^L (for middle products, Hanrot, Quercia & Zimmermann, AAECC 2004): they
 * read c's family of sums (fill_sums), whose sequence s, bit b of s set,
 * holds c plus c moved down 2^b blocks.  Counted per 1 KiB block step,
 * VPCLMULQDQ fell from 290, 1,208 and 2,726 to 290, 808 and 1,782 at 64,
 * 1744 and 4288 bits. */

/* acc[0] and acc[1], one row's even and odd sums, += the words of x, n of
 * them nonzero, times the block of copies that starts at block.  Two
 * products at a time go into each sum by one three-way XOR. */
VPCLMUL static inline __attribute__((always_inline)) void
block_product(__m512i *acc, const uint64_t *x, size_t n, const uint64_t *block)
{
    __m512i even = acc[0], odd = acc[1];
    size_t words = n < 8 ? n : 8, s = 0;
#pragma GCC unroll 4
    for (; s + 2 <= words; s += 2) {
        __m512i t0 = _mm512_set1_epi64((long long)x[s]);
        __m512i t1 = _mm512_set1_epi64((long long)x[s + 1]);
        __m512i c0 = _mm512_loadu_si512(block - s);
        __m512i c1 = _mm512_loadu_si512(block - s - 1);
        even = _mm512_ternarylogic_epi64(even, _mm512_clmulepi64_epi128(t0, c0, 0x00),
                                         _mm512_clmulepi64_epi128(t1, c1, 0x00), 0x96);
        odd = _mm512_ternarylogic_epi64(odd, _mm512_clmulepi64_epi128(t0, c0, 0x10),
                                        _mm512_clmulepi64_epi128(t1, c1, 0x10), 0x96);
    }
    if (s < words) {
        __m512i t = _mm512_set1_epi64((long long)x[s]);
        __m512i copy = _mm512_loadu_si512(block - s);
        even = _mm512_xor_si512(even, _mm512_clmulepi64_epi128(t, copy, 0x00));
        odd = _mm512_xor_si512(odd, _mm512_clmulepi64_epi128(t, copy, 0x10));
    }
    acc[0] = even;
    acc[1] = odd;
}

/* The sums of a tile's rows, two per row in acc, += the tile, whose
 * top-left entry is block j of sequence s of the family c, slots stride
 * words apart, times its blocks of x. */
typedef void kara_fn(__m512i *acc, const uint64_t *x, const uint64_t *c, size_t stride, size_t s,
                     size_t j);

VPCLMUL static inline __attribute__((always_inline)) void
kara0(__m512i *acc, const uint64_t *x, const uint64_t *c, size_t stride, size_t s, size_t j)
{
    block_product(acc, x, 8, c + s * stride + 8 * j);
}

/* A tile of 2h rows by Karatsuba over tiles of h, lower.  In half tiles
 * the tile is [[S0, S-1], [S1, S0]] and x is (X0, X1): (S-1 + S0) X1 goes
 * into the top half of the rows and (S0 + S1) X0 into the bottom, both half
 * tiles of sequence s + h, at j - h and j, then P = S0 (X0 + X1) into both.
 * P comes last: X0 + X1 is a vector load of x, which may wait for the
 * scalar stores that wrote x, while the other two read x a word at a time. */
VPCLMUL static inline __attribute__((always_inline)) void
karatsuba(__m512i *acc, const uint64_t *x, const uint64_t *c, size_t stride, size_t s, size_t j,
          size_t h, kara_fn *lower)
{
    uint64_t sum[8 * h] __attribute__((aligned(64)));
    __m512i p[2 * h];
    for (size_t b = 0; b < h; b++)
        _mm512_store_si512(sum + 8 * b, _mm512_xor_si512(_mm512_loadu_si512(x + 8 * b),
                                                         _mm512_loadu_si512(x + 8 * (h + b))));
    lower(acc, x + 8 * h, c, stride, s + h, j - h);
    lower(acc + 2 * h, x, c, stride, s + h, j);
    for (size_t k = 0; k < 2 * h; k++)
        p[k] = _mm512_setzero_si512();
    lower(p, sum, c, stride, s, j);
    for (size_t k = 0; k < 2 * h; k++) {
        acc[k] = _mm512_xor_si512(acc[k], p[k]);
        acc[2 * h + k] = _mm512_xor_si512(acc[2 * h + k], p[k]);
    }
}

VPCLMUL static inline __attribute__((always_inline)) void
kara1(__m512i *acc, const uint64_t *x, const uint64_t *c, size_t stride, size_t s, size_t j)
{
    karatsuba(acc, x, c, stride, s, j, 1, kara0);
}

VPCLMUL static inline __attribute__((always_inline)) void
kara2(__m512i *acc, const uint64_t *x, const uint64_t *c, size_t stride, size_t s, size_t j)
{
    karatsuba(acc, x, c, stride, s, j, 2, kara1);
}

VPCLMUL static inline __attribute__((always_inline)) void
kara3(__m512i *acc, const uint64_t *x, const uint64_t *c, size_t stride, size_t s, size_t j)
{
    karatsuba(acc, x, c, stride, s, j, 4, kara2);
}

/* A tile of 2h rows, sequence 0, inlined whole into one function per size,
 * its rows' sums copied into locals that the compiler keeps in registers. */
typedef void tile_fn(__m512i *acc, const uint64_t *x, const uint64_t *c, size_t stride, size_t j);

VPCLMUL static inline __attribute__((always_inline)) void
tile(__m512i *acc, const uint64_t *x, const uint64_t *c, size_t stride, size_t j, size_t h,
     kara_fn *kara)
{
    __m512i rows[4 * h];
    for (size_t k = 0; k < 4 * h; k++)
        rows[k] = acc[k];
    kara(rows, x, c, stride, 0, j);
    for (size_t k = 0; k < 4 * h; k++)
        acc[k] = rows[k];
}

VPCLMUL static void tile1_vpclmul(__m512i *acc, const uint64_t *x, const uint64_t *c,
                                  size_t stride, size_t j)
{
    tile(acc, x, c, stride, j, 1, kara1);
}

VPCLMUL static void tile2_vpclmul(__m512i *acc, const uint64_t *x, const uint64_t *c,
                                  size_t stride, size_t j)
{
    tile(acc, x, c, stride, j, 2, kara2);
}

VPCLMUL static void tile3_vpclmul(__m512i *acc, const uint64_t *x, const uint64_t *c,
                                  size_t stride, size_t j)
{
    tile(acc, x, c, stride, j, 4, kara3);
}

static tile_fn *const tiles[LEVELS + 1] = {NULL, tile1_vpclmul, tile2_vpclmul, tile3_vpclmul};

/* A product's plan: in order, whole tiles of 2^level rows from row o,
 * relative to the first row formed, and column i, and with level 0 the
 * columns i <= col < end of row o, one block product each.  No plan for
 * w <= MAX_WORDS has more than 28 steps. */
enum { PLAN_STEPS = 32 };
struct step {
    uint8_t level, o, i, end;
};
struct plan {
    size_t steps;
    struct step step[PLAN_STEPS];
};

/* The steps of a band of 2^level rows from row o of a * c over columns
 * lo <= i < hi, a of na blocks and c of nc: row o, column i holds c's block
 * at o - i, so 0 <= o - i < nc, or nothing.  The band cuts its columns to
 * those some row of it reaches, takes the whole tiles, all of whose
 * entries lie inside, from the right, then from the left, and leaves the
 * columns between to its two halves; row o_lo of the product is row 0. */
static void plan_band(struct plan *pl, size_t nc, size_t o_lo, size_t o, size_t level, size_t lo,
                      size_t hi)
{
    size_t size = (size_t)1 << level;
    uint8_t row = (uint8_t)(o - o_lo);
    if (o + 1 > nc && lo < o + 1 - nc)
        lo = o + 1 - nc;
    if (hi > o + size)
        hi = o + size;
    if (lo >= hi)
        return;
    if (!level) {
        pl->step[pl->steps++] = (struct step){0, row, (uint8_t)lo, (uint8_t)hi};
        return;
    }
    /* a tile at column i is whole where its top-right diagonal, o - i - size + 1, is at
     * least 0 and its bottom-left one, o - i + size - 1, below nc */
    for (; hi - lo >= size && hi <= o + 1 && o + size - 1 - (hi - size) < nc; hi -= size)
        pl->step[pl->steps++] = (struct step){(uint8_t)level, row, (uint8_t)(hi - size), 0};
    for (; hi - lo >= size && lo + size <= o + 1 && o + size - 1 - lo < nc; lo += size)
        pl->step[pl->steps++] = (struct step){(uint8_t)level, row, (uint8_t)lo, 0};
    plan_band(pl, nc, o_lo, o, level - 1, lo, hi);
    plan_band(pl, nc, o_lo, o + size / 2, level - 1, lo, hi);
}

/* The plan of rows o_lo <= o < o_hi of a * c: bands of up to 2^LEVELS rows. */
static void make_plan(struct plan *pl, size_t na, size_t nc, size_t o_lo, size_t o_hi)
{
    pl->steps = 0;
    for (size_t o = o_lo, level; o < o_hi; o += (size_t)1 << level) {
        for (level = LEVELS; (size_t)1 << level > o_hi - o;)
            level--;
        plan_band(pl, nc, o_lo, o, level, 0, na);
    }
}

/* The rows of a product by its plan into out, eight words each: a has n
 * words in whole blocks, zero past n, and c is sequence 0 of its family,
 * slots stride words apart; row 0 is product block o_lo.  Each row's odd
 * sum moves up a word into it: row 0 takes no odd words from the block
 * below it, so its lowest word is short unless o_lo is 0. */
VPCLMUL static inline __attribute__((always_inline)) void
product_vpclmul(uint64_t *out, const struct plan *pl, const uint64_t *a, size_t n,
                const uint64_t *c, size_t stride, size_t o_lo, size_t rows)
{
    __m512i acc[2 * rows], below = _mm512_setzero_si512();
    for (size_t k = 0; k < 2 * rows; k++)
        acc[k] = below;
    for (size_t k = 0; k < pl->steps; k++) {
        size_t level = pl->step[k].level, r = pl->step[k].o, i = pl->step[k].i, o = o_lo + r;
        if (level)
            tiles[level](acc + 2 * r, a + 8 * i, c, stride, o - i);
        else {
            __m512i row[2] = {acc[2 * r], acc[2 * r + 1]};
            for (; i < pl->step[k].end; i++)
                block_product(row, a + 8 * i, n - 8 * i, c + 8 * (o - i));
            acc[2 * r] = row[0];
            acc[2 * r + 1] = row[1];
        }
    }
    for (size_t r = 0; r < rows; r++) {
        __m512i up = _mm512_alignr_epi64(acc[2 * r + 1], below, 7);
        _mm512_storeu_si512(out + 8 * r, _mm512_xor_si512(acc[2 * r], up));
        below = acc[2 * r + 1];
    }
}

/* The block step's plans for T of B words, by w: T * mu' and Q * G.  They
 * depend on w alone, so they are made once, when the library loads. */
static struct plan mu_plans[MAX_WORDS + 1], g_plans[MAX_WORDS + 1];

__attribute__((constructor)) static void make_block_plans(void)
{
    for (size_t w = 1; w <= MAX_WORDS; w++) {
        make_plan(&mu_plans[w], B / 8, MU_BLOCKS, (B + 1) / 8, (B + w) / 8 + 1);
        make_plan(&g_plans[w], (w + 7) / 8, (w + 7) / 8, 0, (w + 7) / 8);
    }
}

/* r = the low w words of T * x^(64w) mod g * x^pad, for T of n <= B words
 * in whole blocks, zero past n, with mu_plan the plan of T * mu'; r has room
 * for whole blocks.  mu' is stored one word up: B is a multiple of 8, and
 * word B of T * mu', the lowest that reaches Q, would otherwise be the short
 * lowest word of a block.  The low w words of Q * G read only G's first
 * (w + 7) / 8 blocks. */
VPCLMUL __attribute__((noinline, noclone)) static void
block_step_vpclmul(uint64_t *r, const uint64_t *table, const uint64_t *T, size_t n,
                   const struct plan *mu_plan)
{
    size_t w = table[0], o_lo = (B + 1) / 8, rows = (B + w) / 8 + 1 - o_lo, nb = (w + 7) / 8;
    uint64_t P[8 * rows], Q[8 * nb];
    product_vpclmul(P, mu_plan, T, n, table + MU_AT(w), SLOT(MU_BLOCKS), o_lo, rows);
    for (size_t k = 0; k < 8 * nb; k++)
        Q[k] = k < w ? T[k] ^ P[B + 1 - 8 * o_lo + k] : 0;
    product_vpclmul(r, &g_plans[w], Q, w, table + G_SUMS_AT(w), SLOT(G_BLOCKS), 0, nb);
}

/* Absorb one block of BLOCK_BYTES into r, the register least significant
 * word first.  Its codewords are packed 64 bytes at a time into nine words
 * of T, first codeword highest, the first 64 bytes highest.  The bytes
 * look their codewords up in byte tables, low 8 bits and top bit apart,
 * four vectors each (VPERMI2B, two per 128 entries); each 8 bytes are a
 * 72-bit group, their 9-bit codewords joined in pairs by one VPMADDWD, the
 * pairs in fours by shifts, the fours into 64 bits and 8 above; one byte
 * permutation puts the eight groups in place. */
static const uint8_t group_bytes[128] __attribute__((aligned(64))) = {
    120, 121, 122, 123, 124, 125, 126, 127, 112, 56, 57, 58, 59, 60, 61, 62, 63, 48,
    104, 105, 106, 107, 108, 109, 110, 111, 96,  40, 41, 42, 43, 44, 45, 46, 47, 32,
    88,  89,  90,  91,  92,  93,  94,  95,  80,  24, 25, 26, 27, 28, 29, 30, 31, 16,
    72,  73,  74,  75,  76,  77,  78,  79,  64,  8,  9,  10, 11, 12, 13, 14, 15, 0};

/* Four codewords, 16 bits each in a 64-bit lane, first highest, as the 72-bit
 * groups of two lanes: the low 64 bits in the odd lane, the top 8 in the even. */
VPCLMUL static inline __m512i groups(__m512i codewords)
{
    __m512i pairs = _mm512_madd_epi16(codewords, _mm512_set1_epi32(1 << 16 | 512));
    __m512i fours = _mm512_ternarylogic_epi64(_mm512_slli_epi64(pairs, 18),
                                              _mm512_srli_epi64(pairs, 32),
                                              _mm512_set1_epi64((1LL << 36) - 1), 0xEC);
    __m512i low = _mm512_or_si512(
        fours, _mm512_slli_epi64(_mm512_shuffle_epi32(fours, _MM_PERM_BADC), 36));
    return _mm512_mask_blend_epi64(0xAA, _mm512_srli_epi64(fours, 28), low);
}

VPCLMUL static inline void pack_and_step_vpclmul(uint64_t *r, const uint64_t *table,
                                                 const uint16_t *cw, const uint8_t *data)
{
    size_t w = table[0];
    uint64_t T[B];
    __m512i low[4], top[4];
    for (int t = 0; t < 4; t++) {
        __m512i a = _mm512_loadu_si512(cw + 64 * t), b = _mm512_loadu_si512(cw + 64 * t + 32);
        low[t] = _mm512_inserti64x4(_mm512_castsi256_si512(_mm512_cvtepi16_epi8(a)),
                                    _mm512_cvtepi16_epi8(b), 1);
        top[t] = _mm512_inserti64x4(
            _mm512_castsi256_si512(_mm512_cvtepi16_epi8(_mm512_srli_epi16(a, 8))),
            _mm512_cvtepi16_epi8(_mm512_srli_epi16(b, 8)), 1);
    }
    __m512i place = _mm512_load_si512(group_bytes), place_top = _mm512_load_si512(group_bytes + 64);
    for (size_t c = 0; c < B / 9; c++) {
        __m512i d = _mm512_loadu_si512(data + 64 * c);
        __mmask64 high = _mm512_movepi8_mask(d); /* bytes 128-255 */
        __m512i l = _mm512_mask_blend_epi8(high, _mm512_permutex2var_epi8(low[0], d, low[1]),
                                           _mm512_permutex2var_epi8(low[2], d, low[3]));
        __m512i h = _mm512_mask_blend_epi8(high, _mm512_permutex2var_epi8(top[0], d, top[1]),
                                           _mm512_permutex2var_epi8(top[2], d, top[3]));
        /* bytes 0-7 of each 128-bit lane, groups 0, 2, 4 and 6, then 8-15 */
        __m512i even = groups(_mm512_unpacklo_epi8(l, h)), odd = groups(_mm512_unpackhi_epi8(l, h));
        uint64_t *M = T + B - 9 * (c + 1);
        _mm512_storeu_si512(M, _mm512_permutex2var_epi8(even, place, odd));
        _mm_storel_epi64((__m128i *)(M + 8),
                         _mm512_castsi512_si128(_mm512_permutex2var_epi8(even, place_top, odd)));
    }
    for (size_t k = 0; k < w; k++)
        T[B - w + k] ^= r[k];
    block_step_vpclmul(r, table, T, B, &mu_plans[w]);
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

/* mu' and the sums into a vpclmul table whose tail is zero.
 * x^(d + 64B) = g * x^(64B) + (g - x^d) * x^(64B), so mu' is
 * floor((g - x^d) * x^(64B) / g): the B quotients of the clmul word step
 * from the register r = G through B zero words, the first one highest.
 * Then G is copied into its family, and both families take their sums. */
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
    memcpy(table + G_SUMS_AT(w), table + G_AT, sizeof r);
    fill_sums(table + MU_AT(w), SLOT(MU_BLOCKS), MU_BLOCKS);
    fill_sums(table + G_SUMS_AT(w), SLOT(G_BLOCKS), G_BLOCKS);
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
 * k's family of sums, k least significant word first in n_k blocks, the
 * diagonals that reach it, then one block step: w <= B / 2, so the 2w-word
 * product is one block.  Their plans are made here. */
VPCLMUL void combine_vpclmul(uint64_t *reg, const uint64_t *restrict table, const uint64_t *k,
                             const uint64_t *s)
{
    size_t w = table[0], n_k = (w + 14) / 8, n_p = (2 * w + 7) / 8;
    uint64_t a[(w + 7) & ~(size_t)7], sums[SUMS * SLOT(n_k)], T[8 * n_p], r[(w + 7) & ~(size_t)7];
    struct plan k_plan, mu_plan;
    memset(a, 0, sizeof a);
    memset(sums, 0, sizeof sums);
    for (size_t i = 0; i < w; i++) {
        a[i] = reg[w - 1 - i];
        sums[8 + i] = k[w - 1 - i];
    }
    fill_sums(sums + 8, SLOT(n_k), n_k);
    make_plan(&k_plan, (w + 7) / 8, n_k, 0, n_p);
    product_vpclmul(T, &k_plan, a, w, sums + 8, SLOT(n_k), 0, n_p);
    make_plan(&mu_plan, n_p, MU_BLOCKS, (B + 1) / 8, (B + w) / 8 + 1);
    block_step_vpclmul(r, table, T, 2 * w, &mu_plan);
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
 * absorb_fn and combine_fn pointers. */

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
static pthread_t worker; /* that thread, once worker_pid is set */
static atomic_int worker_cpu; /* the CPU the worker last looked for a job on */

/* This thread's CPU, where the system tells it: -1 elsewhere, which never
 * moves the worker (move_worker_off). */
static int this_cpu(void)
{
#if defined(__linux__)
    return sched_getcpu();
#else
    return -1;
#endif
}
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

/* The worker's wait for a job, noting its CPU each time it looks. */
static void wait_for(int value)
{
    for (int i = 0; i < SPINS; i++) {
        atomic_store_explicit(&worker_cpu, this_cpu(), memory_order_relaxed);
        if (atomic_load_explicit(&state, memory_order_acquire) == value)
            return;
        sched_yield();
    }
    sleep_for(value);
    atomic_store_explicit(&worker_cpu, this_cpu(), memory_order_relaxed);
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
    worker = thread;
    worker_pid = pid;
    return 1;
}

/* A worker that last looked for a job on cpu, this thread's, while this
 * thread held that CPU, never started the job it was posted: the scheduler
 * may keep both on it while another CPU idles, for it does not always
 * balance them.  Its affinity mask is narrowed to the other CPUs, which
 * moves it, then given back as it was: never widened, and left alone if it
 * holds one CPU. */
static void move_worker_off(int cpu)
{
#if defined(__linux__)
    cpu_set_t mask, others;
    if (cpu < 0 || atomic_load_explicit(&worker_cpu, memory_order_relaxed) != cpu ||
        pthread_getaffinity_np(worker, sizeof mask, &mask) || !CPU_ISSET(cpu, &mask) ||
        CPU_COUNT(&mask) < 2)
        return;
    others = mask;
    CPU_CLR(cpu, &others);
    if (!pthread_setaffinity_np(worker, sizeof others, &others))
        pthread_setaffinity_np(worker, sizeof mask, &mask);
#else
    (void)cpu;
#endif
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

/* Finish a posted split into its reg, from any thread; returns how it went.
 * A join that takes the job back moves the worker off this CPU if it is
 * stranded there (move_worker_off). */
int split_join(struct split *sp)
{
    if (!sp->pid)
        return TOOK_ALL;
    size_t w = sp->table[0];
    uint64_t rest[w]; /* the register of what follows the worker's parts: H2 and T, or T */
    int forked = sp->pid != getpid(), took = forked || claim_second(), outcome = TOOK_ALL,
        seen = POSTED;
    if (took) {
        memset(rest, 0, sizeof rest);
        sp->absorb(rest, sp->table, sp->cw, sp->data + sp->n1, sp->q);
        sp->combine(rest, sp->table, sp->k, sp->s);
    } else
        memcpy(rest, sp->s, sizeof rest);
    if (!forked) {
        if (atomic_compare_exchange_strong_explicit(&state, &seen, IDLE, memory_order_relaxed,
                                                    memory_order_relaxed))
            move_worker_off(this_cpu());
        else if (took)
            outcome = TOOK_H2;
        else
            outcome = seen == IDLE ? DONE : WAITED;
        if (outcome != TOOK_ALL)
            wait_idle(); /* the worker has started */
        atomic_store_explicit(&owned, 0, memory_order_release);
    }
    sp->pid = 0;
    if (outcome != TOOK_ALL) {
        for (size_t i = 0; i < w; i++)
            sp->reg[i] = sp->work[i] ^ rest[i];
    } else { /* this thread runs H1 too, and took H2 */
        sp->absorb(sp->reg, sp->table, sp->cw, sp->data, sp->n1);
        sp->combine(sp->reg, sp->table, sp->k2, rest);
    }
    return outcome;
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
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
                   __builtin_cpu_supports("avx512vbmi") && __builtin_cpu_supports("vpclmulqdq")
               ? 2
               : 1;
#else
    return 0;
#endif
}
