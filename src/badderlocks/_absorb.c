/* Native direct-form absorb loops for badderlocks.fastcrc, loaded through ctypes.
 *
 * A degree-d register is passed in w = ceil(d / 64) words, most significant
 * word first, shifted up by pad = 64w - d bits so its top 9 bits are bits
 * 55-63 of word 0.  Every loop leaves it holding prefix * x^d mod g after
 * every call, whatever the number of bytes.
 *
 * Three loops: absorb, a 512-row table walk that any CPU runs, and on x86-64
 * two table-free carry-less kernels with one shared driver, absorb_clmul
 * (PCLMULQDQ, two words of each product per instruction pair) and
 * absorb_vpclmul (VPCLMULQDQ on AVX-512F, eight words per pair).  Each carry-less kernel is compiled for its own
 * instruction set through target attributes, never -march=native, so no
 * AVX-512 instruction reaches code that a PCLMULQDQ-only CPU runs; carryless()
 * reports which kernels this CPU can run.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Table kernel.  Reduction rows are stored like the register, 512 rows of w
 * words each.  One cycle per byte: XOR the top 9 bits with cw[byte], shift up
 * 9, add the row.  The word loop runs forward, most significant word first:
 * gcc -O3 vectorises that order. */
void absorb(uint64_t *restrict reg, size_t w, const uint64_t *restrict rows,
            const uint16_t *cw, const uint8_t *data, size_t n)
{
    for (size_t k = 0; k < n; k++) {
        const uint64_t *restrict row = rows + ((reg[0] >> 55) ^ cw[data[k]]) * w;
        for (size_t i = 0; i + 1 < w; i++)
            reg[i] = (reg[i] << 9 | reg[i + 1] >> 55) ^ row[i];
        reg[w - 1] = reg[w - 1] << 9 ^ row[w - 1];
    }
}

/* Build rows[v] = rows[v & (v - 1)] ^ rows[lowest bit of v] in place; the
 * caller sets rows[0] to zero and rows[1 << j] to the 9 basis rows, which
 * the recurrence leaves as they are. */
void fill(uint64_t *rows, size_t w)
{
    for (size_t v = 1; v < 512; v++) {
        size_t low = v & (v - 1);
        for (size_t i = 0; i < w; i++)
            rows[v * w + i] = rows[low * w + i] ^ rows[(v ^ low) * w + i];
    }
}

#if defined(__x86_64__)
#include <immintrin.h>

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
 * past w, so words past w take no part in the low w. */
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

/* The carry-less kernels' shared loop, no table.  consts holds
 * mu = floor(x^(d+64) / g) - x^64, then G = (g - x^d) * x^pad in w words laid
 * out like reg; both are copied into r and G_lsw least significant word
 * first.  Codewords are packed into 64-bit words c, first codeword highest.
 * Per word, t = r[w - 1] ^ c and q = floor(t * x^d / g) = t ^ clmul_hi(t, mu)
 * (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ", Intel 2009); the register moves up one word and takes the low
 * w words of q * G.  A last b < 64 bits take the same step with q cut to b
 * bits and a b-bit shift in place of the word move. */
__attribute__((target("pclmul"), always_inline)) static inline void
absorb_carryless(uint64_t *restrict reg, size_t w, const uint64_t *restrict consts,
                 const uint16_t *cw, const uint8_t *data, size_t n, uint64_t *restrict G_lsw,
                 uint64_t *restrict r, shift_add_fn *shift_add)
{
    const uint64_t mu = consts[0];
    for (size_t i = 0; i < w; i++) {
        G_lsw[i] = consts[w - i];
        r[i] = reg[w - 1 - i];
    }
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
        shift_add(r, G_lsw, w, q);
    }
    if (held) {
        uint64_t q = quotient(r[w - 1] ^ acc << (64 - held), mu, held);
        for (size_t i = w - 1; i > 0; i--)
            r[i] = r[i] << held | r[i - 1] >> (64 - held);
        r[0] <<= held;
        add_multiple(r, G_lsw, w, q);
    }
    for (size_t i = 0; i < w; i++)
        reg[i] = r[w - 1 - i];
}

__attribute__((target("pclmul"))) void absorb_clmul(uint64_t *restrict reg, size_t w,
                                                    const uint64_t *restrict consts,
                                                    const uint16_t *cw, const uint8_t *data,
                                                    size_t n)
{
    uint64_t G_lsw[w], r[w];
    absorb_carryless(reg, w, consts, cw, data, n, G_lsw, r, shift_add_clmul);
}

VPCLMUL void absorb_vpclmul(uint64_t *restrict reg, size_t w, const uint64_t *restrict consts,
                            const uint16_t *cw, const uint8_t *data, size_t n)
{
    /* whole 8-word blocks, unmasked: a masked store does not forward to the
     * next word's load of r[w - 1], which cost a third of the rate at 1744 bits */
    uint64_t G_lsw[(w + 7) & ~(size_t)7], r[(w + 7) & ~(size_t)7];
    memset(G_lsw, 0, sizeof G_lsw);
    memset(r, 0, sizeof r);
    absorb_carryless(reg, w, consts, cw, data, n, G_lsw, r, shift_add_vpclmul);
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
