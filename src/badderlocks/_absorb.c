/* Native direct-form absorb loops for badderlocks.fastcrc, loaded through ctypes.
 *
 * A degree-d register is held in w = ceil(d / 64) words, most significant
 * word first, shifted up by pad = 64w - d bits so its top 9 bits are bits
 * 55-63 of word 0.  Both loops leave it holding prefix * x^d mod g after
 * every call, whatever the number of bytes.
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

#define SLIDE 64 /* word steps between two moves of the register back to the buffer's start */

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

/* reg ^= the low w words of q * G, both most significant word first.  Word j
 * takes lo(q * G[j]) ^ hi(q * G[j + 1]); the loop does two words at a time. */
__attribute__((target("pclmul"))) static inline void add_multiple(uint64_t *reg,
                                                                  const uint64_t *G,
                                                                  size_t w, uint64_t q)
{
    const __m128i qv = _mm_cvtsi64_si128((long long)q);
    __m128i p = clmul(q, G[0]); /* its high word is above the register and cancels */
    size_t j = 0;
    for (; j + 2 < w; j += 2) {
        __m128i g = _mm_loadu_si128((const __m128i *)(G + j + 1));
        __m128i p1 = _mm_clmulepi64_si128(qv, g, 0x00), p2 = _mm_clmulepi64_si128(qv, g, 0x10);
        __m128i *r = (__m128i *)(reg + j);
        _mm_storeu_si128(r, _mm_xor_si128(_mm_loadu_si128(r),
                                          _mm_xor_si128(_mm_unpacklo_epi64(p, p1),
                                                        _mm_unpackhi_epi64(p1, p2))));
        p = p2;
    }
    if (j + 2 == w) {
        __m128i p1 = clmul(q, G[j + 1]);
        reg[j] ^= lo64(p) ^ hi64(p1);
        p = p1;
        j++;
    }
    reg[j] ^= lo64(p);
}

/* Carry-less kernel, no table: consts holds mu = floor(x^(d+64) / g) - x^64,
 * then G = (g - x^d) * x^pad in w words.  Codewords are packed into 64-bit
 * words c, first codeword highest.  Per word, t = reg[0] ^ c and
 * q = floor(t * x^d / g) = t ^ clmul_hi(t, mu) (Gopal et al., "Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009); the
 * register moves up one word and takes the low w words of q * G.  The
 * register is copied into a buffer with SLIDE spare words, so the one-word
 * move is a pointer step.  A last b < 64 bits take the same step with q cut
 * to b bits and a b-bit shift in place of the word move. */
__attribute__((target("pclmul"))) void absorb_clmul(uint64_t *restrict reg, size_t w,
                                                    const uint64_t *restrict consts,
                                                    const uint16_t *cw, const uint8_t *data,
                                                    size_t n)
{
    const uint64_t mu = consts[0], *G = consts + 1;
    uint64_t buf[w + SLIDE];
    uint64_t *r = buf;
    memcpy(r, reg, w * sizeof *r);
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
        uint64_t q = quotient(r[0] ^ (acc << (9 - held) | c >> held), mu, 64);
        acc = c & ((UINT64_C(1) << held) - 1);
        if (r == buf + SLIDE) {
            memmove(buf, r, w * sizeof *r);
            r = buf;
        }
        r++;
        r[w - 1] = 0;
        add_multiple(r, G, w, q);
    }
    if (held) {
        uint64_t q = quotient(r[0] ^ acc << (64 - held), mu, held);
        for (size_t i = 0; i + 1 < w; i++)
            r[i] = r[i] << held | r[i + 1] >> (64 - held);
        r[w - 1] <<= held;
        add_multiple(r, G, w, q);
    }
    memcpy(reg, r, w * sizeof *r);
}
#endif

/* Whether absorb_clmul is compiled in and this CPU can run it. */
int has_pclmul(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul");
#else
    return 0;
#endif
}
