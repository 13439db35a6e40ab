/* Native direct-form absorb loop for badderlocks.fastcrc, loaded through ctypes.
 *
 * A degree-d register is held in w = ceil(d / 64) words, most significant
 * word first, shifted up by pad = 64w - d bits so its top 9 bits are bits
 * 55-63 of word 0.  Reduction rows are stored the same way, 512 rows of w
 * words each.  The word loop runs forward, most significant word first: gcc
 * -O3 vectorises that order.
 */
#include <stddef.h>
#include <stdint.h>

/* One cycle per byte: XOR the top 9 bits with cw[byte], shift up 9, add the row. */
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
