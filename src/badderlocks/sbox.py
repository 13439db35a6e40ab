"""The 8-bit to 9-bit bounded-Hamming-weight S-box and message expansion.

Every input byte maps to a 9-bit codeword whose bit pattern keeps runs and
Hamming weight bounded, so the downstream CRC never sees long stretches of
identical bits regardless of message content.  Messages shorter than eight
bytes are completed with the filler codeword 71 up to 72 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf2poly import BitPolynomial

__all__ = ["FILLER", "CodewordTable", "candidates_308", "codeword_table", "expand_message"]

FILLER = 71

# The 256 codeword values as inclusive ranges, assigned to input bytes
# 0x00..0xFF in increasing order.
_CODEWORD_RANGES = [
    (69, 70), (73, 78), (81, 94), (98, 110), (113, 118), (120, 122),
    (124, 124), (134, 134), (138, 142), (146, 158), (162, 174), (177, 186),
    (188, 188), (194, 206), (209, 220), (225, 236), (241, 242), (244, 244),
    (267, 267), (269, 270), (275, 286), (291, 302), (305, 317), (323, 323),
    (325, 334), (337, 349), (353, 365), (369, 373), (377, 377), (387, 387),
    (389, 391), (393, 398), (401, 413), (417, 430), (433, 438), (441, 442),
]


def _max_run(v: int, nbits: int = 9) -> int:
    bits = [(v >> (nbits - 1 - i)) & 1 for i in range(nbits)]
    best = run = 1
    for a, b in zip(bits, bits[1:]):
        run = run + 1 if a == b else 1
        best = max(best, run)
    return best


def _leading_run(v: int, nbits: int = 9) -> int:
    first = (v >> (nbits - 1)) & 1
    run = 0
    for i in range(nbits - 1, -1, -1):
        if (v >> i) & 1 != first:
            break
        run += 1
    return run


def _trailing_run(v: int) -> int:
    first = v & 1
    run = 0
    while (v >> run) & 1 == first and run < 9:
        run += 1
    return run


def candidates_308() -> set[int]:
    """All 9-bit values passing the four codeword rules (exactly 308 of them).

    Rules: no run of identical bits longer than 5, at most 2 identical most
    significant bits, at most 3 identical least significant bits, Hamming
    weight between 3 and 6.
    """
    out = set()
    for v in range(512):
        if not 3 <= v.bit_count() <= 6:
            continue
        if _max_run(v) > 5 or _leading_run(v) > 2 or _trailing_run(v) > 3:
            continue
        out.add(v)
    return out


@dataclass(frozen=True)
class CodewordTable:
    """256 strictly increasing 9-bit codewords indexed by input byte, plus filler."""

    entries: tuple[int, ...]
    filler: int = FILLER

    def __post_init__(self):
        if len(self.entries) != 256:
            raise ValueError(f"expected 256 codewords, got {len(self.entries)}")
        if any(b <= a for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError("codewords must be strictly increasing")
        valid = candidates_308()
        bad = set(self.entries) - valid
        if bad:
            raise ValueError(f"codewords outside the candidate set: {sorted(bad)}")
        if self.filler in self.entries:
            raise ValueError("filler codeword must not appear in the table")
        if self.filler not in valid:
            raise ValueError("filler codeword fails the candidate rules")


@lru_cache(maxsize=1)
def codeword_table() -> CodewordTable:
    """The codeword table, validated against the candidate rules on first use."""
    values = []
    for lo, hi in _CODEWORD_RANGES:
        values.extend(range(lo, hi + 1))
    return CodewordTable(entries=tuple(values))


def expand_message(m: bytes) -> BitPolynomial:
    """S-box expansion of a byte string into a message polynomial.

    Codewords concatenate MSB-first (the first byte lands in the highest
    9 coefficients).  Messages shorter than 8 bytes get filler codewords
    appended on the low-order side so the result is exactly 72 bits; longer
    messages expand to 9 bits per byte with no filler.
    """
    entries = codeword_table().entries
    codes = [entries[byte] for byte in m]
    codes.extend([FILLER] * (8 - len(m)))
    # Pack 9-bit codes into bytes through a small bit buffer so the working
    # integer never grows with the message.
    out = bytearray()
    buf = 0
    nbits = 0
    for code in codes:
        buf = ((buf << 9) | code) & 0xFFFF
        nbits += 9
        while nbits >= 8:
            nbits -= 8
            out.append((buf >> nbits) & 0xFF)
    value = int.from_bytes(bytes(out), "big")
    if nbits:
        value = (value << nbits) | (buf & ((1 << nbits) - 1))
    return BitPolynomial(value)
