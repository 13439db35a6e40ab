"""The 8-bit to 9-bit bounded-Hamming-weight S-box and message expansion.

Every input byte maps to a 9-bit codeword whose bit pattern keeps runs and
Hamming weight bounded, so the downstream CRC never sees long stretches of
identical bits regardless of message content.  Messages shorter than eight
bytes are completed with the filler codeword 71 up to 72 bits.
"""

from __future__ import annotations

from functools import lru_cache

from .gf2poly import BitPolynomial, Frozen

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


def candidates_308() -> set[int]:
    """All 9-bit values passing the four codeword rules (exactly 308 of them).

    Rules: no run of identical bits longer than 5, at most 2 identical most
    significant bits, at most 3 identical least significant bits, Hamming
    weight between 3 and 6.
    """
    return {v for v in range(512)
            if "000000" not in (bits := format(v, "09b")) and "111111" not in bits
            and not bits.startswith(("000", "111")) and not bits.endswith(("0000", "1111"))
            and 3 <= v.bit_count() <= 6}


class CodewordTable(Frozen):
    """256 strictly increasing 9-bit codewords indexed by input byte, none of them FILLER."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        if len(entries) != 256:
            raise ValueError(f"expected 256 codewords, got {len(entries)}")
        if any(b <= a for a, b in zip(entries, entries[1:])):
            raise ValueError("codewords must be strictly increasing")
        valid = candidates_308()
        bad = set(entries) - valid
        if bad:
            raise ValueError(f"codewords outside the candidate set: {sorted(bad)}")
        if FILLER in entries:
            raise ValueError("filler codeword must not appear in the table")
        if FILLER not in valid:
            raise ValueError("filler codeword fails the candidate rules")
        object.__setattr__(self, "entries", entries)

    def __repr__(self) -> str:
        return f"CodewordTable(entries={self.entries!r})"


@lru_cache(maxsize=1)
def codeword_table() -> CodewordTable:
    """The codeword table, validated against the candidate rules on first use."""
    values = []
    for lo, hi in _CODEWORD_RANGES:
        values.extend(range(lo, hi + 1))
    return CodewordTable(entries=tuple(values))


@lru_cache(maxsize=1)
def _digit_tables() -> tuple[bytes, ...]:
    """Nine bytes.translate tables: table k maps a byte to binary digit k of its codeword."""
    entries = codeword_table().entries
    return tuple(bytes(ord("0") + (v >> (8 - k) & 1) for v in entries) for k in range(9))


def expand_message(m: bytes) -> BitPolynomial:
    """S-box expansion of a byte string into a message polynomial.

    m is any bytes-like object, read as its raw bytes, as the engine reads it.
    Codewords concatenate MSB-first (the first byte lands in the highest
    9 coefficients).  Messages shorter than 8 bytes get filler codewords
    appended on the low-order side so the result is exactly 72 bits; longer
    messages expand to 9 bits per byte with no filler.
    """
    if not isinstance(m, (bytes, bytearray)):  # those two are read in place
        m = memoryview(m).tobytes()
    # one ASCII digit per bit, written digit position by digit position so no
    # per-byte object is made: the peak is the 9 bytes per input byte here
    # plus one translated copy of the message
    digits = bytearray(9 * len(m))
    for k, table in enumerate(_digit_tables()):
        digits[k::9] = m.translate(table)
    digits += f"{FILLER:09b}".encode() * (8 - len(m))
    return BitPolynomial(int(digits, 2))
