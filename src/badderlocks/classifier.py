"""Reference message classifier: S-box expansion followed by a large CRC.

This is the correctness baseline.  It expands the message by joining the
codewords' binary strings and reduces it by leading-term long division in
gf2poly, with no reduction tables; the table-driven engine in fastcrc is
checked against it bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Collection

from . import gf2poly, sbox
from .params import GeneratorEntry

__all__ = ["ClassifierDigest", "classify", "entropy_ratio"]


class ClassifierDigest:
    """Byte-aligned classifier output together with the generator entry used.

    A slotted class with its own __init__, where a frozen dataclass with
    __post_init__ took 1.5 us to build: the engine builds one per digest.
    """

    __slots__ = ("data", "entry")

    def __init__(self, data: bytes, entry: GeneratorEntry):
        if len(data) != entry.aligned_bits // 8:
            raise ValueError("digest length does not match the entry's aligned size")
        self.data = data
        self.entry = entry

    def __eq__(self, other):
        if type(other) is not ClassifierDigest:
            return NotImplemented
        return self.data == other.data and self.entry == other.entry

    def __hash__(self) -> int:
        return hash((self.data, self.entry))

    def __repr__(self) -> str:
        return f"ClassifierDigest(data={self.data!r}, entry={self.entry!r})"

    def hex(self) -> str:
        return self.data.hex().upper()


def classify(m: bytes, e: GeneratorEntry) -> ClassifierDigest:
    """Classifier digest of a byte string under generator entry e.

    The expanded message is shifted left by the generator degree and reduced
    modulo the generator; the remainder is emitted big-endian, left-padded
    with zero bits up to the byte-aligned output size.  There is no final
    inversion step.
    """
    expanded = sbox.expand_message(m)
    rem = gf2poly.remainder(gf2poly.shift_left(expanded, e.degree), e.generator)
    return ClassifierDigest(rem.value.to_bytes(e.aligned_bits // 8, "big"), e)


def entropy_ratio(messages: Collection[bytes], e: GeneratorEntry) -> float:
    """Digest entropy over source entropy for a uniformly sampled message set.

    With source entropy Es = log2(|messages|) and Ed the Shannon entropy of
    the digest distribution, returns Ed / min(Es, degree).  The set must
    contain at least 2 distinct messages for the ratio to be defined.
    """
    distinct = set(messages)
    count = len(distinct)
    if count < 2:
        raise ValueError("entropy ratio needs at least 2 distinct messages")
    es = math.log2(count)
    tally = Counter(classify(m, e).data for m in distinct)
    ed = -sum((c / count) * math.log2(c / count) for c in tally.values())
    return ed / min(es, e.degree)
