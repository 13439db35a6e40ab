"""Table-driven streaming classifier engine in direct form.

The register always holds `prefix * x^degree mod generator`, where prefix
is the S-box expansion of the codewords absorbed so far.  One cycle appends
a 9-bit codeword c: the register's top 9 bits are XORed with c, the rest
shift up 9 places, and the precomputed reduction row for the XORed value is
added in (Sarwate 1988; Williams's "direct" table algorithm).  Finishing
appends the filler codewords for messages shorter than 8 bytes and emits the
register byte-aligned, so no zero bits need to be flushed through.  Output
is bit-identical to classifier.classify.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classifier import ClassifierDigest
from .gf2poly import reduction_rows
from .params import GeneratorEntry
from .sbox import FILLER, codeword_table

__all__ = ["CrcTables", "CrcEngine", "build_tables", "engine_init"]


@dataclass(frozen=True)
class CrcTables:
    """Precomputed reduction rows for one generator: main[v] = (v << degree) mod g."""

    degree: int
    main: tuple[int, ...]


def build_tables(e: GeneratorEntry) -> CrcTables:
    """Build the lookup table for one generator entry."""
    return CrcTables(degree=e.degree, main=reduction_rows(e.generator, 9))


_table_cache: dict[int, CrcTables] = {}


def _tables_for(e: GeneratorEntry) -> CrcTables:
    tables = _table_cache.get(e.index)
    if tables is None:
        tables = _table_cache[e.index] = build_tables(e)
    return tables


class CrcEngine:
    """Single-use streaming state: init, absorb chunks, finish once.

    After absorbing a message of 8 or more bytes, `register` equals the
    classifier digest of that message as an integer.
    """

    def __init__(self, entry: GeneratorEntry, tables: CrcTables):
        self.entry = entry
        self.tables = tables
        self.register = 0
        self.consumed = 0
        self._finished = False

    def _cycle(self, data: bytes, codewords: tuple[int, ...]) -> None:
        """Append codewords[byte] for each byte of data, one table cycle each."""
        shift = self.entry.degree - 9
        low_mask = (1 << shift) - 1
        main = self.tables.main
        reg = self.register
        for byte in data:
            reg = ((reg & low_mask) << 9) ^ main[(reg >> shift) ^ codewords[byte]]
        self.register = reg

    def absorb(self, chunk: bytes) -> "CrcEngine":
        """Run one table cycle per input byte; returns self for chaining."""
        if self._finished:
            raise RuntimeError("engine already finished")
        self._cycle(chunk, codeword_table().entries)
        self.consumed += len(chunk)
        return self

    def finish(self) -> ClassifierDigest:
        """Apply the filler rule and emit the byte-aligned digest."""
        if self._finished:
            raise RuntimeError("engine already finished")
        self._finished = True
        # zero bytes index the one-entry filler map: one FILLER cycle each
        self._cycle(bytes(max(0, 8 - self.consumed)), (FILLER,))
        return ClassifierDigest(self.register.to_bytes(self.entry.aligned_bits // 8, "big"),
                                self.entry)


def engine_init(e: GeneratorEntry) -> CrcEngine:
    """Fresh zeroed engine for entry e; tables are built lazily and shared."""
    return CrcEngine(e, _tables_for(e))
