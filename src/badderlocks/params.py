"""Registry of the 30 CRC generator polynomials and their verification.

Each registry entry carries a compact triplet (w, n, m, phi): the full
generator is phi(x^n + x^m) where phi is an irreducible polynomial of
degree w, so the generator degree is w*n.  The registry ships as a text
data file (one record per entry) and every load cross-checks the recorded
long polynomial against the composition, the size formula and the
byte-alignment law, so a transcription typo cannot load silently.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple

from . import gf2poly
from .gf2poly import BitPolynomial

__all__ = [
    "GeneratorEntry",
    "VerificationReport",
    "size_for_index",
    "registry",
    "entry_for_aligned_bits",
    "verify_entry",
    "select_generator",
]


class GeneratorEntry(NamedTuple):
    """One registry row: sizes, composition parameters and both polynomials."""

    index: int            # 1..30
    target_bits: int      # design target, 32-bit granular
    aligned_bits: int     # degree rounded up to a byte multiple (output width)
    degree: int           # effective CRC size = w*n
    w: int
    n: int
    m: int
    phi: BitPolynomial
    generator: BitPolynomial


class VerificationReport(NamedTuple):
    """Outcome of verify_entry: one (name, passed) pair per check."""

    index: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def failures(self) -> list[str]:
        return [name for name, passed in self.checks if not passed]


def size_for_index(i: int) -> int:
    """Target CRC size in bits for registry index i (1..30)."""
    if not 1 <= i <= 30:
        raise ValueError(f"registry index must be in 1..30, got {i}")
    return (2 * i + ((i - 2) * (i - 3)) // 10) * 32


@lru_cache(maxsize=1)
def registry() -> tuple[GeneratorEntry, ...]:
    """All 30 generator entries, quick-verified at load time."""
    entries = []
    with open(os.path.join(os.path.dirname(__file__), "data", "generators.txt")) as f:
        data = f.read()
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx, tgt, alg, deg, w, n, m, phi_hex, gen_hex = line.split()
        entry = GeneratorEntry(
            index=int(idx),
            target_bits=int(tgt),
            aligned_bits=int(alg),
            degree=int(deg),
            w=int(w),
            n=int(n),
            m=int(m),
            phi=gf2poly.parse_hex(phi_hex),
            generator=gf2poly.parse_hex(gen_hex),
        )
        report = verify_entry(entry, level="quick")
        if not report.ok:
            raise ValueError(
                f"registry entry {entry.index} failed verification: {report.failures()}"
            )
        entries.append(entry)
    if len(entries) != 30:
        raise ValueError(f"expected 30 registry entries, got {len(entries)}")
    return tuple(entries)


def entry_for_aligned_bits(bits: int) -> GeneratorEntry:
    """Look up an entry by its byte-aligned output size."""
    for e in registry():
        if e.aligned_bits == bits:
            return e
    sizes = [e.aligned_bits for e in registry()]
    raise KeyError(f"no generator with aligned size {bits}; valid sizes: {sizes}")


def verify_entry(e: GeneratorEntry, level: str = "quick") -> VerificationReport:
    """Check one entry's internal consistency.

    Quick level: size formula, degree law, byte alignment, degrees of both
    polynomials, composition against the recorded generator, and phi
    irreducibility.  Full level additionally tests the full generator for
    irreducibility and runs the LFSR / Berlekamp-Massey round-trip over
    2*degree output bits (long for the biggest entries).
    """
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    checks = [
        ("target matches size formula", size_for_index(e.index) == e.target_bits),
        ("degree equals w*n", e.degree == e.w * e.n),
        ("aligned is byte-rounded degree", e.aligned_bits == 8 * ((e.degree + 7) // 8)),
        ("aligned fits target", e.aligned_bits <= e.target_bits),
        ("phi degree equals w", e.phi.degree == e.w),
        ("generator degree equals w*n", e.generator.degree == e.degree),
        ("m in range", 0 < e.m < e.n),
        ("generator equals phi(x^n + x^m)",
         gf2poly.compose_tgfsr(e.phi, e.n, e.m) == e.generator),
        ("phi irreducible", gf2poly.is_irreducible(e.phi)),
    ]
    if level == "full":
        checks.append(("generator irreducible", gf2poly.is_irreducible(e.generator)))
        seed = [1] + [0] * (e.degree - 1)
        stream = gf2poly.lfsr_stream(e.generator, seed, 2 * e.degree)
        length, conn = gf2poly.berlekamp_massey(stream)
        checks.append(("Berlekamp-Massey round-trip",
                       length == e.degree and conn == e.generator))
    return VerificationReport(index=e.index, checks=tuple(checks))


def select_generator(max_bits: int) -> GeneratorEntry:
    """Largest entry whose byte-aligned size fits in max_bits."""
    if max_bits < 0:
        raise ValueError("max_bits must be nonnegative")
    best = None
    for e in registry():
        if e.aligned_bits <= max_bits and (best is None or e.aligned_bits > best.aligned_bits):
            best = e
    if best is None:
        raise ValueError(f"no generator fits in {max_bits} bits (smallest is 64)")
    return best
