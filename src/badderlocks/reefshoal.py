"""Message-representative assembly: padding || classifier(m) || Hash(m).

The caller supplies the finished cryptographic hash bytes; this module only
plans the field layout for a given modulus size and concatenates the
segments.  Signing itself (modular exponentiation, key handling) is out of
scope.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import classifier, params
from .params import GeneratorEntry

__all__ = ["RepresentativeLayout", "plan_layout", "assemble"]


class RepresentativeLayout(NamedTuple):
    """Field widths for one modulus: reserve (padding), classifier, hash."""

    modulus_bits: int
    reserve_bits: int
    classifier_bits: int
    hash_bits: int
    padding_bytes: bytes
    entry: GeneratorEntry


def plan_layout(modulus_bits: int, hash_bits: int, reserve_bits: int = 16,
                padding: bytes | None = None) -> RepresentativeLayout:
    """Pick the largest classifier that fits the modulus next to the hash.

    The default padding field is 0x00 0x01: the leading zero byte keeps the
    representative below any modulus of the stated bit length, the 0x01
    marks the format.  Both the width and the content may be overridden;
    padding may be any bytes-like object, and the layout holds its bytes.
    Equal arguments return the same layout, which is immutable.
    """
    return _plan_layout(modulus_bits, hash_bits, reserve_bits,
                        None if padding is None else bytes(memoryview(padding)))


@lru_cache(maxsize=64, typed=True)  # a call that raises is not cached, so it raises each time
def _plan_layout(modulus_bits: int, hash_bits: int, reserve_bits: int,
                 padding: bytes | None) -> RepresentativeLayout:
    for name, v in (("modulus_bits", modulus_bits), ("hash_bits", hash_bits),
                    ("reserve_bits", reserve_bits)):
        if v < 0 or v % 8:
            raise ValueError(f"{name} must be a nonnegative byte multiple, got {v}")
    if modulus_bits <= 0 or reserve_bits <= 0:
        raise ValueError("modulus_bits and reserve_bits must be positive")
    if padding is None:
        padding = b"\x00" * (reserve_bits // 8 - 1) + b"\x01"
    if len(padding) != reserve_bits // 8:
        raise ValueError("padding length does not match reserve_bits")
    budget = modulus_bits - reserve_bits - hash_bits
    try:
        entry = params.select_generator(budget)
    except ValueError:
        minimum = 64 + reserve_bits + hash_bits
        raise ValueError(
            f"no classifier fits a {modulus_bits}-bit modulus with "
            f"{hash_bits}-bit hash and {reserve_bits}-bit padding; "
            f"minimum feasible modulus is {minimum} bits"
        ) from None
    return RepresentativeLayout(
        modulus_bits=modulus_bits,
        reserve_bits=reserve_bits,
        classifier_bits=entry.aligned_bits,
        hash_bits=hash_bits,
        padding_bytes=padding,
        entry=entry,
    )


def assemble(m: bytes, hash_output: bytes, layout: RepresentativeLayout) -> bytes:
    """Concatenate padding, classifier digest and hash into the representative.

    The result has (reserve + classifier + hash) / 8 bytes; when that is
    shorter than the modulus, the caller's signing layer treats it as a
    right-aligned integer.
    """
    if len(hash_output) != layout.hash_bits // 8:
        raise ValueError(
            f"hash output is {len(hash_output)} bytes, layout expects "
            f"{layout.hash_bits // 8}"
        )
    digest = classifier.classify(m, layout.entry)
    return layout.padding_bytes + digest.data + hash_output
