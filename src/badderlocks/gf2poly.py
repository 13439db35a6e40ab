"""Arithmetic with dense polynomials over GF(2).

A polynomial b_n x^n + ... + b_1 x + b_0 is packed into a nonnegative
integer with bit k holding the coefficient of x^k.  Hex text renders that
integer big-endian, so the last hex digit carries x^3..x^0.  The module
covers what the classifier and the generator registry need: carry-less
multiplication, remainder, the (v << d) mod f rows of table-driven
reduction, substitution of x^n + x^m into a polynomial, irreducibility
testing, LFSR sequence generation and Berlekamp-Massey synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "BitPolynomial",
    "parse_hex",
    "render_hex",
    "multiply",
    "remainder",
    "reduction_rows",
    "shift_left",
    "compose_tgfsr",
    "is_irreducible",
    "lfsr_stream",
    "berlekamp_massey",
]


@dataclass(frozen=True)
class BitPolynomial:
    """Immutable GF(2)[x] polynomial packed into an int (bit k = coeff of x^k)."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("polynomial value must be nonnegative")

    @property
    def degree(self) -> int | None:
        """Highest index with a set bit, or None for the zero polynomial."""
        if self.value == 0:
            return None
        return self.value.bit_length() - 1

    def is_zero(self) -> bool:
        return self.value == 0

    def __xor__(self, other: "BitPolynomial") -> "BitPolynomial":
        return BitPolynomial(self.value ^ other.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"BitPolynomial(0x{self.value:X})"


ZERO = BitPolynomial(0)
ONE = BitPolynomial(1)


def parse_hex(text: str) -> BitPolynomial:
    """Parse a big-endian hex string, whitespace permitted, into a polynomial."""
    digits = []
    for offset, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch not in "0123456789abcdefABCDEF":
            raise ValueError(f"non-hex character {ch!r} at offset {offset}")
        digits.append(ch)
    if not digits:
        raise ValueError("no hex digits in input")
    return BitPolynomial(int("".join(digits), 16))


def render_hex(p: BitPolynomial, group: bool = False, width: int | None = None) -> str:
    """Render as uppercase hex; optional fixed digit count and 8-digit grouping.

    Grouping inserts a space every 8 digits counted from the right, matching
    the registry and test-vector table formatting.
    """
    s = f"{p.value:X}"
    if width is not None:
        if len(s) > width:
            raise ValueError(f"value needs {len(s)} digits, width {width} requested")
        s = s.rjust(width, "0")
    if group:
        head = len(s) % 8
        parts = ([s[:head]] if head else []) + [s[i:i + 8] for i in range(head, len(s), 8)]
        s = " ".join(parts)
    return s


def multiply(a: BitPolynomial, b: BitPolynomial) -> BitPolynomial:
    """Carry-less product of two polynomials."""
    x, y = a.value, b.value
    if x < y:
        x, y = y, x
    acc = 0
    shift = 0
    while y:
        if y & 1:
            acc ^= x << shift
        y >>= 1
        shift += 1
    return BitPolynomial(acc)


def remainder(dividend: BitPolynomial, divisor: BitPolynomial) -> BitPolynomial:
    """Remainder of dividend modulo divisor (schoolbook shift-and-XOR)."""
    if divisor.is_zero():
        raise ZeroDivisionError("remainder by zero polynomial")
    a = dividend.value
    g = divisor.value
    d = g.bit_length() - 1
    if d == 0:
        return ZERO
    m = a.bit_length()
    if m <= d:
        return BitPolynomial(a)
    # Feed dividend bits MSB-first through a d-bit window, reducing whenever
    # the window overflows.  Equivalent to long division, but the working
    # value never grows past d+1 bits and the dividend is scanned once.
    reg = 0
    top = 1 << d
    for byte in a.to_bytes((m + 7) // 8, "big"):
        for k in range(7, -1, -1):
            reg = (reg << 1) | ((byte >> k) & 1)
            if reg & top:
                reg ^= g
    return BitPolynomial(reg)


def shift_left(p: BitPolynomial, k: int) -> BitPolynomial:
    """Multiply by x^k."""
    if k < 0:
        raise ValueError("shift count must be nonnegative")
    return BitPolynomial(p.value << k)


def compose_tgfsr(phi: BitPolynomial, n: int, m: int) -> BitPolynomial:
    """Substitute t := x^n + x^m into phi(t).

    The registry rows always have 0 < m < n; m == 0 is additionally accepted
    so that the identity substitution phi(t)=t, n=1, m=0 works.
    """
    if phi.is_zero():
        raise ValueError("phi must be nonzero")
    if not 0 <= m < n:
        raise ValueError(f"require 0 <= m < n, got n={n} m={m}")
    t = BitPolynomial((1 << n) | (1 << m))
    # Horner evaluation from the top coefficient down.
    acc = ZERO
    for k in range(phi.degree, -1, -1):
        acc = multiply(acc, t)
        if (phi.value >> k) & 1:
            acc ^= ONE
    return acc


def reduction_rows(f: BitPolynomial, width: int) -> tuple[int, ...]:
    """rows[v] = (v << d) mod f for every width-bit v, where d = deg f."""
    g = f.value
    d = g.bit_length() - 1
    basis = []
    cur = g ^ (1 << d)  # x^d mod f
    for _ in range(width):
        basis.append(cur)
        cur <<= 1
        if cur >> d:
            cur ^= g
    rows = [0] * (1 << width)
    for v in range(1, 1 << width):
        low = v & (v - 1)
        rows[v] = rows[low] ^ basis[(v ^ low).bit_length() - 1]
    return tuple(rows)


def _mod_reducer(f: BitPolynomial):
    """Byte-at-a-time reduction closure for repeated work modulo a fixed f."""
    g = f.value
    d = g.bit_length() - 1
    if d < 8:
        def reduce_small(a: int) -> int:
            return remainder(BitPolynomial(a), f).value
        return reduce_small

    table = reduction_rows(f, 8)
    low_mask = (1 << (d - 8)) - 1

    def reduce(a: int) -> int:
        m = a.bit_length()
        if m <= d:
            return a
        excess = m - d
        lead = excess % 8
        reg = a >> (m - d)
        pos = excess - lead
        if lead:
            # fold in the leading partial byte bit by bit
            for i in range(excess - 1, pos - 1, -1):
                reg = (reg << 1) | ((a >> i) & 1)
                if reg >> d & 1:
                    reg ^= g
        while pos:
            pos -= 8
            t = reg >> (d - 8)
            reg = ((reg & low_mask) << 8) | ((a >> pos) & 0xFF)
            reg ^= table[t]
        return reg

    return reduce


def _square(v: int) -> int:
    """Square of a packed GF(2) polynomial (spread every bit apart)."""
    out = 0
    shift = 0
    while v:
        byte = v & 0xFF
        out |= _SPREAD[byte] << shift
        v >>= 8
        shift += 16
    return out


def _make_spread():
    t = []
    for b in range(256):
        s = 0
        for i in range(8):
            if b >> i & 1:
                s |= 1 << (2 * i)
        t.append(s)
    return t


_SPREAD = _make_spread()


def _gcd(a: int, b: int) -> int:
    """GCD of packed polynomials by leading-term elimination."""
    while b:
        da, db = a.bit_length(), b.bit_length()
        if da < db:
            a, b = b, a
            da, db = db, da
        a ^= b << (da - db)
        if a == 0:
            return b
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: BitPolynomial) -> bool:
    """Rabin irreducibility test over GF(2).

    f is irreducible iff x^(2^d) == x (mod f) and, for every prime p
    dividing d, gcd(x^(2^(d/p)) - x mod f, f) == 1.
    """
    if f.is_zero() or f.degree == 0:
        raise ValueError("irreducibility is defined for degree >= 1")
    d = f.degree
    if d == 1:
        return True
    if not f.value & 1:
        return False  # divisible by x
    reduce = _mod_reducer(f)
    checkpoints = {d // p for p in _prime_factors(d)}
    cur = 2  # the polynomial x
    for step in range(1, d + 1):
        cur = reduce(_square(cur))
        if step in checkpoints:
            if _gcd(cur ^ 2, f.value) != 1:
                return False
    return cur == 2


def lfsr_stream(f: BitPolynomial, seed: Sequence[int] | str, count: int) -> list[int]:
    """Fibonacci LFSR output bits s_0, s_1, ... for feedback polynomial f.

    The recurrence is s_j = XOR over i in 1..d of f_i * s_(j-i), where f_i is
    the coefficient of x^i in f; the seed supplies s_0 .. s_(d-1).  The first
    `count` bits (seed included) are returned.
    """
    if f.is_zero() or f.degree < 1:
        raise ValueError("feedback polynomial must have degree >= 1")
    d = f.degree
    bits = [int(b) for b in seed]
    if len(bits) != d:
        raise ValueError(f"seed length {len(bits)} != degree {d}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("seed bits must be 0 or 1")
    if not any(bits):
        raise ValueError("seed must be nonzero")
    taps = f.value >> 1  # bit i-1 pairs with s_(j-i)
    window = 0  # bit k = s_(j-1-k), so s_(j-1) sits at bit 0
    for k, b in enumerate(bits):
        window |= b << (d - 1 - k)
    mask = (1 << d) - 1
    out = list(bits)
    for _ in range(max(0, count - d)):
        nxt = (taps & window).bit_count() & 1
        out.append(nxt)
        window = ((window << 1) & mask) | nxt
    return out[:count]


def berlekamp_massey(s: Iterable[int]) -> tuple[int, BitPolynomial]:
    """Shortest LFSR generating the bit sequence s.

    Returns (L, c) where c(x) = c_L x^L + ... + c_1 x + 1 is the connection
    polynomial: s_j = XOR over i in 1..L of c_i * s_(j-i) for j >= L.  For
    2d bits out of an LFSR with irreducible degree-d feedback polynomial and
    a nonzero seed this returns that exact polynomial.

    The discrepancy at step i is the coefficient of x^i in c(x)*S(x); the
    products c*S and b*S are maintained incrementally so each step costs a
    couple of big-int operations instead of a bit loop.
    """
    bits = [int(b) for b in s]
    sval = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError("sequence bits must be 0 or 1")
        sval |= b << i
    c = b_ = 1
    pc = pb = sval  # c*S and b*S
    L = 0
    m = -1
    for i in range(len(bits)):
        if (pc >> i) & 1:
            t, pt = c, pc
            c ^= b_ << (i - m)
            pc ^= pb << (i - m)
            if 2 * L <= i:
                L = i + 1 - L
                b_, pb = t, pt
                m = i
    return L, BitPolynomial(c)
