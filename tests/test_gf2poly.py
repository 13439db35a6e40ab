import random

import pytest

from badderlocks import gf2poly, params
from badderlocks.gf2poly import BitPolynomial, parse_hex, render_hex


def rand_poly(rng, max_degree):
    return BitPolynomial(rng.getrandbits(max_degree + 1))


class TestParseRender:
    def test_parse_short_polynomial(self):
        assert parse_hex("3FC417").degree == 21

    def test_parse_zero(self):
        p = parse_hex("0")
        assert p.is_zero()
        assert p.degree is None

    def test_parse_single_nibble(self):
        assert parse_hex("B").value == 0b1011  # x^3 + x + 1

    def test_parse_whitespace(self):
        assert parse_hex("DE9DE437 C050115D") == parse_hex("DE9DE437C050115D")

    def test_parse_rejects_non_hex(self):
        with pytest.raises(ValueError, match="offset 2"):
            parse_hex("ABZ3")
        with pytest.raises(ValueError):
            parse_hex("   ")

    def test_render_grouped(self):
        p = gf2poly.compose_tgfsr(parse_hex("3FC417"), 3, 2)
        assert render_hex(p, group=True) == "DE9DE437 C050115D"

    def test_render_zero(self):
        assert render_hex(BitPolynomial(0)) == "0"

    def test_render_drops_leading_zeros(self):
        assert render_hex(parse_hex("00FF")) == "FF"

    def test_render_fixed_width(self):
        assert render_hex(parse_hex("FF"), width=4) == "00FF"
        with pytest.raises(ValueError):
            render_hex(parse_hex("FFFFF"), width=4)

    def test_round_trip_random(self):
        rng = random.Random(1)
        for _ in range(200):
            p = rand_poly(rng, 512)
            assert parse_hex(render_hex(p)) == p

    def test_round_trip_registry(self):
        for e in params.registry():
            assert parse_hex(render_hex(e.generator)) == e.generator


class TestMultiply:
    def test_square_of_x_plus_1(self):
        p = BitPolynomial(0b11)
        assert gf2poly.multiply(p, p).value == 0b101

    def test_multiply_by_zero(self):
        assert gf2poly.multiply(parse_hex("3FC417"), BitPolynomial(0)).is_zero()

    def test_square_matches_bit_spreading_oracle(self):
        # squaring over GF(2) spreads every coefficient to twice its index
        p = parse_hex("3FC417")
        expected = 0
        for k in range(p.degree + 1):
            if (p.value >> k) & 1:
                expected |= 1 << (2 * k)
        assert gf2poly.multiply(p, p).value == expected

    def test_ring_laws(self):
        rng = random.Random(2)
        for _ in range(50):
            a, b, c = (rand_poly(rng, 512) for _ in range(3))
            assert gf2poly.multiply(a, b) == gf2poly.multiply(b, a)
            assert gf2poly.multiply(gf2poly.multiply(a, b), c) == \
                gf2poly.multiply(a, gf2poly.multiply(b, c))
            assert gf2poly.multiply(a, b ^ c) == \
                gf2poly.multiply(a, b) ^ gf2poly.multiply(a, c)

    def test_degree_law(self):
        rng = random.Random(3)
        for _ in range(50):
            a = BitPolynomial(rng.getrandbits(100) | (1 << 100))
            b = BitPolynomial(rng.getrandbits(70) | (1 << 70))
            assert gf2poly.multiply(a, b).degree == a.degree + b.degree


class TestRemainder:
    def test_hand_division(self):
        # x^3 + x mod x^2 + x + 1 == x + 1
        assert gf2poly.remainder(BitPolynomial(0b1010), BitPolynomial(0b111)).value == 0b11

    def test_self_remainder_is_zero(self):
        g = parse_hex("3FC417")
        assert gf2poly.remainder(g, g).is_zero()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gf2poly.remainder(BitPolynomial(1), BitPolynomial(0))

    def test_constructed_identity(self):
        rng = random.Random(4)
        g = gf2poly.compose_tgfsr(parse_hex("3FC417"), 3, 2)
        for _ in range(1000):
            q = rand_poly(rng, 200)
            r = BitPolynomial(rng.getrandbits(g.degree))
            dividend = gf2poly.multiply(q, g) ^ r
            assert gf2poly.remainder(dividend, g) == r

    def test_degree_below_divisor(self):
        rng = random.Random(5)
        g = parse_hex("FFE7B")
        for _ in range(100):
            r = gf2poly.remainder(rand_poly(rng, 300), g)
            assert r.is_zero() or r.degree < g.degree


class TestReductionRows:
    @pytest.mark.parametrize("width", [8, 9])
    def test_rows_match_remainder(self, width):
        e = params.entry_for_aligned_bits(192)  # degree 190, not a multiple of 9
        rows = gf2poly.reduction_rows(e.generator, width)
        assert len(rows) == 2 ** width
        for v, row in enumerate(rows):
            expected = gf2poly.remainder(BitPolynomial(v << e.degree), e.generator)
            assert row == expected.value, v


class TestShiftLeft:
    def test_unit_shift(self):
        assert gf2poly.shift_left(BitPolynomial(1), 63).value == 1 << 63

    def test_identity(self):
        p = parse_hex("3FC417")
        assert gf2poly.shift_left(p, 0) == p

    def test_small(self):
        assert gf2poly.shift_left(BitPolynomial(0b11), 2).value == 0b1100

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gf2poly.shift_left(BitPolynomial(1), -1)


class TestComposeTgfsr:
    def test_identity_substitution(self):
        # phi(t) = t with n=1, m=0 gives x + 1
        assert gf2poly.compose_tgfsr(BitPolynomial(0b10), 1, 0).value == 0b11

    def test_registry_row_64(self):
        got = gf2poly.compose_tgfsr(parse_hex("3FC417"), 3, 2)
        assert got == parse_hex("DE9DE437 C050115D")

    def test_registry_row_128(self):
        got = gf2poly.compose_tgfsr(parse_hex("3FF931"), 6, 1)
        assert got == parse_hex("4304357F 04314F47 35FD724B 314AFD31")

    def test_degree_law_all_registry(self):
        for e in params.registry():
            got = gf2poly.compose_tgfsr(e.phi, e.n, e.m)
            assert got.degree == e.phi.degree * e.n

    def test_bad_range(self):
        with pytest.raises(ValueError):
            gf2poly.compose_tgfsr(parse_hex("3FC417"), 3, 3)
        with pytest.raises(ValueError):
            gf2poly.compose_tgfsr(parse_hex("3FC417"), 3, -1)
        with pytest.raises(ValueError):
            gf2poly.compose_tgfsr(BitPolynomial(0), 3, 2)


def trial_division_irreducible(value):
    """Exhaustive oracle: check divisibility by every lower-degree polynomial."""
    d = value.bit_length() - 1
    for f in range(2, 1 << ((d // 2) + 1)):
        if f.bit_length() - 1 < 1:
            continue
        if gf2poly.remainder(BitPolynomial(value), BitPolynomial(f)).is_zero():
            return False
    return True


class TestIrreducible:
    def test_degree_two(self):
        assert gf2poly.is_irreducible(BitPolynomial(0b111))
        assert not gf2poly.is_irreducible(BitPolynomial(0b101))  # (x+1)^2

    def test_short_registry_polynomial(self):
        assert gf2poly.is_irreducible(parse_hex("3FC417"))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            gf2poly.is_irreducible(BitPolynomial(0))
        with pytest.raises(ValueError):
            gf2poly.is_irreducible(BitPolynomial(1))

    def test_agrees_with_trial_division(self):
        rng = random.Random(6)
        samples = list(range(4, 256))  # all of degrees 2..7
        samples += [rng.getrandbits(13) | (1 << 12) for _ in range(200)]  # degree 12
        for v in samples:
            assert gf2poly.is_irreducible(BitPolynomial(v)) == \
                trial_division_irreducible(v), f"disagree on {v:#x}"


class TestLfsrAndBerlekampMassey:
    def test_hand_stepped_stream(self):
        out = gf2poly.lfsr_stream(BitPolynomial(0b111), [1, 0], 6)
        assert out == [1, 0, 1, 1, 0, 1]

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            gf2poly.lfsr_stream(BitPolynomial(0b111), [0, 0], 6)

    def test_seed_length_mismatch(self):
        with pytest.raises(ValueError):
            gf2poly.lfsr_stream(BitPolynomial(0b111), [1, 0, 1], 6)

    def test_bm_all_zero(self):
        length, _ = gf2poly.berlekamp_massey([0] * 16)
        assert length == 0

    def test_bm_short_sequence_brute_force(self):
        # brute force over every LFSR of length <= 2 confirms x^2+x+1 is
        # the unique shortest generator of 1,0,1,1
        target = [1, 0, 1, 1]
        shortest = None
        for L in (1, 2):
            for taps in range(1 << L):
                for seed in range(1, 1 << L):
                    bits = [(seed >> i) & 1 for i in range(L)]
                    while len(bits) < 4:
                        nxt = 0
                        for i in range(L):
                            if (taps >> i) & 1:
                                nxt ^= bits[-1 - i]
                        bits.append(nxt)
                    if bits == target and shortest is None:
                        shortest = (L, taps)
            if shortest:
                break
        assert shortest == (2, 0b11)
        length, conn = gf2poly.berlekamp_massey(target)
        assert length == 2
        assert conn.value == 0b111

    def test_round_trip_small_registry(self):
        rng = random.Random(7)
        for e in params.registry():
            if e.degree > 512:
                continue
            for _ in range(5):
                seed = [rng.randrange(2) for _ in range(e.degree)]
                if not any(seed):
                    seed[0] = 1
                stream = gf2poly.lfsr_stream(e.generator, seed, 2 * e.degree)
                length, conn = gf2poly.berlekamp_massey(stream)
                assert length == e.degree
                assert conn == e.generator
