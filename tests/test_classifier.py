import random
from importlib import resources

import pytest

from badderlocks import fastcrc, gf2poly, params, sbox
from badderlocks.classifier import ClassifierDigest, classify, entropy_ratio

FOX = b"The quick brown fox jumps over the lazy dog"


class TestClassify:
    def test_fox_64(self):
        e = params.entry_for_aligned_bits(64)
        assert classify(FOX, e).hex() == "4A0B6AAA2BA80913"

    def test_empty_64(self):
        e = params.entry_for_aligned_bits(64)
        assert classify(b"", e).hex() == "497DB9059F4F543C"

    def test_abcdefghi_320(self):
        e = params.entry_for_aligned_bits(320)
        got = classify(b"ABCDEFGHI", e).hex()
        assert got.startswith("6A1D2FA77FF5522A")
        assert got.endswith("B37B5300")

    def test_varying_high_bit_416(self):
        e = params.entry_for_aligned_bits(416)
        m = bytes.fromhex("5DBA1774D12E8BE845A2FF5CB91673D0")
        got = classify(m, e).hex()
        assert got.startswith("01C37376")
        assert got.endswith("AAC59163")

    def test_empty_nonzero_every_entry(self):
        for e in params.registry():
            assert any(classify(b"", e).data)

    def test_leading_zero_bits(self):
        rng = random.Random(20)
        for e in params.registry():
            for _ in range(100):
                m = bytes(rng.randrange(256) for _ in range(rng.randrange(17)))
                value = int.from_bytes(classify(m, e).data, "big")
                assert value < (1 << e.degree)

    def test_digest_length_checked(self):
        e = params.entry_for_aligned_bits(64)
        with pytest.raises(ValueError):
            ClassifierDigest(b"\x00" * 7, e)

    def test_digest_equality_and_hex(self):
        # the engine and the reference build the same type, compared by data and entry
        e, f = params.entry_for_aligned_bits(64), params.entry_for_aligned_bits(128)
        d = classify(FOX, e)
        assert d == fastcrc.engine_init(e).absorb(FOX).finish()
        assert hash(d) == hash(ClassifierDigest(bytes(d.data), e))
        assert d != ClassifierDigest(bytes(8), e) and d != classify(FOX, f) and d != d.data
        assert d.hex() == "4A0B6AAA2BA80913"

    def test_crc_linear_over_expanded_domain(self):
        # the CRC stage is linear even though the byte-level classifier is not
        rng = random.Random(21)
        e = params.entry_for_aligned_bits(192)
        for _ in range(50):
            p = gf2poly.BitPolynomial(rng.getrandbits(720))
            q = gf2poly.BitPolynomial(rng.getrandbits(720))
            crc = lambda x: gf2poly.remainder(
                gf2poly.shift_left(x, e.degree), e.generator)
            assert crc(p ^ q) == crc(p) ^ crc(q)

    def test_short_messages_match_filler_polynomial(self):
        e = params.entry_for_aligned_bits(128)
        for n in range(1, 8):
            m = bytes(range(65, 65 + n))
            padded = sbox.expand_message(m)
            assert padded.value < (1 << 72)
            direct = gf2poly.remainder(
                gf2poly.shift_left(padded, e.degree), e.generator)
            assert classify(m, e).data == direct.value.to_bytes(16, "big")

    def test_shares_no_table_with_the_engine(self, monkeypatch):
        # the reference must stay independent of fastcrc's tables and row builders
        entries = params.registry()  # quick verification builds rows, so load first

        def forbidden(*args):
            raise AssertionError("the reference reached a table or row builder")

        for owner, name in [(gf2poly, "reduction_rows"), (gf2poly, "reduction_basis"),
                            (fastcrc, "build_tables")]:
            monkeypatch.setattr(owner, name, forbidden)
        fox = resources.files("badderlocks.data").joinpath("vectors_c2_fox.txt").read_text()
        expected = {int(bits): digest for bits, _, digest in
                    (line.split("\t") for line in fox.splitlines())}
        assert len(expected) == len(entries) == 30
        for e in entries:
            assert classify(FOX, e).hex() == expected[e.aligned_bits]


class TestEntropyRatio:
    def test_all_one_byte_messages(self):
        e = params.entry_for_aligned_bits(64)
        msgs = [bytes([b]) for b in range(256)]
        assert entropy_ratio(msgs, e) == 1.0

    def test_duplicates_collapse(self):
        e = params.entry_for_aligned_bits(64)
        with pytest.raises(ValueError):
            entropy_ratio([b"x", b"x"], e)
        with pytest.raises(ValueError):
            entropy_ratio([b"x"], e)

    def test_random_16_byte_messages(self):
        rng = random.Random(22)
        e = params.entry_for_aligned_bits(64)
        msgs = {bytes(rng.randrange(256) for _ in range(16)) for _ in range(1000)}
        assert entropy_ratio(msgs, e) >= 0.99
