import random

import pytest

from badderlocks import classifier, gf2poly, params
from badderlocks.fastcrc import build_tables, engine_init

FOX = b"The quick brown fox jumps over the lazy dog"


class TestTables:
    def test_row_zero_is_zero(self):
        for e in params.registry()[:5]:
            t = build_tables(e)
            assert t.main[0] == 0

    def test_rows_match_remainder_oracle(self):
        e = params.entry_for_aligned_bits(64)
        t = build_tables(e)
        rng = random.Random(30)
        for v in [0, 1, 2, 511] + [rng.randrange(512) for _ in range(20)]:
            expected = gf2poly.remainder(
                gf2poly.BitPolynomial(v << e.degree), e.generator)
            assert t.main[v] == expected.value


class TestEngine:
    def test_init_state(self):
        e = params.entry_for_aligned_bits(64)
        eng = engine_init(e)
        assert eng.register == 0
        assert eng.consumed == 0

    def test_shared_tables(self):
        e = params.entry_for_aligned_bits(128)
        assert engine_init(e).tables is engine_init(e).tables

    def test_init_all_entries(self):
        for e in params.registry():
            assert engine_init(e).register == 0

    def test_empty_input_equals_reference(self):
        for e in params.registry()[:4]:
            assert engine_init(e).finish().data == classifier.classify(b"", e).data

    def test_fox_chunked(self):
        e = params.entry_for_aligned_bits(64)
        eng = engine_init(e)
        eng.absorb(b"The qu").absorb(b"ick brown fox jumps over the lazy dog")
        assert eng.finish().hex() == "4A0B6AAA2BA80913"

    def test_small_message_vectors(self):
        assert engine_init(params.entry_for_aligned_bits(64)) \
            .absorb(b"A").finish().hex() == "177EB92F319B46C1"
        got = engine_init(params.entry_for_aligned_bits(320)) \
            .absorb(b"ABCDEFGH").finish().hex()
        assert got.startswith("6ADD0F97")
        assert got.endswith("30B75303")

    def test_empty_chunk_identity(self):
        e = params.entry_for_aligned_bits(64)
        eng = engine_init(e).absorb(b"abc")
        reg = eng.register
        eng.absorb(b"")
        assert eng.register == reg

    def test_byte_at_a_time(self):
        e = params.entry_for_aligned_bits(256)
        rng = random.Random(31)
        m = bytes(rng.randrange(256) for _ in range(50))
        eng = engine_init(e)
        for b in m:
            eng.absorb(bytes([b]))
        assert eng.finish().data == engine_init(e).absorb(m).finish().data

    def test_single_use(self):
        e = params.entry_for_aligned_bits(64)
        eng = engine_init(e)
        eng.finish()
        with pytest.raises(RuntimeError):
            eng.absorb(b"x")
        with pytest.raises(RuntimeError):
            eng.finish()


class TestEquivalence:
    def test_matches_reference_across_entries(self):
        rng = random.Random(32)
        for e in params.registry():
            for n in (0, 1, 7, 8, 9, 40):
                m = bytes(rng.randrange(256) for _ in range(n))
                assert engine_init(e).absorb(m).finish().data == \
                    classifier.classify(m, e).data, (e.index, n)

    def test_register_is_digest_before_finish(self):
        # direct form: once the filler rule no longer applies, the register
        # already holds expand(m) * x^d mod g
        rng = random.Random(34)
        for e in params.registry():
            for n in (8, 9, 40):
                m = bytes(rng.randrange(256) for _ in range(n))
                assert engine_init(e).absorb(m).register == int.from_bytes(
                    classifier.classify(m, e).data, "big"), (e.index, n)

    def test_chunking_invariance(self):
        rng = random.Random(33)
        e = params.entry_for_aligned_bits(416)
        for _ in range(20):
            m = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
            eng = engine_init(e)
            pos = 0
            while pos < len(m):
                step = rng.randrange(1, len(m) - pos + 1)
                eng.absorb(m[pos:pos + step])
                pos += step
            assert eng.finish().data == engine_init(e).absorb(m).finish().data
