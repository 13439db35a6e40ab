import random

import pytest

from badderlocks import gf2poly
from badderlocks.sbox import (
    FILLER,
    CodewordTable,
    candidates_308,
    codeword_table,
    expand_message,
)


class TestCandidates:
    def test_cardinality(self):
        assert len(candidates_308()) == 308

    def test_filler_is_candidate(self):
        # 71 = 0b001000111: weight 4, max run 3, 2 leading zeros, 3 trailing ones
        assert FILLER in candidates_308()

    def test_all_zero_excluded(self):
        assert 0 not in candidates_308()

    def test_rules_hold(self):
        for v in candidates_308():
            bits = f"{v:09b}"
            assert 3 <= bits.count("1") <= 6
            assert "000000" not in bits and "111111" not in bits
            assert not bits.startswith("000") and not bits.startswith("111")
            assert not bits.endswith("0000") and not bits.endswith("1111")


class TestCodewordTable:
    def test_first_and_last(self):
        t = codeword_table()
        assert t.entries[0x00] == 69
        assert t.entries[0xFF] == 442

    def test_entry_0x41(self):
        # counted through the range list: 69-70 (2), 73-78 (8), 81-94 (22),
        # 98-110 (35), 113-118 (41), 120-122 (44), 124 (45), 134 (46),
        # 138-142 (51), 146-158 (64); index 64 is 162, index 65 is 163
        assert codeword_table().entries[0x41] == 163

    def test_strictly_increasing_subset(self):
        t = codeword_table()
        assert len(t.entries) == 256
        assert all(b > a for a, b in zip(t.entries, t.entries[1:]))
        assert set(t.entries) <= candidates_308()
        assert FILLER not in t.entries

    def test_construction_rejects_bad_tables(self):
        good = list(codeword_table().entries)
        with pytest.raises(ValueError):
            CodewordTable(entries=tuple(good[:255]))
        swapped = good.copy()
        swapped[0], swapped[1] = swapped[1], swapped[0]
        with pytest.raises(ValueError, match="increasing"):
            CodewordTable(entries=tuple(swapped))
        with_filler = good.copy()
        with_filler[0] = FILLER
        with pytest.raises(ValueError):
            CodewordTable(entries=tuple(with_filler))
        outside = good.copy()
        outside[0] = 1  # weight 1, not a candidate
        with pytest.raises(ValueError, match="candidate"):
            CodewordTable(entries=tuple(outside))

    @pytest.mark.xfail(
        strict=True,
        reason="the published table admits boundary windows of weight 1 and 8 "
               "(e.g. 88 followed by 69, 87 followed by 377); "
               "see test_window_weights_actual_bound",
    )
    def test_window_weights_claimed_bound(self):
        # the design claim: every 9-bit sliding window over any codeword
        # pair stays in [2,7]
        values = codeword_table().entries + (FILLER,)
        for a in values:
            for b in values:
                pair = (a << 9) | b
                for off in range(10):
                    w = ((pair >> off) & 0x1FF).bit_count()
                    assert 2 <= w <= 7, (a, b, off)

    def test_window_weights_actual_bound(self):
        # what the rules actually guarantee: runs across a codeword boundary
        # cannot exceed 3 trailing + 2 leading bits, and no codeword holds a
        # run over 5, so no pair holds a run of 6; no window is ever all-zero
        # or all-one, so weights stay in [1,8]
        values = codeword_table().entries + (FILLER,)
        for a in values:
            for b in values:
                bits = f"{a:09b}{b:09b}"
                assert "000000" not in bits and "111111" not in bits, (a, b)
                pair = (a << 9) | b
                for off in range(10):
                    w = ((pair >> off) & 0x1FF).bit_count()
                    assert 1 <= w <= 8, (a, b, off)


class TestExpandMessage:
    def test_ascending_bytes_row(self):
        p = expand_message(bytes(range(8)))
        assert gf2poly.render_hex(p) == "22918924A259309A4E"

    def test_ascii_row(self):
        p = expand_message(b"pqrstuvw")
        assert gf2poly.render_hex(p) == "6E385C4E372395CCE7"

    def test_empty_message_is_eight_fillers(self):
        expected = 0
        for _ in range(8):
            expected = (expected << 9) | FILLER
        assert expand_message(b"").value == expected
        assert gf2poly.render_hex(expand_message(b"")) == "2391C8E472391C8E47"

    def test_length_law(self):
        rng = random.Random(10)
        for n in [0, 1, 5, 7, 8, 9, 100]:
            m = bytes(rng.randrange(256) for _ in range(n))
            p = expand_message(m)
            bits = 9 * max(8, n)
            assert p.value < (1 << bits)
            if n >= 8:
                # top codeword has a 1 within its top 7 bits (weight >= 3,
                # at most 2 identical MSBs), so the length is tight enough
                assert p.value >> (bits - 9)

    def test_injective_length_one(self):
        outputs = {expand_message(bytes([b])).value for b in range(256)}
        assert len(outputs) == 256

    def test_injective_random_lengths(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            msgs = {bytes(rng.randrange(256) for _ in range(n)) for _ in range(300)}
            outputs = {expand_message(m).value for m in msgs}
            assert len(outputs) == len(msgs)
