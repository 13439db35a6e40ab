import hashlib

import pytest

from badderlocks import classifier, params
from badderlocks.reefshoal import assemble, plan_layout

FOX = b"The quick brown fox jumps over the lazy dog"


class TestPlanLayout:
    def test_2048_sha256(self):
        layout = plan_layout(2048, 256)
        assert layout.classifier_bits == 1744
        assert layout.reserve_bits == 16
        assert layout.padding_bytes == b"\x00\x01"

    def test_512_sha256(self):
        assert plan_layout(512, 256).classifier_bits == 192

    def test_nothing_fits(self):
        with pytest.raises(ValueError, match="minimum feasible modulus"):
            plan_layout(256, 256)

    def test_rejects_non_byte_multiples(self):
        with pytest.raises(ValueError):
            plan_layout(2047, 256)
        with pytest.raises(ValueError):
            plan_layout(2048, 250)

    def test_custom_padding(self):
        layout = plan_layout(2048, 256, reserve_bits=32, padding=b"\x00\x00\xBE\xEF")
        assert layout.padding_bytes == b"\x00\x00\xBE\xEF"
        with pytest.raises(ValueError):
            plan_layout(2048, 256, reserve_bits=32, padding=b"\x01")

    def test_equal_arguments_share_one_layout(self):
        layout = plan_layout(2048, 256)
        assert plan_layout(2048, 256) is layout
        assert plan_layout(2048, 256, 16, b"\x00\x01") is plan_layout(2048, 256, 16, b"\x00\x01")
        assert plan_layout(2048, 256, 16, b"\x00\x01") == layout
        assert plan_layout(1024, 256) is not layout

    def test_bytes_like_padding_is_kept_as_bytes(self):
        padding = bytearray(b"\x00\x00\xBE\xEF")
        layout = plan_layout(2048, 256, reserve_bits=32, padding=padding)
        padding[3] = 0  # the layout holds a copy
        assert type(layout.padding_bytes) is bytes and layout.padding_bytes == b"\x00\x00\xBE\xEF"
        assert plan_layout(2048, 256, 32, memoryview(b"\x00\x00\xBE\xEF")) is layout
        with pytest.raises(TypeError):  # not bytes-like: no count of zero bytes either
            plan_layout(2048, 256, padding=2)

    def test_a_failing_call_fails_every_time(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="minimum feasible modulus"):
                plan_layout(256, 256)
            with pytest.raises(ValueError, match="padding length"):
                plan_layout(2048, 256, padding=b"\x01")


class TestAssemble:
    def test_fox_segments(self):
        layout = plan_layout(64 + 256 + 16, 256)
        assert layout.classifier_bits == 64
        h = hashlib.sha256(FOX).digest()
        rep = assemble(FOX, h, layout)
        assert rep[:2] == b"\x00\x01"
        assert rep[2:10].hex().upper() == "4A0B6AAA2BA80913"
        assert rep[10:] == h

    def test_length_law(self):
        for modulus, hash_bits in [(512, 256), (1024, 256), (2048, 512), (4096, 0)]:
            layout = plan_layout(modulus, hash_bits)
            rep = assemble(b"msg", b"\x55" * (hash_bits // 8), layout)
            assert len(rep) * 8 == (layout.reserve_bits + layout.classifier_bits
                                    + layout.hash_bits)
            assert len(rep) * 8 <= modulus

    def test_degenerate_no_hash(self):
        layout = plan_layout(256, 0)
        rep = assemble(b"abc", b"", layout)
        assert rep == layout.padding_bytes + classifier.classify(b"abc", layout.entry).data

    def test_classifier_segment_standalone(self):
        layout = plan_layout(1024, 256)
        rep = assemble(b"hello", b"\x00" * 32, layout)
        start = layout.reserve_bits // 8
        end = start + layout.classifier_bits // 8
        assert rep[start:end] == classifier.classify(b"hello", layout.entry).data

    def test_deterministic(self):
        layout = plan_layout(1024, 256)
        h = hashlib.sha256(b"m").digest()
        assert assemble(b"m", h, layout) == assemble(b"m", h, layout)

    def test_hash_length_mismatch(self):
        layout = plan_layout(1024, 256)
        with pytest.raises(ValueError):
            assemble(b"m", b"\x00" * 31, layout)
