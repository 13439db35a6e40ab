import pytest

from badderlocks import gf2poly, params
from badderlocks.params import (
    registry,
    select_generator,
    size_for_index,
    verify_entry,
)


class TestSizeFormula:
    @pytest.mark.parametrize("index,bits", [(1, 64), (8, 608), (30, 4320)])
    def test_known_values(self, index, bits):
        assert size_for_index(index) == bits

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            size_for_index(0)
        with pytest.raises(ValueError):
            size_for_index(31)


class TestRegistry:
    def test_count(self):
        assert len(registry()) == 30

    def test_entry_1(self):
        e = registry()[0]
        assert (e.target_bits, e.aligned_bits, e.degree) == (64, 64, 63)
        assert (e.w, e.n, e.m) == (21, 3, 2)
        assert e.phi == gf2poly.parse_hex("3FC417")

    def test_entry_13(self):
        e = registry()[12]
        assert (e.target_bits, e.aligned_bits, e.degree) == (1184, 1184, 1180)
        assert (e.w, e.n, e.m) == (20, 59, 15)

    def test_size_laws_all_entries(self):
        for e in registry():
            assert size_for_index(e.index) == e.target_bits
            assert e.degree == e.w * e.n
            assert e.aligned_bits == 8 * ((e.degree + 7) // 8)
            assert e.aligned_bits <= e.target_bits
            assert e.generator.degree == e.degree

    def test_lookup_by_aligned_bits(self):
        assert params.entry_for_aligned_bits(64).index == 1
        assert params.entry_for_aligned_bits(4288).index == 30
        with pytest.raises(KeyError):
            params.entry_for_aligned_bits(60)


class TestVerifyEntry:
    def test_quick_all_pass(self):
        for e in registry():
            report = verify_entry(e, level="quick")
            assert report.ok, (e.index, report.failures())

    def test_quick_includes_compose_check(self):
        e = registry()[0]
        report = verify_entry(e)
        names = [name for name, _ in report.checks]
        assert "generator equals phi(x^n + x^m)" in names
        assert gf2poly.render_hex(e.generator, group=True) == "DE9DE437 C050115D"

    def test_corrupted_generator_fails_compose(self):
        e = registry()[0]
        bad = e._replace(generator=e.generator ^ gf2poly.BitPolynomial(1 << 10))
        report = verify_entry(bad)
        assert not report.ok
        assert "generator equals phi(x^n + x^m)" in report.failures()

    def test_full_level_entry_1(self):
        report = verify_entry(registry()[0], level="full")
        assert report.ok, report.failures()
        names = [name for name, _ in report.checks]
        assert "generator irreducible" in names
        assert "Berlekamp-Massey round-trip" in names

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            verify_entry(registry()[0], level="paranoid")


class TestSelectGenerator:
    def test_exact_fit(self):
        assert select_generator(64).index == 1

    def test_largest_below_budget(self):
        assert select_generator(1776).aligned_bits == 1744

    def test_nothing_fits(self):
        with pytest.raises(ValueError, match="no generator fits"):
            select_generator(63)

    def test_monotone(self):
        prev = 0
        for budget in range(64, 4500, 57):
            chosen = select_generator(budget).aligned_bits
            assert chosen >= prev
            prev = chosen
