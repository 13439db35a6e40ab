"""The value contract of the library's record types: immutable, equal by value, picklable."""

import pickle

import pytest

from badderlocks import fastcrc, params, reefshoal
from badderlocks.gf2poly import BitPolynomial
from badderlocks.params import GeneratorEntry, VerificationReport
from badderlocks.sbox import CodewordTable, codeword_table

ENTRY_FIELDS = ("index", "target_bits", "aligned_bits", "degree", "w", "n", "m", "phi",
                "generator")


def twin_entry():
    """A registry entry and an equal one built field by field from fresh polynomials."""
    e = params.registry()[16]
    fields = {name: getattr(e, name) for name in ENTRY_FIELDS}
    fields.update(phi=BitPolynomial(e.phi.value), generator=BitPolynomial(e.generator.value))
    return e, GeneratorEntry(**fields)


# each case: two equal instances built separately, and one field name
RECORDS = {
    "BitPolynomial": lambda: (BitPolynomial(0x1B), BitPolynomial(0x1B), "value"),
    "CodewordTable": lambda: (codeword_table(), CodewordTable(tuple(codeword_table().entries)),
                              "entries"),
    "GeneratorEntry": lambda: (*twin_entry(), "generator"),
    "VerificationReport": lambda: (VerificationReport(3, (("a", True), ("b", False))),
                                   VerificationReport(3, (("a", True), ("b", False))), "checks"),
    # plan_layout returns one layout for equal arguments, so the second is a copy
    "RepresentativeLayout": lambda: (reefshoal.plan_layout(2048, 256),
                                     reefshoal.plan_layout(2048, 256)._replace(), "entry"),
    "CrcTables": lambda: (fastcrc.build_tables(params.registry()[16]),
                          fastcrc.build_tables(params.registry()[16]), "words"),
}


@pytest.mark.parametrize("kind", RECORDS)
class TestRecordContract:
    def test_fields_cannot_be_assigned_or_deleted(self, kind):
        a, _, name = RECORDS[kind]()
        before = getattr(a, name)
        with pytest.raises(AttributeError):  # a dataclass's FrozenInstanceError is one
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.not_a_field = 1
        assert getattr(a, name) is before

    def test_equal_by_value(self, kind):
        a, b, _ = RECORDS[kind]()
        assert a is not b
        assert a == b and not a != b
        if kind != "CrcTables":  # its packed tables are arrays, which do not hash
            assert hash(a) == hash(b)
            assert len({a, b}) == 1


# CrcTables is left out: it holds the extension module's functions
@pytest.mark.parametrize("kind", [kind for kind in RECORDS if kind != "CrcTables"])
def test_pickle_round_trip(kind):
    a, _, _ = RECORDS[kind]()
    assert pickle.loads(pickle.dumps(a)) == a


def test_unequal_values_compare_unequal():
    e, _ = twin_entry()
    assert BitPolynomial(5) != BitPolynomial(4)
    assert BitPolynomial(5) != 5
    assert params.registry()[0] != e
    assert reefshoal.plan_layout(2048, 256) != reefshoal.plan_layout(4096, 256)


def test_bit_polynomial_validates_and_renders():
    with pytest.raises(ValueError):
        BitPolynomial(-1)
    assert repr(BitPolynomial(5)) == "BitPolynomial(0x5)"
    assert repr(BitPolynomial(0)) == "BitPolynomial(0x0)"
    assert BitPolynomial(0b1011) and not BitPolynomial(0)
