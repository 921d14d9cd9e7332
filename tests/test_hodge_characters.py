from collections import Counter

import pytest

from fermatlat.errors import NonUniqueError
from fermatlat.fermat_homology import rank_formula
from fermatlat.hodge_characters import (
    HodgeCharacter,
    enumerate_characters,
    fermat_class_character,
    hodge_numbers,
    hodge_type,
)


def printed_formula_value(ch):
    """The alternative closed-form value (p, q) of the Hodge type, or
    (-1, -1) where it is not an integer."""
    num = ch.n + 2 + ch.weight
    if num % ch.d:
        return (-1, -1)
    p = -1 + num // ch.d
    return p, ch.n - p


def character_report(d, n):
    """JSON-ready report of all characters with both Hodge-type readings."""
    chars = enumerate_characters(d, n)
    rows = []
    for ch in chars:
        p, q = ch.hodge_type()
        printed = printed_formula_value(ch)
        rows.append({
            "K": list(ch.exponents),
            "weight": ch.weight,
            "p": p,
            "q": q,
            "printed_formula_p": printed[0],
        })
    return {
        "d": d,
        "n": n,
        "count": len(chars),
        "characters": rows,
        "hodge_numbers": {str(p): h for p, h in hodge_numbers(d, n).items()},
    }


def test_enumeration_counts():
    assert len(enumerate_characters(3, 2)) == 6
    assert all(c.weight == 6 for c in enumerate_characters(3, 2))
    assert len(enumerate_characters(3, 0)) == 2
    chars4 = enumerate_characters(3, 4)
    assert len(chars4) == 22
    assert Counter(c.weight for c in chars4) == {6: 1, 9: 20, 12: 1}


def test_enumeration_is_lex_sorted():
    chars = enumerate_characters(3, 2)
    assert chars == sorted(chars, key=lambda c: c.exponents)


def test_hodge_types():
    assert HodgeCharacter(3, 4, (2,) * 6).hodge_type() == (3, 1)
    assert HodgeCharacter(3, 4, (1,) * 6).hodge_type() == (1, 3)
    assert all(hodge_type(c) == (1, 1) for c in enumerate_characters(3, 2))


def test_hodge_numbers():
    assert hodge_numbers(3, 4) == {1: 1, 2: 20, 3: 1}
    assert hodge_numbers(3, 3) == {1: 5, 2: 5}
    assert hodge_numbers(3, 2) == {1: 6}
    assert hodge_numbers(3, 1) == {0: 1, 1: 1}


def test_hodge_symmetry_and_counts():
    for d in (3, 4, 5):
        for n in range(5):
            hn = hodge_numbers(d, n)
            assert all(hn[p] == hn[n - p] for p in hn)
            assert sum(hn.values()) == rank_formula(d, n)


def test_conjugation_swaps_types():
    for c in enumerate_characters(4, 3):
        assert c.conjugate().hodge_type() == tuple(reversed(c.hodge_type()))


def test_fermat_class_character():
    assert fermat_class_character(3, 4).exponents == (2,) * 6
    assert fermat_class_character(3, 1).exponents == (2, 2, 2)
    assert fermat_class_character(3, 1).hodge_type() == (1, 0)
    with pytest.raises(NonUniqueError):
        fermat_class_character(3, 2)


def test_report_records_printed_formula():
    rep = character_report(3, 4)
    assert rep["count"] == 22
    top = next(r for r in rep["characters"] if r["K"] == [2] * 6)
    assert top["p"] == 3
    # the printed closed form gives the inconsistent value 5 here
    assert top["printed_formula_p"] == 5


def test_invalid_characters_rejected():
    with pytest.raises(ValueError):
        HodgeCharacter(3, 2, (1, 1, 1, 1))  # sum not divisible
    with pytest.raises(ValueError):
        HodgeCharacter(3, 2, (0, 1, 2, 3))  # entries out of range


def test_negative_count_bookkeeping():
    # The negative index of the lattice signature matches the extreme Hodge
    # numbers in the two asserted instances.
    from fermatlat.fermat_homology import build_primitive
    from fermatlat.lattice_core import signature

    hn4 = hodge_numbers(3, 4)
    assert signature(build_primitive(3, 4).lattice)[1] == 2 == hn4[3] + hn4[1]
    hn2 = hodge_numbers(3, 2)
    assert signature(build_primitive(3, 2).lattice)[1] == 6 == hn2[1]
