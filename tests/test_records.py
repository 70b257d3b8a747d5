"""The four record classes are immutable NamedTuples: their fields, in
order, and the construction, equality, hashing, truth and repr that callers
rely on."""

import pytest

from bruhatkit import (ComplexityReport, DeodharComponentShape, LeviAction,
                       Subexpression, enumerate_distinguished, from_word,
                       identity, levi_acts, root_system)


def _samples():
    """One field tuple per class, of the types the package puts there."""
    a2 = root_system("A", 2)
    e, s1 = identity(a2), from_word(a2, [1])
    return {
        ComplexityReport: ("torus_schubert", 0, {"w": "1", "length": 1}),
        LeviAction: (True, True, True, (), s1, s1),
        DeodharComponentShape: (1, 2),
        Subexpression: ((1,), ("skip",), (e, e), ((1, (1, 0)),), 1),
    }


FIELDS = {
    ComplexityReport: ("kind", "value", "witness"),
    LeviAction: ("acts", "descent_containment", "factor_equality",
                 "missing", "levi_factor", "longest_in_levi"),
    DeodharComponentShape: ("circ_count", "minus_count"),
    Subexpression: ("base_word", "choices", "prefixes", "betas", "td"),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_fields_construction_and_equality(cls):
    values = _samples()[cls]
    assert cls._fields == FIELDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    assert by_position == by_keyword == values
    assert tuple(by_position) == values
    assert [getattr(by_keyword, f) for f in FIELDS[cls]] == list(values)
    assert by_position != cls(*values[:-1], "other")
    assert not hasattr(by_position, "__dict__")
    with pytest.raises(AttributeError):
        setattr(by_position, FIELDS[cls][0], values[0])


def test_levi_action_truth_follows_acts():
    s1 = _samples()[LeviAction][-1]
    assert LeviAction(True, True, False, (), s1, s1)
    assert not LeviAction(False, False, True, (2,), s1, s1)
    a3 = root_system("A", 3)
    w = from_word(a3, [2, 1, 3, 2])
    assert not levi_acts([1], w) and not levi_acts([1], w).acts
    assert levi_acts([2], w) and levi_acts([2], w).missing == ()


def test_subexpression_repr_is_unchanged():
    a2, b3 = root_system("A", 2), root_system("B", 3)
    assert [repr(se) for se in enumerate_distinguished([1, 2, 1],
                                                       identity(a2))] == [
        "Subexpression(take,skip,take over 1.2.1 -> id)",
        "Subexpression(skip,skip,skip over 1.2.1 -> id)"]
    [se] = enumerate_distinguished([1, 2, 3, 2, 1], from_word(b3, [2]))
    assert repr(se) == (
        "Subexpression(skip,skip,skip,take,skip over 1.2.3.2.1 -> 2)")
    assert repr(DeodharComponentShape(1, 1)) == (
        "DeodharComponentShape(circ_count=1, minus_count=1)")
