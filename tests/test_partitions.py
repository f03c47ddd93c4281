import pytest
from hypothesis import given, strategies as st

from gammagenus.partitions import (
    as_partition,
    is_partition,
    partitions_of,
    sort_key,
    weight,
)
from gammagenus.symfunc import SymPoly
from gammagenus.words import QsymPoly
from gammagenus.zetaring import check_convergent_composition


def test_partitions_of_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(2) == ((2,), (1, 1))
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partition_counts():
    counts = [len(partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_are_partitions_and_sum_right():
    for n in range(9):
        for lam in partitions_of(n):
            assert is_partition(lam)
            assert weight(lam) == n


def test_enumeration_matches_sort_key_order():
    # the enumeration order is the package-wide canonical order
    for n in range(9):
        parts = partitions_of(n)
        assert list(parts) == sorted(parts, key=sort_key)
        assert len(set(parts)) == len(parts)


def test_sort_key_across_weights():
    assert sort_key(()) < sort_key((1,))
    assert sort_key((3,)) < sort_key((2, 1, 1))  # weight wins first
    assert sort_key((2, 1)) < sort_key((1, 1, 1))


def test_as_partition_accepts_and_canonicalizes():
    assert as_partition([3, 1]) == (3, 1)
    assert as_partition(()) == ()


@pytest.mark.parametrize("bad", [(1, 2), (0,), (-1,), (2, 0), (1.5,)])
def test_as_partition_rejects(bad):
    with pytest.raises(ValueError):
        as_partition(bad)


def test_bool_parts_are_not_partitions():
    assert not is_partition((True,))
    assert not is_partition((2, True))
    with pytest.raises(ValueError):
        as_partition((True,))
    with pytest.raises(ValueError):
        SymPoly.basis_element("m", (True,))


@pytest.mark.parametrize("bad", [True, 0, 2.0])
def test_one_letter_check_refuses_bools_zero_and_floats(bad):
    # partitions, words and compositions share one check and keep their messages
    with pytest.raises(ValueError, match=r"^not a partition: "):
        as_partition((2, bad))
    with pytest.raises(ValueError, match=r"^word letters must be integers >= 1: "):
        QsymPoly.from_word((2, bad))
    with pytest.raises(ValueError, match=r"^composition entries must be integers >= 1: "):
        check_convergent_composition((2, bad))


def test_partitions_of_rejects_negative():
    with pytest.raises(ValueError):
        partitions_of(-1)


@given(st.integers(min_value=0, max_value=12))
def test_first_and_last_in_fixed_order(n):
    parts = partitions_of(n)
    if n == 0:
        assert parts == ((),)
    else:
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
