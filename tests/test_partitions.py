from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mirabolic import Partition, partitions_of_weight

from conftest import without_largest_part

part_lists = st.lists(st.integers(min_value=1, max_value=12), max_size=8)


def test_canonical_storage():
    p = Partition([1, 3, 2, 3])
    assert p.parts == (3, 3, 2, 1)
    assert p.weight == 9
    assert Partition([2, 0, 1]).parts == (2, 1)
    with pytest.raises(ValueError):
        Partition([2, -1])


@pytest.mark.parametrize("parts", [[2.7, 1], [Fraction(5, 2)], ["2"]])
def test_parts_that_are_not_ints_are_refused(parts):
    # int() would truncate 2.7 to 2 and so make this Partition([2, 1])
    with pytest.raises(TypeError):
        Partition(parts)


def test_dual_examples():
    assert Partition([4]).dual() == Partition([1, 1, 1, 1])
    assert Partition([2, 2]).dual() == Partition([2, 2])
    assert Partition([3, 1]).dual() == Partition([2, 1, 1])
    assert Partition().dual() == Partition()


def test_runs_and_exponent_notation():
    p = Partition([3, 3, 2])
    assert p.runs() == ((3, 2), (2, 1))
    assert p.runs_ascending() == ((2, 1), (3, 2))


def test_laws_exhaustive_to_weight_12():
    for weight in range(13):
        for p in partitions_of_weight(weight):
            d = p.dual()
            assert d.dual() == p
            assert d.weight == p.weight
            assert len(d) == p.largest()
            if p:
                removed = without_largest_part(p)
                decremented = Partition([t - 1 for t in d])
                assert removed.dual() == decremented


def test_dual_is_computed_once_and_is_the_transposition():
    for weight in range(13):
        for p in partitions_of_weight(weight):
            d = p.dual()
            assert p.dual() is d
            columns = [sum(1 for part in p if part > i) for i in range(p.largest())]
            assert d.parts == tuple(columns)
            assert d == Partition(columns)


@given(part_lists)
def test_dual_involution_random(parts):
    p = Partition(parts)
    assert p.dual().dual() == p


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, count in enumerate(expected):
        assert sum(1 for _ in partitions_of_weight(n)) == count
