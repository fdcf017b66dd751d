from fractions import Fraction
from math import prod

import pytest

from mirabolic import (
    COMPLEX,
    REAL,
    ExactMatrix,
    IndexSelection,
    enumerate_selections,
    inverse,
    selection_conjugator,
    selection_positions,
    selection_vector,
)
from mirabolic.corpus import compositions
from mirabolic.moment import dense_selection

from conftest import orbit


def regular_orbit(sizes):
    """One single-block class per entry of sizes, with distinct eigenvalues."""
    return orbit(COMPLEX, *(((len(sizes) - i), [s]) for i, s in enumerate(sizes)))


class TestCounts:
    def test_regular_semisimple_n2(self):
        assert len(enumerate_selections(regular_orbit([1, 1]))) == 3

    def test_single_point_class(self):
        assert len(enumerate_selections(orbit(COMPLEX, (0, [1])))) == 1

    def test_two_one_partition(self):
        sels = enumerate_selections(orbit(COMPLEX, (0, [2, 1])))
        assert [s.to_json() for s in sels] == [
            {"0": {"0": 1}},
            {"0": {"1": 1}},
            {"0": {"1": 2}},
        ]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_regular_count_formula(self, n):
        for k in range(1, n + 1):
            for sizes in compositions(n, k):
                count = len(enumerate_selections(regular_orbit(sizes)))
                assert count == prod(s + 1 for s in sizes) - 1


class TestConditions:
    def test_staircase_conditions_hold(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4 + real_corpus_4:
            for sel in enumerate_selections(o):
                for cls_idx, pairs in sel.choices:
                    runs = o.classes[cls_idx].partition.runs_ascending()
                    xs = [x for _, x in pairs]
                    ks = [runs[i][0] for i, _ in pairs]
                    assert all(1 <= x <= k for x, k in zip(xs, ks))
                    assert all(a < b for a, b in zip(xs, xs[1:]))
                    gaps = [k - x for k, x in zip(ks, xs)]
                    assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_selections_distinct(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4 + real_corpus_4:
            sels = enumerate_selections(o)
            assert len(set(sels)) == len(sels)
            vectors = [selection_vector(o, s) for s in sels]
            assert len(set(vectors)) == len(vectors)


class TestPositions:
    def test_dense_positions_are_partial_sums(self):
        o = regular_orbit([2, 3, 1])
        dense = dense_selection(o)
        # class sizes in canonical order are the partial-sum breakpoints
        sizes = [c.contribution for c in o.classes]
        expected = [sum(sizes[: i + 1]) for i in range(len(sizes))]
        assert selection_positions(o, dense) == expected

    def test_single_class_single_box(self):
        o = orbit(COMPLEX, (0, [1]))
        sel = enumerate_selections(o)[0]
        assert selection_vector(o, sel) == (1,)

    def test_real_pair_offset(self):
        o = orbit(REAL, (0, 1, [1]))
        (sel,) = enumerate_selections(o)
        assert selection_positions(o, sel) == [2]
        assert selection_vector(o, sel) == (0, 1)

    def test_pair_class_slot_layout(self):
        # ascending blocks 1 then 2 of a pair class; chosen block (1, x)
        # sits at 2*1*1 + 2*(2*1 - 1) + x = 4 + x
        o = orbit(REAL, (0, 1, [2, 1]))
        positions = {
            tuple(sel.choices): selection_positions(o, sel)
            for sel in enumerate_selections(o)
        }
        assert positions[((0, ((0, 1),)),)] == [2]
        assert positions[((0, ((1, 1),)),)] == [5]
        assert positions[((0, ((1, 2),)),)] == [6]


class TestConjugator:
    def test_last_row_is_selection_vector(self, complex_corpus_4, real_corpus_4):
        one, zero = Fraction(1), Fraction(0)
        for o in complex_corpus_4[::5] + real_corpus_4[::5]:
            for sel in enumerate_selections(o):
                g = selection_conjugator(o, sel)
                vec = selection_vector(o, sel)
                assert tuple(g.data[o.size - 1]) == tuple(
                    one if bit else zero for bit in vec
                )
                inverse(g)  # must be invertible

    def test_identity_when_last_position_selected(self):
        o = orbit(COMPLEX, (0, [2]))
        g = selection_conjugator(o, dense_selection(o))
        assert g == ExactMatrix.identity(2)

    def test_swap_for_first_position(self):
        o = regular_orbit([1, 1])
        sel = IndexSelection({0: {0: 1}})
        assert selection_conjugator(o, sel) == ExactMatrix([[0, 1], [1, 0]])

    def test_bordered_form(self):
        o = orbit(COMPLEX, (1, [1]), (0, [2]))
        sel = IndexSelection({0: {0: 1}, 1: {0: 2}})
        assert selection_positions(o, sel) == [1, 3]
        g = selection_conjugator(o, sel)
        assert g == ExactMatrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]])


class TestSelectionJson:
    def test_shape(self):
        sel = IndexSelection({1: {0: 2}, 0: {1: 1}})
        assert sel.to_json() == {"0": {"1": 1}, "1": {"0": 2}}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IndexSelection({})
        with pytest.raises(ValueError):
            IndexSelection({0: {}})
