import gc
import time
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest

from mirabolic import (
    COMPLEX,
    REAL,
    ExactMatrix,
    IndexSelection,
    enumerate_selections,
    inverse,
    partitions_of_weight,
    realize_orbit,
    selection_conjugator,
    selection_positions,
)
from mirabolic.corpus import complex_corpus, compositions, real_corpus
from mirabolic.moment import dense_selection, oracle_image, symbolic_image

from conftest import orbit


def selection_vector(o, sel):
    """0/1 vector of length n with ones at the selection's positions."""
    ones = set(selection_positions(o, sel))
    return tuple(1 if i + 1 in ones else 0 for i in range(o.size))


def regular_orbit(sizes):
    """One single-block class per entry of sizes, with distinct eigenvalues."""
    return orbit(COMPLEX, *(((len(sizes) - i), [s]) for i, s in enumerate(sizes)))


def reference_selections(o):
    """Reference enumeration for the chain generator, by scan: every
    coordinate tuple of every block subset, filtered by the staircase
    conditions, then sorted."""
    per_class = []
    for cls in o.classes:
        runs = cls.partition.runs_ascending()
        r = len(runs)
        out = []
        for mask in range(1, 1 << r):
            chosen = [i for i in range(r) if mask & (1 << i)]
            for xs in product(*(range(1, runs[i][0] + 1) for i in chosen)):
                if all(xs[a] < xs[a + 1]
                       and runs[chosen[a]][0] - xs[a] < runs[chosen[a + 1]][0] - xs[a + 1]
                       for a in range(len(chosen) - 1)):
                    out.append(tuple(zip(chosen, xs)))
        out.sort()
        per_class.append([None] + out)
    selections = [
        IndexSelection([(i, pairs) for i, pairs in enumerate(combo) if pairs is not None])
        for combo in product(*per_class)
        if any(pairs is not None for pairs in combo)
    ]
    selections.sort(key=lambda s: (tuple(i for i, _ in s.choices),
                                   tuple(pairs for _, pairs in s.choices)))
    return selections


def dutta_prasad_antichains(parts):
    """Nonempty antichains of the Dutta-Prasad poset of a partition.

    Its elements are the pairs (v, k), k a distinct part and 0 <= v < k, with
    (v, k) <= (v', k') iff v >= v' and k - v <= k' - v'.
    """
    elements = [(v, k) for k in set(parts) for v in range(k)]

    def comparable(a, b):
        (v, k), (w, m) = a, b
        return (v >= w and k - v <= m - w) or (w >= v and m - w <= k - v)

    return sum(
        1
        for size in range(1, len(elements) + 1)
        for subset in combinations(elements, size)
        if not any(comparable(a, b) for a, b in combinations(subset, 2))
    )


def one_class(parts):
    return orbit(COMPLEX, (0, list(parts)))


class TestAgainstReferences:
    def test_one_class_matches_the_scan(self):
        partitions = [p.parts for w in range(1, 11) for p in partitions_of_weight(w)]
        assert len(partitions) == 138
        for parts in partitions:
            o = one_class(parts)
            assert enumerate_selections(o) == reference_selections(o), parts

    def test_size_5_corpora_match_the_scan(self):
        for o in list(complex_corpus(5)) + list(real_corpus(5, require_pair=False)):
            assert enumerate_selections(o) == reference_selections(o)

    def test_count_is_the_dutta_prasad_antichain_count(self):
        partitions = [p.parts for w in range(1, 9) for p in partitions_of_weight(w)]
        assert len(partitions) == 66
        for parts in partitions:
            assert len(enumerate_selections(one_class(parts))) == \
                dutta_prasad_antichains(parts), parts

    def test_staircase_12_is_output_sensitive(self):
        # reference_selections would scan 2 * 3 * ... * 13 = 13! coordinate tuples
        start = time.perf_counter()
        count = len(enumerate_selections(one_class(range(12, 0, -1))))
        assert count == 2 ** 12 - 1
        assert time.perf_counter() - start < 1.0


class TestNoCycles:
    def test_dropped_selections_leave_no_cyclic_garbage(self):
        # a self-referencing helper closure would keep every selection alive
        # until the cyclic collector runs
        o = orbit(REAL, (1, [3, 2, 1]), (0, 1, [2, 1]))  # the north-star orbit
        enumerate_selections(o)  # fill the orbit's caches first
        gc.collect()
        gc.disable()
        try:
            selections = enumerate_selections(o)
            assert len(selections) == 31
            del selections
            assert gc.collect() == 0
        finally:
            gc.enable()


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

    def test_real_pair_offset(self):
        o = orbit(REAL, (0, 1, [1]))
        (sel,) = enumerate_selections(o)
        assert selection_positions(o, sel) == [2]

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
        assert inverse(g) == ExactMatrix([[1, 0, 0], [0, 1, 0], [-1, 0, 1]])

    def test_oracle_is_symbolic_at_fractional_eigenvalues(self):
        # every corpus eigenvalue is an integer, so the representative's
        # denominator d is 1 there; these fixed orbits have d > 1, which the
        # bordered state scales the selection vector by
        huge = Fraction(10**6) + Fraction(1, 7)
        orbits = [
            orbit(COMPLEX, ("1/3", [2, 1]), ("-7/2", [2]), (huge, [1])),
            orbit(COMPLEX, ("1/3", [3]), ("-7/2", [1, 1, 1])),
            orbit(REAL, ("1/3", "1/2", [1, 1]), ("-7/2", [2])),
            orbit(REAL, ("-7/2", "5/3", [2]), (huge, [1, 1])),
            orbit(REAL, (huge, "2/7", [1]), ("1/3", [2, 1, 1])),
        ]
        count = 0
        for o in orbits:
            x = realize_orbit(o)
            assert x.denominator > 1, o
            for sel in enumerate_selections(o):
                assert oracle_image(o, sel) == symbolic_image(o, sel), (o, sel)
                count += 1
        assert count == 47


class TestCanonicalConstruction:
    def test_enumerated_selections_are_already_normalized(self):
        # enumerate_selections skips the normalizing constructor, so each
        # selection must equal its re-normalized copy, structure and all
        one_class_orbits = [one_class(list(p)) for weight in range(1, 11)
                            for p in partitions_of_weight(weight)]
        corpora = list(complex_corpus(5)) + list(real_corpus(5, require_pair=True))
        for o in one_class_orbits + corpora:
            for sel in enumerate_selections(o):
                assert IndexSelection(sel.choices).choices == sel.choices


class TestSelectionJson:
    def test_shape(self):
        sel = IndexSelection({1: {0: 2}, 0: {1: 1}})
        assert sel.to_json() == {"0": {"1": 1}, "1": {"0": 2}}

    def test_round_trip_with_ten_or_more_classes(self):
        # class keys are strings in JSON: '10' must not sort before '2'
        o = orbit(COMPLEX, *((e, [1]) for e in range(12)))
        selections = enumerate_selections(o)
        assert len(selections) == 4095
        for sel in selections:
            assert IndexSelection(sel.to_json()) == sel

    def test_rejects_a_repeated_class(self):
        with pytest.raises(ValueError, match="class 0 is selected more than once"):
            IndexSelection([(0, ((0, 1),)), (0, ((0, 2),))])
        with pytest.raises(ValueError, match="class 1 is selected more than once"):
            IndexSelection({"1": {0: 1}, 1: {0: 1}})

    def test_rejects_a_repeated_block_within_a_class(self):
        # e.g. block 1 of C {0:[3,1]} at x = 1 and at x = 2
        with pytest.raises(ValueError, match="class 0 selects a block more than once"):
            IndexSelection([(0, [(1, 1), (1, 2)])])
        with pytest.raises(ValueError, match="class 0 selects a block more than once"):
            IndexSelection({0: {"1": 1, 1: 2}})
        # the same block in different classes is a valid selection
        o = orbit(COMPLEX, (0, [1]), (1, [1]))
        assert IndexSelection({0: {0: 1}, 1: {0: 1}}) in enumerate_selections(o)

    @pytest.mark.parametrize("choices", [
        [(0, [(0, 1.5)])],  # int() would select x = 1
        [(0, [(0.0, 1)])],
        [(0.0, [(0, 1)])],
        [(0, [(0, Fraction(3, 2))])],
    ])
    def test_rejects_an_index_that_is_not_an_int(self, choices):
        with pytest.raises(TypeError):
            IndexSelection(choices)

    @pytest.mark.parametrize("index", [" 1", "0_0", "+1", "01", "\u0661"])
    def test_rejects_a_string_that_to_json_does_not_write(self, index):
        # int() reads each of these, the last an Arabic-Indic one
        with pytest.raises(ValueError):
            IndexSelection({index: {0: 1}})
        with pytest.raises(ValueError):
            IndexSelection({0: {index: 1}})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IndexSelection({})
        with pytest.raises(ValueError):
            IndexSelection({0: {}})
