import random
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mirabolic import (
    COMPLEX,
    REAL,
    EigenvalueClass,
    ExactMatrix,
    MirabolicOrbitDatum,
    OrbitDatum,
    OrbitSpecError,
    Partition,
    inverse,
    jordan_block,
    jordan_structure,
    orbit_from_json,
    orbit_from_matrix,
    pair_block,
    project_to_p_star,
    rank,
    realize_normal_form,
    realize_orbit,
)

from mirabolic import orbit_model
from mirabolic.corpus import complex_corpus, real_corpus
from mirabolic.orbit_model import MAX_DECIMAL_EXPONENT, parse_rational

from conftest import orbit


def _hand_built_pair_block(size, re, im):
    """pair_block as it was built before it became block_diag(j, j) + T * im:
    the rows of J_k(a) brought to the common denominator by hand."""
    b = Fraction(im)
    j = jordan_block(size, re)
    d = lcm(j.denominator, b.denominator)
    f, off = d // j.denominator, b.numerator * (d // b.denominator)
    rows = [{k: f * v for k, v in row.items()} for row in j.numerators]
    rows += [{size + k: v for k, v in row.items()} for row in rows]
    if off:
        for i in range(size):
            rows[i][size + i] = off
            rows[size + i][i] = -off
    return ExactMatrix.from_integer(d, rows, 2 * size)


class TestRealize:
    def test_single_nilpotent_block(self):
        o = orbit(COMPLEX, (0, [2]))
        assert realize_orbit(o) == ExactMatrix([[0, 0], [1, 0]])

    def test_real_pair_block(self):
        o = orbit(REAL, (0, 1, [1]))
        assert realize_orbit(o) == ExactMatrix([[0, 1], [-1, 0]])

    def test_semisimple_uses_canonical_descending_order(self):
        o = orbit(COMPLEX, (1, [1]), (2, [1]))
        assert realize_orbit(o) == ExactMatrix([[2, 0], [0, 1]])

    def test_blocks_ascend_within_class(self):
        o = orbit(COMPLEX, (0, [2, 1]))
        assert realize_orbit(o) == ExactMatrix(
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
        )

    def test_size(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4 + real_corpus_4:
            assert realize_orbit(o).rows == o.size

    def test_representative_is_built_once_per_orbit(self):
        o = orbit(REAL, (1, [2, 1]), (0, "1/2", [2, 1]))
        x = realize_orbit(o)
        assert realize_orbit(o) is x
        fresh = orbit(REAL, (0, "1/2", [2, 1]), (1, [2, 1]))
        assert realize_orbit(fresh) == x
        # the stored representative is no part of the orbit's value
        assert (fresh, hash(fresh), fresh.to_json()) == (o, hash(o), o.to_json())

    def test_block_layout_places_every_block_of_the_representative(self):
        o = orbit(REAL, (1, [2, 1]), (0, "1/2", [2, 1]), (3, [1, 1]))
        layout = orbit_model.block_layout(o)
        # classes in canonical order (3, 1, then the pair), sizes ascending
        assert layout == ((0, 1, 0, 1), (1, 2, 0, 1), (2, 3, 1, 1), (3, 5, 1, 2),
                          (5, 7, 2, 1), (7, 11, 2, 2))
        assert orbit_model.block_layout(o) is layout  # kept beside the representative
        x = realize_orbit(o)
        for start, end, idx, k in layout:
            cls = o.classes[idx]
            block = pair_block(k, cls.re, cls.im) if cls.is_pair else jordan_block(k, cls.re)
            assert x.submatrix(start, end, start, end) == block
            # nothing outside the diagonal block
            assert all(start <= j < end for row in x.numerators[start:end] for j in row)
        assert layout[-1][1] == o.size

    @pytest.mark.parametrize("re, im", [("1/2", "3/2"), ("-2/3", "1/5"), (0, 1)])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_pair_block_matches_the_hand_built_rows(self, size, re, im):
        block = pair_block(size, re, im)
        expected = _hand_built_pair_block(size, re, im)
        assert block == expected and hash(block) == hash(expected)
        b, j = Fraction(im), jordan_block(size, re).data
        dense = [list(row) + [b if c == r else 0 for c in range(size)]
                 for r, row in enumerate(j)]
        dense += [[-b if c == r else 0 for c in range(size)] + list(row)
                  for r, row in enumerate(j)]
        assert block == ExactMatrix(dense)

    def test_normal_form_realization(self):
        datum = MirabolicOrbitDatum(2, orbit(COMPLEX, (1, [1])))
        assert realize_normal_form(datum) == ExactMatrix(
            [[1, 0, 0], [0, 0, 0], [0, 1, 0]]
        )


class TestProject:
    def test_fixed_point(self):
        x = ExactMatrix([[1, 0], [3, 0]])
        assert project_to_p_star(x) == x

    def test_empty_matrix(self):
        p = project_to_p_star(ExactMatrix([]))
        assert (p.rows, p.cols, p.denominator, p.numerators) == (0, 0, 1, [])

    def test_nilpotent_block_untouched(self):
        j = jordan_block(2)
        assert project_to_p_star(j) == j

    def test_kills_last_column(self):
        assert project_to_p_star(ExactMatrix([[1, 5], [3, 7]])) == ExactMatrix(
            [[1, 0], [3, 0]]
        )

    def test_idempotent_and_linear(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 4)
            a = ExactMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            b = ExactMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            pa = project_to_p_star(a)
            assert project_to_p_star(pa) == pa
            assert project_to_p_star(a + b) == pa + project_to_p_star(b)


def _jordan_content(o):
    """Hyperbolic, elliptic and nilpotent content of the realized orbit.

    Read off the Jordan structure of realize_orbit(o): real parts with total
    multiplicities, imaginary parts with multiplicities (conjugates listed
    separately), and the block partition at each eigenvalue, a rational r
    or a pair (a, b) for a +- ib.
    """
    structure = jordan_structure(realize_orbit(o), o.spectrum())
    hyper, elliptic = {}, {}
    for lam, partition in structure.items():
        re, im = lam if isinstance(lam, tuple) else (lam, 0)
        hyper[re] = hyper.get(re, 0) + (2 if im else 1) * partition.weight
        if im:
            for b in (im, -im):
                elliptic[b] = elliptic.get(b, 0) + partition.weight
    hyper_list = sorted(hyper.items(), key=lambda t: -t[0])
    elliptic_list = sorted(elliptic.items(), key=lambda t: -t[0])
    return hyper_list, elliptic_list, structure


class TestJordanDecompose:
    def test_complex_class(self):
        o = orbit(COMPLEX, (3, [2, 1]))
        hyper, elliptic, nilpotent = _jordan_content(o)
        assert hyper == [(Fraction(3), 3)]
        assert elliptic == []
        assert nilpotent == {3: Partition([2, 1])}

    def test_real_pair_class(self):
        o = orbit(REAL, (0, 2, [1, 1]))
        hyper, elliptic, nilpotent = _jordan_content(o)
        assert hyper == [(Fraction(0), 4)]
        assert elliptic == [(Fraction(2), 2), (Fraction(-2), 2)]
        assert nilpotent == {(0, 2): Partition([1, 1])}

    def test_principal_nilpotent(self):
        o = orbit(COMPLEX, (0, [5]))
        hyper, elliptic, nilpotent = _jordan_content(o)
        assert hyper == [(Fraction(0), 5)]
        assert elliptic == []
        assert nilpotent == {0: Partition([5])}


class TestDatumValidation:
    def test_sorting_is_canonical(self):
        a = OrbitDatum(
            COMPLEX,
            [
                EigenvalueClass(0, Partition([1])),
                EigenvalueClass(2, Partition([2])),
            ],
        )
        b = OrbitDatum(
            COMPLEX,
            [
                EigenvalueClass(2, Partition([2])),
                EigenvalueClass(0, Partition([1])),
            ],
        )
        assert a == b
        assert [c.re for c in a.classes] == [2, 0]

    def test_order_does_not_depend_on_the_input_order(self):
        for o in list(complex_corpus(6)) + list(real_corpus(6, require_pair=False)):
            assert OrbitDatum(o.field, reversed(o.classes)).classes == o.classes, o

    def test_real_classes_precede_pairs(self):
        o = orbit(REAL, (0, 1, [1]), (5, [1]))
        assert [c.is_pair for c in o.classes] == [False, True]

    def test_duplicate_classes_rejected(self):
        with pytest.raises(OrbitSpecError):
            orbit(COMPLEX, (1, [1]), (1, [2]))

    @pytest.mark.parametrize("classes, message", [
        ([(1, [1]), (2, [1]), (1, [2])],
         "[(Fraction(2, 1), None), (Fraction(1, 1), None), (Fraction(1, 1), None)]"),
        ([(0, 1, [1]), (0, [1]), (0, 1, [2])],
         "[(Fraction(0, 1), None), (Fraction(0, 1), Fraction(1, 1)), "
         "(Fraction(0, 1), Fraction(1, 1))]"),
        ([(0, [1]), ("1/2", 1, [2]), (0, [2])],
         "[(Fraction(0, 1), None), (Fraction(0, 1), None), (Fraction(1, 2), Fraction(1, 1))]"),
    ])
    def test_duplicate_classes_message(self, classes, message):
        # every key, in canonical order, however far apart the twins were given
        with pytest.raises(OrbitSpecError) as err:
            orbit(REAL, *classes)
        assert str(err.value) == "duplicate eigenvalue classes: " + message

    def test_fraction_values_are_kept(self):
        re, im = Fraction(1, 3), Fraction(2)
        c = EigenvalueClass(re, Partition([1]), im=im)
        assert c.re is re and c.im is im
        assert EigenvalueClass("1/3", Partition([1]), im=2) == c

    @pytest.mark.parametrize("re, im", [("1e1001", None), ("1e-1001", None), (0, "1e1001")])
    def test_strings_are_read_by_parse_rational(self, re, im):
        # Fraction alone would build 10**1001 exactly; a class reads its
        # strings by the one rule every other rational literal goes through
        with pytest.raises(OrbitSpecError, match="decimal exponent beyond 1000"):
            EigenvalueClass(re, Partition([1]), im=im)

    @pytest.mark.parametrize("re, im", [(0.1, None), (0, 0.5), (Decimal("0.1"), None)])
    def test_inexact_values_are_refused(self, re, im):
        # 0.1 would otherwise become 3602879701896397/36028797018963968; the
        # block builders read re and im by the class's rule
        with pytest.raises(TypeError):
            EigenvalueClass(re, Partition([1]), im=im)
        with pytest.raises(TypeError):
            pair_block(2, re, 1 if im is None else im)
        if im is None:
            with pytest.raises(TypeError):
                jordan_block(2, re)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: jordan_block(-1), ValueError, "size must be nonnegative"),
        (lambda: pair_block(-1, 0, 1), ValueError, "size must be nonnegative"),
        (lambda: ExactMatrix.identity(-2), ValueError, "size must be nonnegative"),
        (lambda: ExactMatrix.zeros(-1, 2), ValueError, "sizes must be nonnegative"),
        (lambda: ExactMatrix.zeros(2, -1), ValueError, "sizes must be nonnegative"),
        (lambda: pair_block(2, 0, 0), OrbitSpecError, "im > 0"),
        (lambda: pair_block(1, 0, -1), OrbitSpecError, "im > 0"),
    ], ids=["jordan_block", "pair_block", "identity", "zeros_rows", "zeros_cols",
            "pair_block_im_0", "pair_block_im_negative"])
    def test_negative_sizes_and_pair_im_are_refused(self, build, error, message):
        # no matrix has a negative size, and at im = 0 the block would be two
        # Jordan blocks, not a pair; size 0 stays legal, the empty matrix
        with pytest.raises(error, match=message):
            build()

    def test_pair_needs_real_field(self):
        with pytest.raises(OrbitSpecError):
            orbit(COMPLEX, (0, 1, [1]))

    def test_pair_needs_positive_imaginary(self):
        with pytest.raises(OrbitSpecError):
            EigenvalueClass(0, Partition([1]), im=Fraction(-1))

    def test_empty_partition_rejected(self):
        with pytest.raises(OrbitSpecError):
            EigenvalueClass(0, Partition([]))

    def test_depth_must_be_an_int(self):
        with pytest.raises(TypeError):
            MirabolicOrbitDatum(1.5, OrbitDatum(COMPLEX))
        with pytest.raises(OrbitSpecError):
            MirabolicOrbitDatum(0, OrbitDatum(COMPLEX))

    def test_same_real_part_real_and_pair_allowed(self):
        o = orbit(REAL, (0, [1]), (0, 1, [1]))
        assert o.size == 3


_PARTS = st.lists(st.integers(1, 2), min_size=1, max_size=2)


@st.composite
def real_orbits(draw, max_size=7):
    """Real-field orbits of size <= max_size from small pools, so that pair
    classes with fractional a and b, pairs sharing a with a real class and
    pairs sharing a with each other all occur."""
    classes, keys, size = [], set(), 0
    for _ in range(draw(st.integers(1, 3))):
        re = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-2, 3)]))
        im = draw(st.sampled_from([None, Fraction(1), Fraction(3, 2), Fraction(1, 5)]))
        parts = draw(_PARTS)
        weight = (2 if im else 1) * sum(parts)
        if (re, im) not in keys and size + weight <= max_size:
            keys.add((re, im))
            size += weight
            classes.append(EigenvalueClass(re, Partition(parts), im=im))
    assume(classes)
    return OrbitDatum(REAL, classes)


def _random_invertible(n, seed):
    rng = random.Random(seed)
    while True:
        p = ExactMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                         for _ in range(n)])
        if rank(p) == n:
            return p


class TestRecognition:
    @settings(max_examples=60, deadline=None)
    @given(real_orbits(), st.integers(0, 10 ** 6))
    @example(orbit(REAL, ("1/2", "3/2", [2, 1])), 1)
    @example(orbit(REAL, ("-2/3", [2]), ("-2/3", "1/5", [1])), 2)
    @example(orbit(REAL, ("1/2", 1, [1]), ("1/2", "3/2", [2])), 3)
    def test_pair_filtration_under_rational_conjugation(self, o, seed):
        p = _random_invertible(o.size, seed)
        m = p * realize_orbit(o) * inverse(p)
        hints = o.spectrum()
        assert orbit_from_matrix(m, REAL, hints) == o
        structure = jordan_structure(m, hints)
        # (a, -b) names the same pair as (a, b), and both together count once
        flipped = [(h[0], -h[1]) if isinstance(h, tuple) else h for h in hints]
        assert jordan_structure(m, flipped) == structure
        assert jordan_structure(m, hints + flipped) == structure
        # a pair that is not in the spectrum adds nothing, also with the real
        # part of a pair class and half its imaginary part
        absent = [(c.re, c.im / 2) for c in o.classes if c.is_pair] + [(Fraction(1, 2), 7)]
        assert jordan_structure(m, hints + absent) == structure

    def test_structure_roundtrip_complex(self, complex_corpus_4):
        for o in complex_corpus_4:
            m = realize_orbit(o)
            structure = jordan_structure(m, o.spectrum())
            expected = {c.re: c.partition for c in o.classes}
            assert structure == expected

    def test_orbit_from_matrix_roundtrip(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4 + real_corpus_4:
            assert orbit_from_matrix(realize_orbit(o), o.field, o.spectrum()) == o

    def test_pair_realization_splits_over_gaussians(self):
        # the blocks of 1 +- i/2 over C, read off the real quadratic
        # (x - 1)^2 + 1/4; either sign of b names the pair
        o = orbit(REAL, (1, "1/2", [2, 1]))
        m = realize_orbit(o)
        half = Fraction(1, 2)
        for hints in ([(1, half)], [(1, -half)], [(1, half), (1, -half)]):
            assert jordan_structure(m, hints) == {(1, half): Partition([2, 1])}


class TestJson:
    def test_roundtrip(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4[:50] + real_corpus_4[:50]:
            assert orbit_from_json(o.to_json()) == o

    def test_parse_examples(self):
        o = orbit_from_json(
            {"field": "R", "classes": [{"re": "1/2", "im": "1", "partition": [2, 1]}]}
        )
        assert o.classes[0].im == Fraction(1)
        assert o.size == 6

    def test_im_zero_means_real(self):
        o = orbit_from_json(
            {"field": "C", "classes": [{"re": "1", "im": "0", "partition": [1]}]}
        )
        assert not o.classes[0].is_pair

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ({"field": "Q", "classes": []}, "field"),
            ({"field": "C"}, "classes"),
            ({"field": "C", "classes": [{"re": "x", "partition": [1]}]}, "classes[0].re"),
            ({"field": "C", "classes": [{"re": "1", "partition": "no"}]}, "partition"),
            ({"field": "C", "classes": [{"re": "1", "im": "2", "partition": [1]}]}, "real field"),
            ({"field": "C", "classes": [{"re": float("inf"), "partition": [1]}]}, "classes[0].re"),
            ({"field": "C", "classes": [{"re": True, "partition": [1]}]}, "classes[0].re"),
            ({"field": "R", "classes": [{"re": "0", "im": "1e-1001", "partition": [1]}]},
             "classes[0].im: decimal exponent"),
            ({"field": "C", "classes": [{"re": "0", "partition": [1]},
                                        {"re": "1", "im": "2", "partition": [1]}]},
             "classes[1]: pair classes require the real field"),
            # the class is built before the field is checked against it
            ({"field": "C", "classes": [{"re": "1", "im": "-1", "partition": [1]}]},
             "classes[0]: pair class requires im > 0"),
        ],
    )
    def test_diagnostics(self, bad, fragment):
        with pytest.raises(OrbitSpecError) as err:
            orbit_from_json(bad)
        assert fragment in str(err.value)


class TestParseRational:
    @pytest.mark.parametrize("value, expected", [
        ("3", Fraction(3)),
        (" -1/2 ", Fraction(-1, 2)),
        ("0.25", Fraction(1, 4)),
        (0.1, Fraction(1, 10)),
        (-2, Fraction(-2)),
        ("1e-3", Fraction(1, 1000)),
        ("1_0e1_0", Fraction(10 ** 11)),
        ("2.5e+%d" % MAX_DECIMAL_EXPONENT, Fraction(25 * 10 ** (MAX_DECIMAL_EXPONENT - 1))),
        ("1e0000%d" % MAX_DECIMAL_EXPONENT, Fraction(10 ** MAX_DECIMAL_EXPONENT)),
        ("1e0_1_000", Fraction(10 ** 1000)),
    ])
    def test_literals(self, value, expected):
        assert parse_rational(value, "x") == expected

    @pytest.mark.parametrize("text", [
        "1e-%d" % (MAX_DECIMAL_EXPONENT + 1),
        "1e-1000000000",
        "1E+1_000_000_000",
        "0.5e" + "9" * 100000,
    ])
    def test_huge_exponents_are_refused_unparsed(self, text, monkeypatch):
        def unreachable(*args):
            raise AssertionError("Fraction was handed %r" % (args,))

        monkeypatch.setattr(orbit_model, "Fraction", unreachable)
        with pytest.raises(OrbitSpecError, match="^x: decimal exponent beyond"):
            parse_rational(text, "x")

    def test_long_values_are_echoed_as_a_prefix_and_a_length(self):
        with pytest.raises(OrbitSpecError) as err:
            parse_rational("x" * 10 ** 6, "matrix row 1")
        message = str(err.value)
        assert len(message) < 200
        assert message.startswith("matrix row 1: not a rational number: 'xxxx")
        assert message.endswith("... (1000002 characters)")
        with pytest.raises(OrbitSpecError) as err:
            parse_rational("1e-" + "9" * 10 ** 5, "x")
        assert len(str(err.value)) < 200 and "(100005 characters)" in str(err.value)
        # a short value is quoted whole
        with pytest.raises(OrbitSpecError, match=r"^x: not a rational number: 'abc'$"):
            parse_rational("abc", "x")

    @pytest.mark.parametrize("value", ["x", "1/0", "", "1e_5", None, [1], True, float("nan")])
    def test_non_rationals_are_refused(self, value):
        with pytest.raises(OrbitSpecError, match="^x: not a rational number"):
            parse_rational(value, "x")
