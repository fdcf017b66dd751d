import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from mirabolic import (
    COMPLEX,
    REAL,
    ExactMatrix,
    SpectrumMismatch,
    block_diag,
    classify,
    classify_certified,
    integer_rank,
    inverse,
    jordan_block,
    jordan_structure,
    orbit_from_matrix,
    pair_block,
    project_to_p_star,
    rank,
    realize_orbit,
    stabilizer_dim,
)
from mirabolic.corpus import complex_corpus, random_mirabolic, random_unimodular, real_corpus
from mirabolic.partitions import Partition, partitions_of_weight

from conftest import eliminate, orbit


class TestRank:
    def test_identity(self):
        assert rank(ExactMatrix.identity(3)) == 3

    def test_zero(self):
        assert rank(ExactMatrix.zeros(2, 5)) == 0

    def test_regular_nilpotent(self):
        assert rank(jordan_block(3)) == 2
        assert jordan_block(3).cols - rank(jordan_block(3)) == 1

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        m = ExactMatrix([[1, 2, 0], [0, 0, 3], [1, 2, 3]])
        r = rank(m)
        for _ in range(40):
            g = random_unimodular(3, rng)
            h = random_unimodular(3, rng)
            assert rank(g * m * h) == r

    def test_integer_fast_path_matches_generic_elimination(self):
        rng = random.Random(19)
        for _ in range(300):
            nr = rng.randint(1, 6)
            nc = rng.randint(1, 6)
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nc)]
                    for _ in range(nr)]
            if nr > 1 and rng.random() < 0.5:
                rows[rng.randrange(nr)] = list(rows[rng.randrange(nr)])  # duplicate row
            if nc > 1 and rng.random() < 0.3:
                kill = rng.randrange(nc)
                for row in rows:
                    row[kill] = Fraction(0)  # force a skipped pivot column
            m = ExactMatrix(rows)
            generic = len(eliminate([list(r) for r in m.data], nc))
            assert rank(m) == generic


# zero, small fractions, and numerators near 2**70 over denominators up to 10**6
rational_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.builds(Fraction, st.integers(-(2 ** 70), 2 ** 70), st.integers(1, 10 ** 6)),
)


@st.composite
def rational_matrices(draw, shape=None):
    """Rational matrices with zero rows and columns, duplicate rows, rows that
    are combinations of others, denominators up to 10**6 and entries near 2**70.

    shape fixes (rows, columns); by default each is drawn from 1 to 6.
    """
    nr, nc = shape or (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    rows = draw(st.lists(st.lists(rational_entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    index = st.integers(0, nr - 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero_row", "zero_col", "duplicate", "combine"]))
        target = draw(index)
        if kind == "zero_row":
            rows[target] = [Fraction(0)] * nc
        elif kind == "zero_col":
            col = draw(st.integers(0, nc - 1))
            for row in rows:
                row[col] = Fraction(0)
        elif kind == "duplicate":
            rows[target] = list(rows[draw(index)])
        else:
            a, b = draw(rational_entries), draw(rational_entries)
            r1, r2 = rows[draw(index)], rows[draw(index)]
            rows[target] = [a * u + b * v for u, v in zip(r1, r2)]
    return ExactMatrix(rows)


class TestIntegerKernel:
    def test_integer_rows_clear_the_common_denominator(self):
        m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [0, 2], [0, 0]])
        assert m.numerators == [{0: 3, 1: 2}, {1: 12}, {}]
        assert ExactMatrix([[Fraction(-4, 6)]]).numerators == [{0: -2}]

    def test_integer_rank_leaves_its_rows_alone(self):
        rows = [{0: 2, 1: 4}, {0: 3, 2: 5}, {1: 6, 2: -5}, {}]
        before = [dict(r) for r in rows]
        # the third row is (3 * first - 2 * second) / 2
        assert integer_rank(rows) == 2
        assert rows == before

    def test_empty_shapes(self):
        assert integer_rank([]) == 0
        assert rank(ExactMatrix([])) == 0
        assert rank(ExactMatrix([[], []])) == 0

    @given(rational_matrices())
    def test_rank_matches_gaussian_elimination(self, m):
        assert rank(m) == len(eliminate([list(r) for r in m.data], m.cols))

    def test_gaussian_entry_is_refused(self):
        # a matrix holds rationals only, so no kernel ever sees another entry
        for entry in (1j, 0.5, "1/2", None):
            with pytest.raises(TypeError, match="expected an int or a Fraction"):
                ExactMatrix([[1, entry], [2, 3]])


def _assert_canonical(m):
    """d is the lcm of the entry denominators and no stored row holds a zero."""
    assert m.denominator == lcm(1, *(v.denominator for row in m.data for v in row))
    assert all(v for row in m.numerators for v in row.values())


class TestStoredForm:
    """(d, sparse integer rows) is canonical, so == and hash read it directly."""

    @given(rational_matrices())
    def test_round_trip_through_data(self, m):
        _assert_canonical(m)
        again = ExactMatrix(m.data)
        assert again == m and hash(again) == hash(m)
        assert m.submatrix(0, m.rows, 0, m.cols) == m

    def test_operands_are_never_written(self):
        rng = random.Random(41)
        orbits = list(complex_corpus(4))[::4] + list(real_corpus(4, require_pair=True))[::4]
        for o in orbits:
            p = random_mirabolic(o.size, rng)
            a = realize_orbit(o)
            y = p * a * inverse(p)
            x = project_to_p_star(y)
            operands = [p, a, y, x]
            before = [(m.denominator, [dict(row) for row in m.numerators]) for m in operands]
            p * a * p
            inverse(p)
            jordan_structure(a, o.spectrum())
            jordan_structure(y, o.spectrum() + [Fraction(1, 3)])
            integer_rank(x.numerators)
            stabilizer_dim(x)
            classify(x, o.field, o.spectrum())
            classify_certified(x, o.field, o.spectrum())
            assert [(m.denominator, [dict(row) for row in m.numerators])
                    for m in operands] == before, o


def _sympy_matrix(sympy, m):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in m.data])


def _sympy_jordan_blocks(sympy, m):
    """{r or (a, b) with b > 0: block sizes} from sympy's Jordan form over C.

    sympy lists the conjugates a + ib and a - ib separately; both must carry
    the same blocks, and they map to the one key (a, b).
    """
    _, j = _sympy_matrix(sympy, m).jordan_form()
    n = j.rows
    blocks = {}
    start = 0
    for i in range(n):
        if i == n - 1 or j[i, i + 1] == 0:
            lam = j[i, i]
            re, im = sympy.re(lam), sympy.im(lam)
            re, im = Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))
            key = (re, im) if im else re
            blocks.setdefault(key, []).append(i + 1 - start)
            start = i + 1
    out = {}
    for key, sizes in blocks.items():
        if isinstance(key, tuple):
            re, im = key
            if im < 0:
                continue
            assert sorted(blocks[(re, -im)]) == sorted(sizes)
        out[key] = Partition(sizes)
    return out


class TestSympyCrossCheck:
    """rank and jordan_structure against sympy on random P J P^-1."""

    def _random_conjugate(self, rng):
        eigenvalues = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 4)]
        blocks, hints = [], []
        for lam in rng.sample(eigenvalues, rng.randint(1, 2)):
            for size in Partition([rng.randint(1, 2) for _ in range(rng.randint(1, 2))]):
                blocks.append(jordan_block(size, lam))
            hints.append(lam)
        if rng.random() < 0.3:
            blocks.append(pair_block(1, Fraction(1, 2), 2))
            hints.append((Fraction(1, 2), 2))
        j = block_diag(*blocks)
        while True:
            p = ExactMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(j.rows)] for _ in range(j.rows)])
            if rank(p) == j.rows:
                return p * j * inverse(p), hints

    def test_rank_and_jordan_structure(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(23)
        for _ in range(30):
            m, hints = self._random_conjugate(rng)
            assert rank(m) == _sympy_matrix(sympy, m).rank()
            for lam in hints:
                if not isinstance(lam, tuple):
                    shifted = m - lam * ExactMatrix.identity(m.rows)
                    assert rank(shifted) == _sympy_matrix(sympy, shifted).rank()
            assert jordan_structure(m, hints) == _sympy_jordan_blocks(sympy, m)


def _scalar_product(a, b):
    """The entry-wise triple loop that the integer product replaced."""
    out = []
    for row in a.data:
        new = []
        for j in range(b.cols):
            acc = Fraction(0)
            for k, x in enumerate(row):
                if x:
                    acc = acc + x * b.data[k][j]
            new.append(acc)
        out.append(new)
    return ExactMatrix(out)


def _scalar_inverse(m):
    """The entry-wise Gauss-Jordan inverse that the integer one replaced; None if singular."""
    n = m.rows
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m.data)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = Fraction(1) / rows[c][c]
        rows[c] = [inv * v for v in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return ExactMatrix([row[n:] for row in rows])


@st.composite
def product_pairs(draw):
    nr, k, nc = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(rational_matrices((nr, k))), draw(rational_matrices((k, nc)))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(rational_matrices((n, n)))


class TestRealKernels:
    """The integer product and inverse against the entry-wise code they replaced."""

    @given(product_pairs())
    def test_product_matches_scalar_triple_loop(self, pair):
        a, b = pair
        product = a * b
        assert product == _scalar_product(a, b)
        assert hash(product) == hash(_scalar_product(a, b))
        _assert_canonical(product)

    def test_product_of_empty_shapes(self):
        wide = ExactMatrix([[], []])
        assert wide * ExactMatrix([]) == wide

    @given(square_matrices())
    def test_inverse_matches_scalar_gauss_jordan(self, m):
        expected = _scalar_inverse(m)
        if expected is None:
            with pytest.raises(ValueError, match="matrix is singular"):
                inverse(m)
        else:
            inv = inverse(m)
            assert inv == expected
            assert inv * m == ExactMatrix.identity(m.rows)
            _assert_canonical(inv)
            assert inverse(inv) == m and hash(inverse(inv)) == hash(m)

    def test_singular_and_gaussian_matrices_are_refused(self):
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(ExactMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            inverse(ExactMatrix([[1j]]))
        with pytest.raises(ValueError):
            inverse(ExactMatrix([[1, 2]]))


def _fraction_matmul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row) if x) for j in range(len(b[0]))]
            for row in a]


def _reference_ranks(m, lam, count):
    """[rank s^k for k = 0..count] by eliminate, for the Fraction matrix s = m - r
    at a rational r or s = (m - a)^2 + b^2 at a pair (a, b)."""
    a, b = lam if isinstance(lam, tuple) else (lam, 0)
    s = [[v - a if i == j else v for j, v in enumerate(row)] for i, row in enumerate(m.data)]
    if b:
        s = _fraction_matmul(s, s)
        for i in range(m.rows):
            s[i][i] += b * b
    ranks, power = [m.rows], s
    for _ in range(count):
        ranks.append(len(eliminate([list(row) for row in power], m.rows)))
        power = _fraction_matmul(power, s)
    return ranks


class TestWorkloadSizes:
    """The kernels at the sizes the benchmark workloads run, beyond the 6 x 6
    of the hypothesis strategies."""

    # the geometry_large orbits of perfbench/workloads.py (sizes 12, 10, 12)
    GEOMETRY_LARGE = (
        orbit(REAL, (1, [3, 2, 1]), (0, 1, [2, 1])),
        orbit(REAL, (1, [2, 1]), (0, [2, 1]), (0, 1, [2])),
        orbit(COMPLEX, (0, [5, 4, 2, 1])),
    )

    def test_inverse_and_jordan_structure_at_sizes_8_to_12(self):
        rng = random.Random(23)
        for n in range(8, 13):
            for _ in range(3):
                p = random_mirabolic(n, rng)
                scaled = p * ExactMatrix([[Fraction(1, i + 2) if i == j else 0
                                           for j in range(n)] for i in range(n)])
                for m in (p, scaled):
                    inv = inverse(m)
                    assert inv == _scalar_inverse(m)
                    assert m * inv == ExactMatrix.identity(n)
        rows = [list(row) for row in random_mirabolic(12, rng).data]
        rows[5] = [u + 3 * v for u, v in zip(rows[2], rows[7])]
        singular = ExactMatrix(rows)
        assert _scalar_inverse(singular) is None
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(singular)

        for o in self.GEOMETRY_LARGE:
            for _ in range(2):
                p = random_mirabolic(o.size, rng)
                y = p * realize_orbit(o) * inverse(p)
                structure = jordan_structure(y, o.spectrum())
                assert structure == {c.eigenvalue(): c.partition for c in o.classes}
                for lam, blocks in structure.items():
                    # rank s^k = n - degree * sum over blocks of min(k, size)
                    degree = 2 if isinstance(lam, tuple) else 1
                    count = blocks.largest() + 1
                    assert _reference_ranks(y, lam, count) == [
                        o.size - degree * sum(min(k, size) for size in blocks)
                        for k in range(count + 1)
                    ], (o, lam)


class TestSolve:
    """Solving m x = I: the inverse."""

    def test_inverse_roundtrip(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4):
            g = random_unimodular(n, rng)
            assert g * inverse(g) == ExactMatrix.identity(n)

    def test_inverse_singular(self):
        with pytest.raises(ValueError):
            inverse(ExactMatrix.zeros(2, 2))


class TestJordanStructure:
    def test_block_diagonal(self):
        m = block_diag(jordan_block(2), ExactMatrix.zeros(1, 1))
        assert jordan_structure(m, [0]) == {0: Partition([2, 1])}

    def test_semisimple(self):
        m = ExactMatrix([[3, 0, 0], [0, 3, 0], [0, 0, 5]])
        assert jordan_structure(m, [3, 5]) == {
            3: Partition([1, 1]),
            5: Partition([1]),
        }

    def test_conjugation_invariance(self):
        rng = random.Random(17)
        target = {1: Partition([2])}
        for _ in range(100):
            g = random_unimodular(2, rng)
            m = g * jordan_block(2, 1) * inverse(g)
            assert jordan_structure(m, [1]) == target

    def test_gaussian_eigenvalues(self):
        m = ExactMatrix([[0, 1], [-1, 0]])
        # i and -i form the one pair (0, 1), named by either sign of b
        for hints in ([(0, 1)], [(0, -1)], [(0, 1), (0, -1)]):
            assert jordan_structure(m, hints) == {(0, 1): Partition([1])}

    @pytest.mark.parametrize("classes", [
        [("1/2", "3/2", [2, 1])],
        [("-2/3", "1/5", [2]), ("1/2", "3/2", [1])],
        [("-2/3", [1]), ("-2/3", "1/5", [1, 1])],
    ])
    def test_pair_eigenvalues_with_fractional_parts(self, classes):
        # conjugates by rational matrices, so the imaginary parts and the
        # entries of m share no denominator
        o = orbit(REAL, *classes)
        a = realize_orbit(o)
        rng = random.Random(37)
        for _ in range(3):
            while True:
                p = ExactMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                  for _ in range(a.rows)] for _ in range(a.rows)])
                if rank(p) == a.rows:
                    break
            m = p * a * inverse(p)
            structure = jordan_structure(m, o.spectrum())
            for c in o.classes:
                if c.is_pair:
                    assert structure[(c.re, c.im)] == c.partition
            assert orbit_from_matrix(m, REAL, o.spectrum()) == o

    def test_spectrum_mismatch(self):
        m = ExactMatrix([[7, 0], [0, 0]])
        with pytest.raises(SpectrumMismatch):
            jordan_structure(m, [0])

    def test_hints_after_an_exhausted_spectrum(self):
        m = block_diag(jordan_block(2), jordan_block(1, 3))
        expected = {0: Partition([2]), 3: Partition([1])}
        assert jordan_structure(m, [0, 3]) == expected
        for extra in ([5], [(0, 1), Fraction(1, 2)], [3, 0, (1, 2)]):
            assert jordan_structure(m, [0, 3] + extra) == expected
        # the hints still have to cover the whole dimension
        for short in ([0], [3], [5, 0], [3, (0, 1)]):
            with pytest.raises(SpectrumMismatch):
                jordan_structure(m, short)

    def test_hints_are_read_up_to_one_past_an_exhausted_spectrum(self):
        # the hint read after the spectrum is exhausted ends the loop, so it
        # is checked, and no later hint is read
        m = block_diag(jordan_block(2), jordan_block(1, 3))
        with pytest.raises(TypeError):
            jordan_structure(m, [0, 3, 0.5])
        assert jordan_structure(m, [0, 3, 5, 0.5]) == {0: Partition([2]), 3: Partition([1])}

    @pytest.mark.parametrize("hints, expected", [
        # [1, 1]: a repeat found before the spectrum is exhausted
        ([1, 1, 2], [(1, [2]), (2, [1])]),
        ([2, 1, 2, 1], [(2, [1]), (1, [2])]),
        # (a, b) beside (a, -b), and (a, 0) beside a: one key each
        ([(Fraction(1, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(-3, 2)), 1, 2],
         [((Fraction(1, 2), Fraction(3, 2)), [1]), (1, [2]), (2, [1])]),
        ([(1, 0), 1, (1, -0), 2], [(1, [2]), (2, [1])]),
        ([(2, 0), 2, (1, 0), Fraction(1), 1], [(2, [1]), (1, [2])]),
    ])
    def test_repeated_hints(self, hints, expected):
        # the first occurrence of each eigenvalue fixes its place in the dict
        m = block_diag(jordan_block(2, 1), jordan_block(1, 2))
        if isinstance(expected[0][0], tuple):
            m = block_diag(pair_block(1, Fraction(1, 2), Fraction(3, 2)), m)
        structure = jordan_structure(m, hints)
        assert list(structure.items()) == [(k, Partition(p)) for k, p in expected]

    def test_repeated_hints_do_not_count_twice(self):
        m = block_diag(jordan_block(2, 1), jordan_block(1, 2))
        for hints in ([1, 1], [1, (1, 0), Fraction(1)]):
            with pytest.raises(SpectrumMismatch, match="dimension 2 of 3"):
                jordan_structure(m, hints)

    def test_roundtrip_all_small_partitions(self):
        for weight in range(1, 7):
            for p in partitions_of_weight(weight):
                for a in (Fraction(0), Fraction(-1), Fraction(1, 2)):
                    m = block_diag(*[jordan_block(k, a) for k in p])
                    assert jordan_structure(m, [a]) == {a: p}


def _key(hint):
    """The eigenvalue a hint names: a Fraction r, or (a, |b|) for b != 0."""
    if isinstance(hint, tuple):
        a, b = Fraction(hint[0]), abs(Fraction(hint[1]))
        return (a, b) if b else a
    return Fraction(hint)


def _full_space_partition(m, key):
    """The Jordan partition of m at key from the ranks of the powers of m - r,
    or of (m - a)^2 + b^2, on the whole space, by conftest.eliminate."""
    n = m.rows
    eye = ExactMatrix.identity(n)
    if isinstance(key, tuple):
        a, b = key
        shifted = (m - eye * a) * (m - eye * a) + eye * (b * b)
        degree = 2
    else:
        shifted = m - eye * key
        degree = 1
    ranks, power = [n], eye
    while len(ranks) < 2 or ranks[-1] != ranks[-2]:
        power = power * shifted
        ranks.append(len(eliminate([list(row) for row in power.data], n)))
    at_least = [(ranks[k - 1] - ranks[k]) // degree for k in range(1, len(ranks))] + [0]
    return Partition([size for size in range(1, len(at_least))
                      for _ in range(at_least[size - 1] - at_least[size])])


class TestChainedHints:
    """Each hint is ranked on the row space the hints before it leave; its
    answer must be that of the whole space, whatever the hints around it."""

    CANDIDATES = (Fraction(2), Fraction(1), Fraction(0), Fraction(-1), Fraction(3),
                  Fraction(-1, 2), (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1, 2)),
                  (Fraction(1), Fraction(2)), (Fraction(-1), Fraction(1)))

    def _cases(self):
        """(orbit, seeded conjugate, {key: full-space partition}) for a
        sample of the size-6 corpora of both fields."""
        rng = random.Random(2718)
        orbits = list(complex_corpus(6))[::9] + list(real_corpus(6, require_pair=True))[::5]
        for o in orbits:
            g = random_unimodular(o.size, rng)
            m = g * realize_orbit(o) * inverse(g)
            full = {_key(h): _full_space_partition(m, _key(h)) for h in o.spectrum()}
            assert full == {_key(c.eigenvalue()): c.partition for c in o.classes}
            yield o, m, full, rng

    def _hints(self, o, rng):
        """The spectrum shuffled, each hint renamed ((a, -b) for a pair,
        (r, 0) for a rational) or repeated at random, between absent hints."""
        keys = {_key(h) for h in o.spectrum()}
        absent = [h for h in self.CANDIDATES if _key(h) not in keys]
        hints = []
        for h in o.spectrum():
            if isinstance(h, tuple):
                hints.append(rng.choice([h, (h[0], -h[1])]))
            else:
                hints.append(rng.choice([h, (h, 0)]))
            if rng.random() < 0.5:
                hints.append(h)
        rng.shuffle(hints)
        return rng.sample(absent, 2) + hints + rng.sample(absent, 2), hints

    def test_shuffled_renamed_and_repeated_hints(self):
        matrices = 0
        for o, m, full, rng in self._cases():
            for _ in range(3):
                hints, present = self._hints(o, rng)
                order = list(dict.fromkeys(map(_key, present)))
                assert list(jordan_structure(m, hints).items()) == [
                    (k, full[k]) for k in order], (o, hints)
                # an absent hint between present ones drops nothing
                mixed = present[:1] + hints[:2] + present[1:] + hints[-2:]
                assert list(jordan_structure(m, mixed).items()) == [
                    (k, full[k]) for k in order], (o, mixed)
            matrices += 1
        assert matrices > 150

    def test_a_dropped_class_names_the_dimension_found(self):
        for o, m, full, rng in self._cases():
            hints, _ = self._hints(o, rng)
            n = m.rows
            for dropped in full:
                kept = [h for h in hints if _key(h) != dropped]
                found = sum(full[k].weight * (2 if isinstance(k, tuple) else 1)
                            for k in full if k != dropped)
                with pytest.raises(SpectrumMismatch) as info:
                    jordan_structure(m, kept)
                assert str(info.value) == (
                    "eigenvalues account for dimension %d of %d" % (found, n)), (o, kept)
