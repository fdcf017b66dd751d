import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from mirabolic import (
    REAL,
    ExactMatrix,
    Scalar,
    SpectrumMismatch,
    block_diag,
    integer_rank,
    integer_rows,
    inverse,
    jordan_block,
    jordan_structure,
    kernel_dim,
    orbit_from_matrix,
    pair_block,
    rank,
    realize_orbit,
)
from mirabolic.corpus import random_unimodular
from mirabolic.partitions import Partition, partitions_of_weight

from conftest import S, eliminate, orbit


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=8)
scalars = st.builds(Scalar, rationals, rationals)


class TestScalar:
    def test_parse_and_str(self):
        assert Scalar.parse("3/4") == S("3/4")
        assert Scalar.parse("-2") == S(-2)
        assert str(S("3/4")) == "3/4"
        assert str(S(0, 1)) == "1i"
        assert str(S("1/2", "-1/3")) == "1/2-1/3i"

    def test_real_hash_matches_number_hash(self):
        assert hash(S(2)) == hash(2)
        assert S(2) == 2 and S(2) == Fraction(2)

    @given(scalars, scalars, scalars)
    def test_ring_laws(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == Scalar(0)

    @given(scalars, scalars)
    def test_division_roundtrip(self, a, b):
        if not b.is_zero():
            assert (a / b) * b == a

    def test_conjugate(self):
        z = S(1, 2)
        assert z * z.conjugate() == S(5)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            S(1) / S(0)


class TestRank:
    def test_identity(self):
        assert rank(ExactMatrix.identity(3)) == 3

    def test_zero(self):
        assert rank(ExactMatrix.zeros(2, 5)) == 0

    def test_regular_nilpotent(self):
        assert rank(jordan_block(3)) == 2
        assert kernel_dim(jordan_block(3)) == 1

    def test_gaussian_entries(self):
        m = ExactMatrix([[S(0, 1), S(1)], [S(-1), S(0, 1)]])
        # second row is i times the first
        assert rank(m) == 1

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


@st.composite
def gaussian_matrices(draw, shape=None):
    """Matrices over Q(i) with non-real entries anywhere, zero rows and
    columns, and rows that are Q(i)-combinations of others (dependent over
    Q(i) but not over Q).  Parts are drawn like rational_matrices' entries.

    shape fixes (rows, columns); by default each is drawn from 0 to 5, and a
    shape with no rows is the 0x0 matrix.
    """
    nr, nc = shape or (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    entry = st.builds(Scalar, rational_entries, rational_entries)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if nr and nc:
        index = st.integers(0, nr - 1)
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["zero_row", "zero_col", "combine"]))
            target = draw(index)
            if kind == "zero_row":
                rows[target] = [Scalar(0)] * nc
            elif kind == "zero_col":
                col = draw(st.integers(0, nc - 1))
                for row in rows:
                    row[col] = Scalar(0)
            else:
                a, b = draw(entry), draw(entry)
                r1, r2 = rows[draw(index)], rows[draw(index)]
                rows[target] = [a * u + b * v for u, v in zip(r1, r2)]
    return ExactMatrix(rows)


class TestIntegerKernel:
    def test_integer_rows_clear_the_common_denominator(self):
        m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [0, 2], [0, 0]])
        assert integer_rows(m) == [{0: 3, 1: 2}, {1: 12}, {}]
        assert integer_rows(ExactMatrix([[Fraction(-4, 6)]])) == [{0: -2}]

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
        m = ExactMatrix([[S(1), S(0, 1)], [S(2), S(3)]])
        with pytest.raises(ValueError):
            integer_rows(m)
        # rank itself still works over Q(i)
        assert rank(m) == 2


def _sympy_matrix(sympy, m):
    return sympy.Matrix([[sympy.Rational(v.re.numerator, v.re.denominator) for v in row]
                         for row in m.data])


def _sympy_jordan_blocks(sympy, m):
    """{eigenvalue as Scalar: sorted block sizes} from sympy's Jordan form."""
    _, j = _sympy_matrix(sympy, m).jordan_form()
    n = j.rows
    blocks = {}
    start = 0
    for i in range(n):
        if i == n - 1 or j[i, i + 1] == 0:
            lam = j[i, i]
            re, im = sympy.re(lam), sympy.im(lam)
            key = S(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
            blocks.setdefault(key, []).append(i + 1 - start)
            start = i + 1
    return {k: Partition(v) for k, v in blocks.items()}


class TestSympyCrossCheck:
    """rank and jordan_structure against sympy on random P J P^-1."""

    def _random_conjugate(self, rng):
        eigenvalues = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 4)]
        blocks, hints = [], []
        for lam in rng.sample(eigenvalues, rng.randint(1, 2)):
            for size in Partition([rng.randint(1, 2) for _ in range(rng.randint(1, 2))]):
                blocks.append(jordan_block(size, lam))
            hints.append(S(lam))
        if rng.random() < 0.3:
            blocks.append(pair_block(1, Fraction(1, 2), 2))
            hints.extend([S(Fraction(1, 2), 2), S(Fraction(1, 2), -2)])
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
                if lam.is_real():
                    shifted = m - lam * ExactMatrix.identity(m.rows)
                    assert rank(shifted) == _sympy_matrix(sympy, shifted).rank()
            assert jordan_structure(m, hints) == _sympy_jordan_blocks(sympy, m)


def _scalar_product(a, b):
    """The Scalar triple loop that the integer product of real matrices replaced."""
    out = []
    for row in a.data:
        new = []
        for j in range(b.cols):
            acc = Scalar(0)
            for k, x in enumerate(row):
                if x:
                    acc = acc + x * b.data[k][j]
            new.append(acc)
        out.append(new)
    return ExactMatrix(out)


def _scalar_inverse(m):
    """The Scalar Gauss-Jordan inverse that the integer one replaced; None if singular."""
    n = m.rows
    rows = [list(row) + [Scalar(int(i == j)) for j in range(n)]
            for i, row in enumerate(m.data)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = Scalar(1) / rows[c][c]
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


@st.composite
def gaussian_product_pairs(draw):
    """(a, b) with a * b defined and at least one factor non-real; a has at
    least one row, since a matrix with none is 0x0."""
    nr, k, nc = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a, b = draw(gaussian_matrices((nr, k))), draw(gaussian_matrices((k, nc)))
    real_side = draw(st.sampled_from([None, "left", "right"]))
    if real_side == "left":
        a = _real_part(a)
    elif real_side == "right":
        b = _real_part(b)
    assume(not (a.is_real() and b.is_real()))
    return a, b


def _real_part(m):
    return ExactMatrix([[Scalar(v.re) for v in row] for row in m.data])


class TestGaussianKernels:
    """Ranks and products over Q(i), on the realified integer kernel, against
    Scalar Gaussian elimination and the Scalar triple loop."""

    @given(gaussian_matrices())
    def test_rank_matches_gaussian_elimination(self, m):
        assert rank(m) == len(eliminate([list(r) for r in m.data], m.cols))

    @given(gaussian_product_pairs())
    def test_product_matches_scalar_triple_loop(self, pair):
        a, b = pair
        assert a * b == _scalar_product(a, b)

    def test_rank_of_a_realified_pair(self):
        # rows independent over Q, dependent over Q(i): row 2 = (1/2 + 3i) * row 1
        m = ExactMatrix([[S("1/3", 2), S(0, "-1/5")],
                         [S("1/3", 2) * S("1/2", 3), S(0, "-1/5") * S("1/2", 3)]])
        assert rank(m) == 1
        assert rank(ExactMatrix([[S(0, 1)], [S(1)]])) == 1
        assert rank(ExactMatrix([[], []])) == 0


class TestRealKernels:
    """The integer product and inverse against the Scalar code they replaced."""

    @given(product_pairs())
    def test_product_matches_scalar_triple_loop(self, pair):
        a, b = pair
        assert a * b == _scalar_product(a, b)

    def test_product_with_a_gaussian_factor(self):
        a = ExactMatrix([[S(1), S(0, 1)], [S("1/2"), S(2)]])
        b = ExactMatrix([[S(3), S(0)], [S(0, -2), S("1/3")]])
        assert a * b == _scalar_product(a, b)
        assert b * a == _scalar_product(b, a)
        assert (a * b).data[0][0] == S(5)

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

    def test_singular_and_gaussian_matrices_are_refused(self):
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(ExactMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))
        with pytest.raises(ValueError, match="non-real"):
            inverse(ExactMatrix([[S(0, 1)]]))
        with pytest.raises(ValueError):
            inverse(ExactMatrix([[1, 2]]))


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
        assert jordan_structure(m, [S(0)]) == {S(0): Partition([2, 1])}

    def test_semisimple(self):
        m = ExactMatrix([[3, 0, 0], [0, 3, 0], [0, 0, 5]])
        assert jordan_structure(m, [S(3), S(5)]) == {
            S(3): Partition([1, 1]),
            S(5): Partition([1]),
        }

    def test_conjugation_invariance(self):
        rng = random.Random(17)
        target = {S(1): Partition([2])}
        for _ in range(100):
            g = random_unimodular(2, rng)
            m = g * jordan_block(2, 1) * inverse(g)
            assert jordan_structure(m, [S(1)]) == target

    def test_gaussian_eigenvalues(self):
        m = ExactMatrix([[0, 1], [-1, 0]])
        structure = jordan_structure(m, [S(0, 1), S(0, -1)])
        assert structure == {S(0, 1): Partition([1]), S(0, -1): Partition([1])}

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
            for c in o.pair_classes():
                lam = S(c.re, c.im)
                assert structure[lam] == structure[lam.conjugate()] == c.partition
            assert orbit_from_matrix(m, REAL, o.spectrum()) == o

    def test_spectrum_mismatch(self):
        m = ExactMatrix([[7, 0], [0, 0]])
        with pytest.raises(SpectrumMismatch):
            jordan_structure(m, [S(0)])

    def test_roundtrip_all_small_partitions(self):
        for weight in range(1, 7):
            for p in partitions_of_weight(weight):
                for a in (S(0), S(-1), S("1/2")):
                    m = block_diag(*[jordan_block(k, a) for k in p])
                    assert jordan_structure(m, [a]) == {a: p}
