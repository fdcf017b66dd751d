import random
from fractions import Fraction

import pytest

from mirabolic import (
    COMPLEX,
    REAL,
    ExactMatrix,
    MalformedRepresentative,
    MirabolicOrbitDatum,
    OrbitDatum,
    SpectrumMismatch,
    block_diag,
    certificate_holds,
    classify,
    classify_certified,
    gl_centralizer_dim,
    inverse,
    jordan_block,
    point_stabilizer_dim,
    project_to_p_star,
    rank,
    realize_normal_form,
    realize_orbit,
    stabilizer_dim,
)
from mirabolic.corpus import complex_corpus, random_mirabolic, real_corpus
from mirabolic.classify import _completion, _conjugate_step

from conftest import eliminate, example_27_matrix, orbit


def _commutant_dim(a):
    """Kernel dimension of Y -> [a, Y] over the full matrix algebra."""
    n = a.rows
    cols = []
    for i in range(n):
        for j in range(n):
            col = []
            for r in range(n):
                for c in range(n):
                    v = Fraction(0)
                    if c == j:
                        v = v + a.data[r][i]
                    if r == i:
                        v = v - a.data[j][c]
                    col.append(v)
            cols.append(col)
    if not cols:
        return 0
    m = ExactMatrix(list(map(list, zip(*cols))))
    return m.cols - rank(m)


def normal_forms(nmax, field=COMPLEX, require_pair=True):
    heads = [OrbitDatum(field)]
    if field == COMPLEX:
        heads += list(complex_corpus(nmax - 1))
    else:
        heads += list(real_corpus(nmax - 1, require_pair=require_pair))
    out = []
    for head in heads:
        for depth in range(1, nmax - head.size + 1):
            out.append(MirabolicOrbitDatum(depth, head))
    return out


class TestClassify:
    def test_zero_functional(self):
        for n in (1, 2, 4):
            datum = classify(ExactMatrix.zeros(n, n), COMPLEX, [0])
            assert datum.depth == 1
            if n == 1:
                assert datum.a_part == OrbitDatum(COMPLEX)
            else:
                assert datum.a_part == orbit(COMPLEX, (0, [1] * (n - 1)))

    def test_normal_form_is_fixed_point(self):
        x = project_to_p_star(
            block_diag(ExactMatrix([[1, 0], [0, 2]]), jordan_block(2))
        )
        datum = classify(x, COMPLEX, [1, 2])
        assert datum == MirabolicOrbitDatum(2, orbit(COMPLEX, (1, [1]), (2, [1])))

    def test_idempotent_on_all_small_normal_forms(self):
        for datum in normal_forms(4) + normal_forms(4, REAL):
            x = realize_normal_form(datum)
            field = datum.a_part.field
            assert classify(x, field, datum.a_part.spectrum()) == datum

    def test_larger_instance(self):
        # size-8 normal form conjugated by a random mirabolic element
        rng = random.Random(53)
        head = orbit(COMPLEX, (2, [2, 1]), (0, [2]))
        datum = MirabolicOrbitDatum(3, head)
        x = realize_normal_form(datum)
        p = random_mirabolic(8, rng)
        moved = project_to_p_star(p * x * inverse(p))
        assert classify(moved, COMPLEX, head.spectrum()) == datum
        assert stabilizer_dim(moved) == gl_centralizer_dim(head) + (8 - 3)

    def test_dense_row_example_has_full_depth(self):
        for n in range(2, 7):
            datum = classify(example_27_matrix(n), COMPLEX, [0])
            assert datum.depth == n
            assert datum.a_part == OrbitDatum(COMPLEX)

    @pytest.mark.parametrize("field, hints", [
        (COMPLEX, ()), (COMPLEX, [0, 1]), (REAL, ()), (REAL, [0, (0, 1)]),
    ])
    def test_depth_n_head_is_the_empty_orbit(self, field, hints):
        # the head of a depth-n functional is 0 x 0; orbit_from_matrix reads
        # it as the empty orbit datum of the field
        for n in range(1, 6):
            for x in (example_27_matrix(n), realize_normal_form(
                    MirabolicOrbitDatum(n, OrbitDatum(field)))):
                datum, g = classify_certified(x, field, hints)
                assert datum == MirabolicOrbitDatum(n, OrbitDatum(field))
                assert classify(x, field, hints) == datum
                assert certificate_holds(x, g, datum, field, hints)

    def test_malformed_inputs(self):
        with pytest.raises(MalformedRepresentative):
            classify(ExactMatrix.zeros(2, 3), COMPLEX)
        with pytest.raises(MalformedRepresentative):
            classify(ExactMatrix([[0, 1], [0, 0]]), COMPLEX)
        # a non-rational entry cannot reach classify: the matrix refuses it
        with pytest.raises(TypeError):
            classify(ExactMatrix([[1j, 0], [0, 0]]), REAL)

    def test_spectrum_mismatch_surfaces(self):
        x = ExactMatrix([[7, 0], [0, 0]])
        with pytest.raises(SpectrumMismatch):
            classify(x, COMPLEX, [0])

    def test_conjugation_invariance_sample(self, complex_corpus_4):
        rng = random.Random(31)
        for o in complex_corpus_4[::9]:
            x = project_to_p_star(realize_orbit(o))
            base = classify(x, o.field, o.spectrum())
            for _ in range(20):
                p = random_mirabolic(o.size, rng)
                moved = project_to_p_star(p * realize_orbit(o) * inverse(p))
                assert classify(moved, o.field, o.spectrum()) == base


class TestClosedFormStep:
    def test_matches_dense_conjugation_through_the_recursion(self):
        """Each classify step equals M * H * inverse(M), M = _completion(d, beta, s - 1, p),
        at every pivot p with beta_p != 0; the recursion goes on from p = min(beta)."""
        rng = random.Random(808)
        orbits = list(complex_corpus(4)) + list(real_corpus(4, require_pair=False))
        steps = pivots = 0
        for o in orbits:
            for _ in range(3):
                p = random_mirabolic(o.size, rng)
                cur = project_to_p_star(p * realize_orbit(o) * inverse(p))
                while cur.rows > 1:
                    s, d = cur.rows, cur.denominator
                    beta = cur.numerators[s - 1]
                    if not beta:
                        break
                    h = cur.submatrix(0, s - 1, 0, s - 1)
                    for pivot in sorted(beta, reverse=True):  # classify's min(beta) last
                        m = _completion(d, beta, s - 1, pivot)
                        expected = m * h * inverse(m)
                        e, head, t = _conjugate_step(d, cur.numerators, pivot)
                        rows = [{**row, s - 2: v} if v else row for row, v in zip(head, t)]
                        assert ExactMatrix.from_integer(e, rows, s - 1) == expected, (o, pivot)
                        pivots += 1
                    cur = project_to_p_star(expected)
                    steps += 1
        assert steps > 500 and pivots > steps


class TestCertificate:
    def test_certificate_verifies(self, complex_corpus_4, real_corpus_4):
        rng = random.Random(37)
        for o in complex_corpus_4[::7] + real_corpus_4[::7]:
            xi = realize_orbit(o)
            p = random_mirabolic(o.size, rng)
            x = project_to_p_star(p * xi * inverse(p))
            datum, conjugator = classify_certified(x, o.field, o.spectrum())
            assert certificate_holds(x, conjugator, datum, o.field, o.spectrum())

    def test_wrong_datum_fails(self):
        x = example_27_matrix(3)
        datum, conjugator = classify_certified(x, COMPLEX, [0])
        wrong = MirabolicOrbitDatum(datum.depth - 1, orbit(COMPLEX, (1, [1])))
        assert not certificate_holds(x, conjugator, wrong, COMPLEX, [0, 1])

    def test_wrong_conjugator_fails(self):
        x = example_27_matrix(3)
        datum, _ = classify_certified(x, COMPLEX, [0])
        assert not certificate_holds(
            x, ExactMatrix.identity(3), datum, COMPLEX, [0]
        )

    def test_singular_conjugator_fails(self):
        # last row e_n, so only invertibility can refuse it
        x = example_27_matrix(3)
        datum, _ = classify_certified(x, COMPLEX, [0])
        singular = ExactMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert certificate_holds(x, singular, datum, COMPLEX, [0]) is False
        singular = ExactMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
        assert certificate_holds(x, singular, datum, COMPLEX, [0]) is False

    def test_empty_matrices_are_no_certificate(self):
        # a 0x0 conjugator has no last row e_n to check
        empty = ExactMatrix([])
        datum = MirabolicOrbitDatum(1, OrbitDatum(COMPLEX))
        assert certificate_holds(empty, empty, datum, COMPLEX) is False


class TestStabilizer:
    def test_zero_stabilized_by_everything(self):
        assert stabilizer_dim(ExactMatrix.zeros(3, 3)) == 6  # dim of the mirabolic algebra

    def test_dense_row_example_is_strongly_regular(self):
        assert stabilizer_dim(example_27_matrix(3)) == 0

    def test_depth_stabilizer_law_on_normal_forms(self):
        for datum in normal_forms(4) + normal_forms(4, REAL):
            x = realize_normal_form(datum)
            n = datum.size
            expected = gl_centralizer_dim(datum.a_part) + (n - datum.depth)
            assert stabilizer_dim(x) == expected

    def test_depth_n_iff_stabilizer_zero(self):
        for datum in normal_forms(4):
            x = realize_normal_form(datum)
            assert (stabilizer_dim(x) == 0) == (datum.depth == datum.size)

    def test_centralizer_formula_against_kernel_computation(self, complex_corpus_4, real_corpus_4):
        # independent route: dim of the full matrix-algebra commutant of the
        # realized head, computed as the kernel of Y -> [A, Y]
        for o in complex_corpus_4 + real_corpus_4:
            assert _commutant_dim(realize_orbit(o)) == gl_centralizer_dim(o)

    def test_three_way_stabilizer_law_to_size_six(self):
        # normal-form stabilizer, the closed-form centralizer count, and the
        # independent commutant kernel must agree, through total size 6
        heads = [OrbitDatum(COMPLEX), OrbitDatum(REAL)]
        heads += list(complex_corpus(5))
        heads += list(real_corpus(5, require_pair=False))
        for head in heads:
            commutant = _commutant_dim(realize_orbit(head))
            assert commutant == gl_centralizer_dim(head), head
            for depth in range(1, 6 - head.size + 1):
                datum = MirabolicOrbitDatum(depth, head)
                x = realize_normal_form(datum)
                assert stabilizer_dim(x) == commutant + (datum.size - depth), datum

    def test_point_stabilizer_on_zero(self):
        assert point_stabilizer_dim(ExactMatrix.zeros(3, 3)) == 6


def _reference_bracket_rank(x, coords):
    """The Fraction bracket matrix of Y -> [x, Y], ranked by Gaussian elimination.

    Columns are indexed by the mirabolic basis E_ij (all rows i but the
    last), rows by the matrix coordinates read; independent of the integer
    kernel that stabilizer_dim uses.
    """
    n = x.rows
    cols = []
    for i in range(n - 1):
        for j in range(n):
            # [x, E_ij] puts column i of x into column j and minus row j of x into row i
            entries = {}
            for r in range(n):
                entries[(r, j)] = entries.get((r, j), 0) + x.data[r][i]
            for c in range(n):
                entries[(i, c)] = entries.get((i, c), 0) - x.data[j][c]
            cols.append([entries.get(rc, 0) for rc in coords])
    rows = [list(row) for row in zip(*cols)]
    return len(eliminate(rows, len(cols))) if rows else 0


class TestStabilizerAgainstScalarReference:
    def test_random_conjugates_of_size_four_corpora(self):
        rng = random.Random(4242)
        orbits = list(complex_corpus(4)) + list(real_corpus(4, require_pair=False))
        for o in orbits:
            n = o.size
            a = realize_orbit(o)
            for _ in range(2):
                p = random_mirabolic(n, rng)
                z = p * a * inverse(p)
                x = project_to_p_star(z)
                basis = n * (n - 1)
                coords = [(r, c) for r in range(n) for c in range(n - 1)]
                assert stabilizer_dim(x) == basis - _reference_bracket_rank(x, coords), o
                coords = [(r, c) for r in range(n) for c in range(n)]
                assert point_stabilizer_dim(z) == basis - _reference_bracket_rank(z, coords), o

    def test_gaussian_entry_is_refused(self):
        # a non-rational entry cannot reach the bracket rank: the matrix refuses it
        with pytest.raises(TypeError):
            stabilizer_dim(ExactMatrix([[1j, 0], [1, 0]]))
        with pytest.raises(TypeError):
            point_stabilizer_dim(ExactMatrix([[1j, 0], [1, 0]]))
