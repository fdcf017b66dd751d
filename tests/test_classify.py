import hashlib
import json
import random
from fractions import Fraction

import pytest

from mirabolic import (
    COMPLEX,
    REAL,
    EigenvalueClass,
    ExactMatrix,
    MalformedRepresentative,
    MirabolicOrbitDatum,
    OrbitDatum,
    SpectrumMismatch,
    block_diag,
    certificate_holds,
    classify,
    classify_certified,
    enumerate_selections,
    gl_centralizer_dim,
    inverse,
    jordan_block,
    partitions_of_weight,
    point_stabilizer_dim,
    project_to_p_star,
    rank,
    realize_normal_form,
    realize_orbit,
    selection_conjugator,
    stabilizer_dim,
)
from mirabolic.corpus import complex_corpus, random_mirabolic, real_corpus
from mirabolic.classify import _completion, _conjugate_step, _step_column

from conftest import eliminate, example_27_matrix, orbit
from test_acceptance import normal_form_corpus


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
        """Each classify step, on rows keyed by the labels the loop keeps,
        equals M * H * inverse(M), M = _completion(d, beta, s - 1, p), at
        every pivot p with beta_p != 0, in lowest terms; the recursion goes
        on from p = min(beta)."""
        rng = random.Random(808)
        orbits = list(complex_corpus(4)) + list(real_corpus(4, require_pair=False))
        steps = pivots = 0
        for o in orbits:
            for _ in range(3):
                p = random_mirabolic(o.size, rng)
                cur = project_to_p_star(p * realize_orbit(o) * inverse(p))
                d, rows = cur.denominator, dict(enumerate(cur.numerators))
                beta = rows.pop(cur.rows - 1)
                while beta:
                    s = len(rows) + 1
                    position = {q: i for i, q in enumerate(rows)}
                    h = ExactMatrix.from_integer(
                        d, [{position[j]: v for j, v in row.items()} for row in rows.values()],
                        s - 1)
                    beta_at = {position[j]: v for j, v in beta.items()}
                    for pivot in sorted(beta, reverse=True):  # classify's min(beta) last
                        m = _completion(d, beta_at, s - 1, position[pivot])
                        expected = m * h * inverse(m)
                        e, head, top = _conjugate_step(d, rows, beta, pivot)
                        f, t = _step_column(d, rows, beta, pivot)
                        at = {q: i for i, q in enumerate(head)}
                        point = ExactMatrix.from_integer(
                            e, [{at[j]: v for j, v in row.items()} for row in (*head.values(), top)],
                            s - 1)
                        column = ExactMatrix.from_integer(
                            f, [{s - 2: v} if v else {} for v in t], s - 1)
                        assert point.denominator == e, (o, pivot)
                        assert point == project_to_p_star(expected), (o, pivot)
                        assert point + column == expected, (o, pivot)
                        pivots += 1
                    d, rows, beta = e, head, top
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

    def test_a_conjugator_without_last_row_e_n_fails(self):
        # 2g conjugates x exactly as g does and is invertible, so only the
        # last-row check can refuse it: 2g is not mirabolic
        x = example_27_matrix(3)
        datum, g = classify_certified(x, COMPLEX, [0])
        assert certificate_holds(x, g, datum, COMPLEX, [0])
        doubled = ExactMatrix.from_integer(
            g.denominator, [{j: 2 * v for j, v in row.items()} for row in g.numerators], 3)
        assert doubled.numerators[2] != {2: doubled.denominator}
        assert certificate_holds(x, doubled, datum, COMPLEX, [0]) is False

    def test_singular_conjugator_fails(self):
        # last row e_n, so only invertibility can refuse it
        x = example_27_matrix(3)
        datum, _ = classify_certified(x, COMPLEX, [0])
        singular = ExactMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert certificate_holds(x, singular, datum, COMPLEX, [0]) is False
        singular = ExactMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
        assert certificate_holds(x, singular, datum, COMPLEX, [0]) is False

    def test_certificates_are_pinned(self):
        # every projected moved point of the size-5 corpora, taken through
        # g x g^-1 by elimination, and four seeded conjugates of each size-4
        # orbit; the digest covers each datum and every entry of its
        # conjugator, and every fourth certificate is re-checked
        points = []
        for o in list(complex_corpus(5)) + list(real_corpus(5, require_pair=True)):
            x = realize_orbit(o)
            for sel in enumerate_selections(o):
                g = selection_conjugator(o, sel)
                points.append((o, project_to_p_star(g * x * inverse(g))))
        rng = random.Random(1812)
        for o in list(complex_corpus(4)) + list(real_corpus(4, require_pair=True)):
            x = realize_orbit(o)
            for _ in range(4):
                g = random_mirabolic(o.size, rng)
                points.append((o, project_to_p_star(g * x * inverse(g))))
        assert len(points) == 3988 + 4 * 238
        payload = []
        for i, (o, x) in enumerate(points):
            datum, g = classify_certified(x, o.field, o.spectrum())
            if i % 4 == 0:
                assert certificate_holds(x, g, datum, o.field, o.spectrum()), (o, x)
            payload.append([datum.to_json(), [[str(v) for v in row] for row in g.data]])
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == (
            "12a44cb90cb8576de26540a885c3f8ab1b0ac16db2bc96b9baecc48f08d2d278")

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

    def test_centralizer_against_the_run_double_loop_to_weight_twelve(self):
        # sum_k (lambda'_k)^2 over the dual parts against the sum over pairs
        # of runs (k, l), (k', l') of min(k, k') * l * l', for a real class
        # and a pair class of every partition of weight <= 12
        for weight in range(1, 13):
            for partition in partitions_of_weight(weight):
                runs = partition.runs_ascending()
                expected = sum(min(k1, k2) * l1 * l2 for k1, l1 in runs for k2, l2 in runs)
                real = OrbitDatum(REAL, [EigenvalueClass(1, partition)])
                pair = OrbitDatum(REAL, [EigenvalueClass(0, partition, im=1)])
                assert gl_centralizer_dim(real) == expected, partition
                assert gl_centralizer_dim(pair) == 2 * expected, partition

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

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_non_square_is_refused(self, shape):
        x = ExactMatrix.zeros(*shape)
        with pytest.raises(ValueError, match="square"):
            stabilizer_dim(x)
        with pytest.raises(ValueError, match="square"):
            point_stabilizer_dim(x)


def _law_and_rank(datum):
    """The stabilizer of a normal form by the depth law, then ranked on its
    realized matrix."""
    return (gl_centralizer_dim(datum.a_part) + datum.a_part.size,
            stabilizer_dim(realize_normal_form(datum)))


class TestDepthLawAgainstRanks:
    def test_size_six_normal_forms(self):
        # both fields, denominators 1, 2 (the pair pool) and 2, 3, 6 (the
        # fractional heads)
        forms = normal_form_corpus(6)
        fractional = [orbit(COMPLEX, ("1/3", [2, 1])), orbit(COMPLEX, ("1/2", [1]), ("1/3", [1])),
                      orbit(COMPLEX, ("-1/3", [1, 1]), ("1/2", [2])),
                      orbit(REAL, ("1/3", "1/2", [1]), ("1/2", [1, 1]))]
        forms += [MirabolicOrbitDatum(depth, head) for head in fractional
                  for depth in range(1, 7 - head.size)]
        assert {realize_normal_form(f).denominator for f in forms} == {1, 2, 3, 6}
        assert len(forms) == 1105
        for datum in forms:
            law, rank = _law_and_rank(datum)
            assert law == rank, datum

    def test_tail_and_head_blocks_with_one_matrix(self):
        # depth 1 over C {2: [1], 0: [1]} is diag(2, 0, 0): the head block
        # {1} and the tail {2} have the same matrix, but E_21 is not in the
        # algebra, so the two zero blocks are not interchangeable; its
        # stabilizer is the centralizer of diag(2, 0) and the radical
        for head in (orbit(COMPLEX, (2, [1])), orbit(COMPLEX, (2, [1]), (0, [1])),
                     orbit(COMPLEX, (2, [1]), (1, [1])), orbit(COMPLEX, (0, [2])),
                     orbit(REAL, (0, 1, [1])), orbit(REAL, (0, [2]), (0, 1, [1]))):
            for depth in (1, 2):
                datum = MirabolicOrbitDatum(depth, head)
                law, rank = _law_and_rank(datum)
                assert law == rank, datum
        assert _law_and_rank(MirabolicOrbitDatum(1, orbit(COMPLEX, (2, [1]), (0, [1])))) == (4, 4)

    def test_repeated_identical_blocks(self):
        # diag(1/2, 1/2, 1/3, 1/3, 0, 0), then three equal Jordan blocks
        # beside a zero head block and the zero tail
        for datum in (
            MirabolicOrbitDatum(1, orbit(COMPLEX, ("1/2", [1, 1]), ("1/3", [1, 1]), (0, [1]))),
            MirabolicOrbitDatum(2, orbit(COMPLEX, ("1/2", [1, 1]), ("1/3", [1, 1]))),
            MirabolicOrbitDatum(1, orbit(COMPLEX, ("1/2", [2, 2, 2]), (0, [1]))),
            MirabolicOrbitDatum(1, orbit(REAL, (0, 1, [1, 1]), (0, 2, [1, 1, 1]))),
        ):
            law, rank = _law_and_rank(datum)
            assert law == rank, datum


def _fractional_levi(n, rng, shuffle):
    """diag(D, 1) for a random diagonal D of nonzero fractions, with its rows
    shuffled when shuffle is set."""
    order = list(range(n - 1))
    if shuffle:
        rng.shuffle(order)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(order):
        rows[i][j] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))
    rows[n - 1][n - 1] = Fraction(1)
    return ExactMatrix(rows)


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

    def test_seeded_sweep_to_size_six(self):
        # stabilizer_dim ranks a reduced system in the kernel of the last row
        # c; the Fraction bracket matrix shares nothing with it.  Normal forms
        # conjugated by random mirabolic and fractional Levi elements give
        # c = 0 (depth 1) and dense fractional c (depth > 1); conjugating by
        # a shuffled fractional diagonal instead moves the single entry of a
        # normal form's c off the last place.  The last column is filled at
        # random, and must not be read.
        rng = random.Random(1606)
        forms = normal_forms(6) + normal_forms(6, REAL, require_pair=False)
        sample = []
        for n in range(2, 7):
            for deep in (False, True):
                some = [datum for datum in forms if datum.size == n and (datum.depth > 1) == deep]
                sample += rng.sample(some, min(6, len(some)))
        kinds = {"zero": 0, "single": 0, "dense": 0}
        for datum in sample:
            n = datum.size
            x = realize_normal_form(datum)
            for shuffle in (False, True):
                g = _fractional_levi(n, rng, shuffle)
                if not shuffle:
                    g = random_mirabolic(n, rng) * g
                rows = [list(row) for row in (g * x * inverse(g)).data]
                for row in rows:
                    row[-1] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                y = ExactMatrix(rows)
                c = [v for v in rows[-1][:-1] if v]
                kinds["zero" if not c else "single" if len(c) == 1 else "dense"] += 1
                coords = [(r, col) for r in range(n) for col in range(n - 1)]
                expected = n * (n - 1) - _reference_bracket_rank(y, coords)
                assert expected == gl_centralizer_dim(datum.a_part) + n - datum.depth, datum
                assert stabilizer_dim(y) == expected, (datum, shuffle)
        assert min(kinds.values()) >= 20, kinds
        for n in (0, 1):
            assert stabilizer_dim(ExactMatrix.zeros(n, n)) == 0
        assert stabilizer_dim(ExactMatrix([[Fraction(5, 3)]])) == 0

    def test_last_column_is_not_read(self):
        # the last column pairs with nothing in the mirabolic algebra; the
        # functional of [[1, 2, 5], [0, 3, 7], [4, 1, 9]] is regular
        x = ExactMatrix([[1, 2, 5], [0, 3, 7], [4, 1, 9]])
        coords = [(r, c) for r in range(3) for c in range(2)]
        assert stabilizer_dim(x) == 6 - _reference_bracket_rank(x, coords) == 0
        rng = random.Random(77)
        for n in range(2, 7):
            for _ in range(25):
                rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5
                         else Fraction(0) for _ in range(n)] for _ in range(n)]
                if rng.random() < 0.3:
                    rows[-1][:-1] = [Fraction(0)] * (n - 1)
                for row in rows:
                    row[-1] = Fraction(rng.randint(1, 9), rng.randint(1, 5))
                x = ExactMatrix(rows)
                assert stabilizer_dim(x) == stabilizer_dim(project_to_p_star(x)), rows

    def test_gaussian_entry_is_refused(self):
        # a non-rational entry cannot reach the bracket rank: the matrix refuses it
        with pytest.raises(TypeError):
            stabilizer_dim(ExactMatrix([[1j, 0], [1, 0]]))
        with pytest.raises(TypeError):
            point_stabilizer_dim(ExactMatrix([[1j, 0], [1, 0]]))
