import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from mirabolic import (
    COMPLEX,
    REAL,
    MirabolicOrbitDatum,
    MirabolicRepLabel,
    OrbitDatum,
    RepLabel,
    UnsupportedOrbitShape,
    adduce,
    all_sign_choices,
    attach_gl_rep,
    attach_mirabolic_rep,
    character,
    dense_selection,
    oracle_image,
    restrict_to_mirabolic,
    restriction_reports,
    sign_shape,
    speh,
    speh_complementary,
    stein,
    symbolic_image,
    verify_restriction,
)
from mirabolic.cli import _signs
from mirabolic import rep_theory
from mirabolic.rep_theory import _KIND_ORDER, SPEH, STEIN, Factor
from mirabolic.corpus import complex_corpus, real_corpus
from mirabolic.partitions import partitions_of_weight

from conftest import orbit
from strategies import orbits_of_size_8_to_10


class TestFactors:
    def test_spans(self):
        assert character(3).span == 3
        assert speh(3, 1).span == 6
        assert stein(2, Fraction(1, 4)).span == 4
        assert speh_complementary(2, 1, Fraction(1, 4)).span == 8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            stein(2, Fraction(1, 2))
        with pytest.raises(ValueError):
            speh(2, 0)
        with pytest.raises(ValueError):
            character(0)
        with pytest.raises(ValueError):
            character(1, w=2)
        # a sign exponent would not show in to_json or repr
        with pytest.raises(ValueError):
            Factor(SPEH, 2, m=1, w=1)
        with pytest.raises(ValueError):
            Factor(STEIN, 2, s=Fraction(1, 4), w=1)
        # inexact parameters are refused, never rounded or converted
        with pytest.raises(TypeError):
            character(2.9, twist=Fraction(1, 10))
        with pytest.raises(TypeError):
            character(2, twist=0.1)
        with pytest.raises(TypeError):
            character(2, twist="1/2")
        with pytest.raises(TypeError):
            character(Fraction(2))
        with pytest.raises(TypeError):
            character(1, w=1.0)
        with pytest.raises(TypeError):
            speh(1, 1.5)
        with pytest.raises(TypeError):
            stein(1, 0.25)
        with pytest.raises(TypeError):
            speh_complementary(1, 1, 0.25)

    def test_exact_parameters_are_kept(self):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        assert character(2, twist=half).twist is half
        assert stein(1, quarter).s is quarter
        assert character(2, twist=-1).twist == Fraction(-1)
        assert type(character(True).t) is int

    def test_label_product_is_commutative(self):
        a = RepLabel(REAL, [character(2, Fraction(1, 2)), speh(1, 3)])
        b = RepLabel(REAL, [character(1, 0, w=1)])
        assert a * b == b * a
        assert (a * b).size == a.size + b.size

    def test_complex_labels_reject_real_only_factors(self):
        with pytest.raises(ValueError):
            RepLabel(COMPLEX, [speh(1, 1)])
        with pytest.raises(ValueError):
            RepLabel(COMPLEX, [character(1, w=1)])


class TestAttach:
    def test_unipotent_complex(self):
        label = attach_gl_rep(orbit(COMPLEX, (0, [2, 1])))
        assert label == RepLabel(COMPLEX, [character(2), character(1)])

    def test_semisimple_product_of_characters(self):
        o = orbit(COMPLEX, (2, [1, 1, 1]), (1, [1, 1]))
        label = attach_gl_rep(o)
        assert label == RepLabel(
            COMPLEX, [character(3, 2), character(2, 1)]
        )

    def test_real_pair_gives_speh(self):
        o = orbit(REAL, (0, "3/2", [1]))
        assert attach_gl_rep(o) == RepLabel(REAL, [speh(1, 3)])

    def test_real_pair_with_twist(self):
        o = orbit(REAL, ("1/2", 1, [2]))
        label = attach_gl_rep(o)
        assert label == RepLabel(
            REAL, [speh(1, 2, Fraction(1, 2)), speh(1, 2, Fraction(1, 2))]
        )

    def test_non_half_integer_pair_unsupported(self):
        o = orbit(REAL, (0, "1/3", [1]))
        with pytest.raises(UnsupportedOrbitShape):
            attach_gl_rep(o)

    def test_real_classes_need_signs(self):
        o = orbit(REAL, (0, [2, 1]))
        with pytest.raises(ValueError):
            attach_gl_rep(o)
        label = attach_gl_rep(o, [(1, 0)])
        assert label == RepLabel(REAL, [character(2, 0, w=1), character(1, 0, w=0)])

    def test_sign_length_checked(self):
        o = orbit(REAL, (0, [2, 1]))
        with pytest.raises(ValueError):
            attach_gl_rep(o, [(1,)])

    @pytest.mark.parametrize("classes, signs", [
        # too few tuples: the class at -1 would take sign 0 unasked
        ([(1, [2, 1]), (-1, [1]), (0, 1, [1])], [(1, 0)]),
        # too many tuples: the last would land on the pair class
        ([(1, [2, 1]), (-1, [1]), (0, 1, [1])], [(1, 0), (1,), (1,)]),
        ([(0, [1]), (0, 1, [1])], [(1,), (1,)]),
        # too many tuples: more than the orbit has classes
        ([(0, [1])], [(1,), (1,)]),
    ])
    def test_sign_count_checked(self, classes, signs):
        o = orbit(REAL, *classes)
        with pytest.raises(ValueError, match="expected sign tuples"):
            attach_gl_rep(o, signs)
        with pytest.raises(ValueError, match="expected sign tuples"):
            verify_restriction(o, signs)

    def test_inexact_signs_are_refused(self):
        o = orbit(REAL, (0, [1]))
        with pytest.raises(TypeError):
            attach_gl_rep(o, [(0.5,)])
        with pytest.raises(TypeError):
            attach_gl_rep(o, ["1"])

    @pytest.mark.parametrize("classes, signs", [
        ([(0, [1])], [(2,)]),
        ([(0, [1])], [(-1,)]),
        ([(0, [2])], [(1, 2)]),
        ([(1, [1]), (0, [1])], [(1,), (2,)]),
    ])
    def test_signs_other_than_0_or_1_are_refused(self, classes, signs):
        # the shape fits, so only the 0/1 check can refuse them
        o = orbit(REAL, *classes)
        for call in (attach_gl_rep, verify_restriction):
            with pytest.raises(ValueError, match="signs must be 0 or 1"):
                call(o, signs)

    def test_signs_never_reach_a_pair_class(self):
        o = orbit(REAL, (0, [1]), (0, 1, [1]))
        assert attach_gl_rep(o, [(1,)]) == RepLabel(REAL, [character(1, 0, w=1), speh(1, 2)])

    def test_complex_rejects_signs(self):
        with pytest.raises(ValueError):
            attach_gl_rep(orbit(COMPLEX, (0, [1])), [(0,)])

    def test_size_bookkeeping(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4 + real_corpus_4:
            try:
                signs = next(all_sign_choices(o))
                assert attach_gl_rep(o, signs).size == o.size
            except UnsupportedOrbitShape:
                pass


class TestAdduce:
    def test_characters_lose_one_each(self):
        label = RepLabel(COMPLEX, [character(3, 2), character(2, 1), character(1, 0)])
        depth, shrunk = adduce(label)
        assert depth == 3
        assert shrunk == RepLabel(COMPLEX, [character(2, 2), character(1, 1)])

    def test_speh_costs_two(self):
        depth, shrunk = adduce(RepLabel(REAL, [speh(4, 2)]))
        assert (depth, shrunk) == (2, RepLabel(REAL, [speh(3, 2)]))

    def test_stein_costs_two(self):
        depth, shrunk = adduce(RepLabel(REAL, [stein(1, Fraction(1, 4))]))
        assert depth == 2
        assert shrunk == RepLabel(REAL)

    def test_speh_complementary_costs_four(self):
        depth, shrunk = adduce(RepLabel(REAL, [speh_complementary(2, 1, Fraction(1, 3))]))
        assert (depth, shrunk) == (4, RepLabel(REAL, [speh_complementary(1, 1, Fraction(1, 3))]))

    def test_terminal_character(self):
        depth, shrunk = adduce(RepLabel(COMPLEX, [character(1)]))
        assert (depth, shrunk) == (1, RepLabel(COMPLEX))

    def test_size_accounting(self):
        rng = random.Random(43)
        for label in _random_labels(rng, 200):
            depth, shrunk = adduce(label)
            assert shrunk.size + depth == label.size

    def test_product_rule(self):
        rng = random.Random(47)
        labels = _random_labels(rng, 200)
        for a, b in zip(labels[::2], labels[1::2]):
            if a.field != b.field:
                continue
            da, sa = adduce(a)
            db, sb = adduce(b)
            dp, sp = adduce(a * b)
            assert dp == da + db
            assert sp == sa * sb


def _old_order(factors):
    """The factors sorted by the ascending key labels used to sort by; the
    reference for the descending Factor.sort_key."""
    return tuple(sorted(factors, key=lambda f: (
        -f.twist, _KIND_ORDER[f.kind], -f.t, -(f.m or 0), -(f.s or 0), f.w)))


def _corpus_labels():
    """Every label the restriction check attaches over the size <= 7 corpora,
    with all sign choices: the orbit's, its restriction's and the dense
    image's."""
    for o in list(complex_corpus(7)) + list(real_corpus(7, require_pair=False)):
        for signs in all_sign_choices(o):
            report = verify_restriction(o, signs)
            yield attach_gl_rep(o, signs)
            yield report.restricted.adduced
            yield report.attached.adduced


class TestFactorOrder:
    def test_order_matches_the_ascending_reference_key(self):
        count = 0
        for label in _corpus_labels():
            assert label.factors == _old_order(label.factors), label
            count += 1
        assert count == 3 * 13920
        for label in _random_labels(random.Random(88), 2000):
            assert label.factors == _old_order(label.factors), label

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(orbits_of_size_8_to_10())
    def test_order_matches_the_reference_at_fractional_twists(self, o):
        # eigenvalues p/q with q up to 10**6: _attach sorts by twists scaled
        # to ints, which must order as the Fraction twists do
        try:
            reports = list(restriction_reports(o))
        except UnsupportedOrbitShape:
            return
        for signs, report in zip(all_sign_choices(o), reports):
            for label in (attach_gl_rep(o, signs), report.restricted.adduced,
                          report.attached.adduced):
                assert label.factors == _old_order(label.factors), (o, signs)
                TestTrustedFactors.assert_validated(label)

    def test_adduce_equals_the_sorting_constructor(self):
        labels = list(_random_labels(random.Random(88), 2000))
        labels += [attach_gl_rep(o, signs)
                   for o in list(complex_corpus(6)) + list(real_corpus(6, require_pair=False))
                   for signs in all_sign_choices(o)]
        for label in labels:
            shrunk = [f.shrink() for f in label.factors]
            expected = RepLabel(label.field, [f for f in shrunk if f is not None])
            assert adduce(label)[1] == expected


def _random_labels(rng, count):
    twists = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(-7, 2)]
    steins = [Fraction(1, 4), Fraction(1, 3)]
    labels = []
    for _ in range(count):
        field = rng.choice([REAL, COMPLEX])
        factors = []
        for _ in range(rng.randint(1, 4)):
            t = rng.randint(1, 3)
            tw = rng.choice(twists)
            if field == COMPLEX:
                kind = rng.choice(["char", "stein"])
            else:
                kind = rng.choice(["char", "speh", "stein", "spehcs"])
            if kind == "char":
                factors.append(
                    character(t, tw, w=rng.randint(0, 1) if field == REAL else 0)
                )
            elif kind == "speh":
                factors.append(speh(t, rng.randint(1, 3), tw))
            elif kind == "stein":
                factors.append(stein(t, rng.choice(steins), tw))
            else:
                factors.append(speh_complementary(t, rng.randint(1, 2), rng.choice(steins), tw))
        labels.append(RepLabel(field, factors))
    return labels


class TestRestrict:
    def test_wraps_adduce(self):
        label = RepLabel(COMPLEX, [character(2), character(1)])
        restricted = restrict_to_mirabolic(label)
        assert restricted == MirabolicRepLabel(2, RepLabel(COMPLEX, [character(1)]))

    def test_depth_must_be_an_int(self):
        with pytest.raises(TypeError):
            MirabolicRepLabel(2.7, RepLabel(REAL))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            restrict_to_mirabolic(RepLabel(COMPLEX))

    def test_attach_mirabolic_examples(self):
        datum = MirabolicOrbitDatum(2, orbit(COMPLEX, (0, [1])))
        assert attach_mirabolic_rep(datum) == MirabolicRepLabel(
            2, RepLabel(COMPLEX, [character(1)])
        )
        assert attach_mirabolic_rep(
            MirabolicOrbitDatum(1, OrbitDatum(COMPLEX))
        ) == MirabolicRepLabel(1, RepLabel(COMPLEX))
        assert attach_mirabolic_rep(
            MirabolicOrbitDatum(5, OrbitDatum(COMPLEX))
        ) == MirabolicRepLabel(5, RepLabel(COMPLEX))


class TestVerifyRestriction:
    def test_unipotent_three(self):
        report = verify_restriction(orbit(COMPLEX, (0, [2, 1])))
        assert report.ok
        expected = MirabolicRepLabel(2, RepLabel(COMPLEX, [character(1)]))
        assert report.restricted == expected
        assert report.attached == expected

    def test_semisimple_shape(self):
        o = orbit(COMPLEX, (2, [1, 1]), (1, [1, 1, 1]))
        assert verify_restriction(o).ok

    def test_real_speh_datum(self):
        o = orbit(REAL, (0, "3/2", [1]))
        report = verify_restriction(o)
        assert report.ok
        assert report.restricted == MirabolicRepLabel(2, RepLabel(REAL))
        assert report.omega == MirabolicOrbitDatum(2, OrbitDatum(REAL))

    def test_mixed_real_all_signs(self):
        o = orbit(REAL, (0, [2, 1]), (0, 1, [1]))
        count = 0
        for signs in all_sign_choices(o):
            assert verify_restriction(o, signs).ok
            count += 1
        assert count == 4  # two dual parts on the real class

    def test_head_classes_keep_the_signs_of_their_eigenvalue(self):
        # class 1 leaves the head, and class 0 keeps the sign of its dual
        # part 2 and drops that of its dual part 1
        o = orbit(REAL, (1, [1]), (0, [2, 1]))
        report = verify_restriction(o, [(1,), (1, 0)])
        assert report.ok
        assert report.attached.adduced == RepLabel(REAL, [character(1, 0, w=1)])
        # signs that can be read only once give the same report
        once = verify_restriction(o, iter([iter((1,)), iter((1, 0))]))
        assert once.to_json() == report.to_json()

    # an orbit with three real classes, whose dense head keeps all three
    _THREE = [("3/2", [2, 1]), ("1/3", [2, 2]), (-1, [2, 1])]
    _THREE_SIGNS = [(1, 0), (1, 0), (0, 1)]
    _THREE_OMEGA = [("3/2", [1]), ("1/3", [2]), (-1, [1])]

    @pytest.mark.parametrize("classes, signs, depth, omega, head, attached", [
        # a class at an eigenvalue the orbit lacks
        ([(0, [2, 1])], [(1, 1)], 2, [(0, [1])],
         [(0, [1]), (5, [1])], [character(1, 5), character(1, 0, w=1)]),
        # a class with a dual part its source cannot account for, which
        # takes sign 0: the sign of the vanished part is not passed on
        ([(0, [2, 1])], [(1, 1)], 2, [(0, [1])],
         [(0, [2])], [character(1, 0, w=1), character(1, 0)]),
        # a class above, between or below the orbit's eigenvalues takes
        # sign 0, and every other class keeps the signs of its eigenvalue
        (_THREE, _THREE_SIGNS, 6, _THREE_OMEGA,
         [(2, [2]), ("3/2", [1]), ("1/3", [1, 1]), (-1, [1])],
         [character(1, 2), character(1, 2), character(1, Fraction(3, 2), w=1),
          character(2, Fraction(1, 3), w=1), character(1, -1)]),
        (_THREE, _THREE_SIGNS, 6, _THREE_OMEGA,
         [("3/2", [1]), ("1/2", [2]), ("1/3", [1, 1]), (-1, [1])],
         [character(1, Fraction(3, 2), w=1), character(1, Fraction(1, 2)),
          character(1, Fraction(1, 2)), character(2, Fraction(1, 3), w=1), character(1, -1)]),
        (_THREE, _THREE_SIGNS, 6, _THREE_OMEGA,
         [("3/2", [1]), ("1/3", [1, 1]), (-1, [1]), (-2, [2])],
         [character(1, Fraction(3, 2), w=1), character(2, Fraction(1, 3), w=1), character(1, -1),
          character(1, -2), character(1, -2)]),
        # a head that drops the orbit's middle class: the class below still
        # takes its own signs, not the middle class's
        (_THREE, _THREE_SIGNS, 6, _THREE_OMEGA,
         [("3/2", [1]), (-1, [1])],
         [character(1, Fraction(3, 2), w=1), character(1, -1)]),
    ])
    def test_a_head_the_orbit_cannot_account_for_fails_the_check(
            self, monkeypatch, classes, signs, depth, omega, head, attached):
        o = orbit(REAL, *classes)
        report = verify_restriction(o, signs)
        assert report.ok
        assert report.omega == MirabolicOrbitDatum(depth, orbit(REAL, *omega))
        monkeypatch.setattr(rep_theory, "_dense_image",
                            lambda o: MirabolicOrbitDatum(depth, orbit(REAL, *head)))
        report = verify_restriction(o, signs)
        assert not report.ok
        assert report.attached.adduced == RepLabel(REAL, attached)

    def test_sign_shape_is_the_shape_of_every_sign_assignment(self):
        for o in list(complex_corpus(6)) + list(real_corpus(6, require_pair=False)):
            shape = sign_shape(o)
            choices = list(all_sign_choices(o))
            assert len(choices) == 2 ** sum(shape), o
            for signs in choices:
                assert [len(ws) for ws in signs or ()] == shape, o
            # the CLI's default --signs, all zero
            assert [len(ws) for ws in _signs(o, None) or ()] == shape, o
        assert sign_shape(orbit(COMPLEX, (0, [2, 1]))) == []
        assert sign_shape(orbit(REAL, (0, 1, [2, 1]))) == []
        assert sign_shape(orbit(REAL, (1, [3, 1]), (0, [2, 2]), (0, 1, [1]))) == [3, 2]

    def test_reports_are_pinned(self):
        # criterion 7's checks: both size-6 corpora, every sign vector; the
        # digest covers labels, factor order, images and verdicts
        reports = [verify_restriction(o).to_json() for o in complex_corpus(6)]
        reports += [
            verify_restriction(o, signs).to_json()
            for o in real_corpus(6, require_pair=False)
            for signs in all_sign_choices(o)
        ]
        assert len(reports) == 4968
        assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == (
            "d490d536ac6835a12b74502688240a2d97a52a189cc092ec41850702c776a767")

    def test_size_seven_reports_are_pinned(self):
        # the orbits of size exactly 7, every sign vector: the rest of the
        # size-7 restriction corpus, which the size-6 pin does not reach
        reports = [verify_restriction(o).to_json() for o in complex_corpus(7) if o.size == 7]
        reports += [
            verify_restriction(o, signs).to_json()
            for o in real_corpus(7, require_pair=False) if o.size == 7
            for signs in all_sign_choices(o)
        ]
        assert len(reports) == 8952
        assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == (
            "a7bdc033b93183dad5ffe9c94a9d219ba3b2437bf6567b40d1c90f0ff059f81a")

    def test_int_subclass_signs_give_int_sign_exponents(self):
        # bools pass the sign check; every label carries the int they stand for
        o = orbit(REAL, (1, [1]), (0, [2, 1]))
        report = verify_restriction(o, [(True,), (True, False)])
        assert report.ok
        as_ints = verify_restriction(o, [(1,), (1, 0)])
        assert report.restricted.to_json() == as_ints.restricted.to_json()
        assert report.attached.to_json() == as_ints.attached.to_json()
        for label in (report.restricted.adduced, report.attached.adduced):
            assert all(type(f.w) is int for f in label.factors)

    def test_unsupported_shape_propagates(self):
        with pytest.raises(UnsupportedOrbitShape):
            verify_restriction(orbit(REAL, (0, "1/3", [1])))

    def test_label_level_identity_for_unipotent_orbits(self):
        for weight in range(1, 7):
            for p in partitions_of_weight(weight):
                o = orbit(COMPLEX, (0, list(p)))
                restricted = restrict_to_mirabolic(attach_gl_rep(o))
                assert restricted.depth == p.largest()
                sizes = sorted(f.t for f in restricted.adduced.factors)
                expected = sorted(t - 1 for t in p.dual() if t > 1)
                assert sizes == expected
                omega = symbolic_image(o, dense_selection(o))
                assert restricted == attach_mirabolic_rep(omega)


class TestRestrictionReports:
    def test_equal_verify_restriction_over_every_sign_vector_of_the_size_seven_corpora(self):
        # the order is all_sign_choices', and no assignment is left out
        checked = 0
        for o in list(complex_corpus(7)) + list(real_corpus(7, require_pair=False)):
            reports = [r.to_json() for r in restriction_reports(o)]
            assert reports == [verify_restriction(o, s).to_json()
                               for s in all_sign_choices(o)], o
            checked += len(reports)
        assert checked == 13920

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(orbits_of_size_8_to_10())
    def test_equal_verify_restriction_beyond_the_corpora(self, o):
        assert 8 <= o.size <= 10 and sum(sign_shape(o)) <= 6
        try:
            expected = [verify_restriction(o, s).to_json() for s in all_sign_choices(o)]
        except UnsupportedOrbitShape:
            with pytest.raises(UnsupportedOrbitShape):
                list(restriction_reports(o))
            return
        assert [r.to_json() for r in restriction_reports(o)] == expected

    def test_the_dense_image_is_formed_once_per_orbit(self, monkeypatch):
        calls = []
        real = rep_theory._dense_image
        monkeypatch.setattr(rep_theory, "_dense_image", lambda o: calls.append(o) or real(o))
        o = orbit(REAL, (1, [1]), (0, [2, 1]))
        assert len([r for r in restriction_reports(o) if r.ok]) == 8
        assert calls == [o]

    def test_the_empty_orbit_raises_before_the_dense_image(self):
        with pytest.raises(ValueError, match="cannot restrict the empty label"):
            next(restriction_reports(OrbitDatum(COMPLEX)))


def _oracle_meets_restriction(smallest, largest):
    """(orbits, reports): every orbit of the C and R corpora of size smallest
    to largest has the oracle's dense image as the omega of each of its
    restriction reports."""
    orbits = reports = 0
    for o in list(complex_corpus(largest)) + list(real_corpus(largest, require_pair=False)):
        if o.size < smallest:
            continue
        omega = oracle_image(o, dense_selection(o))
        for report in restriction_reports(o):
            assert report.omega == omega, (o, report.signs)
            reports += 1
        orbits += 1
    return orbits, reports


class TestRestrictionMeetsTheOracle:
    """The dense image the restriction check attaches to is the symbolic
    one; the oracle's image of the dense selection must be the same."""

    def test_to_size_seven(self):
        assert _oracle_meets_restriction(1, 7) == (3701, 13920)

    @pytest.mark.slow
    def test_sizes_eight_to_ten(self):
        assert _oracle_meets_restriction(8, 10) == (31129, 249001)


class TestTrustedFactors:
    """attach_gl_rep, Factor.shrink and the head's attachment build their
    factors without the constructor's checks; each must be what the
    validating constructor builds from the same fields, key included."""

    @staticmethod
    def assert_validated(label):
        for f in label.factors:
            rebuilt = Factor(f.kind, f.t, f.twist, f.w, f.m, f.s)
            assert f == rebuilt, f
            assert f.sort_key() == rebuilt.sort_key(), f
            assert hash(f) == hash(rebuilt), f
            assert f.to_json() == rebuilt.to_json(), f
            assert type(f.t) is int and type(f.w) is int and type(f.twist) is Fraction, f
        assert label == RepLabel(label.field, label.factors)

    def test_labels_of_the_size_six_corpora(self):
        checked = 0
        for o in list(complex_corpus(6)) + list(real_corpus(6, require_pair=False)):
            for signs in all_sign_choices(o):
                attached = attach_gl_rep(o, signs)
                self.assert_validated(attached)
                self.assert_validated(restrict_to_mirabolic(attached).adduced)
                self.assert_validated(verify_restriction(o, signs).attached.adduced)
                checked += 1
        assert checked == 4968
