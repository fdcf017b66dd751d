import copy
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic import (
    COMPLEX,
    REAL,
    EigenvalueClass,
    ExactMatrix,
    IndexSelection,
    MirabolicOrbitDatum,
    OrbitDatum,
    SpectrumMismatch,
    check_geometry,
    certificate_holds,
    classify,
    classify_certified,
    dense_selection,
    enumerate_selections,
    jordan_structure,
    moment,
    oracle_image,
    point_stabilizer_dim,
    project_to_p_star,
    realize_normal_form,
    realize_orbit,
    stabilizer_dim,
    symbolic_image,
)
from mirabolic.corpus import complex_corpus, compositions, real_corpus
from mirabolic.enumeration import selection_positions
from mirabolic.moment import _moved
from mirabolic.orbit_model import block_layout
from mirabolic.partitions import Partition, partitions_of_weight

from conftest import orbit, without_largest_part
from strategies import EXAMPLES, orbits_of_size_8_to_10


class TestDenseSelection:
    def test_regular_semisimple(self):
        o = orbit(COMPLEX, (2, [2]), (1, [3]))
        dense = dense_selection(o)
        assert dense == IndexSelection({0: {0: 2}, 1: {0: 3}})

    def test_single_block(self):
        o = orbit(COMPLEX, (5, [3]))
        assert dense_selection(o) == IndexSelection({0: {0: 3}})

    def test_mixed_partitions(self):
        o = orbit(COMPLEX, (1, [2, 1]), (0, [3]))
        dense = dense_selection(o)
        # largest block of [2,1] is ascending index 1 with size 2
        assert dense == IndexSelection({0: {1: 2}, 1: {0: 3}})

    def test_dense_is_enumerated_once(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4 + real_corpus_4:
            sels = enumerate_selections(o)
            assert sels.count(dense_selection(o)) == 1


class TestDenseImage:
    def test_equals_the_symbolic_image_of_the_dense_selection_to_size_seven(self):
        # _dense_image runs the surgery at the dense choices directly, with
        # no selection built or fitted
        checked = 0
        for o in list(complex_corpus(7)) + list(real_corpus(7, require_pair=False)):
            assert moment._dense_image(o) == symbolic_image(o, dense_selection(o)), o
            checked += 1
        assert checked == 3701

    def test_the_empty_orbit_has_no_dense_image(self):
        for dense in (dense_selection, moment._dense_image):
            with pytest.raises(ValueError, match="the zero-size orbit has no selections"):
                dense(OrbitDatum(COMPLEX))

    def test_a_dense_selection_of_another_orbit_is_refused(self):
        # symbolic_image still fits a caller's selection, also one that is
        # the dense selection of some other orbit
        big = orbit(COMPLEX, (1, [2]), (0, [3, 1]))
        with pytest.raises(ValueError, match="selection names class 1 of an orbit with 1 classes"):
            symbolic_image(orbit(COMPLEX, (1, [2])), dense_selection(big))
        with pytest.raises(ValueError, match="coordinate 3 outside block 1 of class 0, of size 2"):
            symbolic_image(orbit(COMPLEX, (0, [2, 1])), IndexSelection({0: {1: 3}}))


class TestSymbolicImage:
    def test_single_block_top_coordinate(self):
        o = orbit(COMPLEX, (1, [2]))
        img = symbolic_image(o, IndexSelection({0: {0: 2}}))
        assert img == MirabolicOrbitDatum(2, OrbitDatum(COMPLEX))

    def test_single_block_low_coordinate(self):
        o = orbit(COMPLEX, (1, [2]))
        img = symbolic_image(o, IndexSelection({0: {0: 1}}))
        assert img == MirabolicOrbitDatum(1, orbit(COMPLEX, (1, [1])))

    def test_unipotent_dense_removes_largest_part(self):
        for weight in range(1, 7):
            for p in partitions_of_weight(weight):
                o = orbit(COMPLEX, (0, list(p)))
                img = symbolic_image(o, dense_selection(o))
                assert img.depth == p.largest()
                removed = without_largest_part(p)
                if removed:
                    assert img.a_part == orbit(COMPLEX, (0, list(removed)))
                else:
                    assert img.a_part == OrbitDatum(COMPLEX)

    def test_depth_formula_at_dense(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4 + real_corpus_4:
            img = symbolic_image(o, dense_selection(o))
            expected = sum(
                (2 if c.is_pair else 1) * c.partition.largest() for c in o.classes
            )
            assert img.depth == expected

    def test_weight_conservation(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4 + real_corpus_4:
            for sel in enumerate_selections(o):
                img = symbolic_image(o, sel)
                assert img.depth + img.a_part.size == o.size


    def test_head_partitions_are_canonical(self):
        # symbolic_image builds each head partition, head class and the
        # image itself without the constructors' sorts and checks
        count = 0
        for o in list(complex_corpus(5)) + list(real_corpus(5, require_pair=False)):
            for sel in enumerate_selections(o):
                img = symbolic_image(o, sel)
                for cls in img.a_part.classes:
                    p = cls.partition
                    assert p == Partition(list(p)), (o, sel)
                    assert type(p.parts) is tuple and all(type(x) is int for x in p), (o, sel)
                    assert cls == EigenvalueClass(cls.re, p, im=cls.im), (o, sel)
                    assert type(cls.re) is Fraction, (o, sel)
                    assert cls.im is None or type(cls.im) is Fraction and cls.im > 0, (o, sel)
                rebuilt = MirabolicOrbitDatum(img.depth, OrbitDatum(o.field, img.a_part.classes))
                assert img == rebuilt, (o, sel)
                assert type(img.depth) is int and img.depth >= 1, (o, sel)
                count += 1
        assert count == 4330


class TestSelectionFit:
    # a selection must name a class, a block and a coordinate that the orbit
    # has; both image paths refuse it by the same check and message
    CASES = [
        ({0: {2: 1}}, "class 0 has no block 2"),
        ({1: {0: 1}}, "selection names class 1 of an orbit with 1 classes"),
        ({0: {1: 4}}, "coordinate 4 outside block 1 of class 0, of size 3"),
        ({0: {1: 0}}, "coordinate 0 outside block 1 of class 0, of size 3"),
    ]

    @pytest.mark.parametrize("choices, message", CASES)
    @pytest.mark.parametrize("image", [symbolic_image, oracle_image])
    def test_unfit_selection_is_refused(self, image, choices, message):
        o = orbit(COMPLEX, (0, [3, 1]))
        with pytest.raises(ValueError) as err:
            image(o, IndexSelection(choices))
        assert type(err.value) is ValueError
        assert str(err.value).startswith(message)


class TestOracleImage:
    def test_identity_sanity(self):
        o = orbit(COMPLEX, (3, [1]))
        (sel,) = enumerate_selections(o)
        assert oracle_image(o, sel) == MirabolicOrbitDatum(1, OrbitDatum(COMPLEX))

    def test_regular_dense_is_strongly_regular(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                for sizes in compositions(n, k):
                    o = orbit(COMPLEX, *((k - i, [s]) for i, s in enumerate(sizes)))
                    img = oracle_image(o, dense_selection(o))
                    assert img == MirabolicOrbitDatum(n, OrbitDatum(COMPLEX))

    def test_regular_depths_match_coordinate_sums(self):
        # two single-block classes of sizes 2 and 1: image depth is the sum
        # of chosen coordinates over the selected classes
        o = orbit(COMPLEX, (1, [2]), (0, [1]))
        for sel in enumerate_selections(o):
            total = sum(x for _, pairs in sel.choices for _, x in pairs)
            assert oracle_image(o, sel).depth == total

    def test_regular_specialization_formula(self):
        # for single-block classes the general surgery collapses to: chosen
        # classes lose their chosen coordinate (block size s -> s - x) and
        # the depth is the coordinate sum; check this simpler closed form
        # against both computation paths
        for n in range(2, 6):
            for k in range(1, min(n, 3) + 1):
                for sizes in compositions(n, k):
                    o = orbit(COMPLEX, *((k - i, [s]) for i, s in enumerate(sizes)))
                    for sel in enumerate_selections(o):
                        chosen = {idx: pairs[0][1] for idx, pairs in sel.choices}
                        depth = sum(chosen.values())
                        classes = []
                        for idx, cls in enumerate(o.classes):
                            left = cls.partition.largest() - chosen.get(idx, 0)
                            if left:
                                classes.append((cls.re, [left]))
                        expected = MirabolicOrbitDatum(
                            depth, orbit(COMPLEX, *classes) if classes else OrbitDatum(COMPLEX)
                        )
                        assert symbolic_image(o, sel) == expected
                        assert oracle_image(o, sel) == expected

    def test_agreement_on_corpus(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4 + real_corpus_4:
            for sel in enumerate_selections(o):
                assert symbolic_image(o, sel) == oracle_image(o, sel)

    def test_images_distinct_within_orbit(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4 + real_corpus_4:
            images = [symbolic_image(o, sel) for sel in enumerate_selections(o)]
            assert len(set(images)) == len(images)


class TestOracleHead:
    """The oracle identifies its head among the orbit's own classes and
    builds the image without the constructors' checks; classify identifies
    the head of the same point from a caller's hints."""

    @staticmethod
    def caller_hints(o):
        """The spectrum reversed, its first hint given twice, each pair as (a, -b)."""
        hints = [(h[0], -h[1]) if isinstance(h, tuple) else h for h in reversed(o.spectrum())]
        return hints[:1] + hints

    @staticmethod
    def assert_validated(image):
        """image is what the validating constructors build from its fields."""
        head = image.a_part
        rebuilt = MirabolicOrbitDatum(image.depth, OrbitDatum(head.field, [
            EigenvalueClass(c.re, Partition(list(c.partition)), im=c.im) for c in head.classes]))
        assert image == rebuilt
        assert head.classes == rebuilt.a_part.classes  # the same order
        assert hash(image) == hash(rebuilt)
        assert image.to_json() == rebuilt.to_json()
        assert type(image.depth) is int
        for c in head.classes:
            assert type(c.re) is Fraction and (c.im is None or type(c.im) is Fraction), c
            assert all(type(k) is int for k in c.partition), c

    def test_both_identifiers_agree_over_the_size_five_corpora(self):
        checked = 0
        for o in list(complex_corpus(5)) + list(real_corpus(5, require_pair=False)):
            hints = self.caller_hints(o)
            for sel in enumerate_selections(o):
                image = oracle_image(o, sel)
                assert image == classify(project_to_p_star(_moved(o, sel)), o.field, hints), (o, sel)
                self.assert_validated(image)
                checked += 1
        assert checked == 4330

    @EXAMPLES
    def test_both_identifiers_agree_beyond_size_five(self, examples):
        # at sizes 8 to 10 a selection moves only some of the blocks, so the
        # oracle's moved-block state is checked against the whole moved point
        @settings(max_examples=examples, derandomize=True, deadline=None)
        @given(orbits_of_size_8_to_10(), st.data())
        def check(o, data):
            sel = data.draw(st.sampled_from(enumerate_selections(o)))
            image = oracle_image(o, sel)
            assert image == classify(project_to_p_star(_moved(o, sel)), o.field,
                                     self.caller_hints(o)), (o, sel)
            assert image == symbolic_image(o, sel), (o, sel)

        check()

    def test_untouched_blocks_that_share_an_eigenvalue_with_moved_ones(self, monkeypatch):
        # class 1 (eigenvalue 0) has blocks 1, 2, 2, 3 in rows 2, 3-4, 5-6
        # and 7-9; a selection moves some of them and leaves the others,
        # whose sizes join the parts that the head ranks at 0
        o = orbit(COMPLEX, (0, [3, 2, 2, 1]), (1, [2]))
        assert block_layout(o) == ((0, 2, 0, 2), (2, 3, 1, 1), (3, 5, 1, 2), (5, 7, 1, 2),
                                   (7, 10, 1, 3))
        states = []
        normal_form = moment._normal_form

        def recorded(d, rows, *rest):
            states.append(list(rows))
            return normal_form(d, rows, *rest)

        monkeypatch.setattr(moment, "_normal_form", recorded)
        cases = [
            # the last block of size 2, at coordinate 1: position 6
            ({1: {1: 1}}, [6], [5, 6], 1, orbit(COMPLEX, (0, [3, 2, 1, 1]), (1, [2]))),
            # blocks 1 and 3 of class 1: positions 3 and 9, the first not the last
            ({1: {0: 1, 2: 2}}, [3, 9], [2, 7, 8, 9], 2, orbit(COMPLEX, (0, [2, 2, 2]), (1, [2]))),
            # both classes, at their top coordinates: the dense selection
            ({0: {0: 2}, 1: {2: 3}}, [2, 10], [0, 1, 7, 8, 9], 5, orbit(COMPLEX, (0, [2, 2, 1]))),
        ]
        for choices, positions, moved, depth, head in cases:
            image = MirabolicOrbitDatum(depth, head)
            sel = IndexSelection(choices)
            assert selection_positions(o, sel) == positions
            states.clear()
            assert oracle_image(o, sel) == image, choices
            assert states == [moved], choices  # only the moved rows are stepped
            assert symbolic_image(o, sel) == image
        for sel in enumerate_selections(o):
            assert oracle_image(o, sel) == classify(project_to_p_star(_moved(o, sel)), o.field,
                                                    self.caller_hints(o)), sel

    def test_a_head_the_classes_cannot_account_for_is_refused(self, monkeypatch):
        # the head of the moved blocks has the eigenvalues of the classes
        # that own them; an orbit laid out the same with another eigenvalue
        # there leaves dimension over, which is refused, not dropped
        o = orbit(REAL, (1, [2, 1]), (0, "1/2", [1]))
        assert oracle_image(o, dense_selection(o)) == MirabolicOrbitDatum(4, orbit(REAL, (1, [1])))
        sel = IndexSelection({0: {1: 1}})  # class 0's block of 2
        assert oracle_image(o, sel) == MirabolicOrbitDatum(
            1, orbit(REAL, (1, [1, 1]), (0, "1/2", [1])))
        other = orbit(REAL, (2, [2, 1]), (0, "1/2", [1]))
        assert block_layout(other) == block_layout(o)
        x = realize_orbit(o)
        monkeypatch.setattr(moment, "realize_orbit", lambda _: x)  # o's representative
        with pytest.raises(SpectrumMismatch, match="account for dimension 0 of 1"):
            oracle_image(other, sel)


class TestDenseCertificate:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(orbits_of_size_8_to_10())
    def test_the_dense_point_is_certified(self, o):
        # the certificate of the projected dense point checks exactly, at
        # eigenvalues p/q up to 10**6 and pair parts k/2 and k/3
        point = project_to_p_star(_moved(o, dense_selection(o)))
        datum, g = classify_certified(point, o.field, o.spectrum())
        assert datum == symbolic_image(o, dense_selection(o))
        assert certificate_holds(point, g, datum, o.field, o.spectrum()), o


class TestFractionalGeometry:
    @EXAMPLES
    def test_geometry_holds_at_fractional_eigenvalues(self, examples):
        # symbolic == oracle at every selection, with eigenvalues p/q up to
        # 10**6 and pair parts k/2 and k/3, and the stabilizer claims
        @settings(max_examples=examples, derandomize=True, deadline=None)
        @given(orbits_of_size_8_to_10())
        def check(o):
            report = check_geometry(o)
            assert report.ok, (o, report.failures)

        check()


class TestLargerShapes:
    """Shapes outside the bounded corpora: multi-block selections inside one
    class, big pair partitions, mixed real data."""

    def test_complex_single_class_weight_six(self):
        for p in partitions_of_weight(6):
            o = orbit(COMPLEX, (1, list(p)))
            for sel in enumerate_selections(o):
                assert symbolic_image(o, sel) == oracle_image(o, sel)

    def test_complex_two_classes_size_nine(self):
        o = orbit(COMPLEX, (1, [3, 3, 1]), (0, [2]))
        sels = enumerate_selections(o)
        assert len(sels) == 17
        for sel in sels:
            assert symbolic_image(o, sel) == oracle_image(o, sel)

    def test_real_pair_partition_size_ten(self):
        o = orbit(REAL, (0, 1, [2, 2, 1]))
        sels = enumerate_selections(o)
        # ascending runs (1,1),(2,2): both-block choices violate the gap
        # condition, so only three selections survive
        assert len(sels) == 3
        for sel in sels:
            assert symbolic_image(o, sel) == oracle_image(o, sel)

    def test_real_mixed_size_eight(self):
        o = orbit(REAL, (0, 1, [1]), (0, "1/2", [1, 1]), (1, [2]))
        for sel in enumerate_selections(o):
            assert symbolic_image(o, sel) == oracle_image(o, sel)


class TestGeometry:
    def test_unipotent_report_passes(self):
        report = check_geometry(orbit(COMPLEX, (0, [2, 1])))
        assert report.ok, report.failures

    def test_regular_semisimple_depths(self):
        o = orbit(COMPLEX, (1, [1]), (0, [1]))
        report = check_geometry(o)
        depths = sorted(r["symbolic"]["depth"] for r in report.records)
        assert depths == [1, 1, 2]
        assert report.ok

    def test_real_pair_dense_depth(self):
        o = orbit(REAL, (0, 1, [1]))
        report = check_geometry(o)
        assert report.ok
        assert report.records[0]["symbolic"]["depth"] == 2

    def test_report_json_shape(self):
        payload = check_geometry(orbit(COMPLEX, (0, [2]))).to_json()
        assert set(payload) >= {"orbit", "records", "injective", "ok"}
        record = payload["records"][0]
        assert set(record) >= {"selection", "symbolic", "oracle", "agree", "stab_dims"}

    def test_geometry_on_sample(self, complex_corpus_4, real_corpus_4):
        for o in complex_corpus_4[::13] + real_corpus_4[::13]:
            report = check_geometry(o)
            assert report.ok, (o, report.failures)

    def test_a_disagreement_fails_the_report(self, monkeypatch):
        # one image is replaced by a normal form that is no image at all, so
        # the images stay distinct and the dense one stays the strict
        # minimum (2 against 0): only the oracle agreement fails
        o = orbit(COMPLEX, (1, [1]), (0, [1]))
        target = next(s for s in enumerate_selections(o) if s != dense_selection(o))
        wrong = MirabolicOrbitDatum(1, orbit(COMPLEX, (3, [1])))
        real = moment.symbolic_image
        monkeypatch.setattr(moment, "symbolic_image",
                            lambda o, s: wrong if s == target else real(o, s))
        report = check_geometry(o)
        assert report.injective and report.dense_minimal and report.fiber_singleton
        assert report.failures == ["symbolic/oracle disagree at %r" % (target.to_json(),)]
        assert not report.ok and report.to_json()["ok"] is False

    def test_a_changed_dense_stabilizer_fails_the_report(self, monkeypatch):
        # both dense stabilizers one too large: the fiber is still a
        # singleton and the dense image still the minimum (1 against 2),
        # but the moved point no longer matches its normal form
        o = orbit(COMPLEX, (1, [1]), (0, [1]))
        for name in ("stabilizer_dim", "point_stabilizer_dim"):
            monkeypatch.setattr(moment, name, lambda x, f=getattr(moment, name): f(x) + 1)
        report = check_geometry(o)
        assert report.injective and report.dense_minimal and report.fiber_singleton
        assert report.failures == ["stabilizer dimension changed under conjugation: 1 vs 0"]
        assert not report.ok

    def test_a_changed_law_fails_the_report(self, monkeypatch):
        # every image stabilizer one too large by the law: the two ranks at
        # the dense point still agree and the dense image is still the
        # minimum (0 against 3), but the law no longer matches the ranks
        o = orbit(COMPLEX, (1, [1]), (0, [1]))
        real = moment.gl_centralizer_dim
        monkeypatch.setattr(moment, "gl_centralizer_dim", lambda head: real(head) + 1)
        report = check_geometry(o)
        assert report.injective and report.dense_minimal and report.fiber_singleton
        assert report.failures == ["stabilizer dimension changed under conjugation: 0 vs 1"]
        assert not report.ok and report.to_json()["ok"] is False

    def test_equal_images_fail_the_report(self, monkeypatch):
        # the second single-class selection given the first one's image: the
        # two image stabilizers stay 2 against the dense 0, so only the
        # agreement and the injectivity fail
        o = orbit(COMPLEX, (1, [1]), (0, [1]))
        first, dense, second = enumerate_selections(o)
        assert dense == dense_selection(o)
        real = moment.symbolic_image
        monkeypatch.setattr(moment, "symbolic_image",
                            lambda o, s: real(o, first if s == second else s))
        report = check_geometry(o)
        assert not report.injective and report.dense_minimal and report.fiber_singleton
        assert report.failures == ["symbolic/oracle disagree at %r" % (second.to_json(),),
                                   "image normal forms are not pairwise distinct"]
        assert not report.ok and report.to_json()["injective"] is False

    def test_a_dense_image_that_is_not_the_strict_minimum_fails_the_report(self, monkeypatch):
        # every head of size one loses two from its law, so the two other
        # images tie with the dense image at 0; the dense image's empty head
        # keeps its law, which still matches the ranks at the dense point
        o = orbit(COMPLEX, (1, [1]), (0, [1]))
        real = moment.gl_centralizer_dim
        monkeypatch.setattr(moment, "gl_centralizer_dim",
                            lambda head: real(head) - 2 if head.classes else real(head))
        report = check_geometry(o)
        assert report.injective and not report.dense_minimal and report.fiber_singleton
        assert report.failures == ["dense image is not the unique stabilizer-dimension minimum"]
        assert not report.ok and report.to_json()["dense_minimal"] is False

    def test_a_point_stabilizer_other_than_the_image_stabilizer_fails_the_report(
            self, monkeypatch):
        # only the moved point's stabilizer one too large: the image and
        # its law still agree, but the fiber is no longer a singleton
        o = orbit(COMPLEX, (1, [1]), (0, [1]))
        real = moment.point_stabilizer_dim
        monkeypatch.setattr(moment, "point_stabilizer_dim", lambda x: real(x) + 1)
        report = check_geometry(o)
        assert report.injective and report.dense_minimal and not report.fiber_singleton
        assert report.failures == ["image stabilizer 0 differs from point stabilizer 1"]
        assert not report.ok and report.to_json()["fiber_singleton"] is False

    def test_image_stabilizers_match_their_ranks_to_size_five(self):
        # the law that check_geometry reads each image stabilizer off,
        # against the rank of the image normal form's realized matrix
        ranks = {}
        records = 0
        for o in list(complex_corpus(5)) + list(real_corpus(5, require_pair=False)):
            report = check_geometry(o)
            for sel, record in zip(enumerate_selections(o), report.records, strict=True):
                assert record["selection"] == sel.to_json()
                sym = symbolic_image(o, sel)
                if sym not in ranks:
                    ranks[sym] = stabilizer_dim(realize_normal_form(sym))
                assert record["stab_dims"]["image"] == ranks[sym], (o, sel)
                records += 1
        assert (records, len(ranks)) == (4330, 415)

    def test_reports_are_pinned_to_size_six(self):
        # every orbit of both size-6 corpora; the digest covers each
        # selection's images, verdict and stabilizer dimensions
        reports = [check_geometry(o) for o in complex_corpus(6)]
        reports += [check_geometry(o) for o in real_corpus(6, require_pair=False)]
        assert len(reports) == 1669
        for report in reports:
            assert report.ok, (report.orbit, report.failures)
        payload = json.dumps([report.to_json() for report in reports])
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "d6f6b936d24542d3ba0419b704572f9d21b86cb15c15fac926ede5d9f2df1bb8")

    @pytest.mark.slow
    def test_every_orbit_to_size_eight(self):
        # the digest, as at size six, pins every report of both corpora
        orbits = list(complex_corpus(8)) + list(real_corpus(8, require_pair=False))
        assert len(orbits) == 8201
        reports = []
        for o in orbits:
            report = check_geometry(o)
            assert report.ok, (o, report.failures)
            reports.append(report.to_json())
        assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == (
            "54b1387781ade0d3177314d1a2afb92ffd715911325dee65020c4ce060fb3a1c")


class TestFiberStabilizers:
    def test_non_regular_fibers_have_positive_stabilizer(self):
        # over a normal form of depth j < n, every preimage point of the
        # projection keeps at least a one-dimensional stabilizer
        rng = random.Random(41)
        heads = [orbit(COMPLEX, (0, [1, 1])), orbit(COMPLEX, (1, [1]), (0, [1])),
                 orbit(COMPLEX, (0, [2]))]
        for head in heads:
            for depth in (1, 2):
                datum = MirabolicOrbitDatum(depth, head)
                n = datum.size
                if depth == n:
                    continue
                x = realize_normal_form(datum)
                for _ in range(10):
                    lift = [list(row) for row in x.data]
                    for i in range(n):
                        lift[i][n - 1] = Fraction(rng.randint(-3, 3))
                    assert point_stabilizer_dim(ExactMatrix(lift)) >= 1


class TestSharedRows:
    def test_no_row_is_changed_on_the_size_five_corpora(self):
        # the projection shares the moved point's rows and the classify
        # step keeps a row it leaves alone, so no path may write to them;
        # jordan_structure runs on them at a hint 0 and a pair hint (0, b)
        for o in list(complex_corpus(5)) + list(real_corpus(5, require_pair=False)):
            x = realize_orbit(o)
            kept = copy.deepcopy(x.numerators)
            check_geometry(o)
            for sel in enumerate_selections(o):
                oracle_image(o, sel)
                point = project_to_p_star(_moved(o, sel))
                rows = copy.deepcopy(point.numerators)
                classify_certified(point, o.field, o.spectrum())
                for m in (x, point):
                    for hints in ([0], [(0, 1)]):
                        try:
                            jordan_structure(m, hints)
                        except SpectrumMismatch:
                            pass
                assert point.numerators == rows, (o, sel)
            assert x.numerators == kept, o
