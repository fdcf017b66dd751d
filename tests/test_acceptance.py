"""Acceptance suite: one test per criterion, each printing a pass line.

The heavyweight corpora are built once per session and shared.  Criteria
that state a size bound use it verbatim; the two 200-trial randomized
criteria run over the size-4 corpora, which keeps exact arithmetic at desk
scale while exercising every shape class.
"""
import random
import time
from math import prod

import pytest

from mirabolic import (
    COMPLEX,
    REAL,
    MirabolicOrbitDatum,
    OrbitDatum,
    Partition,
    adduce,
    all_sign_choices,
    classify,
    dense_selection,
    enumerate_selections,
    gl_centralizer_dim,
    inverse,
    oracle_image,
    point_stabilizer_dim,
    project_to_p_star,
    realize_normal_form,
    realize_orbit,
    selection_conjugator,
    stabilizer_dim,
    symbolic_image,
    verify_restriction,
)
from mirabolic.corpus import complex_corpus, compositions, random_mirabolic, real_corpus
from mirabolic.partitions import partitions_of_weight

from conftest import example_27_matrix, orbit, without_largest_part
from test_rep_theory import _random_labels


def report(num, message):
    print("ACCEPTANCE %2d PASS: %s" % (num, message))


@pytest.fixture(scope="session")
def corpus_5():
    return list(complex_corpus(5)) + list(real_corpus(5, require_pair=True))


@pytest.fixture(scope="session")
def corpus_4():
    return list(complex_corpus(4)) + list(real_corpus(4, require_pair=True))


@pytest.fixture(scope="session")
def image_table(corpus_5):
    """(orbit, selection, symbolic, oracle) for the whole agreement corpus."""
    start = time.time()
    table = []
    for o in corpus_5:
        for sel in enumerate_selections(o):
            table.append((o, sel, symbolic_image(o, sel), oracle_image(o, sel)))
    return table, time.time() - start


def normal_form_corpus(nmax):
    """All (depth, head) normal forms of total size <= nmax, both fields."""
    heads = [OrbitDatum(COMPLEX), OrbitDatum(REAL)]
    heads += list(complex_corpus(nmax - 1))
    heads += list(real_corpus(nmax - 1, require_pair=False))
    out = []
    for head in heads:
        for depth in range(1, nmax - head.size + 1):
            out.append(MirabolicOrbitDatum(depth, head))
    return out


def test_criterion_01_orbit_count_identity():
    start = time.time()
    checked = 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            for sizes in compositions(n, k):
                o = orbit(COMPLEX, *((k - i, [s]) for i, s in enumerate(sizes)))
                count = len(enumerate_selections(o))
                assert count == prod(s + 1 for s in sizes) - 1, sizes
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 1.0, "count identity took %.2fs" % elapsed
    report(1, "selection count is prod(s_i + 1) - 1 for all %d compositions of n <= 8 (%.2fs)"
           % (checked, elapsed))


def test_criterion_02_symbolic_oracle_agreement(image_table):
    table, build_time = image_table
    for o, sel, sym, orc in table:
        assert sym == orc, (o, sel.to_json())
    assert build_time < 300.0
    report(2, "symbolic and oracle images agree on all %d selections over the "
              "size-5 corpora (%.1fs)" % (len(table), build_time))


def test_criterion_03_injectivity(corpus_5, image_table):
    by_orbit = {}
    for o, sel, sym, _ in image_table[0]:
        by_orbit.setdefault(o, []).append(sym)
    for o in corpus_5:
        images = by_orbit[o]
        assert len(set(images)) == len(images), o
    report(3, "images are pairwise distinct inside each of %d corpus orbits"
           % len(corpus_5))


def test_criterion_04_singleton_fiber_proxy(corpus_5):
    for o in corpus_5:
        g = selection_conjugator(o, dense_selection(o))
        moved = g * realize_orbit(o) * inverse(g)
        assert stabilizer_dim(project_to_p_star(moved)) == point_stabilizer_dim(moved), o
    report(4, "dense-image stabilizer dimension equals point stabilizer dimension "
              "on all %d corpus orbits" % len(corpus_5))


def test_criterion_05_depth_stabilizer_law():
    rng = random.Random(515)
    forms = normal_form_corpus(4)
    trials = 0
    for datum in forms:
        x = realize_normal_form(datum)
        n = datum.size
        expected = gl_centralizer_dim(datum.a_part) + (n - datum.depth)
        for _ in range(200):
            p = random_mirabolic(n, rng)
            y = project_to_p_star(p * x * inverse(p))
            assert stabilizer_dim(y) == expected, datum
            trials += 1
    # the depth-n forms are exactly the stabilizer-dimension-zero ones
    for datum in normal_form_corpus(5):
        x = realize_normal_form(datum)
        assert (stabilizer_dim(x) == 0) == (datum.depth == datum.size), datum
    report(5, "stabilizer dim = head centralizer dim + (n - depth) on %d random "
              "conjugates of %d normal forms; depth n iff dim 0" % (trials, len(forms)))


def test_criterion_06_dense_row_functionals():
    for n in range(2, 7):
        a_values = list(range(1, n))
        x = example_27_matrix(n, a_values, [1] * (n - 1))
        datum = classify(x, COMPLEX, [])
        assert datum.depth == n
        assert datum.a_part == OrbitDatum(COMPLEX)
    report(6, "diagonal-head dense-row functionals classify to depth n for n = 2..6")


def test_criterion_07_restriction_attachment():
    start = time.time()
    checks = 0
    for o in complex_corpus(6):
        assert verify_restriction(o).ok, o
        checks += 1
    for o in real_corpus(6, require_pair=False):
        for signs in all_sign_choices(o):
            assert verify_restriction(o, signs).ok, (o, signs)
            checks += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(7, "restriction equals dense-image attachment in %d checks over both "
              "size-6 corpora, all sign vectors (%.1fs)" % (checks, elapsed))


def test_criterion_08_adduction_algebra():
    rng = random.Random(88)
    labels = _random_labels(rng, 2000)
    pairs = 0
    idx = 0
    while pairs < 1000:
        a = labels[idx % len(labels)]
        b = labels[(idx + 1) % len(labels)]
        idx += 2
        if a.field != b.field:
            continue
        da, sa = adduce(a)
        db, sb = adduce(b)
        dp, sp = adduce(a * b)
        assert dp == da + db
        assert sp == sa * sb
        assert sp.size + dp == (a * b).size
        pairs += 1
    report(8, "adduction is a product homomorphism with exact size accounting "
              "on %d random label pairs" % pairs)


def test_criterion_09_partition_laws():
    checked = 0
    for weight in range(13):
        for p in partitions_of_weight(weight):
            d = p.dual()
            assert d.dual() == p
            if p:
                assert without_largest_part(p).dual() == Partition([t - 1 for t in d])
            checked += 1
    report(9, "dual involution and the largest-part decrement identity hold for "
              "all %d partitions of weight <= 12" % checked)


def test_criterion_10_conjugation_invariance(corpus_4):
    rng = random.Random(1010)
    trials = 0
    for o in corpus_4:
        xi = realize_orbit(o)
        base = classify(project_to_p_star(xi), o.field, o.spectrum())
        for _ in range(200):
            p = random_mirabolic(o.size, rng)
            moved = project_to_p_star(p * xi * inverse(p))
            assert classify(moved, o.field, o.spectrum()) == base, o
            trials += 1
    report(10, "classification is invariant under %d random mirabolic conjugations "
               "(200 per size-4 corpus element)" % trials)
