"""The four benchmark workloads, written against the package's public API.

A workload builds a fixed list of items during set-up, runs one item at a
time (``compute``), and checks each result against its known answer
(``check``), which also returns the canonical JSON that is hashed into the
workload's output digest.  ``count`` is the fixed number of items in one
pass; a build that yields another number is a failure, so a change cannot
get faster by checking less.

Every item carries a ``key`` that does not depend on the seed.  Items run in
the order of the key's hash, which spreads cheap and expensive items evenly
through a pass and keeps the digests seed-independent.
"""
from __future__ import annotations

import random
from typing import Any, Callable, NamedTuple, Optional

# Conjugates per orbit in conjugation_sweep: 238 orbits x 12 = 2856 items,
# about one run's length at the seed commit.
CONJUGATES = 12

# geometry_large: size 10-12 orbits from both fields; the first is the
# north-star orbit of the roadmap.
GEOMETRY_SPECS = (
    {"field": "R", "classes": [{"re": "1", "partition": [3, 2, 1]},
                               {"re": "0", "im": "1", "partition": [2, 1]}]},
    {"field": "R", "classes": [{"re": "1", "partition": [2, 1]},
                               {"re": "0", "partition": [2, 1]},
                               {"re": "0", "im": "1", "partition": [2]}]},
    {"field": "C", "classes": [{"re": "0", "partition": [5, 4, 2, 1]}]},
)


class Item(NamedTuple):
    key: dict       # seed-independent identity, shown in the slowest-items report
    args: tuple     # what compute() needs
    known: Any      # the known answer, where set-up derives one
    note: Optional[dict] = None  # seed-dependent detail for the report


class Workload(NamedTuple):
    name: str
    count: int
    build: Callable      # (pkg, seed) -> [Item]
    compute: Callable    # (pkg, item) -> result
    check: Callable      # (item, result) -> (ok, canonical JSON value)


def _rows(m):
    return [[str(v) for v in row] for row in m.data]


# ---------------------------------------------------------------- oracle_corpus
def _oracle_build(pkg, seed):
    corpus = pkg.corpus
    orbits = list(corpus.complex_corpus(5)) + list(corpus.real_corpus(5, require_pair=True))
    return [Item({"orbit": o.to_json(), "selection": s.to_json()}, (o, s), None)
            for o in orbits for s in pkg.enumerate_selections(o)]


def _oracle_compute(pkg, item):
    orbit, sel = item.args
    return pkg.symbolic_image(orbit, sel), pkg.oracle_image(orbit, sel)


def _oracle_check(item, result):
    sym, orc = result
    return sym == orc, {"symbolic": sym.to_json(), "oracle": orc.to_json()}


# ------------------------------------------------------------ conjugation_sweep
def _conj_build(pkg, seed):
    corpus = pkg.corpus
    orbits = list(corpus.complex_corpus(4)) + list(corpus.real_corpus(4, require_pair=True))
    rng = random.Random(seed)
    items = []
    for orbit in orbits:
        x = pkg.realize_orbit(orbit)
        base_x = pkg.project_to_p_star(x)
        known = (pkg.classify(base_x, orbit.field, orbit.spectrum()), pkg.stabilizer_dim(base_x))
        for k in range(CONJUGATES):
            p = corpus.random_mirabolic(orbit.size, rng)
            items.append(Item({"orbit": orbit.to_json(), "conjugate": k}, (orbit, x, p), known,
                              {"conjugator": _rows(p)}))
    return items


def _conj_compute(pkg, item):
    orbit, x, p = item.args
    moved = pkg.project_to_p_star(p * x * pkg.inverse(p))
    return pkg.classify(moved, orbit.field, orbit.spectrum()), pkg.stabilizer_dim(moved)


def _conj_check(item, result):
    datum, stab = result
    return result == item.known, {"classify": datum.to_json(), "stabilizer_dim": stab}


# --------------------------------------------------------------- geometry_large
def _geometry_build(pkg, seed):
    orbits = [pkg.orbit_from_json(spec) for spec in GEOMETRY_SPECS]
    return [Item({"orbit": o.to_json()}, (o,), None) for o in orbits]


def _geometry_compute(pkg, item):
    return pkg.check_geometry(*item.args)


def _geometry_check(item, report):
    ok = report.ok and not report.failures and all(r["agree"] for r in report.records)
    return ok, report.to_json()


# ----------------------------------------------------------- restriction_corpus
def _restriction_build(pkg, seed):
    corpus = pkg.corpus
    orbits = list(corpus.complex_corpus(7)) + list(corpus.real_corpus(7, require_pair=False))
    return [Item({"orbit": o.to_json(), "signs": signs}, (o, signs), None)
            for o in orbits for signs in pkg.all_sign_choices(o)]


def _restriction_compute(pkg, item):
    return pkg.verify_restriction(*item.args)


def _restriction_check(item, report):
    return report.ok, report.to_json()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle_corpus", 3988, _oracle_build, _oracle_compute, _oracle_check),
        Workload("conjugation_sweep", 238 * CONJUGATES, _conj_build, _conj_compute, _conj_check),
        Workload("geometry_large", len(GEOMETRY_SPECS), _geometry_build, _geometry_compute,
                 _geometry_check),
        Workload("restriction_corpus", 13920, _restriction_build, _restriction_compute,
                 _restriction_check),
    )
}
