"""Moment-map images of GL coadjoint orbits in the mirabolic dual.

Each index selection determines one mirabolic orbit in the image.  Two
independent computations of its normal form are provided:

* symbolic_image applies the closed-form block surgery: per selected class
  the depth grows by the top chosen coordinate (doubled for conjugate-pair
  classes), one copy of each chosen block is replaced by a block of size
  k - x_h + x_{h-1}, and zero-size leftovers vanish.

* oracle_image conjugates the orbit representative by the selection's group
  element g, projects to the mirabolic dual and classifies, in one classify
  recursion from the representative bordered below by the selection vector,
  on the blocks g moves alone (the direct-sum rule, stated once in its
  docstring).  It shares no formulas with the symbolic path.
  check_geometry forms the moved point g x g^-1, with g from
  enumeration.selection_conjugator, only at the dense selection.

check_geometry and the CLI's moment --oracle record each selection by one
rule, _image_record; check_geometry adds the stabilizer dimensions.

Both images check a caller's selection by one rule,
enumeration._fitted_choices, and raise ValueError naming the first class,
block or coordinate it names that the orbit does not have.  The dense
selection comes from one rule too, _dense_choices, which reads each class's
largest block off the orbit itself: dense_selection builds its
IndexSelection from it, and _dense_image feeds it straight to the surgery,
_surgery, that symbolic_image runs, so the dense image checks no selection
the program made from the same orbit.
"""
from __future__ import annotations

from typing import List, Optional

from .classify import (
    _normal_form,
    gl_centralizer_dim,
    point_stabilizer_dim,
    stabilizer_dim,
)
from .classify import classify  # noqa: F401  unused here; perfbench/tests checks this import site
from .enumeration import (
    IndexSelection,
    _fitted_choices,
    enumerate_selections,
    selection_conjugator,
    selection_positions,
)
from .exact_linalg import ExactMatrix, _jordan_partitions, inverse
from .orbit_model import (
    EigenvalueClass,
    MirabolicOrbitDatum,
    OrbitDatum,
    block_layout,
    realize_orbit,
)
from .partitions import Partition

__all__ = [
    "dense_selection",
    "symbolic_image",
    "oracle_image",
    "GeometryReport",
    "check_geometry",
]


def _dense_choices(orbit: OrbitDatum) -> list:
    """(class index, class, ascending runs, ((top, k),)) for every class, in
    class order: each class takes its largest block k, at block index top,
    at its top coordinate.  Fits the orbit by construction."""
    if not orbit.classes:
        raise ValueError("the zero-size orbit has no selections")
    out = []
    for idx, cls in enumerate(orbit.classes):
        runs = cls.partition.runs_ascending()
        top = len(runs) - 1
        out.append((idx, cls, runs, ((top, runs[top][0]),)))
    return out


def dense_selection(orbit: OrbitDatum) -> IndexSelection:
    """The selection whose image is the unique dense mirabolic orbit.

    Every class participates with its largest block at the top coordinate.
    """
    # class indices ascending, one block each: already the canonical form
    return IndexSelection._canonical(tuple((idx, pairs) for idx, _, _, pairs
                                           in _dense_choices(orbit)))


def symbolic_image(orbit: OrbitDatum, selection: IndexSelection) -> MirabolicOrbitDatum:
    """Closed-form normal form of the image orbit at one selection."""
    return _surgery(orbit, _fitted_choices(orbit, selection))


def _dense_image(orbit: OrbitDatum) -> MirabolicOrbitDatum:
    """symbolic_image(orbit, dense_selection(orbit)), from _dense_choices
    without building or fitting a selection."""
    return _surgery(orbit, _dense_choices(orbit))


def _surgery(orbit: OrbitDatum, choices) -> MirabolicOrbitDatum:
    """The block surgery over choices, (class index, class, ascending runs,
    pairs) per chosen class as _fitted_choices gives them, each x within
    its block."""
    depth = 0
    classes = list(orbit.classes)
    for idx, cls, runs, pairs in choices:
        parts = list(cls.partition)
        x_prev = 0
        for i, x in pairs:
            k = runs[i][0]
            parts.remove(k)
            parts.append(k - x + x_prev)
            x_prev = x
        depth += cls.degree * x_prev
        # every x is bounded by its block size k, so each new part
        # k - x + x_prev is a nonnegative int: the nonzero parts, sorted
        # descending, are already the partition's canonical parts
        kept = tuple(sorted(filter(None, parts), reverse=True))
        classes[idx] = (EigenvalueClass._canonical(cls.re, Partition._canonical(kept), cls.im)
                        if kept else None)
    # the order of classes depends on their eigenvalues only, which the
    # surgery keeps, and each partition above is built canonical, so the
    # head is already in canonical form; every selection has a class with
    # a block at x >= 1, so the depth is an int >= 1
    return MirabolicOrbitDatum._canonical(
        depth, OrbitDatum._canonical(orbit.field, tuple(filter(None, classes))))


def oracle_image(orbit: OrbitDatum, selection: IndexSelection) -> MirabolicOrbitDatum:
    """Conjugate, project, classify: the independent check of symbolic_image.

    The normal form of pr'(g x g^-1) for x = realize_orbit(orbit) and the
    selection's group element g, with no intermediate matrix built; the one
    statement of the oracle's direct-sum rule.  With q_1 < ... < q_k the
    1-based selection_positions, the bordered state is (d, rows, beta, p):
    the rows of d*x keyed by their labels 0..n-1, beta = {q - 1: d} (x
    bordered below by the selection vector v) and the first pivot
    p = q_k - 1.  g is classify._completion(1, v, n, p), so the first step
    of classify._normal_form from this state is the conjugation by g and
    forms no inverse.  The recursion runs from the part of that state on
    the moved blocks: the blocks of block_layout(orbit) that hold a
    position.  x is block diagonal and g is supported on the moved blocks,
    and each step changes only the rows with an entry in its pivot column,
    and beta*H, all within those blocks; every other row keeps its value
    over the new denominator.  So the point reached is x on the untouched
    blocks, a direct sum with the recursion's head on the moved ones, and
    the Jordan type of a direct sum is the union of the Jordan types.  A
    class that owns no moved block is kept as it is.  The head's
    eigenvalues are among those of the classes that own a moved block,
    which the orbit checked, so it is ranked by the one rank filtration
    (exact_linalg._jordan_partitions) at those alone, in class order, and
    each is rebuilt on the sizes of its untouched blocks and the parts
    found (none when the filtration stops before it), with no class sorted
    or checked again; a class left with no part goes.  A head those
    classes leave dimension of unaccounted for raises SpectrumMismatch.
    The depth is the number of steps, the moved rows less the head's size.
    """
    positions = selection_positions(orbit, selection)
    x = realize_orbit(orbit)
    d, numerators, past = x.denominator, x.numerators, x.rows + 1
    classes = orbit.classes
    kept = [[] for _ in classes]  # the untouched block sizes of each class, ascending
    moved = []  # the classes that own a moved block, in class order
    rows = {}
    left = iter(positions)
    q = next(left)  # the least position not yet placed in a block
    for start, end, idx, k in block_layout(orbit):
        if q > end:
            kept[idx].append(k)
            continue
        if not moved or moved[-1] != idx:  # a class's blocks are contiguous
            moved.append(idx)
        rows.update((r, numerators[r]) for r in range(start, end))
        while q <= end:
            q = next(left, past)
    head, _ = _normal_form(d, rows, {q - 1: d for q in positions}, positions[-1] - 1)
    found = {i: partition for i, (_, partition) in
             zip(moved, _jordan_partitions(head, [classes[i].eigenvalue() for i in moved]))}
    rebuilt = list(classes)
    for i in reversed(moved):  # from the last, so a deletion shifts no class still to come
        parts = sorted(kept[i] + list(found.get(i) or ()), reverse=True)
        if parts:
            cls = classes[i]
            rebuilt[i] = EigenvalueClass._canonical(cls.re, Partition._canonical(tuple(parts)),
                                                    cls.im)
        else:
            del rebuilt[i]
    # at least one step ran (beta is nonempty), so the depth is an int >= 1
    return MirabolicOrbitDatum._canonical(len(rows) - head.rows,
                                          OrbitDatum._canonical(orbit.field, tuple(rebuilt)))


def _image_record(orbit: OrbitDatum, selection: IndexSelection) -> tuple:
    """(symbolic image, record): the selection, its symbolic and oracle
    images and whether they agree, keyed in that order."""
    sym = symbolic_image(orbit, selection)
    orc = oracle_image(orbit, selection)
    return sym, {"selection": selection.to_json(), "symbolic": sym.to_json(),
                 "oracle": orc.to_json(), "agree": sym == orc}


def _moved(orbit: OrbitDatum, selection: IndexSelection) -> ExactMatrix:
    """g x g^-1 in full, for the selection's group element g."""
    g = selection_conjugator(orbit, selection)
    return g * realize_orbit(orbit) * inverse(g)


class GeometryReport:
    """Per-orbit verification of the geometric claims about the image."""

    def __init__(self, orbit, records, injective, dense_minimal, fiber_singleton, failures):
        self.orbit = orbit
        self.records = records
        self.injective = injective
        self.dense_minimal = dense_minimal
        self.fiber_singleton = fiber_singleton
        self.failures = failures

    @property
    def ok(self) -> bool:
        """No check failed: besides the three claims, every selection's
        symbolic and oracle images agree and the dense image stabilizer is
        the same from its normal form and from the moved point."""
        return not self.failures

    def to_json(self) -> dict:
        return {
            "orbit": self.orbit.to_json(),
            "records": self.records,
            "injective": self.injective,
            "dense_minimal": self.dense_minimal,
            "fiber_singleton": self.fiber_singleton,
            "ok": self.ok,
            "failures": self.failures,
        }


def check_geometry(orbit: OrbitDatum) -> GeometryReport:
    """Check the image geometry of one orbit over all selections.

    (i) distinct selections give distinct image normal forms; (ii) the
    dense selection has the strictly smallest image stabilizer dimension;
    (iii) at the dense selection the stabilizer of the image functional has
    the same dimension as the stabilizer of the moved point itself, which
    is the singleton-fiber statement in computable form.

    The oracle classifies each selection from the bordered representative
    and forms no point.  Only at the dense selection is the moved point
    formed, for point_stabilizer_dim and stabilizer_dim (which reads no
    last column, so the point needs no projection).  The image
    stabilizers are read off each symbolic normal form by the depth law
    of classify: gl_centralizer_dim of the head plus the head's size.  At
    the dense selection the law is checked against the rank of
    stabilizer_dim, and that against the rank of point_stabilizer_dim.
    """
    selections = enumerate_selections(orbit)
    dense = dense_selection(orbit)
    failures: List[str] = []
    records = []
    images = []
    dense_stab: Optional[int] = None
    dense_point_stab: Optional[int] = None
    other_stabs: List[int] = []
    for sel in selections:
        sym, record = _image_record(orbit, sel)
        if not record["agree"]:
            failures.append("symbolic/oracle disagree at %r" % (sel.to_json(),))
        stab = gl_centralizer_dim(sym.a_part) + sym.a_part.size
        record["stab_dims"] = {"image": stab}
        if sel == dense:
            moved = _moved(orbit, sel)
            dense_stab = stabilizer_dim(moved)  # reads no last column
            dense_point_stab = point_stabilizer_dim(moved)
            record["stab_dims"]["point"] = dense_point_stab
            record["dense"] = True
            if dense_stab != stab:
                failures.append(
                    "stabilizer dimension changed under conjugation: %d vs %d"
                    % (dense_stab, stab)
                )
        else:
            other_stabs.append(stab)
        images.append(sym)
        records.append(record)
    injective = len(set(images)) == len(images)
    if not injective:
        failures.append("image normal forms are not pairwise distinct")
    dense_minimal = dense_stab is not None and all(dense_stab < s for s in other_stabs)
    if not dense_minimal:
        failures.append("dense image is not the unique stabilizer-dimension minimum")
    fiber_singleton = dense_stab is not None and dense_stab == dense_point_stab
    if not fiber_singleton:
        failures.append(
            "image stabilizer %r differs from point stabilizer %r"
            % (dense_stab, dense_point_stab)
        )
    return GeometryReport(orbit, records, injective, dense_minimal, fiber_singleton, failures)
