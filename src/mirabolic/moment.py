"""Moment-map images of GL coadjoint orbits in the mirabolic dual.

Each index selection determines one mirabolic orbit in the image.  Two
independent computations of its normal form are provided:

* symbolic_image applies the closed-form block surgery: per selected class
  the depth grows by the top chosen coordinate (doubled for conjugate-pair
  classes), one copy of each chosen block is replaced by a block of size
  k - x_h + x_{h-1}, and zero-size leftovers vanish.

* oracle_image conjugates the orbit representative by the selection's group
  element g, projects to the mirabolic dual and classifies, in one classify
  recursion from the representative bordered below by the selection vector
  (classify's bordered state).  It shares no formulas with the symbolic
  path.  check_geometry forms the moved point g x g^-1 only at the dense
  selection.

Both images check the selection by one rule, enumeration._fitted_choices,
and raise ValueError naming the first class, block or coordinate it names
that the orbit does not have.
"""
from __future__ import annotations

from typing import List, Optional

from .classify import (
    _bordered_normal_form,
    _bordered_point,
    gl_centralizer_dim,
    point_stabilizer_dim,
    stabilizer_dim,
)
from .classify import classify  # noqa: F401  unused here; perfbench/tests checks this import site
from .enumeration import (
    IndexSelection,
    _fitted_choices,
    enumerate_selections,
    selection_positions,
)
from .exact_linalg import ExactMatrix, inverse  # noqa: F401  perfbench/tests checks inverse here
from .orbit_model import (
    EigenvalueClass,
    MirabolicOrbitDatum,
    OrbitDatum,
    project_to_p_star,
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


def dense_selection(orbit: OrbitDatum) -> IndexSelection:
    """The selection whose image is the unique dense mirabolic orbit.

    Every class participates with its largest block at the top coordinate.
    """
    if not orbit.classes:
        raise ValueError("the zero-size orbit has no selections")
    choices = []
    for idx, cls in enumerate(orbit.classes):
        runs = cls.partition.runs_ascending()
        top = len(runs) - 1
        choices.append((idx, ((top, runs[top][0]),)))
    # class indices ascending, one block each: already the canonical form
    return IndexSelection._canonical(tuple(choices))


def symbolic_image(orbit: OrbitDatum, selection: IndexSelection) -> MirabolicOrbitDatum:
    """Closed-form normal form of the image orbit at one selection."""
    depth = 0
    classes = list(orbit.classes)
    for idx, cls, runs, pairs in _fitted_choices(orbit, selection):
        parts = list(cls.partition)
        x_prev = 0
        for i, x in pairs:
            k = runs[i][0]
            parts.remove(k)
            parts.append(k - x + x_prev)
            x_prev = x
        depth += cls.degree * x_prev
        # _fitted_choices bounds every x by its block size k, so each new
        # part k - x + x_prev is a nonnegative int: the nonzero parts, sorted
        # descending, are already the partition's canonical parts
        partition = Partition._canonical(tuple(sorted((p for p in parts if p), reverse=True)))
        classes[idx] = EigenvalueClass(cls.re, partition, im=cls.im) if partition else None
    # the order of classes depends on their eigenvalues only, which the
    # surgery keeps, and each partition above is built canonical, so the
    # head is already in canonical form
    return MirabolicOrbitDatum(
        depth, OrbitDatum._canonical(orbit.field, tuple(c for c in classes if c is not None)))


def oracle_image(orbit: OrbitDatum, selection: IndexSelection) -> MirabolicOrbitDatum:
    """Conjugate, project, classify: the independent check of symbolic_image."""
    return _bordered_normal_form(realize_orbit(orbit), selection_positions(orbit, selection),
                                 orbit.field, orbit.spectrum())


def _moved(orbit: OrbitDatum, selection: IndexSelection) -> ExactMatrix:
    """g x g^-1 in full, for the selection's group element g."""
    return _bordered_point(realize_orbit(orbit), selection_positions(orbit, selection))


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
    formed, for point_stabilizer_dim, and its projection for
    stabilizer_dim.  The image stabilizers are read off each symbolic
    normal form by the depth law of classify: gl_centralizer_dim of the
    head plus the head's size.  At the dense selection the law is checked
    against the rank of stabilizer_dim, and that against the rank of
    point_stabilizer_dim.
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
        sym = symbolic_image(orbit, sel)
        orc = oracle_image(orbit, sel)
        agree = sym == orc
        if not agree:
            failures.append("symbolic/oracle disagree at %r" % (sel.to_json(),))
        stab = gl_centralizer_dim(sym.a_part) + sym.a_part.size
        record = {
            "selection": sel.to_json(),
            "symbolic": sym.to_json(),
            "oracle": orc.to_json(),
            "agree": agree,
            "stab_dims": {"image": stab},
        }
        if sel == dense:
            moved = _moved(orbit, sel)
            dense_stab = stabilizer_dim(project_to_p_star(moved))
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
