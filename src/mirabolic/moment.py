"""Moment-map images of GL coadjoint orbits in the mirabolic dual.

Each index selection determines one mirabolic orbit in the image.  Two
independent computations of its normal form are provided:

* symbolic_image applies the closed-form block surgery: per selected class
  the depth grows by the top chosen coordinate (doubled for conjugate-pair
  classes), one copy of each chosen block is replaced by a block of size
  k - x_h + x_{h-1}, and zero-size leftovers vanish.

* oracle_image conjugates the orbit representative by the selection's group
  element g in one closed-form classify step (no inverse is formed),
  projects to the mirabolic dual and classifies.  It shares no formulas
  with the symbolic path.
"""
from __future__ import annotations

from typing import List, Optional

from .classify import _conjugate_step, classify, point_stabilizer_dim, stabilizer_dim
from .enumeration import IndexSelection, enumerate_selections, selection_positions
from .exact_linalg import ExactMatrix, inverse  # noqa: F401  perfbench/tests checks inverse here
from .orbit_model import (
    EigenvalueClass,
    MirabolicOrbitDatum,
    OrbitDatum,
    project_to_p_star,
    realize_normal_form,
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
    return IndexSelection(choices)


def symbolic_image(orbit: OrbitDatum, selection: IndexSelection) -> MirabolicOrbitDatum:
    """Closed-form normal form of the image orbit at one selection."""
    depth = 0
    classes = list(orbit.classes)
    for idx, pairs in selection.choices:
        cls = classes[idx]
        runs = cls.partition.runs_ascending()
        parts = list(cls.partition)
        x_prev = 0
        for i, x in pairs:
            k = runs[i][0]
            parts.remove(k)
            parts.append(k - x + x_prev)  # a zero part is dropped by Partition
            x_prev = x
        depth += (2 if cls.is_pair else 1) * x_prev
        partition = Partition(parts)
        classes[idx] = EigenvalueClass(cls.re, partition, im=cls.im) if partition else None
    return MirabolicOrbitDatum(
        depth, OrbitDatum(orbit.field, [c for c in classes if c is not None]))


def oracle_image(orbit: OrbitDatum, selection: IndexSelection) -> MirabolicOrbitDatum:
    """Conjugate, project, classify: the independent check of symbolic_image."""
    moved = _moved(orbit, selection)
    return classify(project_to_p_star(moved), orbit.field, orbit.spectrum())


def _moved(orbit: OrbitDatum, selection: IndexSelection) -> ExactMatrix:
    """g x g^-1 for the orbit representative x and the selection's conjugator
    g = _completion(1, v, n, k - 1): the classify step at pivot k - 1 on x
    bordered below by v, as its head with the column t last, over e."""
    x = realize_orbit(orbit)
    n, d = x.rows, x.denominator
    positions = selection_positions(orbit, selection)
    bordered = x.numerators + [{p - 1: d for p in positions}]
    e, head, t = _conjugate_step(d, bordered, positions[-1] - 1)
    rows = [{**row, n - 1: v} if v else row for row, v in zip(head, t)]
    return ExactMatrix.from_integer(e, rows, n)


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
        return self.injective and self.dense_minimal and self.fiber_singleton

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
        stab = stabilizer_dim(realize_normal_form(sym))
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
