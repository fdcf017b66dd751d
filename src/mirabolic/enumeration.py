"""Enumeration of the mirabolic orbits inside one GL coadjoint orbit.

The mirabolic orbits of a coadjoint orbit correspond to the orbits of the
matrix centralizer acting on nonzero covectors.  Each such orbit has a 0/1
representative vector determined by an index selection: a nonempty set of
eigenvalue classes, for each a nonempty set of block sizes, and for each
chosen size a coordinate x inside the block, subject to the two staircase
conditions below.  Block sizes are indexed in ascending order (the
partitions themselves are stored descending).

Conditions on the x values inside one class, for chosen size indices
i1 < i2 (so k_{i1} < k_{i2}):
  (1) x_{i1} < x_{i2}
  (2) k_{i1} - x_{i1} < k_{i2} - x_{i2}

A class's selections are generated with these conditions as loop bounds and
in lexicographic order, so no tuple is rejected and nothing is sorted.  They
are the nonempty antichains of the Dutta-Prasad poset of the partition
(Dutta & Prasad, J. Combin. Theory A 118, 2011).
"""
from __future__ import annotations

from itertools import product
from typing import List, Tuple

from .classify import _completion
from .exact_linalg import ExactMatrix
from .orbit_model import OrbitDatum

__all__ = [
    "IndexSelection",
    "enumerate_selections",
    "selection_positions",
    "selection_vector",
    "selection_conjugator",
]


class IndexSelection:
    """Choice of (class -> block -> coordinate) defining one orbit representative.

    choices maps the class index (canonical class order, 0-based) to pairs
    (block index in the ascending-size view, x with 1 <= x <= block size).
    Indices may be given as ints or as the strings to_json writes, so
    IndexSelection(sel.to_json()) == sel; a class given twice, or a block
    given twice within one class, raises ValueError.
    """

    __slots__ = ("choices",)

    def __init__(self, choices):
        normalized = {}
        for cls_idx, blocks in choices.items() if isinstance(choices, dict) else choices:
            cls_idx = int(cls_idx)
            if cls_idx in normalized:
                raise ValueError("class %d is selected more than once" % cls_idx)
            pairs = tuple(sorted((int(i), int(x)) for i, x in
                                 (blocks.items() if isinstance(blocks, dict) else blocks)))
            if not pairs:
                raise ValueError("selected class %d has no blocks" % cls_idx)
            if len({i for i, _ in pairs}) < len(pairs):
                raise ValueError("class %d selects a block more than once" % cls_idx)
            normalized[cls_idx] = pairs
        if not normalized:
            raise ValueError("a selection must involve at least one class")
        self.choices = tuple(sorted(normalized.items()))

    @classmethod
    def _canonical(cls, choices: tuple) -> "IndexSelection":
        """Takes over choices that are already in the constructor's normal form."""
        s = object.__new__(cls)
        s.choices = choices
        return s

    def to_json(self) -> dict:
        return {
            str(idx): {str(i): x for i, x in pairs}
            for idx, pairs in self.choices
        }

    def __eq__(self, other):
        if isinstance(other, IndexSelection):
            return self.choices == other.choices
        return NotImplemented

    def __hash__(self):
        return hash(self.choices)

    def __repr__(self):
        return "IndexSelection(%r)" % (self.to_json(),)


def _class_chains(sizes, prefix=(), start=0, x_prev=0, gap_prev=-1):
    """The chains of (block index, x) that extend prefix, lexicographic
    order; sizes are the distinct block sizes, ascending."""
    for i in range(start, len(sizes)):
        k = sizes[i]
        for x in range(x_prev + 1, k - gap_prev):
            chain = prefix + ((i, x),)
            yield chain
            yield from _class_chains(sizes, chain, i + 1, x, k - x)


def enumerate_selections(orbit: OrbitDatum) -> List[IndexSelection]:
    """The complete duplicate-free list of selections, lexicographic order."""
    chains = [
        list(_class_chains([k for k, _ in cls.partition.runs_ascending()]))
        for cls in orbit.classes
    ]
    selections = []

    def walk(chosen, start):
        # the ascending tuples of class indices, lexicographic order
        for c in range(start, len(chains)):
            classes = chosen + (c,)
            for combo in product(*(chains[i] for i in classes)):
                selections.append(IndexSelection._canonical(tuple(zip(classes, combo))))
            walk(classes, c + 1)

    walk((), 0)
    return selections


def _class_offsets(orbit: OrbitDatum) -> List[int]:
    offsets = []
    acc = 0
    for cls in orbit.classes:
        offsets.append(acc)
        acc += cls.contribution
    return offsets


def selection_positions(orbit: OrbitDatum, selection: IndexSelection) -> List[int]:
    """1-based coordinates of the representative vector's nonzero entries.

    Within a class whose ascending runs are (k_u, l_u), the chosen block
    (i, x) sits at sum_{u<i} c*k_u*l_u + k_i*(c*l_i - 1) + x where c is 2
    for a conjugate-pair class and 1 otherwise.
    """
    offsets = _class_offsets(orbit)
    positions = []
    for cls_idx, pairs in selection.choices:
        cls = orbit.classes[cls_idx]
        runs = cls.partition.runs_ascending()
        c = 2 if cls.is_pair else 1
        prefix = [0]
        for k, l in runs:
            prefix.append(prefix[-1] + c * k * l)
        for i, x in pairs:
            k, l = runs[i]
            if not 1 <= x <= k:
                raise ValueError("coordinate %d outside block of size %d" % (x, k))
            positions.append(offsets[cls_idx] + prefix[i] + k * (c * l - 1) + x)
    positions.sort()
    return positions


def selection_vector(orbit: OrbitDatum, selection: IndexSelection) -> Tuple[int, ...]:
    """0/1 vector of length n with ones at the selection's positions."""
    n = orbit.size
    ones = set(selection_positions(orbit, selection))
    return tuple(1 if (i + 1) in ones else 0 for i in range(n))


def selection_conjugator(orbit: OrbitDatum, selection: IndexSelection) -> ExactMatrix:
    """Group element g carrying the base covector (0,...,0,1) to the selection's
    vector v under the right action v . g: _completion(1, v, n, k - 1), k the
    largest position, whose last row is v."""
    positions = selection_positions(orbit, selection)
    return _completion(1, {p - 1: 1 for p in positions}, orbit.size, positions[-1] - 1)
