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
"""
from __future__ import annotations

from itertools import product
from typing import List, Tuple

from .exact_linalg import ExactMatrix
from .orbit_model import EigenvalueClass, OrbitDatum

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
    """

    __slots__ = ("choices",)

    def __init__(self, choices):
        if isinstance(choices, dict):
            items = choices.items()
        else:
            items = choices
        normalized = []
        for cls_idx, blocks in sorted(items):
            pairs = tuple(sorted((int(i), int(x)) for i, x in
                                 (blocks.items() if isinstance(blocks, dict) else blocks)))
            if not pairs:
                raise ValueError("selected class %d has no blocks" % cls_idx)
            normalized.append((int(cls_idx), pairs))
        if not normalized:
            raise ValueError("a selection must involve at least one class")
        self.choices = tuple(normalized)

    def classes(self) -> Tuple[int, ...]:
        return tuple(idx for idx, _ in self.choices)

    def get(self, cls_idx: int):
        for idx, pairs in self.choices:
            if idx == cls_idx:
                return pairs
        return None

    def sort_key(self):
        return (self.classes(), tuple(pairs for _, pairs in self.choices))

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


def _class_choices(cls: EigenvalueClass) -> List[Tuple[Tuple[int, int], ...]]:
    """All legal per-class block/coordinate assignments, deterministic order."""
    runs = cls.partition.runs_ascending()
    r = len(runs)
    out = []
    for mask in range(1, 1 << r):
        chosen = [i for i in range(r) if mask & (1 << i)]
        ranges = [range(1, runs[i][0] + 1) for i in chosen]
        for xs in product(*ranges):
            ok = True
            for a in range(len(chosen) - 1):
                k1, x1 = runs[chosen[a]][0], xs[a]
                k2, x2 = runs[chosen[a + 1]][0], xs[a + 1]
                if not (x1 < x2 and k1 - x1 < k2 - x2):
                    ok = False
                    break
            if ok:
                out.append(tuple(zip(chosen, xs)))
    out.sort()
    return out


def enumerate_selections(orbit: OrbitDatum) -> List[IndexSelection]:
    """The complete duplicate-free list of selections, lexicographic order."""
    per_class = [[None] + _class_choices(cls) for cls in orbit.classes]
    selections = []
    for combo in product(*per_class):
        chosen = [(idx, pairs) for idx, pairs in enumerate(combo) if pairs is not None]
        if not chosen:
            continue
        selections.append(IndexSelection(chosen))
    selections.sort(key=IndexSelection.sort_key)
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
    """Group element carrying the base covector to the selection's vector.

    Under the right action v . g = (row vector v) g, the base vector
    (0,...,0,1) lands on the representative vector, i.e. the last row of
    the returned matrix is the representative vector.
    """
    n = orbit.size
    positions = selection_positions(orbit, selection)
    # the identity with row k - 1 (k the largest position) moved to the
    # bottom and replaced by the representative vector
    k = max(positions)
    rows = [{i: 1} for i in range(k - 1)] + [{i + 1: 1} for i in range(k - 1, n - 1)]
    return ExactMatrix.from_integer(1, rows + [{p - 1: 1 for p in positions}], n)
