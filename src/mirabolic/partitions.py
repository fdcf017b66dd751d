"""Integer partitions: duals and exponent notation.

A Partition is immutable, so its dual and its ascending runs are each
computed once, on first use, and kept.  _transpose is the one transpose of
a Young diagram: Partition.dual calls it, and so does the Jordan rank
filtration (exact_linalg._jordan_partitions), whose rank drops are already
the dual of the block sizes.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Tuple

__all__ = ["Partition", "partitions_of_weight"]


class Partition:
    """A weakly decreasing tuple of positive integers.

    Parts are stored in descending order and zero parts are dropped at
    construction, so equal partitions compare equal structurally.
    """

    __slots__ = ("_parts", "_ascending", "_dual")

    def __init__(self, parts: Iterable[int] = ()):
        parts = list(parts)
        if not all(isinstance(p, int) for p in parts):
            # the rule of exact_linalg._integer, which this module cannot import
            raise TypeError("partition parts must be ints, got %r" % (parts,))
        cleaned = sorted(map(int, parts), reverse=True)
        if cleaned and cleaned[-1] < 0:
            raise ValueError("partition parts must be nonnegative")
        self._parts = tuple(p for p in cleaned if p > 0)
        self._ascending = None
        self._dual = None

    @classmethod
    def _canonical(cls, parts: tuple) -> "Partition":
        """Takes over parts that are already positive and descending."""
        p = object.__new__(cls)
        p._parts = parts
        p._ascending = None
        p._dual = None
        return p

    @property
    def parts(self) -> Tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        return sum(self._parts)

    def largest(self) -> int:
        return self._parts[0] if self._parts else 0

    def __len__(self):
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __bool__(self):
        return bool(self._parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return "Partition(%s)" % list(self._parts)

    def dual(self) -> "Partition":
        """The transposed Young diagram: column counts become parts (cached)."""
        if self._dual is None:
            self._dual = Partition._canonical(_transpose(self._parts))
        return self._dual

    def runs(self) -> Tuple[Tuple[int, int], ...]:
        """Distinct part sizes with multiplicities, sizes descending."""
        out = []
        for p in self._parts:
            if out and out[-1][0] == p:
                out[-1][1] += 1
            else:
                out.append([p, 1])
        return tuple((k, l) for k, l in out)

    def runs_ascending(self) -> Tuple[Tuple[int, int], ...]:
        """Distinct part sizes with multiplicities, sizes ascending (cached)."""
        if self._ascending is None:
            self._ascending = tuple(reversed(self.runs()))
        return self._ascending

    def to_json(self) -> list:
        return list(self._parts)


def _transpose(parts: tuple) -> tuple:
    """The transposed Young diagram of positive, descending parts, itself
    positive and descending: size k occurs parts[k-1] - parts[k] times."""
    out, below = [], 0
    for k in range(len(parts), 0, -1):
        out.extend([k] * (parts[k - 1] - below))
        below = parts[k - 1]
    return tuple(out)


def partitions_of_weight(n: int) -> Iterator[Partition]:
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        raise ValueError("weight must be nonnegative")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for parts in gen(n, n):
        yield Partition(parts)
