"""Bounded exhaustive orbit corpora and small random group elements.

The corpora drive the verification suites: every orbit datum up to a size
bound, with eigenvalues from small fixed pools so that all arithmetic stays
rational.  One loop nest lists both: the complex corpus is the real one
over the complex pool with no pair pool.  Random conjugators are built from
unit triangular factors, so they are exactly invertible with integer
inverses.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Tuple

from .exact_linalg import ExactMatrix
from .orbit_model import COMPLEX, REAL, EigenvalueClass, OrbitDatum
from .partitions import partitions_of_weight

__all__ = [
    "compositions",
    "complex_corpus",
    "real_corpus",
    "random_unimodular",
    "random_mirabolic",
]

# the eigenvalue pools, each in descending order, which is the corpus order
COMPLEX_POOL = (Fraction(2), Fraction(1), Fraction(0), Fraction(-1))
REAL_POOL = (Fraction(1), Fraction(0))
PAIR_POOL = tuple(
    (a, b)
    for a in (Fraction(1), Fraction(0))
    for b in (Fraction(3, 2), Fraction(1), Fraction(1, 2))
)
# entries of the random triangular factors lie in [-SPREAD, SPREAD]
SPREAD = 2


def compositions(n: int, k: int) -> Iterator[Tuple[int, ...]]:
    """Ordered k-tuples of positive integers summing to n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(1, n - k + 2):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def complex_corpus(nmax: int) -> Iterator[OrbitDatum]:
    """Every complex-field orbit datum of size 1..nmax over COMPLEX_POOL."""
    yield from _corpus(COMPLEX, nmax, COMPLEX_POOL, (), require_pair=False)


def real_corpus(nmax: int, require_pair: bool = True) -> Iterator[OrbitDatum]:
    """Every real-field orbit datum of size 1..nmax over REAL_POOL and PAIR_POOL.

    Conjugate-pair classes occupy twice their partition weight.  With
    require_pair each datum contains at least one pair class.
    """
    yield from _corpus(REAL, nmax, REAL_POOL, PAIR_POOL, require_pair)


def _corpus(field, nmax, real_pool, pair_pool, require_pair) -> Iterator[OrbitDatum]:
    """Orbit data by size, then class counts, eigenvalues, weights and
    partitions.

    The real classes come first and each pool runs by descending
    eigenvalue, so the classes are distinct and already in canonical
    order, and each partition comes from partitions_of_weight: every orbit
    is built through the trusted constructors, and each weight's partitions
    are listed once and shared.
    """
    by_weight = [tuple(partitions_of_weight(w)) for w in range(nmax + 1)]
    for n in range(1, nmax + 1):
        for rk in range(0, min(len(real_pool), n) + 1):
            for pk in range(1 if require_pair else 0, min(len(pair_pool), n // 2) + 1):
                if rk == 0 and pk == 0:
                    continue
                for real_eigs in combinations(real_pool, rk):
                    for pair_eigs in combinations(pair_pool, pk):
                        # a pair class of weight w spans 2w of the ambient size
                        for pair_total in range(pk, n // 2 + 1):
                            for pair_ws in compositions(pair_total, pk):
                                for comp in compositions(n - 2 * pair_total, rk):
                                    weights = comp + pair_ws
                                    for parts in product(*[by_weight[w] for w in weights]):
                                        classes = tuple(
                                            EigenvalueClass._canonical(a, p)
                                            for a, p in zip(real_eigs, parts[:rk])
                                        ) + tuple(
                                            EigenvalueClass._canonical(a, p, b)
                                            for (a, b), p in zip(pair_eigs, parts[rk:])
                                        )
                                        yield OrbitDatum._canonical(field, classes)


def random_unimodular(n: int, rng: random.Random) -> ExactMatrix:
    """Random determinant-one integer matrix (unit lower times unit upper)."""
    lower = [{i: 1} for i in range(n)]
    upper = [{i: 1} for i in range(n)]
    for i in range(n):
        for j in range(i):
            for row, col in ((lower[i], j), (upper[j], i)):
                v = rng.randint(-SPREAD, SPREAD)
                if v:
                    row[col] = v
    return ExactMatrix.from_integer(1, lower, n) * ExactMatrix.from_integer(1, upper, n)


def random_mirabolic(n: int, rng: random.Random) -> ExactMatrix:
    """Random mirabolic group element with integer entries and exact inverse."""
    if n == 1:
        return ExactMatrix.identity(1)
    rows = []
    for row in random_unimodular(n - 1, rng).numerators:
        v = rng.randint(-SPREAD, SPREAD)
        rows.append({**row, n - 1: v} if v else row)
    rows.append({n - 1: 1})
    return ExactMatrix.from_integer(1, rows, n)
