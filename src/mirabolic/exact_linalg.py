"""Exact linear algebra over Q on sparse integer rows.

Everything is computed with unbounded exact arithmetic: no tolerances, no
floating point.  Matrices are immutable; all operations are pure functions,
so values can be shared freely between threads.

An ExactMatrix m is stored as (d, rows): d the least common denominator of
its entries and rows the sparse {column: nonzero int} rows of d*m.  Since d
is the least one, gcd(d, every entry) is 1, so the stored form is canonical
and == and hash compare it directly.  Every rank, product and inverse runs
on the stored form; Fractions appear only at the edges (the constructor,
data and repr):

* _echelon brings sparse integer rows to an echelon form by fraction-free
  elimination with the row content divided out.  It is the only
  elimination: integer_rank (and so rank, the Jordan rank filtration and
  the stabilizer brackets) counts its rows, and inverse back-substitutes in
  the echelon form of [d*m | I] and puts the result over the lcm of its
  pivots, raising ValueError on a singular matrix;
* a product multiplies the integer rows of both factors over d_a*d_b and
  divides out one gcd;
* two sparse rows are combined only by _combination (f*row + g*other):
  sums, the elimination step and the diagonal shifts of the Jordan rank
  filtration all call it, and other modules combine rows only through it,
  _integer_matmul, block_diag and the + and * of ExactMatrix;
* rows are never modified, so a value may share them wherever it
  repeats.

Exact inputs are read by one rule, here and in the other modules: _fraction
takes an int or a Fraction, _integer takes an int, and anything else (a
float, a string) raises TypeError instead of being rounded or converted.
EigenvalueClass also reads a rational string such as '1/3', IndexSelection
the strings its to_json writes, and Partition applies the int rule itself.

Eigenvalues of a rational matrix are named by rationals r and by pairs
(a, b), b > 0, for the conjugate eigenvalues a +- ib.  The Jordan type is
read off one rank-filtration loop, _jordan_partitions, which reads a pair
off the real quadratic q(x) = (x - a)^2 + b^2, so no arithmetic ever leaves
Q.  Its rank drops count the blocks of each size or more, the dual of the
block sizes, which partitions._transpose turns back into the sizes.  It
chains its keys: each key's rank filtration starts from the stable rows
that the keys found before it leave, the row space W of the last stable
power, times its own shifted matrix s.  W is invariant under the
matrix and holds every generalized eigenspace not yet found; the
eigenspaces it lost belong to other eigenvalues, on which s is invertible.
So the rank drops of a later key are the same on W as on the whole space,
a key found before drops nothing, and the last eigenvalue found leaves
W = 0; rows left after the last key are a SpectrumMismatch.  The loop
takes its keys normalised: jordan_structure normalises every one of a
caller's hints (_eigenvalue) before the loop starts, so a bad hint raises
even where the loop would stop before it, and the oracle
(moment.oracle_image) passes the eigenvalues of a validated orbit's
classes as they are.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .partitions import Partition, _transpose

__all__ = [
    "ExactMatrix",
    "SpectrumMismatch",
    "block_diag",
    "rank",
    "integer_rank",
    "inverse",
    "jordan_structure",
]


class SpectrumMismatch(Exception):
    """The supplied eigenvalues do not exhaust the spectrum of the matrix."""


def _fraction(value) -> Fraction:
    """value as a Fraction; raises TypeError unless it is an int or a Fraction."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError("expected an int or a Fraction, got %r" % (value,))


def _integer(value, what: str) -> int:
    """value as an int; raises TypeError naming what unless it is one, so a
    float, a Fraction or a string is never rounded or converted."""
    if type(value) is int:
        return value
    if isinstance(value, int):
        return int(value)
    raise TypeError("%s must be an int, got %r" % (what, value))


_ZERO = Fraction(0)


class ExactMatrix:
    """Immutable rational matrix stored as numerators / denominator.

    denominator is the least common denominator d of the entries (1 for an
    integer or zero matrix) and numerators the rows of d*m as sparse
    {column: nonzero int} dicts.  The stored rows are shared, never copied:
    no code may modify them.  Entries may be given to the constructor as int
    or Fraction; anything else (a float, a complex number, a string) raises
    TypeError.
    """

    __slots__ = ("rows", "cols", "denominator", "numerators")

    def __init__(self, data: Iterable[Iterable]):
        data = [[_fraction(v) for v in row] for row in data]
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix data")
        # Fractions are in lowest terms, so this d is already the least one
        d = lcm(1, *(v.denominator for row in data for v in row))
        self.denominator = d
        self.numerators = [
            {j: v.numerator * (d // v.denominator) for j, v in enumerate(row) if v}
            for row in data
        ]

    @classmethod
    def from_integer(cls, d: int, rows: list, cols: int) -> "ExactMatrix":
        """The matrix rows / d, for a positive int d and sparse {column:
        nonzero int} rows, with one gcd divided out.  Takes over rows, which
        the caller must not modify afterwards."""
        if d != 1:
            g = gcd(d, *(v for row in rows for v in row.values()))
            if g != 1:
                d //= g
                rows = [{j: v // g for j, v in row.items()} for row in rows]
        m = object.__new__(cls)
        m.rows, m.cols, m.denominator, m.numerators = len(rows), cols, d, rows
        return m

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        """The n x n identity; n = 0 gives the empty matrix, n < 0 raises
        ValueError."""
        if n < 0:
            raise ValueError("size must be nonnegative, got %d" % n)
        return cls.from_integer(1, [{i: 1} for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("sizes must be nonnegative, got %d x %d" % (rows, cols))
        return cls.from_integer(1, [{} for _ in range(rows)], cols)

    @property
    def data(self) -> tuple:
        """The entries as rows of Fractions, for output and tests."""
        d = self.denominator
        return tuple(
            tuple(Fraction(row[j], d) if j in row else _ZERO for j in range(self.cols))
            for row in self.numerators
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        d = lcm(self.denominator, other.denominator)
        fa, fb = d // self.denominator, d // other.denominator
        out = [_combination(fa, ra, fb, rb) for ra, rb in zip(self.numerators, other.numerators)]
        return ExactMatrix.from_integer(d, out, self.cols)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    "shape mismatch: %dx%d * %dx%d"
                    % (self.rows, self.cols, other.rows, other.cols)
                )
            return ExactMatrix.from_integer(
                self.denominator * other.denominator,
                _integer_matmul(self.numerators, other.numerators),
                other.cols,
            )
        c = _fraction(other)
        return ExactMatrix.from_integer(
            self.denominator * c.denominator,
            [{j: c.numerator * v for j, v in row.items()} if c else {}
             for row in self.numerators],
            self.cols,
        )

    __rmul__ = __mul__

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        """Rows r0:r1 and columns c0:c1, half-open."""
        keep = range(self.cols)[c0:c1]
        return ExactMatrix.from_integer(
            self.denominator,
            [{j - keep.start: v for j, v in row.items() if j in keep}
             for row in self.numerators[r0:r1]],
            len(keep),
        )

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.denominator, self.numerators) == (
            other.rows, other.cols, other.denominator, other.numerators)

    def __hash__(self):
        return hash((self.rows, self.cols, self.denominator,
                     tuple(frozenset(row.items()) for row in self.numerators)))

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return "ExactMatrix[%dx%d](%s)" % (self.rows, self.cols, body)


def block_diag(*blocks: ExactMatrix) -> ExactMatrix:
    d = lcm(1, *(b.denominator for b in blocks))
    rows = []
    c = 0
    for b in blocks:
        f = d // b.denominator
        rows.extend({c + j: f * v for j, v in row.items()} for row in b.numerators)
        c += b.cols
    return ExactMatrix.from_integer(d, rows, c)


def _combination(f: int, row: dict, g: int, other: dict) -> dict:
    """f * row + g * other as a new sparse integer row, for ints f != 0 and g;
    no zero is kept and neither input is modified."""
    new = {c: f * v for c, v in row.items()} if f != 1 else dict(row)
    if g:
        for c, v in other.items():
            w = new.get(c, 0) + g * v
            if w:
                new[c] = w
            else:
                del new[c]
    return new


def _reduce(row: dict, top: dict, col: int) -> dict:
    """row with column col cleared by top, fraction-free, content divided out.

    The two entries in column col are cross-multiplied after dividing out
    their gcd, and the content of the result is divided out, so coefficients
    stay small and zero entries are never touched.  Neither input is
    modified.
    """
    p, f = top[col], row[col]
    g = gcd(p, f)
    new = _combination(p // g, row, -(f // g), top)
    content = gcd(*new.values()) if new else 1
    if content > 1:
        new = {c: v // content for c, v in new.items()}
    return new


def _echelon(rows: Iterable[dict]) -> dict:
    """Echelon form {leading column: row} of sparse integer rows {column:
    nonzero int}, spanning the same row space; the rows are not modified.

    Each incoming row is reduced (_reduce) against the stored row with its
    leading column until it vanishes or starts a new leading column.
    """
    echelon = {}
    for row in rows:
        while row:
            lead = min(row)
            top = echelon.get(lead)
            if top is None:
                echelon[lead] = row
                break
            row = _reduce(row, top, lead)
    return echelon


def integer_rank(rows: Iterable[dict]) -> int:
    """Rank of sparse integer rows {column: nonzero int}; the rows are not modified."""
    return len(_echelon(rows))


def _integer_matmul(a: list, b) -> list:
    """Product of two integer matrices given as sparse rows; b may be any
    mapping from the column keys of a's rows to rows."""
    out = []
    for row in a:
        acc = {}
        for k, v in row.items():
            for j, w in b[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append({j: v for j, v in acc.items() if v})
    return out


def rank(m: ExactMatrix) -> int:
    """Exact row rank over Q."""
    return integer_rank(m.numerators)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix.

    Takes the echelon form of the sparse integer rows of [d*m | I]; m is
    singular unless every column c < n leads a row.  Clearing each pivot
    column from the rows above it, last column first (_reduce), leaves
    p_c * e_c on the left of row c and y_c on the right with y_c * d*m =
    p_c * e_c, so row c of the inverse is d * y_c / p_c, put over the lcm
    of the pivots.  Raises ValueError on a singular matrix.
    """
    if not m.is_square():
        raise ValueError("only square matrices have inverses")
    n = m.rows
    pivots = _echelon({**row, n + i: 1} for i, row in enumerate(m.numerators))
    if any(c not in pivots for c in range(n)):
        raise ValueError("matrix is singular")
    for c in range(n - 1, 0, -1):
        top = pivots[c]
        for above in range(c):
            if c in pivots[above]:
                pivots[above] = _reduce(pivots[above], top, c)
    den = lcm(*(pivots[c][c] for c in range(n)))
    out = []
    for c in range(n):
        f = den // pivots[c][c] * m.denominator
        out.append({j - n: f * v for j, v in pivots[c].items() if j >= n})
    return ExactMatrix.from_integer(den, out, n)


def _eigenvalue(hint):
    """The key of an eigenvalue hint: a rational r as a Fraction, a pair
    (a, b) as (a, |b|) for a +- ib, and (a, 0) as the rational a."""
    if isinstance(hint, tuple):
        a, b = hint
        a, b = _fraction(a), _fraction(b)
        if b.numerator < 0:
            b = -b
        return (a, b) if b else a
    return _fraction(hint)


def jordan_structure(m: ExactMatrix, eigenvalues: Sequence) -> dict:
    """Identify the Jordan block sizes of m at each supplied eigenvalue.

    An eigenvalue is a rational r, or a pair (a, b) naming the conjugate
    eigenvalues a +- ib; (a, -b) names the same pair and (a, 0) is the
    rational a.  At a rational r the number of blocks of size >= k is
    rank((m - r)^(k-1)) - rank((m - r)^k).  At a pair it is half of
    rank(q^(k-1)) - rank(q^k) for the real quadratic q = (m - a)^2 + b^2
    (real Jordan form), and the pair uses twice its partition's weight.  So
    the whole structure is read off rational rank filtrations.

    Every hint is normalised (_eigenvalue) first, and the keys are chained
    through the one rank-filtration loop, _jordan_partitions, as the module
    docstring explains: each is ranked on the row space W that the hints
    found before it leave, where its rank drops are those on the whole
    space, and a hint already found (or absent) drops nothing.

    Returns {r or (a, b) with b > 0: Partition of block sizes}, omitting
    eigenvalues of multiplicity zero.  Raises SpectrumMismatch when the
    supplied eigenvalues fail to account for the full dimension, e.g. when
    an eigenvalue is irrational and not a + ib with a, b rational.
    """
    if not m.is_square():
        raise ValueError("jordan_structure needs a square matrix")
    keys = [_eigenvalue(hint) for hint in eigenvalues]
    return {lam: p for lam, p in _jordan_partitions(m, keys) if p}


def _jordan_partitions(m: ExactMatrix, keys: Iterable) -> list:
    """[(key, Partition of block sizes, or None at multiplicity zero)] for
    the keys of a square m that the chained rank filtration ranks, in
    order; the one rank-filtration loop.

    keys are normalised eigenvalues, a Fraction r or a pair (a, b) of
    Fractions with b > 0, read one at a time: the first key read after the
    keys before it account for the whole dimension ends the loop, and no
    later key is read.  Raises SpectrumMismatch when the keys leave part of
    the dimension unaccounted for.
    """
    n = m.rows
    found = []
    basis, dim = None, n  # W, the whole space at first
    for lam in keys:
        if not dim:
            break  # every key left has multiplicity zero or repeats one found
        shifted = _shifted_rows(m, lam)
        start = shifted if basis is None else _integer_matmul(basis, shifted)
        ranks, stable = _power_ranks(dim, start, shifted)
        if ranks[-1] == dim:
            found.append((lam, None))
            continue
        degree = 2 if isinstance(lam, tuple) else 1
        # the k-th drop before the repeated rank counts the blocks of size
        # >= k: the drops are the dual of the block sizes
        dual = tuple((ranks[k - 1] - ranks[k]) // degree for k in range(1, len(ranks) - 1))
        found.append((lam, Partition._canonical(_transpose(dual))))
        basis, dim = stable, ranks[-1]
    if dim:
        raise SpectrumMismatch(
            "eigenvalues account for dimension %d of %d" % (n - dim, n)
        )
    return found


def _shifted_rows(m: ExactMatrix, lam) -> list:
    """Sparse integer rows of a positive multiple of m - r at a rational r, or
    of q = (m - a)^2 + b^2 at a pair (a, b); a multiple has the same ranks.

    With a = p/q and m = rows/d the rows are those of q*d*m - p*d*I, built
    on copies of the stored rows.
    """
    a, b = lam if isinstance(lam, tuple) else (lam, 0)
    q, shift = a.denominator, a.numerator * m.denominator
    rows = [_combination(q, row, -shift, {i: 1}) for i, row in enumerate(m.numerators)]
    if not b:
        return rows
    # s = q*d*(m - a) and (q*d*b)^2 = u/v give v*(q*d)^2*q = v*s^2 + u*I, with
    # u/v not in lowest terms: that scales q by a positive constant only
    u, v = (q * m.denominator * b.numerator) ** 2, b.denominator ** 2
    return [_combination(v, row, u, {i: 1}) for i, row in enumerate(_integer_matmul(rows, rows))]


def _power_ranks(dim: int, rows: list, shifted: list) -> tuple:
    """([dim, rank W*s, rank W*s^2, ...], stable rows) for a subspace W of
    dimension dim, s = shifted and rows spanning W*s, up to the first
    repeated rank; the stable rows are echelon rows of the last power.

    The row space of W*s^k is the row space of W*s^(k-1) times s, so each
    power is ranked from the echelon rows of the one before it times s.
    """
    ranks = [dim]
    while True:
        rows = list(_echelon(rows).values())
        ranks.append(len(rows))
        if ranks[-1] == ranks[-2]:
            return ranks, rows
        rows = _integer_matmul(rows, shifted)
