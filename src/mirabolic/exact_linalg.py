"""Exact dense linear algebra over Q.

Everything is computed with unbounded exact arithmetic: no tolerances, no
floating point.  Matrices are immutable; all operations are pure functions,
so values can be shared freely between threads.

ExactMatrix stores Fraction entries; every rank, product and inverse runs on
one sparse integer kernel over d and the sparse integer rows of d*m, d the
least common denominator of the entries (integer_rows gives the rows):

* integer_rank ranks sparse integer rows by fraction-free elimination with
  the row content divided out.  It is the only elimination: rank, the
  Jordan rank filtration and the stabilizer brackets use it;
* a product multiplies the integer rows of both factors and reads each
  nonzero entry back with one division by d_a*d_b;
* inverse runs the same fraction-free, content-reduced elimination as a
  Gauss-Jordan sweep on [d*m | I] and divides each entry once.  It raises
  ValueError on a singular matrix.

Eigenvalues of a rational matrix are named by rationals r and by pairs
(a, b), b > 0, for the conjugate eigenvalues a +- ib.  jordan_structure reads
a pair off the real quadratic q(x) = (x - a)^2 + b^2, so no arithmetic ever
leaves Q.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .partitions import Partition

__all__ = [
    "ExactMatrix",
    "SpectrumMismatch",
    "block_diag",
    "rank",
    "integer_rows",
    "integer_rank",
    "kernel_dim",
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


_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExactMatrix:
    """Immutable dense matrix with Fraction entries, row-major.

    Entries may be given as int or Fraction; anything else (a float, a
    complex number, a string) raises TypeError.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        rows = tuple(tuple(_fraction(v) for v in row) for row in data)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix data")
        self.data = rows

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[_ZERO] * cols for _ in range(rows)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i: int):
        return self.data[i]

    def column(self, j: int):
        return tuple(row[j] for row in self.data)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(v for row in self.data for v in row)

    def __add__(self, other):
        self._same_shape(other)
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        self._same_shape(other)
        return ExactMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __neg__(self):
        return ExactMatrix([[-v for v in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    "shape mismatch: %dx%d * %dx%d"
                    % (self.rows, self.cols, other.rows, other.cols)
                )
            da, a = _scaled_rows(self.data)
            db, b = _scaled_rows(other.data)
            return _from_integer_rows(_integer_matmul(a, b), [da * db] * self.rows,
                                      other.cols)
        c = _fraction(other)
        return ExactMatrix([[c * v for v in row] for row in self.data])

    def __rmul__(self, other):
        c = _fraction(other)
        return ExactMatrix([[c * v for v in row] for row in self.data])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        """Rows r0:r1 and columns c0:c1, half-open."""
        return ExactMatrix([row[c0:c1] for row in self.data[r0:r1]])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return "ExactMatrix[%dx%d](%s)" % (self.rows, self.cols, body)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def block_diag(*blocks: ExactMatrix) -> ExactMatrix:
    n = sum(b.rows for b in blocks)
    m = sum(b.cols for b in blocks)
    out = [[_ZERO] * m for _ in range(n)]
    r = c = 0
    for b in blocks:
        for i in range(b.rows):
            out[r + i][c : c + b.cols] = list(b.data[i])
        r += b.rows
        c += b.cols
    return ExactMatrix(out)


def _scaled_rows(data: Sequence[Sequence[Fraction]]) -> tuple:
    """(d, rows): d the least common denominator of the Fraction rows data,
    rows the sparse {column: int} rows of d*data."""
    d = lcm(1, *(v.denominator for row in data for v in row))
    return d, [
        {j: v.numerator * (d // v.denominator) for j, v in enumerate(row) if v}
        for row in data
    ]


def integer_rows(m: ExactMatrix) -> list:
    """Rows of d*m as sparse {column: int} dicts, d the least common denominator."""
    return _scaled_rows(m.data)[1]


def _from_integer_rows(rows: list, dens: list, cols: int) -> ExactMatrix:
    """The matrix whose row i is the sparse integer row rows[i] over dens[i].

    Each nonzero entry is divided once.
    """
    out = []
    for row, d in zip(rows, dens):
        new = [_ZERO] * cols
        for j, v in row.items():
            new[j] = Fraction(v, d)
        out.append(new)
    return ExactMatrix(out)


def _reduce(row: dict, top: dict, col: int) -> dict:
    """row with column col cleared by top, fraction-free, content divided out.

    The two entries in column col are cross-multiplied after dividing out
    their gcd, and the content of the result is divided out, so coefficients
    stay small and zero entries are never touched.  Neither input is
    modified.
    """
    p, f = top[col], row[col]
    g = gcd(p, f)
    p, f = p // g, f // g
    new = {c: p * v for c, v in row.items()} if p != 1 else dict(row)
    for c, v in top.items():
        w = new.get(c, 0) - f * v
        if w:
            new[c] = w
        else:
            del new[c]
    content = gcd(*new.values()) if new else 1
    if content > 1:
        new = {c: v // content for c, v in new.items()}
    return new


def integer_rank(rows: Iterable[dict]) -> int:
    """Rank of sparse integer rows {column: nonzero int}; the rows are not modified.

    Builds an echelon form keyed by leading column.  Each incoming row is
    reduced (_reduce) against the stored row with its leading column until it
    vanishes or starts a new leading column.
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
    return len(echelon)


def _integer_matmul(a: list, b: list) -> list:
    """Product of two integer matrices given as sparse rows."""
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
    return integer_rank(integer_rows(m))


def kernel_dim(m: ExactMatrix) -> int:
    return m.cols - rank(m)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix.

    Fraction-free Gauss-Jordan on the sparse integer rows of [d*m | I]: each
    pivot column is cleared from every other row by _reduce, which leaves
    p_i * e_i on the left of row i and y_i on the right with y_i * d*m =
    p_i * e_i, so row i of the inverse is d * y_i / p_i.  Raises ValueError
    on a singular matrix.
    """
    if not m.is_square():
        raise ValueError("only square matrices have inverses")
    n = m.rows
    d, rows = _scaled_rows(m.data)
    for i, row in enumerate(rows):
        row[n + i] = 1
    pivots = {}
    for c in range(n):
        k = next((k for k, row in enumerate(rows) if c in row), None)
        if k is None:
            raise ValueError("matrix is singular")
        top = rows.pop(k)
        rows = [_reduce(row, top, c) if c in row else row for row in rows]
        for col, row in pivots.items():
            if c in row:
                pivots[col] = _reduce(row, top, c)
        pivots[c] = top
    return _from_integer_rows(
        [{j - n: d * v for j, v in pivots[c].items() if j >= n} for c in range(n)],
        [pivots[c][c] for c in range(n)],
        n,
    )


def _eigenvalue(hint):
    """The key of an eigenvalue hint: a rational r as a Fraction, a pair
    (a, b) as (a, |b|) for a +- ib, and (a, 0) as the rational a."""
    if isinstance(hint, tuple):
        a, b = hint
        a, b = _fraction(a), abs(_fraction(b))
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

    Returns {r or (a, b) with b > 0: Partition of block sizes}, omitting
    eigenvalues of multiplicity zero.  Raises SpectrumMismatch when the
    supplied eigenvalues fail to account for the full dimension, e.g. when
    an eigenvalue is irrational and not a + ib with a, b rational.
    """
    if not m.is_square():
        raise ValueError("jordan_structure needs a square matrix")
    n = m.rows
    result = {}
    total = 0
    for lam in dict.fromkeys(map(_eigenvalue, eigenvalues)):
        ranks = _power_ranks(n, _shifted_rows(m, lam))
        if ranks[-1] == n:
            continue
        degree = 2 if isinstance(lam, tuple) else 1
        at_least = [(ranks[k - 1] - ranks[k]) // degree for k in range(1, len(ranks))]
        at_least.append(0)
        parts = []
        for size in range(len(at_least) - 1, 0, -1):
            parts.extend([size] * (at_least[size - 1] - at_least[size]))
        result[lam] = Partition(parts)
        total += n - ranks[-1]
    if total != n:
        raise SpectrumMismatch(
            "eigenvalues account for dimension %d of %d" % (total, n)
        )
    return result


def _shifted_rows(m: ExactMatrix, lam) -> list:
    """Sparse integer rows of a positive multiple of m - r at a rational r, or
    of q = (m - a)^2 + b^2 at a pair (a, b); a multiple has the same ranks."""
    a, b = lam if isinstance(lam, tuple) else (lam, 0)
    data = [list(row) for row in m.data]
    for i, row in enumerate(data):
        row[i] -= a
    d, rows = _scaled_rows(data)
    if not b:
        return rows
    # s = d*(m - a) and (d*b)^2 = u/v give v*d^2*q = v*s^2 + u*I
    u, v = ((d * b) ** 2).as_integer_ratio()
    square = _integer_matmul(rows, rows)
    for i, row in enumerate(square):
        if v != 1:
            square[i] = row = {j: v * x for j, x in row.items()}
        x = row.get(i, 0) + u
        if x:
            row[i] = x
        else:
            del row[i]
    return square


def _power_ranks(n: int, shifted: list) -> list:
    """[n, rank s, rank s^2, ...] for the integer rows s = shifted, up to the
    first repeated rank."""
    ranks = [n]
    power = shifted
    while True:
        ranks.append(integer_rank(power))
        if ranks[-1] == ranks[-2]:
            return ranks
        power = _integer_matmul(power, shifted)
