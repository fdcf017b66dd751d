"""Exact dense linear algebra over Q and the Gaussian rationals Q(i).

Everything is computed with unbounded exact arithmetic: no tolerances, no
floating point.  Matrices are immutable; all operations are pure functions,
so values can be shared freely between threads.

ExactMatrix stores Scalar entries; every rank, product and inverse runs on
one sparse integer kernel.  A matrix m = P + iQ is read as d and the sparse
integer rows of d*[P | -Q], d the least common denominator of all real and
imaginary parts (for a real m, the rows of d*m, which integer_rows gives).
A non-real m is realified: d*[[P, -Q], [Q, P]] is a real matrix, the map
keeps products, and its rank is twice the rank of m over Q(i).  On that form:

* integer_rank ranks sparse integer rows by fraction-free elimination with
  the row content divided out.  It is the only elimination: rank (of the
  realified matrix when m is non-real), the Jordan rank filtration at every
  eigenvalue and the stabilizer brackets use it;
* a product multiplies the rows of d_a*[P | -Q] by the realified d_b*b (by
  the rows of d_b*[P' | -Q'] alone when the left factor is real) and reads
  each nonzero entry of [PP' - QQ' | -(PQ' + QP')] back with one division
  by d_a*d_b;
* inverse runs the same fraction-free, content-reduced elimination as a
  Gauss-Jordan sweep on [d*m | I] and divides each entry once.  It raises
  ValueError on a singular matrix and on one with a non-real entry.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .partitions import Partition

__all__ = [
    "Scalar",
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


class Scalar:
    """An element of Q or Q(i): a pair of reduced fractions (re, im).

    Fraction keeps numerators and denominators gcd-reduced with positive
    denominator, which gives canonical representatives for free.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse a rational string like '3', '-1/2'."""
        return cls(Fraction(text.strip()))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return _coerce(other) - self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        if not self.im and not other.im:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero scalar")
            return Scalar(self.re / other.re, self.im / other.re)
        norm = other.re * other.re + other.im * other.im
        return Scalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # hash(Fraction(n)) == hash(n), so real scalars hash like numbers
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return "%si" % self.im
        sign = "+" if self.im > 0 else "-"
        return "%s%s%si" % (self.re, sign, abs(self.im))

    def __repr__(self):
        return "Scalar(%s)" % self


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError("cannot coerce %r to Scalar" % (value,))


SCALAR_ZERO = Scalar(0)
SCALAR_ONE = Scalar(1)


class ExactMatrix:
    """Immutable dense matrix with Scalar entries, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        rows = tuple(tuple(_coerce(v) for v in row) for row in data)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix data")
        self.data = rows

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(
            [[SCALAR_ONE if i == j else SCALAR_ZERO for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[SCALAR_ZERO] * cols for _ in range(rows)])

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
        return all(v.is_zero() for row in self.data for v in row)

    def is_real(self) -> bool:
        return all(not v.im for row in self.data for v in row)

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
            # [P | -Q] * [[P', -Q'], [Q', P']] = [PP' - QQ' | -(PQ' + QP')];
            # a real left factor has no -Q columns, so it meets only [P' | -Q']
            da, a, real = _scaled_rows(self)
            db, b, _ = _scaled_rows(other)
            if not real:
                b = b + _lower_rows(b, other.cols)
            return _from_integer_rows(_integer_matmul(a, b), [da * db] * self.rows,
                                      other.cols)
        c = _coerce(other)
        return ExactMatrix([[c * v for v in row] for row in self.data])

    def __rmul__(self, other):
        c = _coerce(other)
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
    out = [[SCALAR_ZERO] * m for _ in range(n)]
    r = c = 0
    for b in blocks:
        for i in range(b.rows):
            out[r + i][c : c + b.cols] = list(b.data[i])
        r += b.rows
        c += b.cols
    return ExactMatrix(out)


def _scaled_rows(m: ExactMatrix) -> tuple:
    """(d, rows, real) for m = P + iQ, d the least common denominator of all
    real and imaginary parts: rows are the sparse {column: int} rows of
    d*[P | -Q], columns m.cols and on holding -Q, and real tells whether Q
    is zero (then the rows are those of d*m).
    """
    data = m.data
    if m.is_real():
        # most calls pass a real matrix; skipping the imaginary parts here
        # is worth 5-8 % end to end
        d = lcm(1, *(v.re.denominator for row in data for v in row))
        return d, [
            {j: v.re.numerator * (d // v.re.denominator) for j, v in enumerate(row) if v.re}
            for row in data
        ], True
    d = lcm(1, *(v.re.denominator for row in data for v in row),
            *(v.im.denominator for row in data for v in row))
    shift = m.cols
    top = []
    for row in data:
        upper = {}
        for j, v in enumerate(row):
            if v.re:
                upper[j] = v.re.numerator * (d // v.re.denominator)
            if v.im:
                upper[shift + j] = -v.im.numerator * (d // v.im.denominator)
        top.append(upper)
    return d, top, False


def _lower_rows(top: list, cols: int) -> list:
    """The rows of d*[Q | P] from those of d*[P | -Q] (_scaled_rows): each
    row with its halves swapped and -Q negated.

    Stacked under the top rows they give d times the realification
    [[P, -Q], [Q, P]] of P + iQ, a real matrix; that map keeps products,
    and its rank is twice the rank of P + iQ over Q(i).
    """
    bottom = []
    for row in top:
        lower = {}
        for j, x in row.items():
            if j < cols:
                lower[j + cols] = x
            else:
                lower[j - cols] = -x
        bottom.append(lower)
    return bottom


def integer_rows(m: ExactMatrix) -> list:
    """Rows of d*m as sparse {column: int} dicts, d the least common denominator.

    Raises ValueError on a non-real entry: the imaginary part is never dropped.
    """
    return _real_rows(m)[1]


def _real_rows(m: ExactMatrix) -> tuple:
    d, rows, real = _scaled_rows(m)
    if not real:
        raise ValueError("integer rows need a real matrix; it has a non-real entry")
    return d, rows


def _from_integer_rows(rows: list, dens: list, cols: int) -> ExactMatrix:
    """The matrix P + iQ whose row i is the sparse integer row rows[i] of
    [P | -Q] over dens[i]; columns cols and on hold -Q.

    Each nonzero entry is divided once.
    """
    out = []
    for row, d in zip(rows, dens):
        new = [SCALAR_ZERO] * cols
        for j, v in row.items():
            if j < cols:
                new[j] = Scalar(Fraction(v, d), new[j].im)
            else:
                new[j - cols] = Scalar(new[j - cols].re, Fraction(-v, d))
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
    """Exact row rank over the entry field."""
    _, rows, real = _scaled_rows(m)
    if real:
        return integer_rank(rows)
    return integer_rank(rows + _lower_rows(rows, m.cols)) // 2


def kernel_dim(m: ExactMatrix) -> int:
    return m.cols - rank(m)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a real square matrix.

    Fraction-free Gauss-Jordan on the sparse integer rows of [d*m | I]: each
    pivot column is cleared from every other row by _reduce, which leaves
    p_i * e_i on the left of row i and y_i on the right with y_i * d*m =
    p_i * e_i, so row i of the inverse is d * y_i / p_i.  Raises ValueError
    on a singular matrix and on a non-real entry.
    """
    if not m.is_square():
        raise ValueError("only square matrices have inverses")
    n = m.rows
    d, rows = _real_rows(m)
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


def jordan_structure(m: ExactMatrix, eigenvalues: Sequence) -> dict:
    """Identify the Jordan block sizes of m at each supplied eigenvalue.

    The multiplicity of blocks of size >= k at an eigenvalue v equals
    rank((m - v)^(k-1)) - rank((m - v)^k), so the whole structure is read
    off a rank filtration.  Returns {eigenvalue: Partition of block sizes},
    omitting eigenvalues of multiplicity zero.  Raises
    SpectrumMismatch when the supplied eigenvalues fail to account for the
    full dimension, e.g. when part of the spectrum lies outside Q(i).
    """
    if not m.is_square():
        raise ValueError("jordan_structure needs a square matrix")
    n = m.rows
    seen = set()
    result = {}
    total = 0
    for raw in eigenvalues:
        lam = _coerce(raw)
        if lam in seen:
            continue
        seen.add(lam)
        rows = [list(row) for row in m.data]
        for i, row in enumerate(rows):
            row[i] = row[i] - lam
        shifted = ExactMatrix(rows)
        if shifted.is_real():
            # d*(m - lam) has the same rank filtration for any d != 0
            ranks = _power_ranks(n, integer_rows(shifted), integer_rank, _integer_matmul)
        else:
            ranks = _power_ranks(n, shifted, rank, ExactMatrix.__mul__)
        multiplicity = n - ranks[-1]
        if multiplicity == 0:
            continue
        at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
        at_least.append(0)
        parts = []
        for size in range(len(at_least) - 1, 0, -1):
            parts.extend([size] * (at_least[size - 1] - at_least[size]))
        result[lam] = Partition(parts)
        total += multiplicity
    if total != n:
        raise SpectrumMismatch(
            "eigenvalues account for dimension %d of %d" % (total, n)
        )
    return result


def _power_ranks(n: int, shifted, rank_of, multiply) -> list:
    """[n, rank s, rank s^2, ...] for s = shifted, up to the first repeated rank."""
    ranks = [n]
    power = shifted
    while True:
        ranks.append(rank_of(power))
        if ranks[-1] == ranks[-2]:
            return ranks
        power = multiply(power, shifted)
