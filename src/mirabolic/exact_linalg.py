"""Exact dense linear algebra over Q and the Gaussian rationals Q(i).

Everything is computed with unbounded exact arithmetic: no tolerances, no
floating point.  Matrices are immutable; all operations are pure functions,
so values can be shared freely between threads.

Every rational rank goes through one integer kernel.  integer_rows reads a
real matrix as the sparse integer rows of d*m, d the least common
denominator of its entries, and integer_rank ranks sparse integer rows by
fraction-free elimination with the row content divided out.  rank on a real
matrix and the Jordan rank filtration at a rational eigenvalue both use it;
only non-real matrices and conjugate-pair eigenvalues take the Gaussian
elimination in _eliminate.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .partitions import Partition

__all__ = [
    "Scalar",
    "ExactMatrix",
    "SingularSylvester",
    "SpectrumMismatch",
    "block_diag",
    "rank",
    "integer_rows",
    "integer_rank",
    "kernel_dim",
    "solve_linear",
    "inverse",
    "sylvester_solve",
    "jordan_structure",
]


class SingularSylvester(Exception):
    """The map M -> M*B - C*M is singular and the system has no unique solution."""


class SpectrumMismatch(Exception):
    """The supplied eigenvalues do not exhaust the spectrum of the matrix."""


_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        return all(v.is_real() for row in self.data for v in row)

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
            cols = other.cols
            out = []
            for row in self.data:
                new = []
                for j in range(cols):
                    acc = SCALAR_ZERO
                    for k, a in enumerate(row):
                        if a.re or a.im:
                            acc = acc + a * other.data[k][j]
                    new.append(acc)
                out.append(new)
            return ExactMatrix(out)
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


def _eliminate(rows: list, ncols: int, reduce_up: bool = False) -> list:
    """In-place exact Gaussian elimination.

    Deterministic pivoting: first nonzero entry in column order.  Each pivot
    row is rescaled to a unit pivot, which keeps every entry gcd-reduced.
    Returns the list of pivot columns.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = SCALAR_ONE / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        targets = range(nrows) if reduce_up else range(r + 1, nrows)
        for i in targets:
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def integer_rows(m: ExactMatrix) -> list:
    """Rows of d*m as sparse {column: int} dicts, d the least common denominator.

    Read straight off each entry's numerator and denominator.  Raises
    ValueError on a non-real entry: the imaginary part is never dropped.
    """
    if not m.is_real():
        raise ValueError("integer rows need a real matrix; it has a non-real entry")
    d = lcm(1, *(v.re.denominator for row in m.data for v in row))
    return [
        {j: v.re.numerator * (d // v.re.denominator) for j, v in enumerate(row) if v.re}
        for row in m.data
    ]


def integer_rank(rows: Iterable[dict]) -> int:
    """Rank of sparse integer rows {column: nonzero int}; the rows are not modified.

    Builds an echelon form keyed by leading column.  Each incoming row is
    reduced against the stored row with its leading column, fraction-free
    (the two leading entries are cross-multiplied after dividing out their
    gcd), and the content of the result is divided out, so coefficients stay
    small and zero entries are never touched.
    """
    echelon = {}
    for row in rows:
        while row:
            lead = min(row)
            top = echelon.get(lead)
            if top is None:
                echelon[lead] = row
                break
            p, f = top[lead], row[lead]
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
            row = new
    return len(echelon)


def _integer_matmul(a: list, b: list) -> list:
    """Product of two square integer matrices given as sparse rows."""
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
    if m.is_real():
        return integer_rank(integer_rows(m))
    rows = [list(row) for row in m.data]
    return len(_eliminate(rows, m.cols))


def kernel_dim(m: ExactMatrix) -> int:
    return m.cols - rank(m)


def solve_linear(a: ExactMatrix, b) -> Optional[list]:
    """Solve a x = b exactly.

    b may be an n x 1 ExactMatrix or a sequence of scalars.  Returns one
    solution (free variables set to zero) or None when the system is
    inconsistent.
    """
    if isinstance(b, ExactMatrix):
        if b.cols != 1:
            raise ValueError("right-hand side must be a column")
        rhs = [row[0] for row in b.data]
    else:
        rhs = [_coerce(v) for v in b]
    if len(rhs) != a.rows:
        raise ValueError("dimension mismatch: %d rows vs %d entries" % (a.rows, len(rhs)))
    rows = [list(row) + [rhs[i]] for i, row in enumerate(a.data)]
    pivots = _eliminate(rows, a.cols, reduce_up=True)
    for i in range(len(pivots), len(rows)):
        if rows[i][a.cols]:
            return None
    solution = [SCALAR_ZERO] * a.cols
    for r, c in enumerate(pivots):
        solution[c] = rows[r][a.cols]
    return solution


def inverse(m: ExactMatrix) -> ExactMatrix:
    if not m.is_square():
        raise ValueError("only square matrices have inverses")
    n = m.rows
    rows = [list(row) + [SCALAR_ONE if i == j else SCALAR_ZERO for j in range(n)]
            for i, row in enumerate(m.data)]
    pivots = _eliminate(rows, n, reduce_up=True)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return ExactMatrix([row[n:] for row in rows])


def sylvester_solve(b: ExactMatrix, c: ExactMatrix, r: ExactMatrix) -> ExactMatrix:
    """Solve M*B - C*M = R for M exactly.

    B is t x t, C is s x s, R and the unknown M are s x t.  The associated
    linear operator is invertible exactly when B and C share no eigenvalue;
    otherwise SingularSylvester is raised.  The result is re-substituted
    into the equation before being returned.
    """
    if not b.is_square() or not c.is_square():
        raise ValueError("B and C must be square")
    t, s = b.rows, c.rows
    if r.rows != s or r.cols != t:
        raise ValueError("R must be %dx%d" % (s, t))
    nvars = s * t
    rows = []
    for p in range(s):
        for q in range(t):
            coeff = [SCALAR_ZERO] * nvars
            for k in range(t):
                coeff[p * t + k] = coeff[p * t + k] + b.data[k][q]
            for k in range(s):
                coeff[k * t + q] = coeff[k * t + q] - c.data[p][k]
            rows.append(coeff + [r.data[p][q]])
    pivots = _eliminate(rows, nvars, reduce_up=True)
    if len(pivots) != nvars:
        raise SingularSylvester(
            "B and C share an eigenvalue; the Sylvester system is not uniquely solvable"
        )
    flat = [SCALAR_ZERO] * nvars
    for row_idx, col in enumerate(pivots):
        flat[col] = rows[row_idx][nvars]
    m = ExactMatrix([flat[i * t : (i + 1) * t] for i in range(s)])
    if m * b - c * m != r:
        raise AssertionError("sylvester substitution check failed")
    return m


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
    identity = ExactMatrix.identity(n)
    for raw in eigenvalues:
        lam = _coerce(raw)
        if lam in seen:
            continue
        seen.add(lam)
        shifted = m - lam * identity
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
