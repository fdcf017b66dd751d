"""Classification of mirabolic coadjoint functionals into normal forms.

classify() implements the depth recursion: read off the restriction of the
functional to the unipotent radical (the last row of the matrix
representative short of its corner).  If it vanishes the functional lives on
the Levi block and the head matrix is identified by its Jordan structure.
Otherwise a Levi conjugation moves the row to (0,...,0,1), the abelian
unipotent action absorbs one column, and the recursion continues one size
down with the depth counter incremented.

All arithmetic is exact over Q and runs on the stored form of
exact_linalg: a common denominator d and the sparse integer rows of d*x.
Each step is an O(s^2) rank-one update of those rows over the denominator
d^2 * beta_p (scaling by the pivot beta_p of the restriction row instead of
dividing by it), after which one gcd is divided out.  Rows are combined
only by exact_linalg's kernels (_combination, _integer_matmul, block_diag,
ExactMatrix + and *); _bracket_rank alone builds its rows inline, because
it is the inner loop of the stabilizer ranks.  The head block is
identified from eigenvalue hints, a rational r for a real eigenvalue and a
pair (a, b) for a +- ib (exact_linalg.jordan_structure reads the pair off
the real quadratic (x - a)^2 + b^2).

Every conjugation step is deterministic, so classify is a pure function of
its input, and the conjugators can be accumulated into an exact certificate.
"""
from __future__ import annotations

from typing import Sequence, Tuple

from .exact_linalg import (
    ExactMatrix,
    SpectrumMismatch,
    _combination,
    _integer_matmul,
    block_diag,
    integer_rank,
    inverse,
    rank,  # noqa: F401  unused here; perfbench/tests checks the tracer patches this import site
)
from .orbit_model import (
    MirabolicOrbitDatum,
    OrbitDatum,
    orbit_from_matrix,
)

__all__ = [
    "MalformedRepresentative",
    "classify",
    "classify_certified",
    "certificate_holds",
    "stabilizer_dim",
    "point_stabilizer_dim",
    "gl_centralizer_dim",
]


class MalformedRepresentative(Exception):
    """The input matrix is not a valid last-column-zero representative."""


def _validate_representative(x: ExactMatrix) -> None:
    if not x.is_square():
        raise MalformedRepresentative("representative must be square")
    n = x.rows
    if n == 0:
        raise MalformedRepresentative("empty matrix has no mirabolic functional")
    if any(n - 1 in row for row in x.numerators):
        raise MalformedRepresentative("representative must have zero last column")


def _completion(d: int, beta: dict, s: int, p: int) -> ExactMatrix:
    """Invertible s x s matrix whose last row is beta / d and whose other rows
    are the standard basis vectors e_q, q != p, in order.

    beta is a sparse integer row and p any column with beta_p != 0.
    Conjugating by diag(M, 1) with this M moves the unipotent-restriction
    row vector to (0,...,0,1).
    """
    rows = [{q: d} for q in range(s) if q != p]
    return ExactMatrix.from_integer(d, rows + [beta], s)


def _step_conjugator(m: ExactMatrix, e: int, t: Sequence[int], n: int) -> ExactMatrix:
    """diag(m, I) at ambient size n with -t / e added in column m.rows: the
    Levi conjugation of one step followed by the column shift that absorbs
    t / e."""
    s = m.rows
    column = [{s: -v} if v else {} for v in t] + [{} for _ in range(s, n)]
    return block_diag(m, ExactMatrix.identity(n - s)) + ExactMatrix.from_integer(e, column, n)


def classify(
    x: ExactMatrix,
    field: str,
    eigenvalues: Sequence = (),
) -> MirabolicOrbitDatum:
    """Normal form (depth, head orbit datum) of a mirabolic functional.

    eigenvalues are hints as for jordan_structure (a rational r, or a pair
    (a, b) for a +- ib) and must exhaust the spectrum of the eventual head
    block; SpectrumMismatch propagates from the Jordan identification when
    they do not (for instance when an eigenvalue is irrational).
    """
    datum, _ = _classify(x, field, eigenvalues, want_certificate=False)
    return datum


def classify_certified(
    x: ExactMatrix,
    field: str,
    eigenvalues: Sequence = (),
) -> Tuple[MirabolicOrbitDatum, ExactMatrix]:
    """classify together with the product of all conjugation steps.

    The second component g is a mirabolic group element; certificate_holds
    re-checks exactly that g x g^-1 is in staircase normal form with the
    recorded depth and head structure.
    """
    datum, cert = _classify(x, field, eigenvalues, want_certificate=True)
    return datum, cert


def _conjugate_step(d: int, rows: list, p: int) -> tuple:
    """One step on the s x s representative rows / d (zero last column), in O(s^2).

    beta = rows[s-1] / d, p is any column with beta_p != 0, H is the leading
    block and M = _completion(d, rows[s-1], s-1, p).  M*H has the rows of H
    other than row p, then beta*H, and v*M^-1 has the entries v_q - t*beta_q
    for q != p, then t = v_p / beta_p.  With B = d*beta and each row v as an
    integer row V over d^2, that is B_p*V_q - V_p*B_q, then V_p*d, over
    d^2*B_p; the sign of B_p moves into the rows.

    Returns (e, head, t): M*H*M^-1 is head / e with the column t / e last.
    """
    beta = rows[-1]
    bp = beta[p]
    sign = 1 if bp > 0 else -1
    top = _integer_matmul([beta], rows)[0]
    head, t = [], []
    for v, f in [(rows[q], sign * d) for q in range(len(rows) - 1) if q != p] + [(top, sign)]:
        vp = f * v.get(p, 0)
        new = _combination(f * bp, v, -vp, beta)  # clears column p
        head.append({j - (j > p): x for j, x in new.items()})
        t.append(vp * d)
    return d * d * abs(bp), head, t


def _classify(x, field, eigenvalues, want_certificate):
    _validate_representative(x)
    n = x.rows
    cert = ExactMatrix.identity(n) if want_certificate else None
    cur = x
    steps = 0
    while True:
        s, d, rows = cur.rows, cur.denominator, cur.numerators
        beta = rows[s - 1]
        if not beta:
            head = ExactMatrix.from_integer(d, rows[: s - 1], s - 1)
            a_part = orbit_from_matrix(head, field, eigenvalues)
            return MirabolicOrbitDatum(steps + 1, a_part), cert
        p = min(beta)
        e, head, t = _conjugate_step(d, rows, p)
        # absorb the column t the unipotent radical can reach, then recurse
        if want_certificate:
            cert = _step_conjugator(_completion(d, beta, s - 1, p), e, t, n) * cert
        cur = ExactMatrix.from_integer(e, head, s - 1)
        steps += 1


def certificate_holds(
    x: ExactMatrix,
    conjugator: ExactMatrix,
    datum: MirabolicOrbitDatum,
    field: str,
    eigenvalues: Sequence = (),
) -> bool:
    """Exact re-verification of a classification certificate.

    Checks that the conjugator is mirabolic (invertible, last row e_n) and
    that g x g^-1 carries the staircase shape of the recorded depth: unit
    subdiagonal entries with zeros to their left on the tail rows, a
    vanishing restriction row at the termination level, and a head block
    with exactly the recorded Jordan data.
    """
    n = x.rows
    if n == 0 or conjugator.rows != n or conjugator.cols != n:
        return False
    if conjugator.numerators[n - 1] != {n - 1: conjugator.denominator}:
        return False  # the last row is not e_n
    try:
        g_inv = inverse(conjugator)
    except ValueError:  # singular, so not a group element
        return False
    m = conjugator * x * g_inv
    rows, d = m.numerators, m.denominator
    j = datum.depth
    for k in range(j - 1):
        row = rows[n - 1 - k]
        if any(c < n - k - 2 for c in row) or row.get(n - k - 2) != d:
            return False
    if any(c < n - j for c in rows[n - j]):
        return False
    head = m.submatrix(0, n - j, 0, n - j)
    if n - j == 0:
        return not datum.a_part.classes
    try:
        recognized = orbit_from_matrix(head, field, eigenvalues)
    except SpectrumMismatch:
        return False
    return recognized == datum.a_part


def _bracket_rank(x: ExactMatrix, columns: int) -> int:
    """Rank of Y -> [x, Y] on the mirabolic algebra, read in columns 0..columns-1.

    The mirabolic algebra is spanned by E_ij over all rows i but the last.
    Each E_ij gives one sparse integer row: [d*x, E_ij] puts column i of d*x
    into column j and minus row j of d*x into row i, with d the common
    denominator of x, which scales no rank.
    """
    n = x.rows
    rows = x.numerators
    cols = [{} for _ in range(n)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    brackets = []
    for i in range(n - 1):
        for j in range(n):
            entries = {r * n + j: v for r, v in cols[i].items()} if j < columns else {}
            for c, v in rows[j].items():
                if c < columns:
                    key = i * n + c
                    w = entries.get(key, 0) - v
                    if w:
                        entries[key] = w
                    else:
                        del entries[key]
            brackets.append(entries)
    return integer_rank(brackets)


def stabilizer_dim(x: ExactMatrix) -> int:
    """Dimension of the mirabolic stabilizer of the functional pr'(x).

    Y in the mirabolic algebra stabilizes pr'(x) exactly when [x, Y] pairs
    trivially with the whole algebra, i.e. when [x, Y] vanishes outside the
    last column.  Counted over the entry field (real dimension over R,
    complex over C).
    """
    n = x.rows
    return n * (n - 1) - _bracket_rank(x, n - 1)


def point_stabilizer_dim(z: ExactMatrix) -> int:
    """Dimension of the mirabolic stabilizer of the full coadjoint point pr(z).

    Here the vanishing is required against the whole matrix algebra, so the
    condition is [z, Y] = 0.
    """
    n = z.rows
    return n * (n - 1) - _bracket_rank(z, n)


def gl_centralizer_dim(orbit: OrbitDatum) -> int:
    """Dimension of the GL centralizer of the orbit representative.

    Per class the commutant of a nilpotent-plus-eigenvalue block family has
    dimension sum over block size pairs of min(k, k') * l * l'; a conjugate
    pair class doubles this (its commutant is a complex-linear space counted
    in real dimensions).
    """
    total = 0
    for cls in orbit.classes:
        runs = cls.partition.runs_ascending()
        acc = 0
        for (k1, l1) in runs:
            for (k2, l2) in runs:
                acc += min(k1, k2) * l1 * l2
        total += (2 if cls.is_pair else 1) * acc
    return total
