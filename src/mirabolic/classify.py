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
Each step is a rank-one update of those rows over the denominator
d^2 * beta_p (scaling by the pivot beta_p of the restriction row instead of
dividing by it), after which one gcd is divided out.  Its cost follows the
entries it changes: only the rows with an entry in the pivot column, and
beta times the head, are combined with beta; every other row is only
scaled, by d * |beta_p|, and is kept as the same object when that scale,
after the gcd, is 1.  The loop keeps each live row and column under the
label it started with, in position order, so min(beta) is the least
position and no step reindexes a column or builds an ExactMatrix; the
labels are turned into positions once, at the head, when they are not
already 0..h-1, and for a certificate each step's positional conjugator is
derived from them.  One loop, _normal_form, runs the recursion from such a
label-keyed state and a first pivot: classify and classify_certified start
it from _state(x), the validated rows of x with the pivot min(beta), and
the moment map's oracle from its sibling _bordered, a bordered state.  Rows
are combined only by exact_linalg's kernels (_combination, _integer_matmul,
block_diag, ExactMatrix + and *); point_stabilizer_dim and stabilizer_dim
alone build their rows inline, because they are the inner loops of the
stabilizer ranks.  The head block
is identified from eigenvalue hints, a rational r for a real eigenvalue
and a pair (a, b) for a +- ib (exact_linalg.jordan_structure reads the
pair off the real quadratic (x - a)^2 + b^2).

point_stabilizer_dim ranks the whole matrix of the bracket map
Y -> [x, Y].  stabilizer_dim ranks a smaller system instead: the last row
of x, short of its corner, confines the upper-left block of a stabilizing
Y to the kernel of that row and then fixes Y's last column, so only
(n-1)(n-2) unknowns are eliminated ((n-1)^2 when the row vanishes and the
last column is free).  A normal form's stabilizer needs no rank: a normal
form of depth j and head orbit O has a stabilizer of dimension
gl_centralizer_dim(O) + (n - j).  At depth 1 the functional lives on the
Levi block and is stabilized by the centralizer of its head and by the
whole unipotent radical, of dimension n - 1.  A nonzero radical part
reduces a P_n-orbit to a P_(n-1)-orbit with a stabilizer of the same
dimension (Bernstein, LNM 1041, 1984), which is one step of the recursion
above.  check_geometry reads its image stabilizers off this law.  Both
stabilizer dimensions refuse a non-square matrix with ValueError.

The bordered state of an n x n representative x and a selection's 1-based
positions q_1 < ... < q_k is (d, rows, beta, p): the rows of d*x keyed by
their labels 0..n-1, beta = {q - 1: d} (x bordered below by the selection
vector v) and the first pivot p = q_k - 1.  The selection's group element g
is _completion(1, v, n, p), so the first step from this state is the
conjugation by g and forms no inverse.  _bordered_normal_form runs the
recursion from it: the normal form of pr'(g x g^-1), with no intermediate
matrix built.  _bordered_point forms g x g^-1 itself from that one step:
its head with the columns shifted down past p, then the step column t,
which the projection pr' drops, last.

Every conjugation step is deterministic, so classify is a pure function of
its input, and the conjugators can be accumulated into an exact certificate.
"""
from __future__ import annotations

from math import gcd
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
from .orbit_model import MirabolicOrbitDatum, OrbitDatum, orbit_from_matrix

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


def _step_conjugator(d: int, rows: dict, beta: dict, p, n: int) -> ExactMatrix:
    """The step of _conjugate_step at pivot label p as a conjugator at
    ambient size n: diag(M, I) with -t / e added in the representative's last
    column, for M = _completion at the positions of the labels."""
    position = {q: i for i, q in enumerate(rows)}
    s = len(rows)
    m = _completion(d, {position[j]: v for j, v in beta.items()}, s, position[p])
    e, t = _step_column(d, rows, beta, p)
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
    return _normal_form(*_state(x), x.rows, field, eigenvalues)[0]


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
    return _normal_form(*_state(x), x.rows, field, eigenvalues, ExactMatrix.identity(x.rows))


def _conjugate_step(d: int, rows: dict, beta: dict, p) -> tuple:
    """One step on the representative with head rows / d and last row beta / d
    (zero last column), at a cost set by the rows it changes.

    rows maps the label of each live row and column to its sparse integer
    row, in position order, and p is any label with beta_p != 0.  With H the
    head and M = _completion(d, beta, s, p) at the positions of the labels,
    M*H has the rows of H other than row p, then beta*H, and v*M^-1 has the
    entries v_q - t*beta_q for q != p, then t = v_p / beta_p.  With B =
    d*beta and each row v as an integer row V over d^2, that is B_p*V_q -
    V_p*B_q, then V_p*d, over d^2*B_p; the sign of B_p moves into the rows.
    A row with no entry at p is only scaled, by c = d*|B_p|, and is kept as
    it is when the scale left after the gcd is 1; only the rows with an
    entry at p and beta*H are combined with beta.

    Returns (e, head, top): M*H*M^-1 short of its last column is head with
    the row top last, over e, in lowest terms (one gcd divided out); head
    keeps the labels of rows but p.  _step_column gives the last column.
    """
    bp = beta[p]
    sign = 1 if bp > 0 else -1
    c = d * abs(bp)
    top = _integer_matmul([beta], rows)[0]
    top = _combination(abs(bp), top, -sign * top.get(p, 0), beta)  # clears column p
    touched = {q: _combination(c, v, -sign * d * v[p], beta)
               for q, v in rows.items() if p in v and q != p}
    e = g = d * c
    for row in (top, *touched.values()):
        if g == 1:
            break
        g = gcd(g, *row.values())
    for q, v in rows.items():  # the rows left alone are c*v
        if c % g == 0:
            break
        if q != p and q not in touched:
            g = gcd(g, c * gcd(*v.values()))
    head = {}
    for q, v in rows.items():
        if q in touched:
            v = touched[q] if g == 1 else {j: w // g for j, w in touched[q].items()}
        elif q == p:
            continue
        elif c != g:
            v = {j: c * w // g for j, w in v.items()}
        head[q] = v
    if g != 1:
        top = {j: w // g for j, w in top.items()}
    return e // g, head, top


def _step_column(d: int, rows: dict, beta: dict, p) -> tuple:
    """(e, t): the last column t / e of M*H*M^-1 for the step of
    _conjugate_step at label p, t listed in position order (the rows of
    head, then top) and e = d^2*|B_p|, with no gcd divided out."""
    bp = beta[p]
    f = (1 if bp > 0 else -1) * d
    t = [f * d * v.get(p, 0) for q, v in rows.items() if q != p]
    t.append(f * sum(b * rows[k].get(p, 0) for k, b in beta.items()))
    return d * d * abs(bp), t


def _state(x: ExactMatrix) -> tuple:
    """The start state (d, rows, beta, p) of the representative x, which it
    validates: the head rows of d*x keyed by labels 0..n-2, the last row
    beta and the pivot min(beta) (None when beta vanishes)."""
    _validate_representative(x)
    rows = dict(enumerate(x.numerators))
    beta = rows.pop(x.rows - 1)
    return x.denominator, rows, beta, min(beta, default=None)


def _normal_form(d, rows, beta, p, n, field, eigenvalues, cert=None):
    """(datum, cert): the depth recursion from the label-keyed state.

    The state is as for _conjugate_step: head rows / d keyed by labels in
    position order, restriction row beta / d and a pivot label p with
    beta_p != 0 for the first step; every later step pivots at min(beta).
    n is the size of the representative the state stands for, so the depth
    is n less the size of the head; a 0 x 0 head, at depth n, goes through
    orbit_from_matrix like any other.  cert, when given, is the product of
    the steps so far at ambient size n and is returned with each step put
    in front of it.
    """
    while beta:
        if cert is not None:
            cert = _step_conjugator(d, rows, beta, p, n) * cert
        # absorb the column t the unipotent radical can reach, then recurse
        d, rows, beta = _conjugate_step(d, rows, beta, p)
        p = min(beta, default=None)  # labels keep position order: the least position
    heads = rows.values()
    h = len(rows)
    if h and next(reversed(rows)) != h - 1:  # relabel the columns to positions once
        position = {q: i for i, q in enumerate(rows)}
        heads = [{position[j]: v for j, v in row.items()} for row in heads]
    head = ExactMatrix.from_integer(d, list(heads), h)
    return MirabolicOrbitDatum(n - h, orbit_from_matrix(head, field, eigenvalues)), cert


def _bordered(x: ExactMatrix, positions: Sequence[int]) -> tuple:
    """The bordered state (d, rows, beta, p) of x and the 1-based positions."""
    d = x.denominator
    return d, dict(enumerate(x.numerators)), {q - 1: d for q in positions}, positions[-1] - 1


def _bordered_normal_form(
    x: ExactMatrix, positions: Sequence[int], field: str, eigenvalues: Sequence
) -> MirabolicOrbitDatum:
    """Normal form of pr'(g x g^-1), by the recursion from the bordered state."""
    d, rows, beta, p = _bordered(x, positions)
    return _normal_form(d, rows, beta, p, len(rows), field, eigenvalues)[0]


def _bordered_point(x: ExactMatrix, positions: Sequence[int]) -> ExactMatrix:
    """g x g^-1 in full: the head of the first step of the bordered state, its
    columns shifted down past the pivot, with the step column t last."""
    d, rows, beta, p = _bordered(x, positions)
    e, head, top = _conjugate_step(d, rows, beta, p)
    f, t = _step_column(d, rows, beta, p)
    g, n = f // e, len(rows)  # g: the gcd _conjugate_step divided out
    moved = []
    for row, v in zip((*head.values(), top), t):
        row = {j - (j > p): g * w for j, w in row.items()}
        if v:
            row[n - 1] = v
        moved.append(row)
    return ExactMatrix.from_integer(f, moved, n)


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


def stabilizer_dim(x: ExactMatrix) -> int:
    """Dimension of the mirabolic stabilizer of the functional pr'(x).

    Y in the mirabolic algebra stabilizes pr'(x) exactly when [x, Y] pairs
    trivially with the whole algebra, i.e. when [x, Y] vanishes outside the
    last column.  Counted over the entry field (real dimension over R,
    complex over C).

    With m = n - 1, d*x = [[A, .], [c, .]] (the last column is never read)
    and Y = [[U, w], [0, 0]], that is [A, U] = w*c and c*U = 0.  For c != 0
    the columns of U lie in ker c, spanned by the columns c_p*e_q - c_q*e_p
    (q != p) of an integer m x (m - 1) matrix K, with p the last nonzero
    column of c (the first ranks the dense geometry points more slowly).
    So U = K*V, and a w with [A, U] = w*c exists, and is unique, exactly
    when [A, U]*K = 0, that is A*K*V*K = K*V*A*K.  For c = 0, K = I and w
    is free.  Only the (m - 1)*m or m*m entries of V are eliminated, not
    all n*(n - 1) of Y.
    """
    if not x.is_square():
        raise ValueError("a stabilizer dimension needs a square matrix")
    m = x.rows - 1
    if m < 1:
        return 0
    rows = [{j: v for j, v in row.items() if j < m} for row in x.numerators]
    c = rows.pop()
    if c:
        p = max(c)
        kcols = [{q: c[p], p: -c[q]} if q in c else {q: c[p]} for q in range(m) if q != p]
    else:
        kcols = [{q: 1} for q in range(m)]
    k = len(kcols)
    krows = [{} for _ in range(m)]
    for a, col in enumerate(kcols):
        for r, u in col.items():
            krows[r][a] = u
    akrows = _integer_matmul(rows, krows)
    akcols = [{} for _ in range(k)]
    for r, row in enumerate(akrows):
        for a, u in row.items():
            akcols[a][r] = u
    # row (a, b) of V -> A*K*V*K - K*V*A*K is (AK)[:, a] (x) K[b, :] minus
    # K[:, a] (x) (AK)[b, :], read at (r, s) as r*k + s
    brackets = []
    for a in range(k):
        for b in range(m):
            entries = {}
            for r, u in akcols[a].items():
                for s, v in krows[b].items():
                    entries[r * k + s] = u * v
            for r, u in kcols[a].items():
                for s, v in akrows[b].items():
                    key = r * k + s
                    w = entries.get(key, 0) - u * v
                    if w:
                        entries[key] = w
                    else:
                        del entries[key]
            brackets.append(entries)
    return k * m - integer_rank(brackets) + (0 if c else m)


def point_stabilizer_dim(z: ExactMatrix) -> int:
    """Dimension of the mirabolic stabilizer of the full coadjoint point pr(z).

    Here the vanishing is required against the whole matrix algebra, so the
    condition is [z, Y] = 0: the rank is that of the integer rows of
    [d*z, E_ij] over the mirabolic basis (all rows i but the last), with d
    the common denominator of z, which scales no rank.
    """
    if not z.is_square():
        raise ValueError("a stabilizer dimension needs a square matrix")
    n, rows = z.rows, z.numerators
    cols = [{} for _ in range(n)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    # [d*z, E_ij] puts column i of d*z into column j and minus row j of d*z
    # into row i, read at (r, c) as r*n + c
    brackets = []
    for i in range(n - 1):
        for j in range(n):
            entries = {r * n + j: v for r, v in cols[i].items()}
            for c, v in rows[j].items():
                key = i * n + c
                w = entries.get(key, 0) - v
                if w:
                    entries[key] = w
                else:
                    del entries[key]
            brackets.append(entries)
    return n * (n - 1) - integer_rank(brackets)


def gl_centralizer_dim(orbit: OrbitDatum) -> int:
    """Dimension of the GL centralizer of the orbit representative.

    Per class with partition lambda the commutant of its Jordan blocks has
    dimension sum_{i,j} min(lambda_i, lambda_j) = sum_k (lambda'_k)^2 for the
    dual partition lambda': min(lambda_i, lambda_j) counts the columns of
    the Young diagram holding rows i and j.  A pair class counts it degree
    = 2 times (its commutant is complex-linear, counted in real dimensions).
    """
    return sum(cls.degree * sum(c * c for c in cls.partition.dual()) for cls in orbit.classes)
