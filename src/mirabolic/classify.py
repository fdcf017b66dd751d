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
labels are turned into positions once, at the head, and for a certificate
each step's positional conjugator is derived from them.  One loop,
_normal_form, runs the recursion from such a label-keyed state and a
first pivot and returns the head block as a matrix:
classify and classify_certified start it from the validated rows of x
with the pivot min(beta) (_classified), and the moment map's oracle from a
bordered state of the blocks its conjugation moves (moment.oracle_image).
Rows are combined only by exact_linalg's kernels (_combination,
_integer_matmul, block_diag, ExactMatrix + and *);
point_stabilizer_dim and stabilizer_dim both build their bracket rows
[X, E_ab] through _commutators, the inner loop of the stabilizer ranks.

The head's Jordan type is read off one rank filtration
(exact_linalg._jordan_partitions), which reads a pair a +- ib off the real
quadratic (x - a)^2 + b^2.  classify and classify_certified identify the
head through orbit_from_matrix, from the caller's eigenvalue hints (a
rational r for a real eigenvalue and a pair (a, b) for a +- ib), which it
checks.  The oracle's head is identified among the orbit's own classes
instead, by the direct-sum rule stated once in moment.oracle_image's
docstring.

point_stabilizer_dim ranks the whole matrix of the bracket map
Y -> [x, Y].  stabilizer_dim ranks at most a centralizer.  While the last
row c of x, short of its corner, is nonzero, a change of variables (see
its docstring) turns the stabilizer system of the pair (A, c), A the rest
of x short of its last column, into the stabilizer system of a pair
(A', c') one size down, with the same solution dimension: a nonzero
radical part reduces a P_n-stabilizer to a P_(n-1)-stabilizer of the same
dimension (Bernstein, LNM 1041, 1984).  Each step is a step of the
recursion above, _conjugate_step at the pivot max(c), whose new head and
last row are nonzero multiples of A' and c'; it needs no eigenvalue and no
classification.  When c vanishes, the stabilizer is the centralizer of the
m x m block left of A and a free last column; at full depth nothing is
left and nothing is ranked.  A Krylov rank of m vectors first checks
whether the last basis vector is cyclic, which proves the centralizer
m-dimensional; only when it is not is the bracket map ranked.
A normal form's stabilizer needs no rank: a normal form of depth j and
head orbit O has a stabilizer of dimension gl_centralizer_dim(O) + (n - j).
At depth 1 the functional lives on the Levi block and is stabilized by the
centralizer of its head and by the whole unipotent radical, of dimension
n - 1, and each further step of depth keeps the dimension, by the
reduction above.  check_geometry reads its image stabilizers off this law.
Both stabilizer dimensions refuse a non-square matrix with ValueError.

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
    return _classified(x, field, eigenvalues)[0]


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
    return _classified(x, field, eigenvalues, ExactMatrix.identity(x.rows))


def _classified(x: ExactMatrix, field: str, eigenvalues: Sequence, cert=None) -> tuple:
    """(datum, cert) of the recursion from the representative x, which it
    validates: the head rows of d*x keyed by labels 0..n-2, the last row
    beta and the pivot min(beta), the head identified by orbit_from_matrix
    from the caller's hints."""
    if not x.is_square():
        raise MalformedRepresentative("representative must be square")
    n = x.rows
    if n == 0:
        raise MalformedRepresentative("empty matrix has no mirabolic functional")
    if any(n - 1 in row for row in x.numerators):
        raise MalformedRepresentative("representative must have zero last column")
    rows = dict(enumerate(x.numerators))
    beta = rows.pop(n - 1)
    head, cert = _normal_form(x.denominator, rows, beta, min(beta, default=None), cert)
    return MirabolicOrbitDatum(n - head.rows, orbit_from_matrix(head, field, eigenvalues)), cert


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


def _normal_form(d, rows, beta, p, cert=None):
    """(head, cert): the depth recursion from the label-keyed state.

    The state is as for _conjugate_step: head rows / d keyed by labels in
    position order, restriction row beta / d and a pivot label p with
    beta_p != 0 for the first step; every later step pivots at min(beta).
    head is the block left when beta vanishes, as an ExactMatrix (0 x 0 at
    depth n), so the depth is the size the state stands for less its size.
    cert, when given, is the product of the steps so far at that size and
    is returned with each step put in front of it.
    """
    while beta:
        if cert is not None:
            cert = _step_conjugator(d, rows, beta, p, cert.rows) * cert
        # absorb the column t the unipotent radical can reach, then recurse
        d, rows, beta = _conjugate_step(d, rows, beta, p)
        p = min(beta, default=None)  # labels keep position order: the least position
    position = {q: i for i, q in enumerate(rows)}  # relabel the columns to positions once
    heads = [{position[j]: v for j, v in row.items()} for row in rows.values()]
    return ExactMatrix.from_integer(d, heads, len(rows)), cert


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


def _commutators(rows: Sequence[dict], k: int) -> list:
    """The integer rows of U -> X*U - U*X on the matrices U whose rows past
    the first k vanish, for X the square matrix of the sparse rows: one per
    E_ab (a < k) in row-major order, column a of X put in column b minus row
    b of X put in row a, read at (r, s) as r*n + s."""
    n = len(rows)
    cols = [{} for _ in range(n)]
    for r, row in enumerate(rows):
        for j, v in row.items():
            cols[j][r] = v
    brackets = []
    for a in range(k):
        for b, row in enumerate(rows):
            entries = {r * n + b: u for r, u in cols[a].items()}
            for s, v in row.items():
                key = a * n + s
                w = entries.get(key, 0) - v
                if w:
                    entries[key] = w
                else:
                    del entries[key]
            brackets.append(entries)
    return brackets


def stabilizer_dim(x: ExactMatrix) -> int:
    """Dimension of the mirabolic stabilizer of the functional pr'(x).

    Y in the mirabolic algebra stabilizes pr'(x) exactly when [x, Y] pairs
    trivially with the whole algebra, i.e. when [x, Y] vanishes outside the
    last column.  Counted over the entry field (real dimension over R,
    complex over C).

    With m = n - 1, d*x = [[A, .], [c, .]] (the last column is never read)
    and Y = [[U, w], [0, 0]], that is [A, U] = w*c and c*U = 0.  For c = 0
    the solutions are the centralizer of A and a free w, of dimension
    m^2 - rank(U -> A*U - U*A) + m.  For c != 0 take p, the last column
    with c_p != 0.  The columns c_p*e_q - c_q*e_p (q != p) of an integer
    m x (m - 1) matrix K span ker c, so U = K*V, and a w with
    [A, K*V] = w*c exists, and is unique, exactly when [A, K*V]*K = 0.
    Since c*e_p = c_p != 0, [K | e_p] is invertible, so V -> (W, v) =
    (V*K, V*e_p) is a bijection.  Write A*K = K*B + e_p*g.  The rows q != p
    of K are c_p*I, so A' = c_p*B is the rows q != p of A*K, and
    c' = c_p*g = c*A*K.  In the new variables [A, K*V]*K =
    K*(B*W - W*B - v*g) + e_p*(g*W), so the system is exactly [A', W] =
    v*c' and c'*W = 0: the stabilizer system of the pair (A', c') one size
    down (Bernstein's reduction of a P_n- to a P_(n-1)-stabilizer, LNM
    1041, 1984).  Entrywise, row q of A' is c_p*A[q, :] - A[q, p]*c and
    c' = c_p*(c*A) - (c*A)_p*c, each without its column p, which vanishes.
    That is the conjugation step of classify's recursion at p, on the
    state of denominator d with the rows A and c: for
    M = _completion(d, c, m, p), M^-1 = [K | d*e_p] / c_p, so M*(A/d)*M^-1
    short of its last column is A' / (d*c_p) with the last row
    c' / (d^2*c_p).  Over its denominator d^2*|c_p|, _conjugate_step(d, A,
    c, p) returns the rows s*d*A' and s*c', s the sign of c_p, with one
    positive gcd divided out of both: nonzero multiples l*A' and u*c'.
    Neither scale changes the solution dimension, since (W, v) solves the
    system of (A', c') exactly when (W, l*v/u) solves that of
    (l*A', u*c').  The loop steps down until c vanishes, and only the
    centralizer left is ranked (none once m reaches 0).  The centralizer
    of A has dimension m exactly when A is nonderogatory, and a cyclic
    vector proves that: if the row vectors e*A^i (i < m) of the last basis
    vector e have rank m, the dimension is m with no bracket rank.
    """
    if not x.is_square():
        raise ValueError("a stabilizer dimension needs a square matrix")
    m = x.rows - 1
    if m < 1:
        return 0
    # the rows of A and c, keyed by labels kept in position order
    rows = {i: {j: v for j, v in row.items() if j < m} for i, row in enumerate(x.numerators)}
    c = rows.pop(m)
    d = x.denominator
    while c:
        # the last column: the least, as classify pivots, left the heads of
        # random conjugates of size 16 to 24 at 24-37 bits against 15-22,
        # and took 1.15-1.6 times as long on them
        d, rows, c = _conjugate_step(d, rows, c, max(c))
    m = len(rows)
    if not m:
        return 0
    # a cyclic vector proves A nonderogatory, so that its centralizer is
    # the polynomials in A, of dimension m: try the last basis vector
    v = {next(reversed(rows)): 1}
    krylov = [v]
    for _ in range(m - 1):
        v = _integer_matmul([v], rows)[0]
        krylov.append(v)
    if integer_rank(krylov) == m:
        return 2 * m  # the centralizer and the free last column
    position = {q: i for i, q in enumerate(rows)}
    a = [{position[j]: v for j, v in row.items()} for row in rows.values()]
    return m * m - integer_rank(_commutators(a, m)) + m


def point_stabilizer_dim(z: ExactMatrix) -> int:
    """Dimension of the mirabolic stabilizer of the full coadjoint point pr(z).

    Here the vanishing is required against the whole matrix algebra, so the
    condition is [z, Y] = 0: the rank is that of the integer rows of
    [d*z, E_ij] over the mirabolic basis (all rows i but the last), with d
    the common denominator of z, which scales no rank.
    """
    if not z.is_square():
        raise ValueError("a stabilizer dimension needs a square matrix")
    n = z.rows
    # [d*z, E_ij] = d*z*E_ij - E_ij*d*z over the mirabolic rows i < n - 1
    return n * (n - 1) - integer_rank(_commutators(z.numerators, n - 1))


def gl_centralizer_dim(orbit: OrbitDatum) -> int:
    """Dimension of the GL centralizer of the orbit representative.

    Per class with partition lambda the commutant of its Jordan blocks has
    dimension sum_{i,j} min(lambda_i, lambda_j) = sum_k (lambda'_k)^2 for the
    dual partition lambda': min(lambda_i, lambda_j) counts the columns of
    the Young diagram holding rows i and j.  A pair class counts it degree
    = 2 times (its commutant is complex-linear, counted in real dimensions).
    """
    return sum(cls.degree * sum(c * c for c in cls.partition.dual()) for cls in orbit.classes)
