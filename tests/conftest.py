import random
import signal
from fractions import Fraction

import pytest

from mirabolic import (
    EigenvalueClass,
    ExactMatrix,
    OrbitDatum,
    Partition,
)
from mirabolic.corpus import complex_corpus, real_corpus


# the slowest test takes under 10 s; a wrong closed form can make the exact
# coefficients grow without bound, so a test past this deadline fails
DEADLINE_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        pytest.fail("test ran past its %d s deadline" % DEADLINE_S, pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def eliminate(rows: list, ncols: int) -> list:
    """Exact Gaussian elimination over Q on Fraction rows, in place, to row
    echelon form; returns the pivot columns.

    The package's former rank, kept as an independent reference for the
    integer kernel: first nonzero entry in column order as pivot, each pivot
    row rescaled to a unit pivot.
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
        inv = Fraction(1) / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def orbit(field, *classes):
    """orbit('C', (0, [2,1]), ...) or ('R', (0, '1/2', [1]), ...) for pairs."""
    built = []
    for spec in classes:
        if len(spec) == 2:
            re, parts = spec
            built.append(EigenvalueClass(Fraction(re), Partition(parts)))
        else:
            re, im, parts = spec
            built.append(EigenvalueClass(Fraction(re), Partition(parts), im=Fraction(im)))
    return OrbitDatum(field, built)


def example_27_matrix(n, a_values=None, b_values=None):
    """Diagonal head, dense last row, zero corner: the depth-n workhorse."""
    if a_values is None:
        a_values = list(range(1, n))
    if b_values is None:
        b_values = [1] * (n - 1)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, a in enumerate(a_values):
        rows[i][i] = Fraction(a)
    for j, b in enumerate(b_values):
        rows[n - 1][j] = Fraction(b)
    return ExactMatrix(rows)


@pytest.fixture(scope="session")
def complex_corpus_4():
    return list(complex_corpus(4))


@pytest.fixture(scope="session")
def real_corpus_4():
    return list(real_corpus(4, require_pair=True))


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240917)
