"""Data model for GL_n and mirabolic coadjoint orbits.

An OrbitDatum records a GL_n(k) coadjoint orbit (k = R or C) by its
eigenvalue classes, each carrying a partition of Jordan block sizes.  Over R
an eigenvalue class is either real or a conjugate pair a +- ib (b > 0); over
C the model only admits real rational eigenvalues, which is all the
representation dictionary ever produces.  As an eigenvalue hint (see
exact_linalg.jordan_structure) a real class is its rational eigenvalue and a
pair class the tuple (a, b).

A matrix's orbit datum is identified two ways, both through the one rank
filtration of exact_linalg.  orbit_from_matrix takes a caller's eigenvalue
hints and builds the classes it finds through the validating constructors.
_orbit_among takes an orbit whose classes the matrix's eigenvalues lie
among, such as the orbit a moved point came from, ranks at those classes'
eigenvalues in class order and keeps the classes found, in that order,
with no class or orbit checked or sorted again.

A MirabolicOrbitDatum is a mirabolic normal form: a depth j >= 1 (an int;
anything else raises TypeError) together with the GL_(n-j) orbit datum of
the block that precedes the regular nilpotent tail.

Functionals on the mirabolic Lie algebra are always carried as matrices with
last column zero (the complement of the pairing kernel), so structural
equality of matrices is equality of functionals.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, List, Sequence

from .exact_linalg import (
    ExactMatrix,
    SpectrumMismatch,
    _fraction,
    _integer,
    _jordan_partitions,
    block_diag,
    jordan_structure,
)
from .partitions import Partition

__all__ = [
    "REAL",
    "COMPLEX",
    "OrbitSpecError",
    "MAX_DECIMAL_EXPONENT",
    "parse_rational",
    "EigenvalueClass",
    "OrbitDatum",
    "MirabolicOrbitDatum",
    "jordan_block",
    "pair_block",
    "realize_orbit",
    "realize_normal_form",
    "project_to_p_star",
    "orbit_from_matrix",
    "orbit_from_json",
]

REAL = "R"
COMPLEX = "C"


class OrbitSpecError(ValueError):
    """Invalid orbit specification (bad field, duplicate classes, bad JSON) or
    an input value that is not a rational literal."""


# Fraction builds 10**e exactly, so a literal costs time and memory that grow
# with its exponent, not its length.  The repr of every finite float has an
# exponent of magnitude at most 324.
MAX_DECIMAL_EXPONENT = 1000

# the exponent of a literal in Fraction's grammar, which allows underscores
_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)\s*\Z")

# an error message quotes at most this many characters of a refused value
_ECHO = 40


def _echo(value) -> str:
    """repr(value) for an error message, cut to _ECHO characters plus its
    length when longer."""
    text = repr(value)
    if len(text) <= _ECHO:
        return text
    return "%s... (%d characters)" % (text[:_ECHO], len(text))


def parse_rational(value, where: str) -> Fraction:
    """The rational number that value's text spells: '3', ' -1/2', '0.25',
    '1e-3'.  An int is exact; a float is read through its repr (0.1 is 1/10),
    so digits beyond its precision are already lost.

    Raises OrbitSpecError naming where on anything else, booleans included,
    and on a decimal exponent of magnitude above MAX_DECIMAL_EXPONENT, which
    is refused before Fraction sees it.
    """
    text = str(value).strip()
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                or int(digits or 0) > MAX_DECIMAL_EXPONENT):
            raise OrbitSpecError("%s: decimal exponent beyond %d in %s"
                                 % (where, MAX_DECIMAL_EXPONENT, _echo(value)))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise OrbitSpecError("%s: not a rational number: %s" % (where, _echo(value))) from exc


class EigenvalueClass:
    """One eigenvalue class of an orbit: eigenvalue data plus a partition.

    im is None for a real eigenvalue; a positive rational im means the
    conjugate pair re +- i*im (real field only).  re and im are ints,
    Fractions or rational strings such as '1/3', read by parse_rational; a
    float raises TypeError.
    """

    __slots__ = ("re", "im", "partition")

    def __init__(self, re, partition: Partition, im=None):
        self.re = parse_rational(re, "re") if isinstance(re, str) else _fraction(re)
        if im is not None:
            im = parse_rational(im, "im") if isinstance(im, str) else _fraction(im)
            if im == 0:
                im = None
            elif im < 0:
                raise OrbitSpecError("pair class requires im > 0, got %s" % im)
        self.im = im
        if not isinstance(partition, Partition):
            partition = Partition(partition)
        if not partition:
            raise OrbitSpecError("eigenvalue class needs a nonempty partition")
        self.partition = partition

    @classmethod
    def _canonical(cls, re: Fraction, partition: Partition, im=None) -> "EigenvalueClass":
        """Takes over a Fraction re, a nonempty Partition and an im that is
        None or a positive Fraction, as the constructor leaves them."""
        c = object.__new__(cls)
        c.re, c.partition, c.im = re, partition, im
        return c

    @property
    def is_pair(self) -> bool:
        return self.im is not None

    @property
    def degree(self) -> int:
        """1, or 2 for a conjugate pair, whose blocks are real blocks of twice
        their size: how often the class counts in sizes, depths and centralizers."""
        return 2 if self.im is not None else 1

    @property
    def contribution(self) -> int:
        """Ambient size used up by this class."""
        return self.degree * self.partition.weight

    def sort_key(self) -> tuple:
        # orbits sort classes by this key descending (real classes first,
        # then (re, im) descending); it is also the eigenvalue's identity
        return (self.im is None, self.re, self.im or 0)

    def eigenvalue(self):
        """The class as an eigenvalue hint: re, or (re, im) for a pair."""
        if self.is_pair:
            return (self.re, self.im)
        return self.re

    def to_json(self) -> dict:
        obj = {"re": str(self.re)}
        if self.is_pair:
            obj["im"] = str(self.im)
        obj["partition"] = self.partition.to_json()
        return obj

    def __eq__(self, other):
        if isinstance(other, EigenvalueClass):
            return self.sort_key() == other.sort_key() and self.partition == other.partition
        return NotImplemented

    def __hash__(self):
        return hash((self.sort_key(), self.partition))

    def __repr__(self):
        ev = str(self.re) if not self.is_pair else "%s+-%si" % (self.re, self.im)
        return "EigenvalueClass(%s, %r)" % (ev, list(self.partition))


class OrbitDatum:
    """A GL_n(k) coadjoint orbit: field tag plus canonically sorted classes."""

    __slots__ = ("field", "classes", "_representative")

    def __init__(self, field: str, classes: Iterable[EigenvalueClass] = ()):
        if field not in (REAL, COMPLEX):
            raise OrbitSpecError("field must be %r or %r" % (REAL, COMPLEX))
        self.field = field
        ordered = tuple(sorted(classes, key=EigenvalueClass.sort_key, reverse=True))
        # duplicates have equal keys, so they are neighbours
        if any(a.sort_key() == b.sort_key() for a, b in zip(ordered, ordered[1:])):
            raise OrbitSpecError("duplicate eigenvalue classes: %r"
                                 % ([(c.re, c.im) for c in ordered],))
        if field == COMPLEX and any(c.is_pair for c in ordered):
            raise OrbitSpecError("pair classes are only allowed over the real field")
        self.classes = ordered
        self._representative = None

    @classmethod
    def _canonical(cls, field: str, classes: tuple) -> "OrbitDatum":
        """Takes over classes that are already valid over field, distinct and
        in the constructor's order."""
        o = object.__new__(cls)
        o.field = field
        o.classes = classes
        o._representative = None
        return o

    @property
    def size(self) -> int:
        return sum(c.contribution for c in self.classes)

    def spectrum(self) -> list:
        """One eigenvalue hint per class, in class order."""
        return [c.eigenvalue() for c in self.classes]

    def real_classes(self) -> List[EigenvalueClass]:
        return [c for c in self.classes if not c.is_pair]

    def to_json(self) -> dict:
        return {"field": self.field, "classes": [c.to_json() for c in self.classes]}

    def __eq__(self, other):
        if isinstance(other, OrbitDatum):
            return self.field == other.field and self.classes == other.classes
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.classes))

    def __repr__(self):
        return "OrbitDatum(%s, %r)" % (self.field, list(self.classes))


class MirabolicOrbitDatum:
    """Mirabolic orbit normal form: depth plus the orbit datum of the head block."""

    __slots__ = ("depth", "a_part")

    def __init__(self, depth: int, a_part: OrbitDatum):
        depth = _integer(depth, "depth")
        if depth < 1:
            raise OrbitSpecError("depth must be >= 1")
        self.depth = depth
        self.a_part = a_part

    @classmethod
    def _canonical(cls, depth: int, a_part: OrbitDatum) -> "MirabolicOrbitDatum":
        """Takes over an int depth >= 1."""
        datum = object.__new__(cls)
        datum.depth, datum.a_part = depth, a_part
        return datum

    @property
    def size(self) -> int:
        return self.depth + self.a_part.size

    def to_json(self) -> dict:
        return {"depth": self.depth, "a_part": [c.to_json() for c in self.a_part.classes]}

    def __eq__(self, other):
        if isinstance(other, MirabolicOrbitDatum):
            return self.depth == other.depth and self.a_part == other.a_part
        return NotImplemented

    def __hash__(self):
        return hash((self.depth, self.a_part))

    def __repr__(self):
        return "MirabolicOrbitDatum(depth=%d, a_part=%r)" % (self.depth, self.a_part)


def jordan_block(size: int, eigenvalue=0) -> ExactMatrix:
    """Jordan block with the eigenvalue on the diagonal and 1 below it."""
    lam = Fraction(eigenvalue)
    d = lam.denominator
    rows = []
    for i in range(size):
        row = {i - 1: d} if i else {}
        if lam:
            row[i] = lam.numerator
        rows.append(row)
    return ExactMatrix.from_integer(d, rows, size)


def pair_block(size: int, re, im) -> ExactMatrix:
    """The 2k x 2k real block [[J_k(a), b*I], [-b*I, J_k(a)]], built as
    block_diag(J, J) + T*b for the integer matrix T = [[0, I], [-I, 0]]."""
    j = jordan_block(size, re)
    rotation = ExactMatrix.from_integer(
        1, [{size + i: 1} for i in range(size)] + [{i: -1} for i in range(size)], 2 * size)
    return block_diag(j, j) + rotation * Fraction(im)


def realize_orbit(orbit: OrbitDatum) -> ExactMatrix:
    """Block-diagonal matrix representative of the orbit.

    Classes follow the canonical class order; inside a class the blocks are
    laid out with sizes ascending, which the selection position formulas
    rely on.  Built once and kept in a slot that ==, hash and to_json ignore.
    """
    if orbit._representative is None:
        blocks = []
        for cls in orbit.classes:
            for k, l in cls.partition.runs_ascending():
                block = pair_block(k, cls.re, cls.im) if cls.is_pair else jordan_block(k, cls.re)
                blocks += [block] * l  # matrices are immutable, so copies may share
        orbit._representative = block_diag(*blocks)
    return orbit._representative


def realize_normal_form(datum: MirabolicOrbitDatum) -> ExactMatrix:
    """Canonical matrix representative of a mirabolic normal form."""
    head = realize_orbit(datum.a_part)
    tail = jordan_block(datum.depth, 0)
    return project_to_p_star(block_diag(head, tail))


def project_to_p_star(x: ExactMatrix) -> ExactMatrix:
    """Canonical representative of the functional x induces on the mirabolic algebra.

    The pairing kernel is exactly the last column, so zeroing it picks the
    unique representative with last column zero.  Idempotent and linear.
    """
    if not x.is_square():
        raise ValueError("expected a square matrix")
    n = x.rows
    return ExactMatrix.from_integer(
        x.denominator,
        [{j: v for j, v in row.items() if j != n - 1} if n - 1 in row else row
         for row in x.numerators],
        n,
    )


def orbit_from_matrix(a: ExactMatrix, field: str, eigenvalues: Sequence) -> OrbitDatum:
    """Recognize the orbit datum of a concrete matrix from its Jordan structure.

    eigenvalues are hints as for jordan_structure; a pair (a, b) found in the
    spectrum is a pair class, which only the real field admits.
    """
    classes = []
    for lam, partition in jordan_structure(a, eigenvalues).items():
        if not isinstance(lam, tuple):
            classes.append(EigenvalueClass(lam, partition))
            continue
        re, im = lam
        if field != REAL:
            raise SpectrumMismatch(
                "non-real eigenvalue %s in a complex-field orbit datum"
                % ("%s+%si" % (re, im) if re else "%si" % im)
            )
        classes.append(EigenvalueClass(re, partition, im=im))
    return OrbitDatum(field, classes)


def _orbit_among(a: ExactMatrix, orbit: OrbitDatum) -> OrbitDatum:
    """The orbit datum of a square matrix a whose eigenvalues are among
    orbit's classes, which it takes as valid: the rank filtration of
    exact_linalg runs at the classes' eigenvalues, in class order, and the
    classes found are rebuilt on their partitions in that order.  A
    subsequence of canonical classes is canonical, so nothing is sorted,
    normalised or checked again.  Raises SpectrumMismatch when the classes
    leave part of a's dimension unaccounted for.
    """
    classes = orbit.classes
    found = _jordan_partitions(a, [cls.eigenvalue() for cls in classes])
    return OrbitDatum._canonical(orbit.field, tuple(
        EigenvalueClass._canonical(cls.re, partition, cls.im)
        for cls, (_, partition) in zip(classes, found) if partition))


def _parse_partition(raw, where: str) -> Partition:
    if not isinstance(raw, (list, tuple)):
        raise OrbitSpecError("%s: partition must be a list of integers" % where)
    for part in raw:
        # bool is an int subclass, and int() would truncate 2.5 to 2
        if isinstance(part, bool) or not isinstance(part, int):
            raise OrbitSpecError("%s: partition parts must be integers, got %r" % (where, part))
    try:
        return Partition(raw)
    except (TypeError, ValueError) as exc:
        raise OrbitSpecError("%s: %s" % (where, exc)) from exc


def orbit_from_json(obj) -> OrbitDatum:
    """Parse the JSON orbit spec {"field": "C"|"R", "classes": [...]}."""
    if not isinstance(obj, dict):
        raise OrbitSpecError("orbit spec must be a JSON object")
    field = obj.get("field")
    if field not in (REAL, COMPLEX):
        raise OrbitSpecError('field: expected "R" or "C", got %r' % (field,))
    raw_classes = obj.get("classes")
    if not isinstance(raw_classes, list):
        raise OrbitSpecError("classes: expected a list")
    classes = []
    for idx, raw in enumerate(raw_classes):
        where = "classes[%d]" % idx
        if not isinstance(raw, dict):
            raise OrbitSpecError("%s: expected an object" % where)
        re = parse_rational(raw.get("re", "0"), where + ".re")
        im_raw = raw.get("im")
        im = None
        if im_raw is not None:
            im = parse_rational(im_raw, where + ".im")
            if im == 0:
                im = None
        if im is not None and field != REAL:
            raise OrbitSpecError("%s: pair classes require the real field" % where)
        partition = _parse_partition(raw.get("partition"), where + ".partition")
        try:
            classes.append(EigenvalueClass(re, partition, im=im))
        except OrbitSpecError as exc:
            raise OrbitSpecError("%s: %s" % (where, exc)) from exc
    return OrbitDatum(field, classes)
