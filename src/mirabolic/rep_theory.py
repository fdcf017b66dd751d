"""Symbolic unitary representation labels and the restriction calculus.

Labels are formal products of the building blocks of the unitary dual of
GL_n over R and C: twisted characters, Speh blocks delta(t, m), Stein
blocks sigma(t, s) and Speh complementary blocks Delta(t, m, s).  A
mirabolic label is a pair (depth, GL label), standing for the
induce-extend tower I^(depth-1) E(label).

Restriction to the mirabolic subgroup acts factorwise: a character drops
one from its size at depth cost 1, Speh and Stein blocks at cost 2, Speh
complementary blocks at cost 4, and costs add over products.  The orbit
dictionaries attach labels through dual partitions: a class with partition
P contributes one factor per part of the dual of P.  Signs are keyed by
class position: the real classes lead an orbit's classes, so _check_signs
reads the caller's assignment once into a list whose entry i is the sign
tuple of class i, checked against sign_shape, the one place that shape is
worked out, and _attach is the one loop that turns classes into
factors, for an orbit and for the head of its dense image alike.  The
head's sign list comes from one merge walk of the head's and the orbit's
real classes, both by descending eigenvalue (_head_signs).
verify_restriction checks the caller's one assignment through _check_signs;
restriction_reports walks all_sign_choices lazily and takes each assignment
it generates as checked, since it has sign_shape's shape and 0/1 entries.
Both build a report by _report, which takes the dense image from the
surgery at the dense choices read off the orbit (moment._dense_image), with
no selection built or fitted, once per orbit object: it does not depend on
the signs, so the orbit keeps it in its _dense slot.  The merge walk
compares eigenvalues only where the head lost or gained a class, since the
surgery passes the others through unchanged.

A label keeps its factors sorted once, descending by Factor.sort_key, which
covers every field of a factor and so is also its identity for == and hash.
A factor computes that key once, in __init__ or _canonical, by _key alone,
and keeps it.  Restriction shrinks every factor by one, which keeps that
order, so the restricted label is built without sorting or validating
again; shrink builds the smaller factor through the trusted
Factor._canonical.  _attach builds its factors that way as well: the
classes come from a validated OrbitDatum, the signs from _check_signs and
the pair parameter from _attach's own half-integer check, so every field
already passes the constructor's checks.  The public constructors keep
every check on caller input.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import attrgetter
from typing import Iterable, List, Optional, Tuple

from .exact_linalg import _fraction, _integer
from .moment import _dense_image
# unused here; perfbench/tests checks these two import sites
from .moment import dense_selection, symbolic_image  # noqa: F401
from .orbit_model import COMPLEX, REAL, MirabolicOrbitDatum, OrbitDatum

__all__ = [
    "CHARACTER",
    "SPEH",
    "STEIN",
    "SPEH_CS",
    "UnsupportedOrbitShape",
    "Factor",
    "RepLabel",
    "MirabolicRepLabel",
    "character",
    "speh",
    "stein",
    "speh_complementary",
    "attach_gl_rep",
    "adduce",
    "restrict_to_mirabolic",
    "attach_mirabolic_rep",
    "sign_shape",
    "all_sign_choices",
    "verify_restriction",
    "restriction_reports",
    "RestrictionReport",
]

CHARACTER = "char"
SPEH = "speh"
STEIN = "stein"
SPEH_CS = "spehcs"

# the ambient size a factor spans per unit of t.  One restriction step takes
# one unit of t from every factor, so a factor's depth cost is the same
# number, and a label's size is the depth of its restriction plus the size of
# the shrunk label (criterion 8)
_UNIT = {CHARACTER: 1, SPEH: 2, STEIN: 2, SPEH_CS: 4}
_KIND_ORDER = {CHARACTER: 0, SPEH: 1, STEIN: 2, SPEH_CS: 3}
_HALF = Fraction(1, 2)


def _key(kind, t, twist, w, m, s) -> tuple:
    """Factor.sort_key of a factor with these fields."""
    return (twist, -_KIND_ORDER[kind], t, m or 0, s or 0, -w)


_SORT_KEY = attrgetter("_key")


class UnsupportedOrbitShape(Exception):
    """No attachment formula covers this orbit shape."""


class Factor:
    """One building block of a unitary label.  A t, m or w that is not an
    int, or a twist or s that is neither an int nor a Fraction, raises
    TypeError: nothing is rounded."""

    __slots__ = ("kind", "t", "twist", "w", "m", "s", "_key")

    def __init__(self, kind, t, twist=0, w=0, m=None, s=None):
        if kind not in _UNIT:
            raise ValueError("unknown factor kind %r" % (kind,))
        t = _integer(t, "factor size t")
        if t < 1:
            raise ValueError("factor size must be >= 1")
        self.kind = kind
        self.t = t
        self.twist = _fraction(twist)
        self.w = _integer(w, "sign exponent w")
        if self.w not in (0, 1):
            raise ValueError("sign exponent must be 0 or 1")
        if self.w and kind != CHARACTER:
            raise ValueError("a sign exponent only applies to characters")
        if kind in (SPEH, SPEH_CS):
            m = None if m is None else _integer(m, "Speh parameter m")
            if m is None or m < 1:
                raise ValueError("Speh parameter m must be a positive integer")
            self.m = m
        else:
            if m is not None:
                raise ValueError("m only applies to Speh factors")
            self.m = None
        if kind in (STEIN, SPEH_CS):
            s = _fraction(s)
            if not 0 < s < _HALF:
                raise ValueError("Stein parameter must lie strictly in (0, 1/2)")
            self.s = s
        else:
            if s is not None:
                raise ValueError("s only applies to Stein-type factors")
            self.s = None
        self._key = _key(kind, t, self.twist, self.w, self.m, self.s)

    @classmethod
    def _canonical(cls, kind, t, twist, w=0, m=None, s=None) -> "Factor":
        """Takes over fields that already pass every check of the
        constructor: an int t >= 1, a Fraction twist, an int w in (0, 1)
        and m, s as the kind requires."""
        f = object.__new__(cls)
        f.kind, f.t, f.twist, f.w, f.m, f.s = kind, t, twist, w, m, s
        f._key = _key(kind, t, twist, w, m, s)
        return f

    @property
    def span(self) -> int:
        """Ambient GL size this factor occupies."""
        return _UNIT[self.kind] * self.t

    @property
    def depth_cost(self) -> int:
        return _UNIT[self.kind]

    def shrink(self) -> Optional["Factor"]:
        """The factor left after one restriction step, or None when it vanishes."""
        if self.t == 1:
            return None
        # t - 1 >= 1 keeps every check of the constructor satisfied
        return Factor._canonical(self.kind, self.t - 1, self.twist, self.w, self.m, self.s)

    def sort_key(self):
        # labels sort by this key descending; it covers every field, so it
        # is also the factor's identity for == and hash
        return self._key

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "t": self.t, "twist": str(self.twist)}
        if self.kind == CHARACTER:
            obj["w"] = self.w
        if self.m is not None:
            obj["m"] = self.m
        if self.s is not None:
            obj["s"] = str(self.s)
        return obj

    def __eq__(self, other):
        if isinstance(other, Factor):
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        extra = ""
        if self.m is not None:
            extra += ", m=%d" % self.m
        if self.s is not None:
            extra += ", s=%s" % self.s
        if self.w:
            extra += ", w=1"
        return "%s(t=%d, twist=%s%s)" % (self.kind, self.t, self.twist, extra)


def character(t, twist=0, w=0) -> Factor:
    return Factor(CHARACTER, t, twist, w)


def speh(t, m, twist=0) -> Factor:
    return Factor(SPEH, t, twist, m=m)


def stein(t, s, twist=0) -> Factor:
    return Factor(STEIN, t, twist, s=s)


def speh_complementary(t, m, s, twist=0) -> Factor:
    return Factor(SPEH_CS, t, twist, m=m, s=s)


class RepLabel:
    """A product of factors, compared as a multiset."""

    __slots__ = ("field", "factors")

    def __init__(self, field: str, factors: Iterable[Factor] = ()):
        if field not in (REAL, COMPLEX):
            raise ValueError("field must be R or C")
        factors = tuple(sorted(factors, key=_SORT_KEY, reverse=True))
        for f in factors:
            if field == COMPLEX and f.kind in (SPEH, SPEH_CS):
                raise ValueError("Speh factors only exist over the real field")
            if field == COMPLEX and f.w:
                raise ValueError("sign twists only exist over the real field")
        self.field = field
        self.factors = factors

    @classmethod
    def _canonical(cls, field: str, factors: tuple) -> "RepLabel":
        """Takes over factors that are already valid over field and in the
        constructor's order."""
        label = object.__new__(cls)
        label.field = field
        label.factors = factors
        return label

    @property
    def size(self) -> int:
        return sum(f.span for f in self.factors)

    def __mul__(self, other):
        if not isinstance(other, RepLabel):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("cannot multiply labels over different fields")
        return RepLabel(self.field, self.factors + other.factors)

    def to_json(self) -> list:
        return [f.to_json() for f in self.factors]

    def __eq__(self, other):
        # factors are canonically sorted at construction, so tuple equality
        # is multiset equality
        if isinstance(other, RepLabel):
            return self.field == other.field and self.factors == other.factors
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.factors))

    def __repr__(self):
        if not self.factors:
            return "RepLabel(%s, 1)" % self.field
        return "RepLabel(%s, %s)" % (self.field, " x ".join(repr(f) for f in self.factors))


class MirabolicRepLabel:
    """A mirabolic unitary label I^(depth-1) E(adduced), of int depth."""

    __slots__ = ("depth", "adduced")

    def __init__(self, depth: int, adduced: RepLabel):
        depth = _integer(depth, "depth")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self.adduced = adduced

    def to_json(self) -> dict:
        return {"depth": self.depth, "factors": self.adduced.to_json()}

    def __eq__(self, other):
        if isinstance(other, MirabolicRepLabel):
            return self.depth == other.depth and self.adduced == other.adduced
        return NotImplemented

    def __hash__(self):
        return hash((self.depth, self.adduced))

    def __repr__(self):
        return "I^%dE(%r)" % (self.depth - 1, self.adduced)


def sign_shape(orbit: OrbitDatum) -> List[int]:
    """The group sizes of a sign assignment: over R one group per real class
    with one sign per part of its dual partition (its largest part), none
    over C."""
    if orbit.field == COMPLEX:
        return []
    return [cls.partition.largest() for cls in orbit.real_classes()]


def _check_signs(orbit: OrbitDatum, signs) -> list:
    """The caller's sign assignment as a list of sign tuples, entry i for
    orbit.classes[i]: the real classes lead the classes, so the list covers
    exactly them over R, and it is [] when the orbit takes no signs.  Raises
    TypeError on a sign that is not an int and ValueError on one that is not
    0 or 1 or on any shape but sign_shape(orbit), the one place that shape
    is worked out, so each sign comes out an int 0 or 1, ready for
    Factor._canonical.  signs may be any iterable (or None for none); it is
    read once, before any check, since an iterator is true even when
    empty."""
    if signs is not None:
        signs = list(signs)
    shape = sign_shape(orbit)
    if not shape:
        if signs:
            raise ValueError("sign assignment given but no real classes need one")
        return []
    if signs is None:
        raise ValueError(
            "real-field orbit with real classes needs a sign assignment "
            "(one 0/1 tuple per real class, one entry per dual-partition part)"
        )
    signs = [tuple(_integer(w, "sign exponent") for w in ws) for ws in signs]
    if [len(ws) for ws in signs] != shape:
        raise ValueError("expected sign tuples of sizes %s" % (shape,))
    if any(w not in (0, 1) for ws in signs for w in ws):
        raise ValueError("signs must be 0 or 1")
    return signs


def _attach(orbit: OrbitDatum, signs: list) -> RepLabel:
    """The label attached to orbit, with signs[i] the signs of class i and
    () past the end of the list.  A part of a real class beyond its entry
    (every part over C) takes sign 0, so no part is dropped; a pair class
    reads no sign.

    Every field is already checked, so the factors are built trusted: the
    classes come from a validated OrbitDatum (a Fraction eigenvalue, dual
    parts that are positive ints, pair classes over R only), the signs from
    _check_signs, and the pair parameter from the half-integer check here.
    The factors are sorted as RepLabel's constructor sorts them, by their
    sort key descending."""
    factors = []
    for i, cls in enumerate(orbit.classes):
        dual_parts = cls.partition.dual()
        re = cls.re
        if cls.is_pair:
            # im > 0, so 2 im is a positive int exactly when im's
            # denominator is 1 or 2
            im = cls.im
            if im.denominator > 2:
                raise UnsupportedOrbitShape(
                    "pair class at %s+-%si: imaginary part must be a positive "
                    "half-integer" % (re, im)
                )
            m = im.numerator * (2 // im.denominator)
            factors += [Factor._canonical(SPEH, p, re, 0, m) for p in dual_parts]
        else:
            ws = (signs[i] if i < len(signs) else ()) + (0,) * len(dual_parts)
            factors += [Factor._canonical(CHARACTER, p, re, w) for p, w in zip(dual_parts, ws)]
    factors.sort(key=_SORT_KEY, reverse=True)
    return RepLabel._canonical(orbit.field, tuple(factors))


def attach_gl_rep(orbit: OrbitDatum, signs=None) -> RepLabel:
    """The unitary label attached to a GL coadjoint orbit.

    Complex field: a class (a, P) contributes a twisted character of size p
    for every part p of the dual partition of P.  Real field: a real class
    does the same with the supplied sign exponents, and a conjugate-pair
    class (a, b, P) contributes Speh factors delta(p, 2b) provided 2b is a
    positive integer; any other pair parameter has no attachment formula
    and raises UnsupportedOrbitShape.
    """
    return _attach(orbit, _check_signs(orbit, signs))


def adduce(label: RepLabel) -> Tuple[int, RepLabel]:
    """Total restriction depth and the product of the shrunken factors.

    Factorwise: every factor contributes its depth cost, its size drops by
    one, and size-zero leftovers disappear.  Costs add over products.
    Shrinking every factor by one keeps their order, so the label is not
    sorted again.
    """
    depth = 0
    shrunk = []
    for f in label.factors:
        depth += f.depth_cost
        left = f.shrink()
        if left is not None:
            shrunk.append(left)
    return depth, RepLabel._canonical(label.field, tuple(shrunk))


def restrict_to_mirabolic(label: RepLabel) -> MirabolicRepLabel:
    """The mirabolic label of the restriction of a GL label."""
    if not label.factors:
        raise ValueError("cannot restrict the empty label")
    depth, shrunk = adduce(label)
    return MirabolicRepLabel(depth, shrunk)


def attach_mirabolic_rep(datum: MirabolicOrbitDatum, signs=None) -> MirabolicRepLabel:
    """The mirabolic label attached to a mirabolic orbit normal form."""
    return MirabolicRepLabel(datum.depth, attach_gl_rep(datum.a_part, signs))


def all_sign_choices(orbit: OrbitDatum):
    """Every admissible sign assignment for the orbit's real classes."""
    # an orbit that takes no signs has the one assignment None
    for combo in product(*(product((0, 1), repeat=k) for k in sign_shape(orbit))):
        yield list(combo) or None


class RestrictionReport:
    """Outcome of comparing a restriction with the dense-orbit attachment.
    signs is the checked assignment, int 0s and 1s, or None for none."""

    def __init__(self, orbit, signs, ok, restricted, attached, omega):
        self.orbit, self.signs, self.ok = orbit, signs, ok
        self.restricted, self.attached, self.omega = restricted, attached, omega

    def to_json(self) -> dict:
        return {
            "orbit": self.orbit.to_json(),
            "signs": [list(ws) for ws in self.signs] if self.signs else None,
            "restricted": self.restricted.to_json(),
            "omega": self.omega.to_json(),
            "attached": self.attached.to_json(),
            "ok": self.ok,
        }


def _head_signs(orbit: OrbitDatum, signs: list, head: OrbitDatum) -> list:
    """The signs of head's classes, for _attach, given the checked signs of
    orbit's.  A head class at the eigenvalue of a real orbit class keeps the
    signs of that class's dual parts of size >= 2 (a part of size one
    vanishes under restriction, and its sign with it); any other head class
    takes (), that is sign 0.  Both real classes run by descending
    eigenvalue, so one merge walk pairs them up; the surgery passes the
    eigenvalues through, so `is` settles a match before any comparison."""
    classes = orbit.classes
    out, j, count = [], 0, len(signs)
    for cls in head.classes:
        if cls.is_pair:
            break
        re, ws = cls.re, ()
        while j < count:
            source = classes[j]
            if source.re is not re and source.re > re:
                j += 1  # an orbit class that left the head
                continue
            if source.re is re or source.re == re:
                ws = tuple(w for w, p in zip(signs[j], source.partition.dual()) if p >= 2)
                j += 1
            break
        out.append(ws)
    return out


def _report(orbit: OrbitDatum, checked: list) -> RestrictionReport:
    """The RestrictionReport of the sign assignment checked, as
    _check_signs returns it.  The orbit's label is attached before the
    dense image omega is read (moment._dense_image forms it on the orbit's
    first report), so an orbit with no label raises first."""
    restricted = restrict_to_mirabolic(_attach(orbit, checked))
    omega = _dense_image(orbit)
    head = omega.a_part
    attached = MirabolicRepLabel(omega.depth, _attach(head, _head_signs(orbit, checked, head)))
    return RestrictionReport(orbit, checked or None, restricted == attached, restricted,
                             attached, omega)


def restriction_reports(orbit: OrbitDatum):
    """verify_restriction's report for every assignment of all_sign_choices,
    in that order and lazily, all with the orbit's one dense image.  Each
    assignment is generated in sign_shape's shape from 0 and 1, so it is
    already what _check_signs would return (None stands for [])."""
    for signs in all_sign_choices(orbit):
        yield _report(orbit, signs or [])


def verify_restriction(orbit: OrbitDatum, signs=None) -> RestrictionReport:
    """Check that restriction lands on the dense image orbit's attachment.

    Computes the label attached to the orbit, restricts it to the mirabolic
    subgroup, computes the dense moment-map image, attaches a mirabolic
    label to that image (with the induced signs), and compares.  A dual part
    of size one vanishes under restriction and its sign with it; the other
    parts keep theirs, so a head class takes the signs of its eigenvalue,
    and a head class the orbit cannot account for fails the check.
    """
    return _report(orbit, _check_signs(orbit, signs))
