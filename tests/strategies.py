"""Hypothesis strategies shared by the test modules."""
from fractions import Fraction

from hypothesis import strategies as st

from mirabolic import COMPLEX, REAL, EigenvalueClass, OrbitDatum
from mirabolic.partitions import Partition

RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def orbits_of_size_8_to_10(draw):
    """An orbit of size 8 to 10 over either field whose sign assignments
    have at most 6 signs, with eigenvalues p/q, |p|, q <= 10**6.  A pair's
    imaginary part is k/2, and now and then k/3, which no attachment
    formula covers."""
    field = draw(st.sampled_from([COMPLEX, REAL]))
    left, signs_left = draw(st.integers(8, 10)), 6
    classes = {}  # (re, im) -> parts
    while left:
        pair = field == REAL and left >= 2 and draw(st.booleans())
        if field == REAL and not pair and not signs_left:
            # no sign is left for a new real class: parts of size 1 join a
            # real class already drawn, whose signs they do not change
            next(p for (_, im), p in classes.items() if im is None).extend([1] * left)
            break
        degree = 2 if pair else 1
        weight = draw(st.integers(1, left // degree))
        signed = field == REAL and not pair
        largest = draw(st.integers(1, min(weight, signs_left) if signed else weight))
        parts = [largest]
        while sum(parts) < weight:
            parts.append(draw(st.integers(1, min(largest, weight - sum(parts)))))
        im = None
        if pair:
            im = Fraction(draw(st.integers(1, 6)), draw(st.sampled_from([2, 2, 2, 3])))
        re = draw(RATIONALS.filter(lambda r: (r, im) not in classes))
        classes[re, im] = parts
        left -= degree * weight
        signs_left -= largest if signed else 0
    return OrbitDatum(field, [EigenvalueClass(re, Partition(parts), im=im)
                              for (re, im), parts in classes.items()])
