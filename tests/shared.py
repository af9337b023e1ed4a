"""Draws, the product oracle and weighted Floer elements shared by
test_kernels.py, test_novikov.py and test_floer.py, one copy each."""

import math
from fractions import Fraction as F

from hypothesis import strategies as st

from torushms.floer import FloerElement, cf
from torushms.novikov import ZERO_TOL, NovikovSeries


def min_cut(a, b):
    return b if a is None else a if b is None else min(a, b)


def mul_oracle(a, b):
    """a * b before the integer-key kernel: cutoffs shifted by the
    valuations, every pair into one Fraction-keyed dict, then the public
    constructor."""
    cut_a = cut_b = None
    if a.cutoff is not None:
        shift = b.terms[0][0] if b.terms else b.cutoff
        cut_a = None if shift is None else a.cutoff + shift
    if b.cutoff is not None:
        shift = a.terms[0][0] if a.terms else a.cutoff
        cut_b = None if shift is None else b.cutoff + shift
    cut = min_cut(cut_a, cut_b)
    acc = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            e = ea + eb
            if cut is not None and e >= cut:
                continue
            acc[e] = acc.get(e, 0) + ca * cb
    return NovikovSeries(acc.items(), cut)


#: every coefficient type, signed zeros, and magnitudes at and next to
#: ZERO_TOL
EDGE_COEFFS = [
    0, 1, -1, 3, F(-2, 3), F(1, 7), -0.0, 0.0, 0.5, -1.0, 2.5,
    complex(-0.0, -0.0), complex(-0.0, 1.0), complex(1.0, -0.0), 1j, -1j,
    complex(-1.0, 0.0), ZERO_TOL, -ZERO_TOL, complex(0.0, ZERO_TOL),
    complex(-ZERO_TOL, -0.0), 2 * ZERO_TOL, -2 * ZERO_TOL,
    math.nextafter(ZERO_TOL, 1.0), math.nextafter(ZERO_TOL, 0.0),
]

any_coeff = st.one_of(
    st.sampled_from(EDGE_COEFFS),
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.floats(min_value=-1e3, max_value=1e3),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)

# exponents that collide, coefficients that cancel exactly (1, -1) or to
# a partial sum at or below ZERO_TOL (0.1 + 0.2 - 0.3, 2.1e-12 - 1.1e-12)
# that a later small term would carry, and cutoffs
SMALL = [2e-12, 2.1e-12, -1.1e-12, -1.5e-12]
colliding = st.builds(
    NovikovSeries,
    st.lists(
        st.tuples(
            st.sampled_from([F(0), F(1, 2), F(2), F(5, 2)]),
            st.sampled_from([1.0, -1.0, 0.1, 0.2, -0.3, 0.5 - 0.25j, 3j] + SMALL),
        ),
        max_size=4,
    ),
    st.sampled_from([None, F(2), F(3)]),
)


def at_zero(*coeffs):
    """The constants c, each a series at exponent 0."""
    return [NovikovSeries.constant(c) for c in coeffs]


def weighted(l0, l1, *entries):
    """Every generator of CF(l0, l1) weighted by the matrix of `entries`,
    row by row (one entry on a 1 x 1 space)."""
    space = cf(l0, l1)
    cols = space.hom_shape[1]
    m = [entries[i:i + cols] for i in range(0, len(entries), cols)]
    return FloerElement(space, {c: m for c in space.coords()})
