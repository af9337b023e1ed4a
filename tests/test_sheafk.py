"""K-theory of the curve through classification data.

A class is the triple (rank, degree, determinant point); short exact
sequences from the three generator families must land on zero defect,
with the integer components exactly zero and the point component zero
up to the numeric tolerance of the unit constants.
"""

import cmath
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushms import RelationBounds
from torushms.cobord import CobordClass, CurveClass
from torushms.errors import BadBase, BadGcd
from torushms.sheafk import (
    Bundle,
    K0Class,
    RelationTriple,
    SheafSum,
    Skyscraper,
    as_sum,
    iso_pair,
    k0_class,
    line_bundle,
    o_of_n_p0,
    relation_suite,
    ses_atiyah_coprime,
    ses_divisor,
    ses_jordan_tower,
)
from torushms.tate import TatePoint, conjugate_zero, point_mul, point_pow


def phase(t):
    return cmath.exp(2j * cmath.pi * float(t))


POINTS = (
    TatePoint.zero(),
    TatePoint.two_torsion(),
    TatePoint(F(1, 3), phase(F(1, 7))),
    TatePoint(F(2, 5), phase(F(2, 5))),
    TatePoint(F(1, 7), phase(F(1, 2))),
)


# ---------------------------------------------------------------------------
# formal sums
# ---------------------------------------------------------------------------


def test_sum_canonicalization():
    b = Bundle(1, 2, POINTS[2])
    s = SheafSum([(b, 1), (b, 2)])
    assert s.terms == ((b, 3),)
    assert (s - 3 * as_sum(b)).is_empty()
    assert SheafSum([(b, 0)]).is_empty()
    t = as_sum(b) + as_sum(Skyscraper(POINTS[3], 2))
    assert t.terms == tuple(sorted(t.terms, key=lambda kv: repr(kv[0])))
    assert (-s).terms == ((b, -3),)
    # a bare sheaf inside the iterable counts once
    c = Skyscraper(POINTS[3], 2)
    assert SheafSum([b, (c, 2)]) == SheafSum([(b, 1), (c, 2)])


def test_one_sheaf_sum_never_renders_its_sheaf(monkeypatch):
    b, c = Bundle(1, 2, POINTS[2]), Skyscraper(POINTS[3], 2)

    def no_repr(self):
        raise AssertionError("a one-sheaf sum rendered its sheaf")

    monkeypatch.setattr(Bundle, "__repr__", no_repr)
    monkeypatch.setattr(Skyscraper, "__repr__", no_repr)
    assert SheafSum(b).terms == ((b, 1),)
    assert SheafSum([(b, 1), (b, 2)]).terms == ((b, 3),)
    assert SheafSum([(b, 2), (c, 1), (c, -1)]).terms == ((b, 2),)
    assert (3 * as_sum(b) - as_sum(b)).terms == ((b, 2),)
    assert SheafSum([(b, 1), (b, -1)]).is_empty()


def test_class_and_sum_strings():
    """The `str` of a sum (zero, and two sheaves: a multiplicity of 1 is
    not written), of a K0 class and of the two cobordism classes."""
    p = TatePoint(F(1, 3), 1)
    unit = "pt(x=1/3, unit=(1.0+0.0i)*q^(0))"
    assert str(SheafSum()) == "0"
    two = SheafSum([(Bundle(2, 3, p), 1), (Skyscraper(p, 2, 1), -3)])
    assert str(two) == f"Bun(2,3,{unit}) + -3*Sky({unit},2)[1]"
    assert str(K0Class(2, -1, p)) == f"(2, -1, {unit})"
    assert str(CurveClass((1, 2), F(5, 3))) == "curve(v=(1, 2), flux=2/3)"
    assert str(CobordClass(F(-1, 4), (3, -2))) == "(3/4, (3, -2))"


def test_invalid_sheaves_rejected():
    with pytest.raises(ValueError):
        Bundle(0, 1, TatePoint.zero())
    with pytest.raises(ValueError):
        Skyscraper(POINTS[2], 0)


# ---------------------------------------------------------------------------
# classes of standard objects
# ---------------------------------------------------------------------------


def test_twist_line_classes():
    assert k0_class(o_of_n_p0(0)).approx_eq(K0Class(1, 0, TatePoint.zero()))
    one = k0_class(o_of_n_p0(1))
    assert (one.rk, one.deg) == (1, 1)
    assert one.pt.approx_eq(TatePoint.two_torsion())
    # even multiples of the two-torsion point collapse to the origin
    assert k0_class(o_of_n_p0(2)).pt.is_zero_point()


def test_line_bundle_of_divisor():
    p = POINTS[3]
    cls = k0_class(line_bundle([p], [TatePoint.zero()]))
    assert (cls.rk, cls.deg) == (1, 0)
    assert cls.pt.approx_eq(p)
    both = k0_class(line_bundle([p, POINTS[2]]))
    assert both.deg == 2
    assert both.pt.approx_eq(point_mul(p, POINTS[2]))


def test_skyscraper_class():
    p = POINTS[2]
    cls = k0_class(Skyscraper(p, 3))
    assert (cls.rk, cls.deg) == (0, 3)
    assert cls.pt.approx_eq(point_pow(p, 3))


def test_shift_flips_class():
    b = Bundle(2, 3, POINTS[2])
    assert k0_class(b.shifted(1)).approx_eq(-k0_class(b))
    assert k0_class(b.shifted(2)).approx_eq(k0_class(b))
    s = Skyscraper(POINTS[3], 2)
    assert k0_class(as_sum(s) + as_sum(s.shifted(1))).is_zero()


def test_class_separates_points():
    a = k0_class(Skyscraper(POINTS[2], 1))
    b = k0_class(Skyscraper(POINTS[3], 1))
    assert not a.approx_eq(b)
    assert not (a - b).is_zero()


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------


_sheaves = st.one_of(
    st.builds(
        Bundle,
        st.integers(1, 3),
        st.integers(-3, 3),
        st.sampled_from(POINTS),
        st.integers(0, 2),
    ),
    st.builds(
        Skyscraper,
        st.sampled_from(POINTS),
        st.integers(1, 3),
        st.integers(0, 2),
    ),
)
_sums = st.lists(
    st.tuples(_sheaves, st.integers(-2, 2)), max_size=4
).map(SheafSum)


@settings(max_examples=60, deadline=None)
@given(_sums, _sums)
def test_class_map_is_additive(a, b):
    lhs = k0_class(a + b)
    rhs = k0_class(a) + k0_class(b)
    assert lhs.approx_eq(rhs, 1e-9)


def test_class_group_axioms():
    z = K0Class.zero()
    c = k0_class(Bundle(2, -1, POINTS[4]))
    assert (c + z).approx_eq(c)
    assert (c - c).is_zero()
    assert (-(-c)).approx_eq(c)


# ---------------------------------------------------------------------------
# relation families
# ---------------------------------------------------------------------------


def test_divisor_sequence_relation():
    tri = ses_divisor(2, POINTS[2], POINTS[3])
    assert tri.label == "divisor"
    d = tri.k0_defect()
    assert (d.rk, d.deg) == (0, 0)
    assert tri.holds()


def test_coprime_bundle_relation():
    tri = ses_atiyah_coprime(3, 2, POINTS[3], 2)
    d = tri.k0_defect()
    assert (d.rk, d.deg) == (0, 0)
    assert tri.holds()
    with pytest.raises(BadGcd):
        ses_atiyah_coprime(1, 0, POINTS[3], 1)
    with pytest.raises(BadGcd):
        ses_atiyah_coprime(4, 2, POINTS[3], 1)


def test_jordan_tower_relation():
    assert ses_jordan_tower(Skyscraper(POINTS[2], 1), 3).holds()
    assert ses_jordan_tower(Bundle(2, 1, POINTS[3]), 2).holds()
    with pytest.raises(BadBase):
        ses_jordan_tower(Skyscraper(POINTS[2], 2), 1)
    with pytest.raises(BadBase):
        ses_jordan_tower(Skyscraper(POINTS[2], 1, shift=1), 1)
    with pytest.raises(BadBase):
        ses_jordan_tower(Bundle(2, 4, POINTS[3]), 1)
    with pytest.raises(ValueError):
        ses_jordan_tower(Skyscraper(POINTS[2], 1), 0)


def test_jordan_tower_needs_a_sheaf_base():
    with pytest.raises(BadBase, match="unsupported"):
        ses_jordan_tower(POINTS[2], 1)


def test_iso_pair_and_failing_triple():
    assert iso_pair(o_of_n_p0(1), Bundle(1, 1, TatePoint.two_torsion())).holds()
    bad = RelationTriple(
        as_sum(o_of_n_p0(0)), as_sum(o_of_n_p0(1)), as_sum(o_of_n_p0(0))
    )
    assert not bad.holds()
    assert (bad.k0_defect().rk, bad.k0_defect().deg) == (-1, 1)


def test_relation_suite_all_hold():
    triples = relation_suite(RelationBounds(), POINTS)
    assert len(triples) == 526
    for tri in triples:
        d = tri.k0_defect()
        assert (d.rk, d.deg) == (0, 0), tri.label
        assert d.pt.is_zero_point(1e-9), tri.label


def test_relation_suite_respects_bounds():
    small = relation_suite(RelationBounds(2, 1, 1, 1), POINTS[:2])
    assert all(tri.holds() for tri in small)
    labels = {tri.label for tri in small}
    assert labels == {"iso", "divisor", "atiyah-coprime", "jordan-tower"}


def test_relation_bounds_reject_negative_values():
    assert RelationBounds(0, 0, 0, 0).r_max == 0
    for bad in ((-1, 4, 3, 3), (4, -1, 3, 3), (4, 4, -1, 3), (4, 4, 3, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            RelationBounds(*bad)
