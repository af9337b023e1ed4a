"""Branes, gradings, intersections and local systems: the exact index
predicates, the intersection enumerator, and parallel transport."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from torushms.errors import MarkerCollision, NonTransverse, NonUnit
from torushms.novikov import NovikovSeries
from torushms.torus import (
    Brane,
    LocalSystem,
    alpha0_floor_diff,
    bezout,
    canonical_direction,
    det2,
    index_of,
    intersections,
    is_primitive,
    lattice_denominator,
    mat_max_abs,
    mat_mul,
    upper_half,
)

F = Fraction


def phase(p, q) -> complex:
    return cmath.exp(2j * cmath.pi * p / q)


# ---------------------------------------------------------------------------
# slope predicates
# ---------------------------------------------------------------------------


def test_primitivity():
    assert is_primitive((1, 0)) and is_primitive((2, -3))
    assert not is_primitive((0, 0)) and not is_primitive((2, 4))


def test_canonical_direction_points_up_or_right():
    assert canonical_direction((0, -1)) == (0, 1)
    assert canonical_direction((-1, 2)) == (-1, 2)
    assert canonical_direction((1, -2)) == (-1, 2)
    assert canonical_direction((1, 2)) == (1, 2)
    assert canonical_direction((-1, 0)) == (1, 0)


def test_upper_half():
    assert upper_half((1, 0)) == 1
    assert upper_half((0, 1)) == 1
    assert upper_half((-1, 1)) == 1
    assert upper_half((0, -1)) == 0
    assert upper_half((-1, 0)) == 0


def alpha0_float(v) -> float:
    """Float oracle for alpha0 in [-1, 1): the negative x-axis sits at -1,
    as in the exact predicates."""
    a = math.atan2(v[1], v[0]) / math.pi
    return -1.0 if a == 1.0 else a


def test_angle_comparison_matches_float_oracle():
    """floor(alpha0(v) - alpha0(u)) from floats agrees with the exact
    predicate on every pair of primitive slopes in [-6, 6]^2; no float
    difference of non-parallel slopes there lies within 0.006 of an
    integer, so the floats decide each floor safely."""
    slopes = [
        (m, n)
        for m in range(-6, 7)
        for n in range(-6, 7)
        if is_primitive((m, n))
    ]
    for u in slopes:
        for v in slopes:
            if det2(u, v) == 0:
                with pytest.raises(NonTransverse):
                    alpha0_floor_diff(u, v)
                continue
            diff = alpha0_float(v) - alpha0_float(u)
            assert alpha0_floor_diff(u, v) == math.floor(diff), (u, v)


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

INDEX_TABLE = [
    ((1, 2), (1, 0), 0),
    ((1, 0), (1, 2), 1),
    ((0, -1), (1, 2), 1),
    ((1, 0), (0, -1), 0),
    ((1, 2), (0, -1), 0),
    ((0, -1), (1, 0), 1),
]


@pytest.mark.parametrize("v0,v1,expected", INDEX_TABLE)
def test_index_table(v0, v1, expected):
    assert index_of(Brane(v0), Brane(v1, F(1, 4))) == expected


def test_index_duality():
    rng = random.Random(17)
    pool = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1), (0, -1), (3, 1)]
    for _ in range(100):
        v0, v1 = rng.sample(pool, 2)
        if det2(v0, v1) == 0:
            continue
        l0 = Brane(v0, F(rng.randint(0, 6), 7))
        l1 = Brane(v1, F(rng.randint(0, 4), 5))
        assert index_of(l0, l1) + index_of(l1, l0) == 1


def test_index_shifts_with_grading_offsets():
    l0, l1 = Brane((1, 2)), Brane((1, 0), F(1, 3))
    base = index_of(l0, l1)
    assert index_of(l0.shifted(2), l1) == base - 2
    assert index_of(l0, l1.shifted(3)) == base + 3


def test_index_requires_transversality():
    with pytest.raises(NonTransverse):
        index_of(Brane((1, 2)), Brane((1, 2), F(1, 3)))


# ---------------------------------------------------------------------------
# intersections
# ---------------------------------------------------------------------------


def test_intersection_count_is_the_determinant():
    cases = [((1, 0), (0, 1), 1), ((1, 2), (1, 0), 2), ((1, 2), (2, 1), 3),
             ((1, 3), (2, -1), 7)]
    for v0, v1, count in cases:
        pts = intersections(Brane(v0), Brane(v1, F(1, 5)))
        assert len(pts) == count
        assert len(set(pts)) == count  # distinct mod 1


def points_of(l0: Brane, l1: Brane):
    """The coordinates of `intersections`: its integer pairs over
    `lattice_denominator`."""
    n = lattice_denominator(l0, l1)
    return tuple((F(x, n), F(y, n)) for x, y in intersections(l0, l1))


def test_intersection_points_lie_on_both_circles():
    l0, l1 = Brane((1, 2), F(1, 7)), Brane((2, -1), F(2, 5))
    for x, y in points_of(l0, l1):
        for l in (l0, l1):
            bx, by = l.base_point
            m, n = l.slope
            d = (x - bx) * n - (y - by) * m
            assert d.denominator == 1  # on the circle mod the lattice


def grid_intersections(l0: Brane, l1: Brane):
    """Reference enumerator: solve s*v0 - t*v1 = p1 - p0 + (j, k) over a
    (2B+1)^2 grid of lattice translates, B = sum of |slope entries| + 2,
    and deduplicate the points mod 1."""
    v0, v1 = l0.slope, l1.slope
    d = det2(v0, v1)
    if d == 0:
        raise NonTransverse(f"branes {l0} and {l1} are parallel")
    p0, p1 = l0.base_point, l1.base_point
    bound = abs(v0[0]) + abs(v0[1]) + abs(v1[0]) + abs(v1[1]) + 2
    found = set()
    for j in range(-bound, bound + 1):
        for k in range(-bound, bound + 1):
            rx = p1[0] - p0[0] + j
            ry = p1[1] - p0[1] + k
            s = F(rx * (-v1[1]) - ry * (-v1[0]), -d)
            found.add(((p0[0] + s * v0[0]) % 1, (p0[1] + s * v0[1]) % 1))
    assert len(found) == abs(d)
    marker_lifts = (
        (l0, (l0.marker_point[0] % 1, l0.marker_point[1] % 1)),
        (l1, (l1.marker_point[0] % 1, l1.marker_point[1] % 1)),
    )
    pts = tuple(sorted(found))
    for y in pts:
        for brane, mk in marker_lifts:
            if y == mk:
                raise MarkerCollision(
                    f"Pin marker of {brane} sits on intersection point {y}"
                )
    return pts


def _outcome(enumerate_points, l0, l1):
    try:
        return enumerate_points(l0, l1)
    except (NonTransverse, MarkerCollision) as exc:
        return type(exc), str(exc)


_entries = st.integers(min_value=-6, max_value=6)
_slopes = st.tuples(_entries, _entries).filter(is_primitive)
_shifts = st.builds(
    F,
    st.integers(min_value=0, max_value=11),
    st.sampled_from([1, 2, 5, 7, 11, 12]),
)
_branes = st.builds(
    Brane, _slopes, _shifts, st.integers(min_value=-3, max_value=3)
)
_modes = st.sampled_from(
    ["generic"] * 4
    + ["parallel", "antiparallel", "marker0", "marker1", "markers"]
)


def _with_marker_on(brane: Brane, y) -> Brane:
    """The brane with its Pin marker moved onto its crossing y.  Markers
    run along the canonical direction c, so the arc position is the a
    with base + a*c = y mod 1: with a*c_x + b*c_y = 1, it is
    a*(y - base)_x + b*(y - base)_y mod 1."""
    a, b = bezout(*canonical_direction(brane.slope))
    bx, by = brane.base_point
    arc = a * (y[0] - bx) + b * (y[1] - by)
    return Brane(brane.slope, brane.shift, brane.grading_offset, arc)


@settings(max_examples=120, deadline=None)
@given(_branes, _branes, _modes, st.integers(min_value=0, max_value=35))
def test_closed_form_matches_grid_scan(l0, l1, mode, pick):
    """Same points in the same order, and the same error for parallel
    slopes and marker collisions."""
    if mode in ("parallel", "antiparallel"):
        sign = 1 if mode == "parallel" else -1
        m, n = l0.slope
        l1 = Brane((sign * m, sign * n), l1.shift, l1.grading_offset)
    else:
        assume(det2(l0.slope, l1.slope) != 0)
        if mode != "generic":
            try:
                pts = points_of(l0, l1)
            except MarkerCollision:  # the default marker already collides
                pts = ()
            if pts:
                y = pts[pick % len(pts)]
                if mode != "marker1":
                    l0 = _with_marker_on(l0, y)
                if mode != "marker0":
                    l1 = _with_marker_on(l1, y)
    want = _outcome(grid_intersections, l0, l1)
    assert _outcome(points_of, l0, l1) == want


def test_bezout():
    for m in range(-9, 10):
        for n in range(-9, 10):
            if is_primitive((m, n)):
                a, b = bezout(m, n)
                assert a * m + b * n == 1
    with pytest.raises(ValueError):
        bezout(2, 4)


def test_marker_on_an_intersection_point_is_rejected():
    l0 = Brane((1, 0), marker=0)  # marker sits at the base point (0,0)
    l1 = Brane((0, 1))
    with pytest.raises(MarkerCollision):
        intersections(l0, l1)


def test_parallel_branes_are_rejected():
    with pytest.raises(NonTransverse):
        intersections(Brane((1, 1)), Brane((1, 1), F(1, 2)))
    with pytest.raises(NonTransverse):
        intersections(Brane((1, 1)), Brane((-1, -1), F(1, 2)))


def test_brane_shift_normalized_mod_one():
    assert Brane((1, 2), F(4, 3)) == Brane((1, 2), F(1, 3))
    assert Brane((1, 2), F(-1, 3)) == Brane((1, 2), F(2, 3))


def test_homology_class_flips_with_odd_grading():
    assert Brane((1, 2)).homology_class == (1, 2)
    assert Brane((1, 2), grading_offset=1).homology_class == (-1, -2)
    assert Brane((1, 2), grading_offset=2).homology_class == (1, 2)


# ---------------------------------------------------------------------------
# local systems
# ---------------------------------------------------------------------------


def test_eigenvalue_must_be_a_unit():
    with pytest.raises(NonUnit):
        LocalSystem.from_eigenvalue(NovikovSeries.q_power(1), 1)


def test_transport_is_a_one_parameter_group():
    e = LocalSystem.from_eigenvalue(phase(1, 7), 3)
    for s, t in [(F(1, 3), F(1, 4)), (F(2, 5), F(-1, 2)), (1, 1)]:
        lhs = e.transport(F(s) + F(t))
        rhs = mat_mul(e.transport(s), e.transport(t))
        diff = tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(lhs, rhs)
        )
        assert mat_max_abs(diff) < 1e-12


def mat_identity(n):
    one, zero = NovikovSeries.one(), NovikovSeries.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def test_transport_at_zero_and_one():
    e = LocalSystem.from_eigenvalue(phase(2, 5), 2)
    assert mat_max_abs(
        tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(e.transport(0), mat_identity(2))
        )
    ) < 1e-12
    mono = e.monodromy()
    # upper-triangular Jordan form with the eigenvalue on the diagonal
    lead = mono[0][0].leading_coefficient()
    assert abs(lead - phase(2, 5)) < 1e-12
    assert not mono[0][1].is_zero()


def test_inverse_eigen():
    e = LocalSystem.from_eigenvalue(2.0, 1)
    back = e.inverse_eigen()
    assert abs(back.blocks[0][0].leading_coefficient() - 0.5) < 1e-12


def test_block_size_must_be_an_integer():
    with pytest.raises(ValueError, match="integer"):
        LocalSystem(((1, 2.5),))


def test_local_system_has_no_frame():
    with pytest.raises(TypeError):
        LocalSystem(((1, 1),), ((2,),))
