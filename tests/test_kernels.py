"""The kernels against one frozen oracle each: the code they replaced,
or, for the records, the dataclasses they were.

    kernel                                oracle
    NovikovSeries *, _fraction_multiple   mul_oracle (tests/shared.py)
    +, -, _RunningSum                     add_oracle (public constructor)
    _RunningSum.add_product               add_product_oracle
    fractional_power                      fractional_power_oracle
    invert                                invert_oracle (geometric series)
    theta_eval(_raw), section_through,    theta_oracle (stepping walk,
      eval_section                          repeated addition)
    lattice_window                        stepping_window_oracle
    mat_mul                               mat_mul_oracle (sums from zero())
    point_mul, conjugate_zero, point_pow  point_mul_oracle, conjugate_zero_oracle
    LocalSystem.transport                 transport_oracle (scratch blocks)
    mu2, mu2_triangles (every rank)       mu2_oracle (one loop, matrices)
    cli._generator, generator_element     generator_oracle
    vanishes, vanishes_truncated          vanishes_truncated_oracle, and
                                            value_vanishes_oracle
    relation_suite                        relation_suite_oracle
    TatePoint.is_zero_point               is_zero_point_oracle
    the records of torushms._record       record_oracle (dataclasses)

A kernel must give the same `repr` as its oracle (so the same exponents,
coefficient types, bits and signed zeros) on every draw, and a failing
draw the same error.  An oracle may call a kernel that is checked
elsewhere: a row above, the grid scan of `intersections`
(test_torus.py) or `mu2_bruteforce` (test_floer.py).  tests/mutants.json
records the mutants these tests kill; `python tests/mutants.py` re-runs
it.  The work-count tests pin what the kernels share: one inverse per
point in `eval_section`, one multi-term inversion per series object,
each power of eps formed once per mu2 call, and each shared piece of the
relation suite built once.  `vanishes` must match the per-entry loop of
`floer.vanishes_truncated` always, and `tate.value_vanishes` whenever
the series is exact or known no further than the requested cutoff, the
only case `section_through` produces.
"""

import ast
import cmath
import copy
import dataclasses
import functools
import math
import pickle
import re
from pathlib import Path
from fractions import Fraction as F
from typing import Dict, List, Optional

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import torushms._record as _record
import torushms.cli as cli
import torushms.cobord as cobord
import torushms.floer as floer
import torushms.mirror as mirror
import torushms.novikov as novikov
import torushms.sheafk as sheafk
import torushms.tate as tate
import torushms.torus as torus
from torushms.cli import (
    BraneAst, BunAst, DivAst, OP0Ast, PointAst, SkyAst, SumAst, _Tok,
)
from torushms.cobord import CobordClass, CurveClass
from torushms.errors import (
    DegenerateConfiguration, MarkerCollision, NonTransverse, ParseError,
)
from torushms.floer import (
    CFSpace, FloerElement, _chain, _count_markers, _ratio_along, cf,
    generator_element, mu2, mu2_triangles,
)
from torushms.novikov import (
    WINDOW_SLACK, ZERO_TOL, NovikovSeries, _binom, _fraction_multiple,
    _RunningSum, fractional_power, invert, lattice_bound, lattice_window, vanishes,
)
from torushms.mirror import MirrorPair
from torushms.sheafk import (
    Bundle, K0Class, RelationBounds, RelationTriple, SheafSum, Skyscraper,
    relation_suite,
)
from torushms.tate import (
    SectionCoeffs, TatePoint, conjugate_zero, eval_section, point_mul, point_pow,
    section_through, section_vanishes_at, theta_eval, theta_eval_raw,
)
from torushms.torus import (
    DEFAULT_MARKER, Brane, IntersectionPoint, LocalSystem, det2, index_of,
    mat_mul, mat_scale,
)

from shared import any_coeff, at_zero, colliding, min_cut, mul_oracle

# ---------------------------------------------------------------------------
# oracles: the code the kernels replaced
# ---------------------------------------------------------------------------


def _const(c):
    return NovikovSeries(((0, c),))


def add_oracle(a, b):
    return NovikovSeries(a.terms + b.terms, min_cut(a.cutoff, b.cutoff))


def neg_oracle(a):
    return NovikovSeries(tuple((e, -c) for e, c in a.terms), a.cutoff)


def truncated_oracle(a, cutoff):
    return NovikovSeries(a.terms, min_cut(a.cutoff, F(cutoff)))


def invert_oracle(a):
    v = a.val()
    c0 = a.leading_coefficient()
    eps = NovikovSeries(tuple((e - v, c / c0) for e, c in a.terms[1:]), a.cutoff - v)
    window = a.cutoff - v
    geo = NovikovSeries(((0, 1.0 + 0.0j),))
    term = geo
    step = truncated_oracle(neg_oracle(eps), window)
    if not step.is_zero():
        k_max = math.ceil(float(window) / float(step.val()))
        for _ in range(k_max + 1):
            term = truncated_oracle(mul_oracle(term, step), window)
            if term.is_zero():
                break
            geo = add_oracle(geo, term)
    inv_terms = tuple((e - v, c / c0) for e, c in geo.terms)
    return NovikovSeries(inv_terms, a.cutoff - 2 * v)


def fractional_power_oracle(u, t):
    """Finite-cutoff units only: every P_k rebuilt, binom(t, k) by the
    `_binom` loop, and `out = out + b * P_k`."""
    t = F(t)
    c0 = u.leading_coefficient()
    eps = mul_oracle(NovikovSeries(tuple(u.terms[1:]), u.cutoff), _const(1.0 / c0))
    scale = cmath.exp(t * cmath.log(c0)) if t != 0 else 1.0 + 0.0j
    if eps.is_zero():
        return NovikovSeries(((0, scale),), u.cutoff)
    window = u.cutoff
    out = power = NovikovSeries(((0, 1.0 + 0.0j),))
    k = 0
    k_max = math.ceil(float(window) / float(eps.val()))
    while k < k_max + 1:
        k += 1
        b = _binom(t, k)
        if b == 0:
            break
        power = truncated_oracle(mul_oracle(power, eps), window)
        if power.is_zero():
            break
        out = add_oracle(out, mul_oracle(power, _const(b)))
    return mul_oracle(out, _const(scale))


def theta_oracle(kind, x, unit, cutoff):
    """One power table per call, walked outward from the vertex of the
    exponent, up then down, each way stopping at the first exponent at
    or above the cutoff; each term a dict-of-Fractions product, summed
    by repeated addition.  The unit is checked by `tate._as_unit`, and
    its powers are formed by the series product and `invert`, as
    `theta_eval_raw` checks the unit and forms them."""
    x, unit, cutoff = F(x), tate._as_unit(unit), F(cutoff)
    if kind not in (0, 1):
        raise ValueError("theta kind must be 0 or 1")
    cache = {0: NovikovSeries(((0, 1.0 + 0.0j),))}
    inv = []

    def mpow(k):
        if k not in cache:
            if k > 0:
                cache[k] = mpow(k - 1) * unit
            else:
                if not inv:
                    inv.append(invert(unit))
                cache[k] = mpow(k + 1) * inv[0]
        return cache[k]

    if kind == 0:
        expo = lambda n: F(n * n) + 2 * n * x
        coef = lambda n: mpow(2 * n)
    else:
        expo = lambda n: F(2 * n + 1, 2) ** 2 + (2 * n + 1) * x
        coef = lambda n: neg_oracle(mpow(2 * n + 1))
    vertex = -x if kind == 0 else -x - F(1, 2)
    up = math.ceil(vertex)
    out = NovikovSeries((), cutoff)
    for start, step in ((up, 1), (up - 1, -1)):
        n = start
        while True:
            e = expo(n)
            if e >= cutoff:
                break
            out = add_oracle(out, mul_oracle(NovikovSeries(((e, 1),)), coef(n)))
            n += step
    return truncated_oracle(out, cutoff)


def stepping_window_oracle(c, X):
    """The k with (k + c)^2 < X, stepped outward from ceil(-c) and
    stopped each way at the first k that fails: the rule of the walks
    that `lattice_window` replaced."""
    up = math.ceil(-c)
    ks = []
    for start, step in ((up, 1), (up - 1, -1)):
        k = start
        while (k + c) ** 2 < X:
            ks.append(k)
            k += step
    return sorted(ks)


def mat_mul_oracle(a, b):
    """Every entry summed from `zero()`."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = NovikovSeries.zero()
            for k in range(inner):
                acc = add_oracle(acc, a[i][k] * b[k][j])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def point_mul_oracle(p, r):
    """The series product and negation, then `TatePoint.__init__`."""
    return TatePoint(p.x + r.x, -(p.unit * r.unit))


def conjugate_zero_oracle(p):
    """`invert` of the unit, then `TatePoint.__init__`."""
    return TatePoint(-p.x, invert(p.unit))


def transport_oracle(system, t):
    """Each Jordan block built in a scratch list, its diagonal formed as
    lam^t * binom(t, 0) * 1, then copied into the output matrix."""
    t = F(t)
    blocks_out = []
    for eig, size in system.blocks:
        lam_t = fractional_power(eig, t)
        inv_eig = invert(eig) if size > 1 else None
        block = [[NovikovSeries.zero() for _ in range(size)] for _ in range(size)]
        for k in range(size):
            coeff = lam_t * _binom(t, k) * (inv_eig ** k if k else 1)
            for i in range(size - k):
                block[i][i + k] = coeff
        blocks_out.append(block)
    n = system.rank
    out = [[NovikovSeries.zero() for _ in range(n)] for _ in range(n)]
    offset = 0
    for block in blocks_out:
        s = len(block)
        for i in range(s):
            for j in range(s):
                out[offset + i][offset + j] = block[i][j]
        offset += s
    return tuple(tuple(row) for row in out)


def _transports(brane):
    """t -> the brane's transport over t, formed once per arc within one
    mu2 call, every arc sharing the eps power tables of the eigenvalues."""
    system = brane.local_system
    tables = system._eps_tables()
    return functools.lru_cache(maxsize=None)(lambda t: system.transport(t, tables))


def mu2_oracle(phi2, phi1, cutoff, _collect: Optional[List[dict]] = None):
    """The walk, its boundary and the sum in one loop, every rank through
    four `mat_mul`s and `mat_scale` by q_power(area, sign), with a
    per-call transport dict and the triangle listing threaded through
    `_collect` as the JSON objects of `mu2 --triangles`."""
    b0, b1, b2, d01, d02, d12 = _chain(phi2, phi1)
    cutoff = F(cutoff)
    out_space = cf(b0, b2)
    if (d01 * d02 * d12) > 0:
        return FloerElement(out_space, {})
    assert index_of(b0, b2) == index_of(b0, b1) + index_of(b1, b2)
    i_y1 = index_of(b0, b1)
    v0, v1, v2 = b0.slope, b1.slope, b2.slope
    t0_of, t1_of, t2_of = _transports(b0), _transports(b1), _transports(b2)
    out_coords = set(out_space.coords())
    phi2_at = dict(phi2.components)
    rows, cols = out_space.hom_shape
    acc: Dict = {}
    start = NovikovSeries.zero(cutoff)
    base2v = det2(b2.base_point, v2)
    area_coeff = F(abs(d01), 2 * abs(d02 * d12))
    for y1c, a1 in phi1.components:
        r = base2v - det2(y1c, v2)
        if r.denominator == 1:
            raise DegenerateConfiguration(
                f"the three supports share a point over generator {y1c}"
            )

        def process(k: int) -> bool:
            u = k + r
            area = area_coeff * u * u
            if area >= cutoff:
                return False
            s = F(u, 1) / d02
            t = F(u, 1) / d12
            p0 = (y1c[0] + s * v0[0], y1c[1] + s * v0[1])
            p2 = (y1c[0] + t * v1[0], y1c[1] + t * v1[1])
            y0g = (p0[0] % 1, p0[1] % 1)
            y2g = (p2[0] % 1, p2[1] % 1)
            assert y0g in out_coords
            a2 = phi2_at.get(y2g)
            if a2 is None and _collect is None:
                return True
            d_arc = _ratio_along((p0[0] - p2[0], p0[1] - p2[1]), v2)
            crossings = (
                _count_markers(b0, y1c, p0)
                + _count_markers(b1, y1c, p2)
                + _count_markers(b2, p2, p0)
            )
            sign = (-1) ** i_y1 * (-1) ** (crossings + 1)
            if _collect is not None:
                ratios = [{"num": e.numerator, "den": e.denominator}
                          for e in (area, s, -t, -d_arc)]
                _collect.append({
                    "n": k, "corners": [[str(p[0]), str(p[1])] for p in (p0, y1c, p2)],
                    "area": ratios[0], "sign": sign, "arcs": ratios[1:],
                    "crossings": crossings, "output": [str(y0g[0]), str(y0g[1])],
                })
            if a2 is None:
                return True
            weight = NovikovSeries.q_power(area, sign)
            m = mat_mul(t2_of(-d_arc), mat_mul(a2, mat_mul(t1_of(-t),
                mat_mul(a1, t0_of(s)))))
            m = mat_scale(weight, m)
            sums = acc.get(y0g)
            if sums is None:
                sums = acc[y0g] = [
                    [_RunningSum(start) for _ in range(cols)] for _ in range(rows)
                ]
            for sum_row, m_row in zip(sums, m):
                for entry, x in zip(sum_row, m_row):
                    entry.add(x)
            return True

        kc = math.floor(-r)
        k = kc
        while process(k):
            k -= 1
        k = kc + 1
        while process(k):
            k += 1
    final = {
        c: tuple(tuple(x.series() for x in row) for row in sums)
        for c, sums in acc.items()
    }
    return FloerElement(out_space, final)


def mu2_triangles_oracle(phi2, phi1, cutoff):
    tris: List[dict] = []
    out = mu2_oracle(phi2, phi1, cutoff, _collect=tris)
    return out, tris


def add_product_oracle(shift, x, right, lefts):
    """The series `_RunningSum.add_product` adds: x * constant(right),
    then each left factor on the left, the last one at exponent shift."""
    p = x if right is None else x * NovikovSeries.constant(right)
    for i, c in enumerate(lefts):
        p = NovikovSeries.q_power(shift if i == len(lefts) - 1 else 0, c) * p
    return p


def generator_oracle(l0, l1, idx):
    """`cli._generator` before `floer.generator_element` built every
    generator: constant(1) on a 1 x 1 space, else the matrix unit e00."""
    space = cf(l0, l1)
    coords = space.coords()
    if not 0 <= idx < len(coords):
        raise ParseError(f"generator index {idx} out of range 0..{len(coords) - 1}")
    rows, cols = space.hom_shape
    if (rows, cols) == (1, 1):
        matrix = ((NovikovSeries.constant(1),),)
    else:  # the matrix unit e00
        one, zero = NovikovSeries.one(), NovikovSeries.zero()
        matrix = tuple(
            tuple(one if r == c == 0 else zero for c in range(cols))
            for r in range(rows)
        )
    return FloerElement(space, {coords[idx]: matrix})


def vanishes_truncated_oracle(elem, cutoff):
    """The loop of `floer.vanishes_truncated` before `novikov.vanishes`:
    each entry's window is min(cutoff, its cutoff) - WINDOW_SLACK."""
    window = F(cutoff)
    for _, m in elem.components:
        for row in m:
            for x in row:
                if x.is_zero():
                    continue
                eff = window if x.cutoff is None else min(window, x.cutoff)
                if x.val() < eff - WINDOW_SLACK:
                    return False
    return True


def value_vanishes_oracle(value, cutoff):
    """`tate.value_vanishes`: the window is the series' own cutoff when it
    has one, even above the requested cutoff."""
    window = value.cutoff if value.cutoff is not None else F(cutoff)
    return value.is_zero() or value.val() >= window - WINDOW_SLACK


#: records whose class wrote its own __init__ under dataclasses as well;
#: every other twin gets the __init__ dataclasses generates
_OWN_INIT = (TatePoint, SheafSum, FloerElement)


def _bundle_post_init(self):
    """Bundle's check, a `__post_init__` before Bundle wrote its __init__."""
    if self.rank < 1:
        raise ValueError("bundle rank must be >= 1")


def _record_defaults(cls):
    """The fields of `cls` that have a default, with the default."""
    slots = cls.__dict__.get("__slots__", ())
    return {
        name: cls.__dict__[name] for name in cls.__annotations__
        if name in cls.__dict__ and name not in slots
    }


def record_oracle(cls):
    """The `@dataclass(frozen=True)` class the record `cls` was: the same
    qualname, fields, defaults and `__post_init__`.  It subclasses `cls`
    for the properties and methods the constructor checks call;
    dataclasses writes its __init__, __repr__, __eq__, __hash__ and
    __setattr__.  (IntersectionPoint was `slots=True`, whose frozen
    __setattr__ raised TypeError for a name that is not a field; the twin
    has no slots of its own, so it raises AttributeError as the record
    does.)"""
    defaults = {
        name: dataclasses.field(default=value)
        for name, value in _record_defaults(cls).items()
    }
    namespace = {"__init__": cls.__init__} if cls in _OWN_INIT else {}
    if cls is Bundle:
        namespace["__post_init__"] = _bundle_post_init
    if cls is Brane:  # a fresh trivial system per brane, not a shared one
        defaults["local_system"] = dataclasses.field(
            default_factory=LocalSystem.trivial
        )
    fields = [
        (name, object, defaults[name]) if name in defaults else (name, object)
        for name in cls.__annotations__
    ]
    return dataclasses.make_dataclass(
        cls.__qualname__, fields, bases=(cls,), namespace=namespace, frozen=True
    )


def relation_suite_oracle(bounds, points):
    """`sheafk.relation_suite` before its families shared their pieces:
    one call per relation of the family constructors as they were then,
    each building its sheaves and sums afresh."""
    as_sum = sheafk.as_sum

    def divisor(d_deg, d_pt, q):
        total = Bundle(1, d_deg, d_pt)
        sub = Bundle(1, d_deg - 1, point_mul(d_pt, conjugate_zero(q)))
        return RelationTriple(
            as_sum(sub), as_sum(total), as_sum(Skyscraper(q, 1)), "divisor"
        )

    def atiyah(r, d, det_pt, n):
        sub = SheafSum([(Bundle(1, -3 * n, TatePoint.zero()), r - 1)])
        total = as_sum(Bundle(r, d, det_pt))
        quot = as_sum(Bundle(1, d + 3 * n * (r - 1), det_pt))
        return RelationTriple(sub, total, quot, "atiyah-coprime")

    def member(base, h):
        if isinstance(base, Skyscraper):
            return Skyscraper(base.pt, h)
        return Bundle(h * base.rank, h * base.degree, point_pow(base.det_pt, h))

    def tower(base, h):
        return RelationTriple(
            as_sum(member(base, 1)), as_sum(member(base, h + 1)),
            as_sum(member(base, h)), "jordan-tower",
        )

    out = []
    for n in range(-bounds.n_max, bounds.n_max + 1):
        out.append(sheafk.iso_pair(
            sheafk.o_of_n_p0(n), Bundle(1, n, point_pow(TatePoint.two_torsion(), n)),
        ))
    for d in range(-bounds.d_max, bounds.d_max + 1):
        for d_pt in points:
            for q in points:
                out.append(divisor(d, d_pt, q))
    for r in range(2, bounds.r_max + 1):
        for d in range(-bounds.d_max, bounds.d_max + 1):
            if math.gcd(r, abs(d)) != 1:
                continue
            for n in range(1, bounds.n_max + 1):
                for det_pt in points:
                    out.append(atiyah(r, d, det_pt, n))
    bases = [Skyscraper(p, 1) for p in points]
    for r in range(1, bounds.r_max + 1):
        for d in range(-bounds.d_max, bounds.d_max + 1):
            if math.gcd(r, abs(d)) == 1:
                bases.append(Bundle(r, d, points[0]))
    for base in bases:
        for h in range(1, bounds.h_max + 1):
            out.append(tower(base, h))
    return out


def is_zero_point_oracle(p, tol):
    """`TatePoint.is_zero_point` before its scalar path: every unit
    through the series difference."""
    return p.x == 0 and (p.unit - (-1)).max_abs_coeff() <= tol


def _outcome(f, /, *args, **kwargs):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# draws, shared by the tests below
# ---------------------------------------------------------------------------


def _q(lo, hi, den):
    """The rationals n/den for n in [lo, hi]; den an int or a strategy."""
    dens = st.just(den) if isinstance(den, int) else den
    return st.builds(F, st.integers(lo, hi), dens)


#: denominators 7 and 12 meet only at their lcm, 84
_den = st.sampled_from([1, 2, 3, 7, 12])
_expo = _q(-14, 40, _den)
_cutoff = st.one_of(st.none(), _expo)
_series = st.builds(
    NovikovSeries, st.lists(st.tuples(_expo, any_coeff), max_size=8), _cutoff
)
#: the start of each mu2 output entry: the zero series at the cutoff
_zero_at = st.sampled_from([F(1), F(5, 2), F(4)]).map(NovikovSeries.zero)

_phase = cmath.exp(2j * cmath.pi / 7)
#: constant units: ints, Fractions, floats and complex numbers, on the
#: unit circle and off it, with signed-zero parts
_constant_units = st.one_of(
    st.sampled_from(
        [1, -1, 1.0 + 0.0j, -1.0, 0.5, 2.5, 1j, complex(-0.0, 1.0), F(3, 2), _phase]
    ),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10),
)


@st.composite
def _units(draw, max_cutoff):
    """Valuation-zero units with a finite cutoff: c0 + higher terms."""
    rest = st.lists(st.tuples(_q(1, 3 * max_cutoff, _den), any_coeff), max_size=3)
    terms = [(0, draw(_constant_units))] + draw(rest)
    return NovikovSeries(terms, draw(_q(1, 12 * max_cutoff, 12)))


#: two-term units with a cutoff or none (whose inverse and fractional
#: powers are refused, on the kernel and the oracle path alike)
_two_term_units = st.builds(
    lambda c0, e, c1, cut: NovikovSeries(((0, c0), (e, c1)), cut),
    st.sampled_from([1, -1.0, 1j, _phase, cmath.exp(2j * cmath.pi / 5)]),
    st.sampled_from([F(1, 3), F(1, 2), F(1)]),
    st.sampled_from([0.5, -0.25j, F(1, 3), 1e-6]),
    st.sampled_from([F(4), F(12), None]),
)
#: series units: truncated, constant with a cutoff, and two-term
_series_units = st.one_of(
    _units(max_cutoff=2),
    st.builds(NovikovSeries.constant, st.sampled_from([1, -1.0, 2j]), _q(1, 24, 12)),
    _two_term_units,
)
#: eigenvalues of the branes' local systems: constant and two-term
#: units, and 1e-6, whose powers the drop rule removes
_eigen = st.one_of(_constant_units, _two_term_units, st.just(1e-6))
_any_unit = st.one_of(_eigen, _series_units)


@st.composite
def _systems(draw, max_rank):
    """Ranks 1 to max_rank split into Jordan blocks of any unit."""
    rank = draw(st.integers(1, max_rank))
    sizes = []
    while sum(sizes) < rank:
        sizes.append(draw(st.integers(1, rank - sum(sizes))))
    return LocalSystem(tuple((draw(_any_unit), size) for size in sizes))


_slope = st.sampled_from(
    [(m, n) for m in range(-3, 4) for n in range(-3, 4) if math.gcd(m, n) == 1]
)
_shift = _q(0, 11, st.sampled_from([1, 2, 3, 5, 7, 12]))
_marker = st.one_of(
    st.just(DEFAULT_MARKER), _q(0, 11, st.sampled_from([2, 3, 5, 7, 12, 64]))
)


def _branes(max_rank):
    """Branes with the trivial system or one Jordan block of rank 1 to
    max_rank."""
    system = st.one_of(
        st.just(LocalSystem.trivial()),
        st.builds(LocalSystem.from_eigenvalue, _eigen, st.integers(1, max_rank)),
    )
    return st.builds(Brane, _slope, _shift, st.integers(-1, 1), _marker, system)


_BRANES = {rank: _branes(rank) for rank in (1, 2, 3)}


_above_tol = math.nextafter(ZERO_TOL, 1.0)
_entry = st.builds(NovikovSeries.constant, st.sampled_from([1, -1, 0.5j, F(2, 3)]))
#: generator coefficients: one-term and multi-term, with and without a
#: cutoff, and one just above ZERO_TOL, which a phase can take below it
_weight = st.one_of(
    _entry,
    st.builds(NovikovSeries.q_power, _expo, st.sampled_from([2, -1j, 0.25])),
    st.builds(
        NovikovSeries.constant,
        st.sampled_from([1, 0.5j, _above_tol, _above_tol * _phase]),
        st.sampled_from([None, F(3), F(9, 2)]),
    ),
    st.builds(
        NovikovSeries,
        st.lists(st.tuples(_q(-2, 12, st.sampled_from([1, 2, 3])), any_coeff),
                 min_size=2, max_size=4),
        st.sampled_from([None, F(6), F(13, 2)]),
    ),
).filter(lambda x: not x.is_zero())


@st.composite
def _element(draw, l0, l1):
    """All generators of CF(l0, l1), or one of them: `_weight` on a 1 x 1
    space, `_entry` in each entry of a larger one."""
    space = cf(l0, l1)
    coords = space.coords()
    if not draw(st.booleans()):
        coords = (draw(st.sampled_from(coords)),)
    rows, cols = space.hom_shape
    weight = _weight if rows == cols == 1 else _entry
    return FloerElement(space, {
        c: [[draw(weight) for _ in range(cols)] for _ in range(rows)] for c in coords
    })


@st.composite
def _products(draw):
    """(phi2, phi1, cutoff) on three rank-1 branes, or three of rank 1 or 2."""
    branes = _BRANES[draw(st.sampled_from([1, 2]))]
    b0, b1, b2 = (draw(branes) for _ in range(3))
    try:
        phi1, phi2 = draw(_element(b0, b1)), draw(_element(b1, b2))
    except (NonTransverse, MarkerCollision):
        assume(False)
    return phi2, phi1, draw(_q(2, 32, 2))


#: the pinned series unit of the theta bridge: exp(2 pi i/7) + q^(1/3)/2
#: - i q^(1/2)/4, truncated at 12
_UNIT = NovikovSeries(((0, _phase), (F(1, 3), 0.5 + 0j), (F(1, 2), -0.25j)), 12)
#: x with denominators 1-13, 0 and values outside [0, 1) among them
_x = _q(-40, 40, st.integers(1, 13))

# ---------------------------------------------------------------------------
# kernels against their oracles
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_series, _series)
def test_product_matches_the_dict_of_fractions_product(a, b):
    assert repr(a * b) == repr(mul_oracle(a, b))
    assert repr(b * a) == repr(mul_oracle(b, a))


@settings(max_examples=250, deadline=None)
@given(_series, _series, any_coeff)
def test_sum_matches_the_constructor_sum(a, b, c):
    assert repr(a + b) == repr(add_oracle(a, b))
    assert repr(b + a) == repr(add_oracle(b, a))
    assert repr(a + c) == repr(add_oracle(a, NovikovSeries(((0, c),))))
    assert repr(a - b) == repr(add_oracle(a, neg_oracle(b)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_series, _zero_at),
       st.lists(st.one_of(_series, colliding), min_size=1, max_size=6))
@example(NovikovSeries.zero(1), at_zero(2e-12, -1.5e-12, 2e-12))  # below the tol
@example(NovikovSeries.zero(1), at_zero(2.1e-12, -1.1e-12, 2e-12))  # at the tol
def test_running_sum_matches_repeated_addition(start, addends):
    """The last two addends cancel the first one and bring it back, so
    partial sums reach zero (and are dropped) on the way."""
    first = addends[0]
    addends = addends + [neg_oracle(first), first]
    acc, want = _RunningSum(start), start
    for x in addends:
        acc.add(x)
        want = add_oracle(want, x)
        assert repr(acc.series()) == repr(want)


#: rationals at and next to ZERO_TOL, where constant(b) turns zero
_TOL_EDGE = [
    F(0), F(ZERO_TOL), -F(ZERO_TOL), F(math.nextafter(ZERO_TOL, 1.0)),
    F(math.nextafter(ZERO_TOL, 0.0)), F(1, 10 ** 12), F(1, 10 ** 12 - 1),
]


@settings(max_examples=300, deadline=None)
@given(_series, st.one_of(st.sampled_from(_TOL_EDGE),
                          _q(-10 ** 14, 10 ** 14, st.integers(1, 10 ** 14))))
def test_fraction_multiple_matches_the_operator(x, b):
    """Every coefficient type, and b at and next to ZERO_TOL."""
    got = _fraction_multiple(b.numerator, b.denominator, x)
    assert repr(got) == repr(mul_oracle(x, _const(b)))


@settings(max_examples=150, deadline=None)
@given(_units(max_cutoff=3), st.lists(_expo, min_size=1, max_size=4))
def test_shared_fractional_power_matches_the_unshared_oracle(u, ts):
    """One table of eps powers serves every exponent t, as in a mu2 call."""
    table = novikov._eps_powers(u)
    for t in ts:
        want = repr(fractional_power_oracle(u, t))
        assert repr(fractional_power(u, t, table)) == want
        assert repr(fractional_power(u, t)) == want


@settings(max_examples=150, deadline=None)
@given(_units(max_cutoff=3), _q(-6, 6, 12))
def test_invert_matches_the_geometric_series_oracle(u, shift):
    a = mul_oracle(u, NovikovSeries.q_power(shift))
    assert repr(invert(a)) == repr(invert_oracle(a))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0, 1, 0, 1, 2]),
    _x,
    st.one_of(  # and a non-unit, q^(1/2)
        _constant_units, _units(max_cutoff=2),
        st.sampled_from([_UNIT, NovikovSeries.q_power(F(1, 2))]),
    ),
    st.one_of(_q(-48, 256 * 4, 4), _q(-12, 36, 12)),  # up to 256, and empty windows
)
@example(1, F(0), 1, F(1, 4))  # kind 1 at x = 0 starts at 1/4: no term
@example(0, F(-7, 2), _UNIT, F(-49, 4))  # cutoff + x^2 = 0: no term
@example(0, F(5), -1, F(256))
def test_theta_with_one_table_matches_the_per_kind_oracle(kind, x, unit, cutoff):
    """`theta_eval_raw` at any x; then, at the point, both kinds from one
    power table, the section through it and its value there."""
    want = _outcome(theta_oracle, kind, x, unit, cutoff)
    assert repr(_outcome(theta_eval_raw, kind, x, unit, cutoff)) == repr(want)
    if kind == 2 or cutoff <= 0 or isinstance(want, tuple):
        return
    p, cutoff = TatePoint(x, unit), min(cutoff, 3)  # as the per-kind test did
    theta = [theta_oracle(k, p.x, p.unit, cutoff) for k in (0, 1)]
    powers = tate._unit_powers(p.unit)
    for kind in (1, 0):  # the order section_through asks for them
        assert repr(theta_eval(kind, p, cutoff, powers)) == repr(theta[kind])
        assert repr(theta_eval(kind, p, cutoff)) == repr(theta[kind])
    sec = section_through(p, cutoff)
    assert repr(sec) == repr(SectionCoeffs(theta[1], neg_oracle(theta[0])))
    value = eval_section(sec, p, cutoff)
    terms = [mul_oracle(sec.sigma0, theta[0]), mul_oracle(sec.sigma1, theta[1])]
    assert repr(value) == repr(add_oracle(*terms))


@st.composite
def _matrix_pairs(draw):
    """Exact zeros (mat_mul skips their products), zeros with a cutoff
    (multiplied) and any other series."""
    entry = lambda: draw(st.one_of(  # noqa: E731
        st.just(NovikovSeries.zero()), _expo.map(NovikovSeries.zero), _series
    ))
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))
    a = tuple(tuple(entry() for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(entry() for _ in range(cols)) for _ in range(inner))
    return a, b


@settings(max_examples=200, deadline=None)
@given(_matrix_pairs())
def test_mat_mul_matches_the_zero_start_oracle(pair):
    a, b = pair
    assert repr(mat_mul(a, b)) == repr(mat_mul_oracle(a, b))


# ---------------------------------------------------------------------------
# the scalar group law against the series group law
# ---------------------------------------------------------------------------

_signed_zero = st.sampled_from([0.0, -0.0])
#: |c| where c * c' or 1 / c lands at or next to ZERO_TOL, and ordinary sizes
_TOL_SIZES = [
    math.nextafter(ZERO_TOL, 1.0), 2 * ZERO_TOL, 1e-6,
    math.nextafter(1e-6, 0.0), math.nextafter(1e-6, 1.0),
    1 / ZERO_TOL, math.nextafter(1 / ZERO_TOL, 0.0),
    math.nextafter(1 / ZERO_TOL, math.inf), 0.5, 1.0, 3.0,
]
_size = st.one_of(
    st.sampled_from(_TOL_SIZES), st.floats(min_value=2 * ZERO_TOL, max_value=1e13)
)


def _shaped(draw, size):
    """A coefficient of magnitude `size` (a float, a complex with a
    signed-zero part, or a complex off the axes), or one of the ints
    +-1 and two Fractions."""
    size *= draw(st.sampled_from([1.0, -1.0]))
    shape = draw(st.sampled_from(["int", "fraction", "float", "re", "im", "turn"]))
    if shape == "int":
        return draw(st.sampled_from([1, -1]))
    if shape == "fraction":
        return draw(st.sampled_from([F(3, 2), F(-1, 7)]))
    if shape == "re":
        return complex(size, draw(_signed_zero))
    if shape == "im":
        return complex(draw(_signed_zero), size)
    if shape == "turn":
        return size * cmath.exp(2j * cmath.pi * draw(st.integers(1, 12)) / 13)
    return size


@st.composite
def _scalar_units(draw, partner=None):
    """One-term exact units; given a partner coefficient c, units whose
    product with c lands at or next to ZERO_TOL."""
    if partner is not None and draw(st.booleans()):
        size = ZERO_TOL / abs(partner)
        size = draw(st.sampled_from(
            [size, math.nextafter(size, 0.0), math.nextafter(size, math.inf)]
        ))
        assume(size > ZERO_TOL)
    else:
        size = draw(_size)
    return NovikovSeries.constant(_shaped(draw, size))


@st.composite
def _point_pairs(draw):
    p_unit = draw(st.one_of(_scalar_units(), _series_units))
    partner = p_unit.terms[0][1] if len(p_unit.terms) == 1 else None
    r_unit = draw(st.one_of(_scalar_units(partner), _series_units))
    return TatePoint(draw(_x), p_unit), TatePoint(draw(_x), r_unit)


def _assert_same_point(got, want):
    if isinstance(want, tuple):
        assert got == want  # the same exception type and message
        return
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)
    assert got == want and want == got
    assert type(got.x) is F


@settings(max_examples=400, deadline=None)
@given(_point_pairs())
@example((TatePoint(0, 1e-6), TatePoint(F(1, 2), 1e-6)))  # 1e-6 * 1e-6 == ZERO_TOL
@example((TatePoint(F(1, 3), 1e12), TatePoint(F(2, 3), -1)))  # 1.0 / 1e12 too
@example((TatePoint(F(5, 7), complex(-0.0, 1.0)), TatePoint(F(2, 7), -1)))
def test_scalar_group_law_matches_the_series_oracle(pair):
    """One-term exact units take the scalar path, every other unit and
    every coefficient the drop rule removes the series path."""
    for a, b in (pair, pair[::-1]):
        _assert_same_point(_outcome(point_mul, a, b), _outcome(point_mul_oracle, a, b))
    for q in pair:
        want = _outcome(conjugate_zero_oracle, q)
        _assert_same_point(_outcome(conjugate_zero, q), want)


@settings(max_examples=100, deadline=None)
@given(st.builds(TatePoint, _x, st.one_of(_scalar_units(), _units(max_cutoff=2))),
       st.integers(-12, 12))
def test_point_pow_matches_repeated_oracle_products(p, n):
    want = step = p if n >= 0 else _outcome(conjugate_zero_oracle, p)
    if not isinstance(step, tuple):
        want = TatePoint.zero()
        for _ in range(abs(n)):
            want = _outcome(point_mul_oracle, want, step)
            if isinstance(want, tuple):
                break
    _assert_same_point(_outcome(point_pow, p, n), want)


# ---------------------------------------------------------------------------
# local systems and the triangle product
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_systems(max_rank=3),
       st.lists(_q(-6, 6, st.sampled_from([1, 2, 3, 5, 12])), min_size=1, max_size=3))
def test_transport_matches_the_scratch_block_oracle(system, ts):
    tables = system._eps_tables()
    for t in ts:
        want = repr(_outcome(transport_oracle, system, t))
        assert repr(_outcome(system.transport, t, tables)) == want
        assert repr(_outcome(system.transport, t)) == want


def _weighted(l0, l1, weight):
    """Every generator of CF(l0, l1) weighted by the 1 x 1 `weight`."""
    return FloerElement(cf(l0, l1), {c: ((weight,),) for c in cf(l0, l1).coords()})


_L0, _L1, _L2 = Brane((0, -1), F(1, 4)), Brane((1, 2)), Brane((1, 0), F(1, 3))
_TINY_L0 = Brane((0, -1), F(1, 4), local_system=LocalSystem.from_eigenvalue(1e-6))
_C = NovikovSeries.constant


@settings(max_examples=200, deadline=None)
@given(_products())
# phi1 at q^(1/2): the exponent of the scalars folded before phi2's series
@example((_weighted(_L1, _L2, NovikovSeries(((0, 1), (F(1, 2), 0.5)), F(6))),
          _weighted(_L0, _L1, NovikovSeries.q_power(F(1, 2), 2)), F(8)))
# 2e-12 * (1e-6)^(1/6) drops to zero on the smallest triangle: it adds
# no term and, unlike its neighbours, no cutoff
@example((_weighted(_L1, _L2, _C(1, F(3))), _weighted(_TINY_L0, _L1, _C(2e-12)), F(8)))
# (1e-6)^s drops to zero on the arcs s >= 2, before the generator 1e6
# would lift it back above ZERO_TOL
@example((_weighted(_L1, _L2, _C(1)), _weighted(_TINY_L0, _L1, _C(1e6)), F(8)))
def test_mu2_walk_matches_the_one_loop_oracle(product):
    """Ranks 1 and 2: the rank-1 path and the matrix loop of `floer._sum`
    against one matrix loop, and the triangle listing."""
    assert repr(_outcome(mu2, *product)) == repr(_outcome(mu2_oracle, *product))
    got = _outcome(mu2_triangles, *product)
    want = _outcome(mu2_triangles_oracle, *product)
    if isinstance(want[0], FloerElement):
        assert repr(got[0]) == repr(want[0])
        assert [cli._triangle_json(tri) for tri in got[1]] == want[1]
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(st.data(), _BRANES[3], _BRANES[3])
def test_generator_element_matches_the_cli_generator_oracle(data, l0, l1):
    try:
        coords = cf(l0, l1).coords()
    except (NonTransverse, MarkerCollision):
        assume(False)
    idx = data.draw(st.integers(-1, len(coords)))
    want = repr(_outcome(generator_oracle, l0, l1, idx))
    assert repr(_outcome(cli._generator, l0, l1, idx)) == want
    if 0 <= idx < len(coords):
        assert repr(generator_element(l0, l1, coords[idx])) == want


def _exponents_of_operands(result, *operands):
    """Every exponent of `result` is an exponent object of an operand."""
    return all(
        any(e is f for x in operands for f, _ in x.terms) for e, _ in result.terms
    )


@settings(max_examples=200, deadline=None)
@given(_series, st.lists(st.one_of(_series, colliding), min_size=1, max_size=4))
def test_sums_return_their_operands_exponent_objects(start, addends):
    acc = _RunningSum(start)
    for x in addends:
        assert _exponents_of_operands(start + x, start, x)
        assert _exponents_of_operands(x - start, x, start)
        acc.add(x)
    assert _exponents_of_operands(acc.series(), start, *addends)


# ---------------------------------------------------------------------------
# work shared within one call
# ---------------------------------------------------------------------------


def test_eval_section_inverts_the_unit_once(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return invert(a)

    monkeypatch.setattr(tate, "invert", counted)
    p = TatePoint(F(1, 3), _UNIT)
    flat = SectionCoeffs(NovikovSeries.one(), NovikovSeries.one())
    eval_section(flat, p, 8)
    assert calls == [p.unit]
    calls.clear()
    section_through(p, 8)
    assert calls == [p.unit]


def test_a_series_unit_is_inverted_once_per_object(monkeypatch):
    """conjugate_zero twice on one point forms one multi-term inverse;
    units equal by `==` but with int, float and complex coefficients each
    get the inverse of their own coefficients (the complex one's repr
    differs), so the stored inverses are not keyed by value."""
    formed = []
    real = novikov._series_inverse

    def counted(a):
        formed.append(a)
        return real(a)

    monkeypatch.setattr(novikov, "_series_inverse", counted)
    p = TatePoint(F(1, 3), NovikovSeries(_UNIT.terms, _UNIT.cutoff))
    assert conjugate_zero(p).unit is conjugate_zero(p).unit
    assert formed == [p.unit]
    units = [NovikovSeries(((0, c), (F(1, 2), 2e-12)), None) for c in (4, 4.0, 4 + 0j)]
    got = [repr(conjugate_zero(TatePoint(F(1, 3), u)).unit) for u in units]
    assert units[0] == units[1] == units[2] and got[0] != got[2]
    assert got == [repr(real(u)) for u in units]


def test_mu2_builds_each_eps_power_once(monkeypatch):
    """The vertical brane of the theta bridge carries the series unit; the
    walk transports it over many arcs, and all of them share one set of
    powers P_k = P_(k-1) * eps of the unit's expansion."""
    eps = NovikovSeries(_UNIT.terms[1:], _UNIT.cutoff) * (1.0 / _UNIT.terms[0][1])
    k_max = math.ceil(_UNIT.cutoff / eps.val())
    eps_products = []
    real_mul = NovikovSeries.__mul__

    def mul(self, other):
        if isinstance(other, NovikovSeries) and other == eps:
            eps_products.append(repr(self))
        return real_mul(self, other)

    monkeypatch.setattr(NovikovSeries, "__mul__", mul)
    y0, y1 = Brane((1, 2)), Brane((1, 0))
    y2 = Brane((0, -1), F(1, 3), local_system=LocalSystem.from_eigenvalue(_UNIT, 1))
    arcs = []
    real_power = torus.fractional_power

    def power(u, t, *args):  # the rank-1 transport of a series unit
        if u is _UNIT:
            arcs.append(t)
        return real_power(u, t, *args)

    monkeypatch.setattr(torus, "fractional_power", power)
    sec = section_through(tate.conjugate_zero(TatePoint(F(1, 3), _UNIT)), 12)
    eps_products.clear()
    c1 = FloerElement(
        cf(y0, y1), {(F(0), F(0)): ((sec.sigma0,),), (F(1, 2), F(0)): ((sec.sigma1,),)}
    )
    space = cf(y2, y0)
    (pt,) = space.coords()
    c3 = FloerElement(space, {pt: ((NovikovSeries.constant(1),),)})
    mu2(c1, c3, 12)
    assert len(set(arcs)) > 10  # many distinct arcs of the series-unit brane
    assert 0 < len(eps_products) <= k_max + 1
    assert len(set(eps_products)) == len(eps_products)  # each P_k once


# ---------------------------------------------------------------------------
# the fused q-shift-and-add kernel
# ---------------------------------------------------------------------------

#: coefficients of exact one-term factors, as a one-term series stores
#: them (0 + c): products with 1e-6 and its neighbours land at ZERO_TOL,
#: and 1e6 would lift a term dropped there back above it
_kept = st.sampled_from(
    [1, -1, 1j, -0.5, F(2, 3), 0.5 - 0.25j, 1e-6, math.nextafter(1e-6, 0.0),
     math.nextafter(1e-6, 1.0), 2e-12, 1e6, _phase]
).map(lambda c: 0 + c)
_ZERO_AT_4 = NovikovSeries.zero(4)
_SIX, _BELOW_SIX = NovikovSeries.constant(1e-6), math.nextafter(1e-6, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_series, _zero_at),
    st.lists(
        st.tuples(
            st.one_of(_series, colliding, st.sampled_from(at_zero(1e-6, 2e-12))),
            _expo,
            st.one_of(st.none(), _kept),
            st.lists(_kept, min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=4,
    ),
)
@example(_ZERO_AT_4, [(_SIX, F(1, 3), _BELOW_SIX, [1e6])])  # right drops it
@example(_ZERO_AT_4, [(_SIX, F(1, 3), None, [_BELOW_SIX, 1e6])])  # a left does
def test_add_product_matches_adding_the_product(start, items):
    """With and without the caller's shift object, which names an
    exponent and changes no value."""
    acc, shared, want = _RunningSum(start), _RunningSum(start), _RunningSum(start)
    for x, shift, right, lefts in items:
        acc.add_product(shift.numerator, shift.denominator, x, right, lefts)
        shared.add_product(shift.numerator, shift.denominator, x, right, lefts, shift)
        want.add(add_product_oracle(shift, x, right, lefts))
        assert repr(acc.series()) == repr(shared.series()) == repr(want.series())


def test_add_product_returns_the_callers_shift_object():
    """x's exponent-0 term lands on the shift: `series` returns the
    caller's Fraction there, in every entry given it, and builds one for
    the other exponents; an exponent an operand of `add` brought first
    keeps that object."""
    area = F(5, 3)
    x = NovikovSeries(((0, 2.0), (F(1, 2), 1.0)), 8)
    entries = [_RunningSum(NovikovSeries.zero(8)) for _ in range(2)]
    for entry in entries:
        entry.add_product(5, 3, x, None, (1,), area)
    outs = [entry.series() for entry in entries]
    assert [out.terms[0][0] is area for out in outs] == [True, True]
    assert outs[0].terms[1][0] is not outs[1].terms[1][0]
    early = F(5, 3)
    entry = _RunningSum(NovikovSeries.q_power(early, 1.0, 8))
    entry.add_product(5, 3, x, None, (1,), area)
    assert entry.series().terms[0][0] is early


# ---------------------------------------------------------------------------
# the relation suite at the cost of its distinct sheaves
# ---------------------------------------------------------------------------

#: a series unit with a finite cutoff, which takes the series group law;
#: its product with its inverse changes bits when the factors swap
_SERIES_POINT = TatePoint(
    F(1, 3), NovikovSeries(((0, -0.25j), (F(1, 3), -1.5), (F(1, 2), 0.3 - 0.7j)), 2)
)
#: constant units as the K-theory sweeps draw them, the origin's, and the
#: series unit
_suite_point = st.one_of(
    st.builds(TatePoint, _q(0, 10, st.sampled_from([3, 5, 7, 8, 9, 11])),
              st.integers(1, 12).map(lambda k: cmath.exp(2j * cmath.pi * k / 13))),
    st.just(TatePoint.zero()),
    st.just(_SERIES_POINT),
)
#: five points with constant phase units, as the K-theory sweeps draw them
_SWEEP_POINTS = [
    TatePoint(F(x, den), cmath.exp(2j * cmath.pi * turns))
    for x, den, turns in (
        (2, 3, 0.134), (4, 7, 0.847), (0, 5, 0.764), (7, 9, 0.255), (5, 11, 0.495)
    )
]


@settings(max_examples=40, deadline=None)
@given(st.builds(RelationBounds, *[st.integers(0, 4)] * 2, *[st.integers(0, 3)] * 2),
       st.lists(_suite_point, min_size=1, max_size=5))
@example(RelationBounds(8, 8, 4, 6), _SWEEP_POINTS)
@example(RelationBounds(2, 1, 1, 2), [_SERIES_POINT, TatePoint.zero()])
def test_relation_suite_matches_the_per_relation_oracle(bounds, points):
    """Every triple (label, sub, total, quot) and its defect by `repr`,
    and `holds` against the series zero test at two tolerances."""
    got = relation_suite(bounds, points)
    want = relation_suite_oracle(bounds, points)
    assert len(got) == len(want)
    for tri, ref in zip(got, want):
        assert repr(tri) == repr(ref)
        defect = ref.k0_defect()
        assert repr(tri.k0_defect()) == repr(defect)
        for tol in (1e-9, 0):
            zero = (defect.rk, defect.deg) == (0, 0)
            assert tri.holds(tol) is (zero and is_zero_point_oracle(defect.pt, tol))


def test_the_suite_builds_each_shared_piece_once(monkeypatch):
    """One conjugate point per (D's point, Q), not per degree, and one
    determinant power per Jordan-tower member, not one per sequence
    holding it."""
    counts = {"conjugate_zero": 0, "point_pow": 0}
    for name in counts:
        real = getattr(sheafk, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(sheafk, name, counted)
    bounds, points = RelationBounds(3, 4, 2, 5), _SWEEP_POINTS[:3]
    suite = relation_suite(bounds, points)
    coprime = [
        (r, d) for r in range(1, 4) for d in range(-4, 5) if math.gcd(r, abs(d)) == 1
    ]
    iso_pairs = 2 * (2 * bounds.n_max + 1)  # each pair's two presentations
    assert counts == {
        "conjugate_zero": len(points) ** 2,
        "point_pow": iso_pairs + len(coprime) * (bounds.h_max + 1),
    }
    towers = [tri for tri in suite if tri.label == "jordan-tower"]
    assert towers[0].sub is towers[1].sub and towers[0].total is towers[1].quot


#: |delta| of the units -1 + delta: at, below and above the drop rule's
#: edge, and a distance that the default tolerance accepts
_DELTAS = (0.0, 1e-13, ZERO_TOL, 2e-12, 1e-9)
_ZERO_TEST_TOLS = (0, 1e-13, 1e-12, 1e-9, math.inf, math.nan, -1)


def _near_minus_one():
    """Coefficients -1 + delta as int, float and complex (along each axis
    and off them, with signed-zero parts), a Fraction, and a nan."""
    out = [-1, -2, F(-1), F(-1) + F(1, 10 ** 13), math.nan, complex(math.nan, 0.0)]
    for size in _DELTAS:
        for sign in (1.0, -1.0):
            delta = sign * size
            out += [
                -1.0 + delta,
                complex(-1.0 + delta, 0.0),
                complex(-1.0 + delta, -0.0),
                complex(-1.0, delta),
                -1 + delta * cmath.exp(2j * cmath.pi / 7),
            ]
    return out


@pytest.mark.parametrize("tol", _ZERO_TEST_TOLS)
def test_scalar_zero_test_matches_the_series_path(tol):
    """The scalar path against the series difference on the same unit,
    and against the series path that a finite cutoff takes."""
    for c in _near_minus_one():
        unit = NovikovSeries.constant(c)
        for x in (F(0), F(1, 3)):
            p = TatePoint(x, unit)
            assert p.is_zero_point(tol) is is_zero_point_oracle(p, tol), (c, x)
            series = TatePoint(x, NovikovSeries.constant(c, 5))
            assert series.is_zero_point(tol) is p.is_zero_point(tol), (c, x)


_ONE_SHEAVES = [
    Bundle(1, 0, TatePoint.zero()),
    Bundle(2, -3, TatePoint(F(2, 5), cmath.exp(2j * cmath.pi / 7))),
    Bundle(3, 1, TatePoint(F(1, 3), _UNIT), shift=1),
    Bundle(1, 4, TatePoint.two_torsion(), shift=-2),
    Skyscraper(TatePoint.zero()),
    Skyscraper(TatePoint(F(1, 7), 0.5j), 3),
    Skyscraper(TatePoint(F(1, 3), _UNIT), 1, shift=1),
    Skyscraper(TatePoint(F(4, 9), -2.0), 2, shift=3),
]


@pytest.mark.parametrize("sheaf", _ONE_SHEAVES, ids=str)
def test_one_sheaf_sum_matches_the_one_term_list(sheaf):
    got, want = SheafSum(sheaf), SheafSum([(sheaf, 1)])
    assert got.terms == want.terms == ((sheaf, 1),)
    assert type(got.terms[0][1]) is int
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)
    assert got == want and want == got


def test_the_zero_class_is_shared():
    assert K0Class.zero() is K0Class.zero()
    assert repr(K0Class.zero()) == repr(K0Class(0, 0, TatePoint.zero()))


# ---------------------------------------------------------------------------
# one vanishing verdict
# ---------------------------------------------------------------------------


@st.composite
def _near_window(draw, cutoff):
    """A series whose cutoff is None, below, at or above `cutoff`, with
    terms around the verdict window."""
    step = draw(_q(1, 8, st.sampled_from([1, 2, 4])))
    own = draw(st.sampled_from([None, cutoff - step, cutoff, cutoff + step]))
    num = st.integers(-8, 12).map(lambda k: 4 * (cutoff - 2) + k)
    expo = st.builds(F, num, st.just(4))
    terms = draw(st.lists(st.tuples(expo, any_coeff), max_size=3))
    return NovikovSeries(terms, own)


@settings(max_examples=300, deadline=None)
@given(st.data(), _q(2, 48, st.sampled_from([1, 2, 4])))
def test_one_verdict_matches_both_old_rules(data, cutoff):
    entries = data.draw(st.lists(_near_window(cutoff), min_size=2, max_size=2))
    space = cf(Brane((1, 2)), Brane((1, 0)))
    elem = FloerElement(space, {c: ((x,),) for c, x in zip(space.coords(), entries)})
    want = vanishes_truncated_oracle(elem, cutoff)
    assert floer.vanishes_truncated(elem, cutoff) == want
    for x in entries:
        assert vanishes(x, cutoff) == vanishes_truncated_oracle(
            FloerElement(space, {space.coords()[0]: ((x,),)}), cutoff
        )
        if x.cutoff is None or x.cutoff <= cutoff:
            assert vanishes(x, cutoff) == value_vanishes_oracle(x, cutoff)


#: the theta-0 zeros x = 1/2, phase +-1/4 and 3/4, and other flat points
_flat_points = st.one_of(
    st.sampled_from([(F(1, 2), F(1, 4)), (F(1, 2), F(-1, 4)), (F(1, 2), F(3, 4))]),
    st.tuples(_q(0, 11, st.integers(1, 12)), _q(-8, 8, st.integers(1, 8))),
).map(lambda xp: TatePoint(xp[0], cli._phase(xp[1])))


@settings(max_examples=200, deadline=None)
@given(_flat_points, _flat_points, st.integers(1, 16))
def test_section_values_are_known_no_further_than_the_cutoff(q, p, cutoff):
    """Why the one verdict moves no CLI or benchmark answer: on the value
    of a `section_through` section it reads the window `value_vanishes`
    read, since that value's cutoff never exceeds the requested one."""
    value = eval_section(section_through(q, cutoff), p, cutoff)
    assert value.cutoff is not None and value.cutoff <= cutoff


def test_the_bridge_sides_agree_on_a_value_known_past_the_cutoff():
    """q^(1/2) + 2q^(3/2) + O(q^(7/4)) at cutoff 5/4: the Floer rule read
    below 1/4 and called it zero, `value_vanishes` read below 3/4 and did
    not.  Both sides now read below 1/4."""
    section = SectionCoeffs(NovikovSeries.q_power(F(1, 2)), NovikovSeries.zero())
    value = eval_section(section, TatePoint(0), F(5, 4))
    assert value.cutoff == F(7, 4) and value.val() == F(1, 2)
    assert not value_vanishes_oracle(value, F(5, 4))
    space = cf(Brane((1, 2)), Brane((1, 0)))
    elem = FloerElement(space, {space.coords()[0]: ((value,),)})
    assert floer.vanishes_truncated(elem, F(5, 4))
    assert section_vanishes_at(section, TatePoint(0), F(5, 4))


def test_only_novikov_reads_the_truncation_constants():
    """Imported names, bare names and attributes, as the parser sees them,
    and the two names anywhere else in the source text: strings,
    comments and docstrings."""
    readers, namers = set(), set()
    for path in Path(novikov.__file__).parent.glob("*.py"):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            name = node.name if isinstance(node, ast.alias) else (
                getattr(node, "id", None) or getattr(node, "attr", None)
            )
            if name in ("ZERO_TOL", "WINDOW_SLACK"):
                readers.add(path.name)
        if re.search(r"\b(ZERO_TOL|WINDOW_SLACK)\b", text):
            namers.add(path.name)
    assert readers == namers == {"novikov.py"}


# ---------------------------------------------------------------------------
# one lattice window
# ---------------------------------------------------------------------------

@st.composite
def _windows(draw):
    """(c, X): c of either sign with denominators 1-60; X <= 0, X with 4X
    a perfect square, X exactly (k + c)^2 for a k near the vertex (where
    the strict bound decides), or any positive rational."""
    c = draw(_q(-2000, 2000, st.integers(1, 60)))
    X = draw(st.one_of(
        _q(-500, 0, st.integers(1, 60)),
        st.builds(F, st.integers(0, 200).map(lambda m: m * m), st.just(4)),
        st.integers(-40, 40).map(lambda j: (math.floor(-c) + j + c) ** 2),
        _q(1, 10**5, st.integers(1, 97)),
    ))
    return c, X


@settings(max_examples=600, deadline=None)
@given(_windows())
@example((F(0), F(1)))  # 4X = 4: the bound, 3, exceeds the window, 1
@example((F(1, 2), F(1, 4)))  # (k + 1/2)^2 = 1/4 at k = 0, -1: empty
@example((F(-7, 3), F(-1)))
def test_lattice_window_matches_a_stepping_scan(window):
    c, X = window
    lo, hi = lattice_window(c, X)
    assert list(range(lo, hi)) == stepping_window_oracle(c, X)
    assert lo <= math.ceil(-c) <= hi  # the walks split the range there
    assert hi - lo <= lattice_bound(X)


# ---------------------------------------------------------------------------
# records against their dataclass twins
# ---------------------------------------------------------------------------

_frac = _q(-7, 7, st.sampled_from([1, 2, 3, 5, 12]))
_small = st.integers(-2, 3)
_point = st.builds(TatePoint, _frac, st.sampled_from([1, -1.0, 1j, F(3, 2)]))
_sheaf = st.one_of(
    st.builds(Bundle, st.integers(1, 2), _small, _point, _small),
    st.builds(Skyscraper, _point, st.integers(1, 2), _small),
)
_sheaf_terms = st.lists(st.tuples(_sheaf, st.integers(-2, 2)), max_size=3)
_sheaf_sum = st.builds(SheafSum, _sheaf_terms)
_vector = st.tuples(_small, _small)  # some are not primitive
_space = st.sampled_from(
    [cf(Brane((1, 2)), Brane((1, 0))), cf(Brane((0, 1), F(1, 3)), Brane((2, 1)))]
)
_point_ast = st.builds(PointAst, _frac, _frac)
_item_ast = st.one_of(
    _point_ast,
    st.builds(OP0Ast, _small, _small),
    st.builds(SkyAst, _point_ast, _small, _small),
)
_intersection = st.builds(
    IntersectionPoint, st.tuples(_frac, _frac), _small, _frac, _frac
)


@st.composite
def _components(draw, space):
    """One generator of `space`, or a point that is not one of them."""
    at = draw(st.sampled_from(space.coords() + ((F(1, 7), F(1, 7)),)))
    return {at: ((draw(_entry),),)}


#: the field values of each record, drawn together; some draws break a
#: constructor check, so that the errors are compared too
_RECORD_FIELDS = {
    TatePoint: st.tuples(
        st.one_of(_frac, st.integers(-3, 3)),
        st.sampled_from([1, -1.0, 1j, 0, NovikovSeries(((1, 1),), None)]),
    ),
    SectionCoeffs: st.tuples(*[st.one_of(_series, st.just(NovikovSeries.zero()))] * 2),
    LocalSystem: st.tuples(st.lists(
        st.tuples(st.sampled_from([1, -1.0, 1j, 0]), st.sampled_from([0, 1, 2, 1.5])),
        max_size=2,
    ).map(tuple)),
    Brane: st.tuples(_vector, _frac, _small, _frac, _systems(max_rank=2)),
    IntersectionPoint: st.tuples(st.tuples(_frac, _frac), _small, _frac, _frac),
    CFSpace: st.tuples(_BRANES[2], _BRANES[2],
                       st.lists(_intersection, max_size=2).map(tuple)),
    FloerElement: _space.flatmap(lambda sp: st.tuples(st.just(sp), _components(sp))),
    Bundle: st.tuples(st.integers(-1, 3), _small, _point, _small),
    Skyscraper: st.tuples(_point, st.integers(-1, 3), _small),
    SheafSum: st.tuples(_sheaf_terms),
    K0Class: st.tuples(_small, _small, _point),
    RelationTriple: st.tuples(_sheaf_sum, _sheaf_sum, _sheaf_sum, st.text(max_size=4)),
    RelationBounds: st.tuples(*[st.integers(-1, 5)] * 4),
    CurveClass: st.tuples(_vector, _frac),
    CobordClass: st.tuples(_frac, _vector),
    MirrorPair: st.tuples(
        _sheaf, _BRANES[2], st.booleans(), st.text(max_size=4)
    ),
    _Tok: st.tuples(st.sampled_from(["int", "name", "(", "end"]),
                    st.text(max_size=3), st.integers(1, 9)),
    PointAst: st.tuples(_frac, _frac),
    BraneAst: st.tuples(_small, _small, _frac, _small, _frac, st.integers(1, 3)),
    OP0Ast: st.tuples(_small, _small),
    DivAst: st.tuples(*[st.lists(_point_ast, max_size=2).map(tuple)] * 2, _small),
    SkyAst: st.tuples(_point_ast, _small, _small),
    BunAst: st.tuples(_small, _small, _point_ast, _small),
    SumAst: st.tuples(st.lists(st.tuples(_small, _item_ast), max_size=2).map(tuple)),
}
_TWINS = {cls: record_oracle(cls) for cls in _RECORD_FIELDS}


@st.composite
def _record_call(draw, cls):
    """(args, kwargs) for `cls`: the first fields by position, the rest
    by keyword, or left out when the class has a default for them."""
    values = draw(_RECORD_FIELDS[cls])
    names = tuple(cls.__annotations__)
    defaults = _record_defaults(cls)
    k = draw(st.integers(0, len(names)))
    kwargs = {
        name: value for name, value in zip(names[k:], values[k:])
        if name not in defaults or draw(st.booleans())
    }
    return values[:k], kwargs


def _refusal(action, *args):
    try:
        action(*args)
    except AttributeError as exc:
        return str(exc)
    return None


def test_every_record_has_a_twin():
    modules = (cli, cobord, floer, mirror, sheafk, tate, torus)
    records = {
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and obj.__setattr__ is _record._refuse_set
    }
    assert records == set(_RECORD_FIELDS) and len(records) == 24
    assert not any(map(dataclasses.is_dataclass, records))


@pytest.mark.parametrize("cls", list(_RECORD_FIELDS), ids=lambda c: c.__qualname__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_records_match_their_dataclass_twins(cls, data):
    (args, kwargs), (other_args, other_kwargs) = (
        data.draw(_record_call(cls)), data.draw(_record_call(cls))
    )
    twin = _TWINS[cls]
    got, want = _outcome(cls, *args, **kwargs), _outcome(twin, *args, **kwargs)
    if isinstance(want, tuple):  # a constructor check refused the values
        assert got == want
        return
    other = _outcome(cls, *other_args, **other_kwargs)
    other_want = _outcome(twin, *other_args, **other_kwargs)
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)
    assert got == _outcome(cls, *args, **kwargs) and got != want
    if not isinstance(other_want, tuple):
        assert (got == other) == (want == other_want)
    _assert_round_trips(got)
    for name in (*cls.__annotations__, "unknown"):
        refused = _refusal(setattr, want, name, 0)
        assert refused is not None
        assert _refusal(setattr, got, name, 0) == refused
        assert _refusal(delattr, got, name) == _refusal(delattr, want, name)
    assert repr(got) == repr(want)


def _assert_round_trips(x):
    """`pickle` and `copy.deepcopy` give an object equal to x, with its
    hash and repr."""
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert copied == x and hash(copied) == hash(x) and repr(copied) == repr(x)


@settings(max_examples=100, deadline=None)
@given(_series)
def test_series_survive_pickle_and_deepcopy(x):
    _assert_round_trips(x)
