"""Truncated arithmetic in the Novikov field.

Elements are finite sums  sum_i c_i * q^(a_i)  with strictly increasing
rational exponents a_i and complex coefficients c_i, together with a
per-series truncation cutoff: exponents >= cutoff are unspecified.  A
cutoff of None means the series is exact.

Exponents are exact (fractions.Fraction); coefficients are machine
complex doubles.  Coefficients whose magnitude is below ZERO_TOL are
dropped during normalization.

Canonical form: `terms` is a tuple of (Fraction, coefficient) pairs with
strictly increasing exponents, every exponent below the cutoff, every
coefficient stored as `0 + c` (so a float -0.0 reads 0.0) and no
coefficient with |c| <= ZERO_TOL.  The public constructor reaches it
from any input by merging equal exponents and sorting.  Results that
are canonical by construction (constants, negation, truncation, a
product with a one-term factor, inverses) go through the private
`NovikovSeries._sorted` or `_below` instead, which apply the per-term
rules only; their callers guarantee Fraction exponents in strictly
increasing order and a Fraction (or None) cutoff.

Kernels.  Sums and products work on integer keys: each exponent times
the operands' common denominator (`math.lcm`).  One adder, `_RunningSum`,
forms every sum: `a + b` is a running sum started at `a` with `b` added,
and every loop that adds many series into one (the geometric series of
`invert`, the binomial series of `fractional_power`, theta series, each
matrix entry of `mu2`) keeps one running sum instead of re-merging the
partial sum each step.  Where an addend is a series x times exact
one-term factors (q^e times M^k in a theta term; the area weight, and on
rank 1 the scalar transports and generators, of a triangle),
`_RunningSum.add_product` adds it in one pass over x's terms: each
coefficient goes through the stages of the products it replaces, `0 +`
and the drop rule included, and lands at the shifted integer key, with
no intermediate series and no Fraction per term; a caller that holds
the shift as a Fraction (the triangle's area in `floer`) passes it, and
x's exponent-0 term lands on that object.  A product of two
multi-term series runs its double loop into an integer-keyed dict,
leaving the inner loop at the first key at or above the cutoff.  A
product builds Fractions only for the terms it returns; a sum builds
none and reuses its operands' exponent objects, and so does a product
by a one-term factor at exponent 0.  One power table, `_Powers`, serves
every loop over the powers of one series (eps in `invert` and
`fractional_power`, a point's unit and its inverse in theta series) and
forms each power once; a caller taking many fractional powers of one
unit shares its table of eps powers across exponents t.  `invert` forms
the inverse of a multi-term series once per series object while that
object is among the last `_INVERSES_HELD` it inverted.

Every coefficient is formed by the same float operations, in the same
order, as before the kernels: as the public constructor forms it from
the concatenated (for `+`) or pairwise (for `*`) terms.  That is
`(0 + a) + b`, which is `a + b` for a canonical `a`, for an exponent in
both summands, `0 + a` or `0 + b` for one in a single summand, and
`acc.get(k, 0) + ca * cb` with `self` outer and the other factor inner
for a product; a running sum drops a partial sum with |c| <= ZERO_TOL at
the step where repeated addition would.  So no kernel moves a bit,
signed zeros and ZERO_TOL drops included; tests/test_kernels.py keeps
the replaced code as oracles and compares `repr`s.

Binary operations propagate the weakest truncation guarantee:

    add: cutoff = min(cutoff_a, cutoff_b)
    mul: cutoff = min(cutoff_a + val(b), cutoff_b + val(a))

so reliability windows flow through long compositions without manual
bookkeeping.

Truncation policy.  No other module reads ZERO_TOL or WINDOW_SLACK.
ZERO_TOL drops |c| <= ZERO_TOL when a series is formed; the scalar
group law of `tate` asks `NovikovSeries._exact_term` whether its one
coefficient survives, and its scalar zero test asks `_kept`.  A
verdict at a requested cutoff reads a series below `verdict_window`:
min(cutoff, series cutoff) - WINDOW_SLACK, the requested cutoff for an
exact series.  `vanishes(x, cutoff)`, the one
vanishing verdict, holds when x is zero or its lowest exponent is at or
above that window.  `floer` reads it per matrix entry
(`vanishes_truncated`) and takes `assoc_defect`'s window from
`verdict_window`; `tate.section_vanishes_at` and the CLI `section` verb
read it on a section's value.  Where a lattice sum whose exponent is a
convex quadratic in an integer index stops is decided here too:
`lattice_window(c, X)` is the range of k with (k + c)^2 < X, found by one
integer square root, and `lattice_bound(X)` is the most k any c admits.
`floer._walk` takes each generator's triangles below the cutoff from it,
`tate.theta_eval_raw` its theta terms, and the CLI mu2 budget the bound.
"""

from __future__ import annotations

import bisect
import cmath
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

from .errors import NonUnit, ZeroSeries

#: coefficients with |c| <= ZERO_TOL are treated as zero
ZERO_TOL = 1e-12
#: a verdict reads a series only below (its effective cutoff - WINDOW_SLACK)
WINDOW_SLACK = 1

Rational = Union[int, Fraction]
Scalar = Union[int, float, complex, Fraction]


def _min_cutoff(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


_ZERO = Fraction(0)  # the exponent of constants, shared (Fractions are immutable)


def _kept(c: Scalar) -> Optional[Scalar]:
    """0 + c, the coefficient a one-term series stores for c, or None where
    |0 + c| <= ZERO_TOL makes that series zero.  Callers that multiply
    exact one-term factors as scalars (the rank-1 path of `floer`) apply
    the drop rule here."""
    c = 0 + c
    return None if abs(c) <= ZERO_TOL else c


def _largest(values: Iterable[float]) -> float:
    """max(0.0, *values), except that a nan among the values is the
    result: builtin `max` keeps or drops a nan depending on where it
    stands, so a nan coefficient would pass a tolerance test."""
    best = 0.0
    for v in values:
        if v > best or v != v:  # nothing compares above a nan: it stays
            best = v
    return best


def _as_cutoff(cutoff: Optional[Rational]) -> Optional[Fraction]:
    if cutoff is None or type(cutoff) is Fraction:
        return cutoff
    return Fraction(cutoff)


def _common_den(a, b) -> int:
    """The least common denominator of the exponents of two term lists."""
    return math.lcm(*(e.denominator for e, _ in a), *(e.denominator for e, _ in b))


def _keys(terms, den: int):
    """Each exponent of `terms` times `den`, a multiple of every
    exponent's denominator: the integer keys of the kernels."""
    return [e.numerator * (den // e.denominator) for e, _ in terms]


def _key_bound(cutoff: Fraction, den: int) -> int:
    """The least integer key k with k / den >= cutoff."""
    return -(-cutoff.numerator * den // cutoff.denominator)


def _count_below(terms, cutoff: Optional[Fraction]) -> int:
    """How many of the sorted `terms` have exponents below the cutoff:
    one comparison when all of them do, a bisection otherwise."""
    n = len(terms)
    if cutoff is None or not n or terms[-1][0] < cutoff:
        return n
    return bisect.bisect_left(terms, cutoff, key=lambda t: t[0])


def _shifted(terms, shift: Fraction, cutoff: Optional[Fraction]):
    """The exponents e + shift of the sorted `terms` that lie below the
    cutoff.  At shift 0 these are the exponent objects themselves;
    otherwise they are computed on integer keys, and one Fraction is
    built per exponent kept."""
    if shift == 0:
        return [e for e, _ in terms[:_count_below(terms, cutoff)]]
    den = math.lcm(shift.denominator, *(e.denominator for e, _ in terms))
    step = shift.numerator * (den // shift.denominator)
    keys = [k + step for k in _keys(terms, den)]
    if cutoff is not None:
        del keys[bisect.bisect_left(keys, _key_bound(cutoff, den)):]
    return [Fraction(k, den) for k in keys]


class NovikovSeries:
    """Immutable truncated Novikov series in canonical form."""

    __slots__ = ("terms", "cutoff")

    def __init__(
        self,
        terms: Iterable[Tuple[Rational, Scalar]] = (),
        cutoff: Optional[Rational] = None,
    ):
        acc = {}
        for e, c in terms:
            if type(e) is not Fraction:
                e = Fraction(e)
            acc[e] = acc.get(e, 0) + c
        cut = _as_cutoff(cutoff)
        clean = []
        for e in sorted(acc):
            if cut is not None and e >= cut:
                continue
            c = acc[e]
            if abs(c) <= ZERO_TOL:
                continue
            clean.append((e, c))
        object.__setattr__(self, "terms", tuple(clean))
        object.__setattr__(self, "cutoff", cut)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("NovikovSeries is immutable")

    def __reduce__(self):  # pickle and copy rebuild without __setattr__
        return NovikovSeries._canonical, (self.terms, self.cutoff)

    @classmethod
    def _sorted(
        cls, terms: Sequence[Tuple[Fraction, Scalar]], cutoff: Optional[Fraction]
    ) -> "NovikovSeries":
        """The series of `terms`, which must have Fraction exponents in
        strictly increasing order, and a Fraction (or None) cutoff.

        Applies the public constructor's per-term rules and nothing
        else: terms at or above the cutoff are dropped, each coefficient
        is stored as `0 + c`, and |c| <= ZERO_TOL is dropped.
        """
        return cls._below(terms[:_count_below(terms, cutoff)], cutoff)

    @classmethod
    def _canonical(
        cls, terms: Tuple[Tuple[Fraction, Scalar], ...], cutoff: Optional[Fraction]
    ) -> "NovikovSeries":
        """The series whose `terms` and `cutoff` are already canonical."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "cutoff", cutoff)
        return out

    @classmethod
    def _below(
        cls, terms: Iterable[Tuple[Fraction, Scalar]], cutoff: Optional[Fraction]
    ) -> "NovikovSeries":
        """`_sorted` for terms whose exponents all lie below the cutoff:
        each coefficient is stored as `0 + c` and |c| <= ZERO_TOL is
        dropped, with no comparison against the cutoff."""
        clean = []
        for e, c in terms:
            c = 0 + c
            if abs(c) <= ZERO_TOL:
                continue
            clean.append((e, c))
        return cls._canonical(tuple(clean), cutoff)

    @classmethod
    def _exact_term(cls, e: Fraction, c: Scalar) -> Optional["NovikovSeries"]:
        """`_below(((e, c),), None)` without the loop: the exact series
        (0 + c) q^e, or None where |0 + c| <= ZERO_TOL makes that the
        zero series.  The scalar group law of `tate` builds its units
        here, so the drop rule stays in this module."""
        c = _kept(c)
        return None if c is None else cls._canonical(((e, c),), None)

    # -- constructors ------------------------------------------------

    # (one term needs no merge or sort: these skip the public constructor)

    @classmethod
    def zero(cls, cutoff: Optional[Rational] = None) -> "NovikovSeries":
        return cls._canonical((), _as_cutoff(cutoff))

    @classmethod
    def one(cls) -> "NovikovSeries":
        return cls._sorted(((_ZERO, 1.0 + 0.0j),), None)

    @classmethod
    def constant(cls, c: Scalar, cutoff: Optional[Rational] = None) -> "NovikovSeries":
        return cls._sorted(((_ZERO, c),), _as_cutoff(cutoff))

    @classmethod
    def q_power(
        cls, e: Rational, coeff: Scalar = 1, cutoff: Optional[Rational] = None
    ) -> "NovikovSeries":
        if type(e) is not Fraction:
            e = Fraction(e)
        return cls._sorted(((e, coeff),), _as_cutoff(cutoff))

    # -- basic queries ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def val(self) -> Fraction:
        """Smallest exponent carrying a nonzero coefficient."""
        if not self.terms:
            raise ZeroSeries("valuation of the zero series is undefined")
        return self.terms[0][0]

    def leading_coefficient(self):
        if not self.terms:
            raise ZeroSeries("zero series has no leading coefficient")
        return self.terms[0][1]

    def coefficient(self, e: Rational):
        e = Fraction(e)
        for ee, c in self.terms:
            if ee == e:
                return c
        return 0j

    def max_abs_coeff(self, below: Optional[Rational] = None) -> float:
        """Largest |coefficient| among exponents < `below` (all if None);
        nan if one of them is nan."""
        bound = None if below is None else Fraction(below)
        terms = self.terms[:_count_below(self.terms, bound)]
        return _largest(abs(c) for _, c in terms)

    def truncated(self, cutoff: Rational) -> "NovikovSeries":
        if type(cutoff) is not Fraction:
            cutoff = Fraction(cutoff)
        return NovikovSeries._sorted(self.terms, _min_cutoff(self.cutoff, cutoff))

    # -- ring structure ----------------------------------------------

    def _coerced(self, other) -> Optional["NovikovSeries"]:
        if isinstance(other, NovikovSeries):
            return other
        if isinstance(other, (int, float, complex, Fraction)):
            return NovikovSeries.constant(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        total = _RunningSum(self)
        total.add(o)
        return total.series()

    __radd__ = __add__

    def __neg__(self):
        return NovikovSeries._below(((e, -c) for e, c in self.terms), self.cutoff)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        cut_a = None
        if self.cutoff is not None:
            shift = o.terms[0][0] if o.terms else o.cutoff
            cut_a = None if shift is None else self.cutoff + shift
        cut_b = None
        if o.cutoff is not None:
            shift = self.terms[0][0] if self.terms else self.cutoff
            cut_b = None if shift is None else o.cutoff + shift
        cut = _min_cutoff(cut_a, cut_b)
        # a one-term factor shifts every exponent by the same amount, so
        # the product is already sorted and has no exponents to merge
        if len(o.terms) == 1:
            eb, cb = o.terms[0]
            exps = _shifted(self.terms, eb, cut)
            return NovikovSeries._below(
                ((e, ca * cb) for e, (_, ca) in zip(exps, self.terms)), cut
            )
        if len(self.terms) == 1:
            ea, ca = self.terms[0]
            exps = _shifted(o.terms, ea, cut)
            return NovikovSeries._below(
                ((e, ca * cb) for e, (_, cb) in zip(exps, o.terms)), cut
            )
        if not self.terms or not o.terms:
            return NovikovSeries._canonical((), cut)
        den = _common_den(self.terms, o.terms)
        left = _keys(self.terms, den)
        right = list(zip(_keys(o.terms, den), [c for _, c in o.terms]))
        if cut is not None:
            stop = _key_bound(cut, den)
        else:
            stop = left[-1] + right[-1][0] + 1
        acc = {}
        for ka, (_, ca) in zip(left, self.terms):
            bound = stop - ka
            for kb, cb in right:
                if kb >= bound:
                    break  # o's keys increase: no later term is below the cutoff
                k = ka + kb
                acc[k] = acc.get(k, 0) + ca * cb
        return NovikovSeries._below(
            ((Fraction(k, den), acc[k]) for k in sorted(acc)), cut
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return invert(self) ** (-n)
        out = NovikovSeries.one()
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((self.terms, self.cutoff))

    def approx_eq(
        self,
        other: "NovikovSeries",
        tol: float = 1e-9,
        below: Optional[Rational] = None,
    ) -> bool:
        """Coefficientwise comparison on exponents < below (default: the
        shared reliable window)."""
        if below is None:
            below = _min_cutoff(self.cutoff, other.cutoff)
        return (self - other).max_abs_coeff(below) <= tol

    # -- rendering -----------------------------------------------------

    def __repr__(self):
        return f"NovikovSeries({self.terms!r}, cutoff={self.cutoff!r})"

    def __str__(self):
        return series_text(self)


def _fmt_coeff(c) -> str:
    z = complex(c)
    re, im = repr(z.real), repr(abs(z.imag))
    sign = "-" if z.imag < 0 else "+"
    return f"({re}{sign}{im}i)"


def series_text(a: NovikovSeries) -> str:
    """Deterministic plain-text form  c*q^(p/r) + ... [+ O(q^(cut))]."""
    parts = [f"{_fmt_coeff(c)}*q^({e})" for e, c in a.terms]
    if a.cutoff is not None:
        parts.append(f"O(q^({a.cutoff}))")
    return " + ".join(parts) if parts else "0"


class _RunningSum:
    """The one adder of series: `start + x1 + x2 + ...` kept in place,
    without re-merging the partial sum at every step.  `a + b` is
    `_RunningSum(a)`, one `add(b)`, then `series()`.

    A new exponent gets `0 + c`, an exponent already held gets `a + c`;
    the start's coefficients are held as they are, which `0 + a` leaves
    unchanged for a canonical `a`.  A key whose partial sum has
    |c| <= ZERO_TOL is dropped at once, as each addition would drop it,
    and the weakest cutoff wins.  Keys at or above that cutoff stay in
    the map until `series`, which drops them.  Exponents are integer
    keys over a denominator that grows when a term needs it; `exps`
    keeps the first exponent object seen for each key, so `series`
    builds no Fraction for a key an operand of `add` brought, and one
    for each other key it returns.
    """

    __slots__ = ("den", "coeffs", "exps", "cutoff")

    def __init__(self, start: NovikovSeries):
        self.den = den = math.lcm(*[e.denominator for e, _ in start.terms])
        self.coeffs = coeffs = {}
        self.exps = exps = {}
        for e, c in start.terms:
            k = e.numerator * (den // e.denominator)
            coeffs[k] = c
            exps[k] = e
        self.cutoff = start.cutoff

    def _grow(self, d: int) -> int:
        """Rescale the keys to a denominator that d divides; return it."""
        factor = d // math.gcd(self.den, d)
        self.den *= factor
        self.coeffs = {k * factor: v for k, v in self.coeffs.items()}
        self.exps = {k * factor: v for k, v in self.exps.items()}
        return self.den

    def add(self, x: NovikovSeries) -> None:
        den, coeffs, exps = self.den, self.coeffs, self.exps
        for e, c in x.terms:
            d = e.denominator
            if den % d:
                den = self._grow(d)
                coeffs, exps = self.coeffs, self.exps
            k = e.numerator * (den // d)
            total = coeffs.get(k, 0) + c
            if abs(total) <= ZERO_TOL:
                coeffs.pop(k, None)
            else:
                coeffs[k] = total
                exps.setdefault(k, e)
        self.cutoff = _min_cutoff(self.cutoff, x.cutoff)

    def add_product(
        self, num: int, den: int, x: NovikovSeries, right=None, lefts=(),
        exp: Optional[Fraction] = None,
    ) -> None:
        """`add` of q^(num/den) * l_m * (... (l_1 * (x * right))), where
        `right` (unless None) and each l_i are the coefficients of exact
        one-term factors whose exponents, with num/den, sum to the shift
        num/den; den > 0.  `exp`, when the caller holds the shift as a
        Fraction, is that object: `series` returns it as the exponent of
        the shift's key (where x's exponent-0 term lands) instead of
        building a new Fraction, so the entries of one product share it.

        One pass over x's terms, with no intermediate series.  Each term's
        coefficient goes through the stages of the one-term products it
        replaces: `0 + c * right`, then `0 + l * c` for each l in order,
        dropped at the first stage where |c| <= ZERO_TOL.  A kept term
        is added at key shift + term key, as `add` adds it.  No stage cuts
        a term: the product's cutoff is x's shifted by num/den, and every
        term of x lies below x's.  A factor that the drop rule makes zero
        makes the whole product the exact zero, which adds nothing; the
        caller does not call this then.
        """
        terms = x.terms
        if terms:
            tol = ZERO_TOL
            base, coeffs = self.den, self.coeffs
            if base % den:
                base = self._grow(den)
                coeffs = self.coeffs
            shift = num * (base // den)
            for e, c in terms:
                if right is not None:
                    c = 0 + c * right
                    if abs(c) <= tol:
                        continue
                for s in lefts:
                    c = 0 + s * c
                    if abs(c) <= tol:
                        break
                else:
                    d = e.denominator
                    if base % d:
                        base = self._grow(d)
                        coeffs = self.coeffs
                        shift = num * (base // den)
                    k = shift + e.numerator * (base // d)
                    total = coeffs.get(k, 0) + c
                    if abs(total) <= tol:
                        coeffs.pop(k, None)
                    else:
                        coeffs[k] = total
            if exp is not None and shift in coeffs:
                self.exps.setdefault(shift, exp)
        if x.cutoff is not None:
            self.cutoff = _min_cutoff(self.cutoff, x.cutoff + Fraction(num, den))

    def series(self) -> NovikovSeries:
        den, coeffs, exps, cut = self.den, self.coeffs, self.exps, self.cutoff
        keys = sorted(coeffs)
        if cut is not None:
            del keys[bisect.bisect_left(keys, _key_bound(cut, den)):]
        return NovikovSeries._canonical(
            tuple([
                (exps[k] if k in exps else Fraction(k, den), coeffs[k])
                for k in keys
            ]),
            cut,
        )


class _Powers:
    """The powers P_0 = one(), P_k = P_(k-1) * base of one series, each
    truncated at `window` when one is given.  P_k is formed once, when it
    is first asked for, so the caller that holds the table shares them."""

    __slots__ = ("base", "window", "_table")

    def __init__(self, base: NovikovSeries, window: Optional[Fraction] = None):
        self.base = base
        self.window = window
        self._table = [NovikovSeries.one()]

    def __getitem__(self, k: int) -> NovikovSeries:
        table = self._table
        while len(table) <= k:
            p = table[-1] * self.base
            table.append(p if self.window is None else p.truncated(self.window))
        return table[k]


# ---------------------------------------------------------------------------
# function forms of the field operations
# ---------------------------------------------------------------------------


def val(a: NovikovSeries) -> Fraction:
    return a.val()


def norm(a: NovikovSeries) -> float:
    """e^(-val(a)); the non-archimedean absolute value."""
    return math.exp(-float(a.val()))


def verdict_window(cutoff: Rational, series: Optional[NovikovSeries] = None):
    """The bound below which a verdict at `cutoff` reads `series`:
    min(cutoff, series cutoff) - WINDOW_SLACK (see the module docstring)."""
    cut = _as_cutoff(cutoff)
    if series is not None:
        cut = _min_cutoff(cut, series.cutoff)
    return cut - WINDOW_SLACK


def vanishes(x: NovikovSeries, cutoff: Rational) -> bool:
    """x has no term below its verdict window at `cutoff`."""
    return not x.terms or x.terms[0][0] >= verdict_window(cutoff, x)


def lattice_window(c: Rational, X: Rational) -> Tuple[int, int]:
    """(lo, hi) with range(lo, hi) the integers k with (k + c)^2 < X, and
    lo <= ceil(-c) <= hi, so a walk may split it at ceil(-c).  With
    c = p/q, k qualifies when m = kq + p has m^2 < X q^2, that is when
    |m| <= isqrt(ceil(X q^2) - 1); no k does when X <= 0."""
    c, X = Fraction(c), Fraction(X)
    p, q = c.numerator, c.denominator
    n = -(-X.numerator * q * q // X.denominator)  # ceil(X q^2)
    if n <= 0:
        return -(p // q), -(p // q)
    m = math.isqrt(n - 1)
    return -((m + p) // q), (m - p) // q + 1


def lattice_bound(X: Rational) -> int:
    """1 + isqrt(floor(4X)), 0 for X <= 0: no lattice_window(c, X) has
    more integers, whatever c is.  An open interval of length 2 sqrt(X)
    holds at most floor(2 sqrt(X)) + 1 of them."""
    X = Fraction(X)
    return 1 + math.isqrt(4 * X.numerator // X.denominator) if X > 0 else 0


#: the inverses of the last _INVERSES_HELD multi-term series inverted:
#: id(a) -> (a, invert(a)).  Holding a keeps its id from being reused, so
#: an entry answers for that very object only.  Equal series are not
#: merged: coefficients 1, 1.0 and 1+0j compare equal, but 1.0 / c0 is a
#: float for the first two and complex for the third.
_INVERSES = {}
_INVERSES_HELD = 16


def invert(a: NovikovSeries) -> NovikovSeries:
    """Multiplicative inverse, reliable where the inputs allow.

    Factors a = c0 * q^v * (1 + eps) with val(eps) > 0 and sums the
    geometric series in eps.  The result carries cutoff a.cutoff - 2v,
    which makes val(a * invert(a) - 1) >= a.cutoff - v.  The inverse of
    a multi-term series is formed once per series object and handed out
    again while it is among the last few inverted (`_INVERSES`).
    """
    if a.is_zero():
        raise ZeroSeries("cannot invert the zero series")
    if len(a.terms) == 1:
        # the path of `_series_inverse`, with eps = 0 and geo = one()
        (v, c0), = a.terms
        if a.cutoff is None:
            return NovikovSeries._sorted(((-v, 1.0 / c0),), None)
        return NovikovSeries._sorted(
            ((-v, (1.0 + 0.0j) / c0),), a.cutoff - 2 * v
        )
    held = _INVERSES.get(id(a))
    if held is None:
        held = (a, _series_inverse(a))
        if len(_INVERSES) >= _INVERSES_HELD:
            del _INVERSES[next(iter(_INVERSES))]  # the oldest entry
        _INVERSES[id(a)] = held
    return held[1]


def _series_inverse(a: NovikovSeries) -> NovikovSeries:
    """`invert` of a series with two or more terms, formed afresh."""
    v = a.val()
    c0 = a.leading_coefficient()

    def normalized(terms):
        # exponents shifted down by v (kept as they are for a unit), each
        # coefficient divided by c0; the order stays sorted
        if v == 0:
            return ((e, c / c0) for e, c in terms)
        return ((e - v, c / c0) for e, c in terms)

    # normalized unit 1 + eps
    eps = NovikovSeries._below(
        normalized(a.terms[1:]), None if a.cutoff is None else a.cutoff - v
    )
    if a.cutoff is None:
        if not eps.is_zero():
            raise ValueError(
                "inverting a multi-term exact series needs a finite cutoff; "
                "truncate first"
            )
        return NovikovSeries.q_power(-v, 1.0 / c0)
    window = a.cutoff - v  # reliable window of the normalized unit
    geo = _RunningSum(NovikovSeries.one())
    step = (-eps).truncated(window)
    if not step.is_zero():
        powers = _Powers(step, window)
        k_max = math.ceil(float(window) / float(step.val()))
        for k in range(1, k_max + 2):
            term = powers[k]
            if term.is_zero():
                break
            geo.add(term)
    return NovikovSeries._below(normalized(geo.series().terms), a.cutoff - 2 * v)


def _binom(t: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= (t - j) / (k - j)
    return out


_TOL_RATIO = ZERO_TOL.as_integer_ratio()  # ZERO_TOL, exactly


def _fraction_multiple(num: int, den: int, x: NovikovSeries) -> NovikovSeries:
    """b * x for the rational b = num/den in lowest terms, den > 0.

    The operator would make b a Fraction and, per term, fall back to
    Fraction's reflected product: float(c) * float(b) for a float c,
    complex(c) * complex(b) for a complex c.  float(b) is num / den and
    complex(b) is complex(float(b)) (numbers.Rational and numbers.Real
    define them so), and here they are formed once for all terms.  So
    every coefficient keeps its bits.
    """
    tol_num, tol_den = _TOL_RATIO
    if abs(num) * tol_den <= tol_num * den:  # constant(b) is the zero series
        return Fraction(num, den) * x
    fb = num / den
    cb = complex(fb)
    return NovikovSeries._below(
        (
            (
                e,
                c * cb if type(c) is complex
                else c * fb if type(c) is float
                else c * Fraction(num, den),
            )
            for e, c in x.terms
        ),
        x.cutoff,
    )


def _eps_powers(u: NovikovSeries) -> _Powers:
    """The powers of eps for a valuation-zero unit u = c0 * (1 + eps),
    truncated at u.cutoff.  They do not depend on the exponent t of
    `fractional_power`, so a caller taking many powers of one unit
    builds this table once and passes it to every call."""
    eps = NovikovSeries._below(u.terms[1:], u.cutoff)
    return _Powers(eps * (1.0 / u.leading_coefficient()), u.cutoff)


def fractional_power(
    u: NovikovSeries, t: Rational, _eps_table: Optional[_Powers] = None
) -> NovikovSeries:
    """u^t for a valuation-zero unit u and rational t.

    Writes u = c0 (1 + eps) and returns c0^t * sum_k binom(t,k) eps^k,
    with c0^t taken on the principal logarithm branch.  Satisfies the
    exponent law u^s * u^t = u^(s+t) up to cutoff/tolerance.

    `_eps_table`, when given, is `_eps_powers(u)`, shared by the caller
    across exponents t.
    """
    if u.is_zero():
        raise ZeroSeries("fractional power of the zero series")
    if u.val() != 0:
        raise NonUnit(f"fractional_power needs val = 0, got val = {u.val()}")
    t = Fraction(t)
    powers = _eps_powers(u) if _eps_table is None else _eps_table
    c0, eps = u.leading_coefficient(), powers.base
    scale = cmath.exp(t * cmath.log(c0)) if t != 0 else 1.0 + 0.0j
    if eps.is_zero():
        return NovikovSeries.constant(scale, u.cutoff)
    if u.cutoff is None:
        if t.denominator == 1 and t >= 0:
            return scale * (u * (1.0 / c0)) ** int(t)
        raise ValueError(
            "fractional power of an exact non-constant series needs a "
            "finite cutoff; truncate first"
        )
    out = _RunningSum(NovikovSeries.one())
    # binom(t, k) = num/den in lowest terms, updated from binom(t, k - 1):
    # the same rational as _binom(t, k)
    p, q = t.numerator, t.denominator
    num = den = 1
    k_max = math.ceil(float(u.cutoff) / float(eps.val()))
    for k in range(1, k_max + 2):
        num *= p - (k - 1) * q
        den *= q * k
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if num == 0:
            break
        power = powers[k]
        if power.is_zero():
            break
        out.add(_fraction_multiple(num, den, power))
    return scale * out.series()
