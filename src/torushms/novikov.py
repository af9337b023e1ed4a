"""Truncated arithmetic in the Novikov field.

Elements are finite sums  sum_i c_i * q^(a_i)  with strictly increasing
rational exponents a_i and complex coefficients c_i, together with a
per-series truncation cutoff: exponents >= cutoff are unspecified.  A
cutoff of None means the series is exact.

Exponents are exact (fractions.Fraction); coefficients are machine
complex doubles.  Coefficients whose magnitude is below ZERO_TOL are
dropped during normalization.

Canonical form.  A series stores one form, keyed: `_den`, the least
common denominator of its exponents, `_keys`, the exponents times `_den`
as strictly increasing integers, and `_coeffs`, each coefficient stored
as `0 + c` (so a float -0.0 reads 0.0), none with |c| <= ZERO_TOL; every
exponent lies below the cutoff.  `terms`, the (Fraction, coefficient)
pairs, is formed from the keys on each read.  Only output reads it
(`repr`, `series_text`, `coefficient`, the CLI's JSON); every kernel and
group-law step reads keys.  The public constructor reaches the keyed
form from any input by merging equal exponents and sorting; every other
series comes from the private `NovikovSeries._from_keys`, which takes
increasing keys below the cutoff, applies the per-term rules (`0 + c`,
the drop) and reduces to the least denominator.  `==`, `hash` and
pickle read the keyed form, so equal series hash equal.

Kernels.  Sums and products work on the keyed form, and build no
Fraction.  One adder, `_RunningSum`,
forms every sum: `a + b` is a running sum started at `a` with `b` added,
and every loop that adds many series into one (the geometric series of
`invert`, the binomial series of `fractional_power`, theta series, each
matrix entry of `mu2`) keeps one running sum instead of re-merging the
partial sum each step.  Where an addend is a series x times exact
one-term factors (q^e times M^k in a theta term; the area weight,
transports and generators of a rank-1 triangle), `add_product` adds it
in one pass over x's keys: each coefficient goes through the stages of
the products it replaces, `0 +` and the drop rule included, and lands at
the shifted integer key.  Where x too is one exact term (a constant
unit's theta term, a rank-1 triangle with no series factor), the caller
runs those stages on scalars (`_kept`) and `add_term` adds the result.
A product of two multi-term series runs its double loop into an
integer-keyed dict, leaving the inner loop at the first key at or above
the cutoff.  Every kernel output (sums, products, negation, truncation)
is reduced to its least denominator; no kernel forms an exponent Fraction.

A series keeps what is derived from it, and no caller passes tables
around.  Its one private slot, `_held` (a `_Held`, filled on first use),
holds its inverse (`invert`), its powers P_k = P_(k-1) * a (`_power`,
which reads a^-k from the inverse's powers) and its table of eps powers
(`fractional_power`), so each is formed once per series object, by the
same products in the same order as a fresh formation.  `==`, `hash`,
`repr`, pickle and copy ignore the slot, and a copy starts empty.  Equal
series are not merged: coefficients 1, 1.0 and 1+0j compare equal, but
1.0 / c0 is a float for the first two and complex for the third.
Nothing held refers back to its series, so reference counting frees a
series together with all it holds.

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
group law of `tate` and its scalar zero test ask `_kept` whether their
one coefficient survives.  A
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
from typing import Iterable, Optional, Tuple, Union

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
    exact one-term factors as scalars (the rank-1 path of `floer`, the
    scalar group law of `tate`) apply the drop rule here."""
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


def _key_bound(cutoff: Fraction, den: int) -> int:
    """The least integer key k with k / den >= cutoff."""
    return -(-cutoff.numerator * den // cutoff.denominator)


class NovikovSeries:
    """Immutable truncated Novikov series in canonical form."""

    __slots__ = ("cutoff", "_den", "_keys", "_coeffs", "_held")

    def __new__(
        cls,
        terms: Iterable[Tuple[Rational, Scalar]] = (),
        cutoff: Optional[Rational] = None,
    ):
        acc = {}
        for e, c in terms:
            if type(e) is not Fraction:
                e = Fraction(e)
            acc[e] = acc.get(e, 0) + c
        cut = _as_cutoff(cutoff)
        exps = sorted(acc)
        if cut is not None:
            del exps[bisect.bisect_left(exps, cut):]
        den = math.lcm(*[e.denominator for e in exps])
        keys = [e.numerator * (den // e.denominator) for e in exps]
        return cls._from_keys(den, keys, [acc[e] for e in exps], cut)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("NovikovSeries is immutable")

    @property
    def terms(self) -> Tuple[Tuple[Fraction, Scalar], ...]:
        """The (exponent, coefficient) pairs, formed from the keys on each
        read (see the module docstring)."""
        den = self._den
        return tuple(zip([Fraction(k, den) for k in self._keys], self._coeffs))

    def __reduce__(self):  # pickle and copy rebuild without __setattr__
        return NovikovSeries._from_keys, (self._den, self._keys, self._coeffs, self.cutoff)

    @classmethod
    def _from_keys(cls, den: int, keys, coeffs, cutoff) -> "NovikovSeries":
        """The series of increasing integer `keys` over `den`, all below
        the cutoff (a Fraction or None): each coefficient is stored as
        `0 + c` and |c| <= ZERO_TOL is dropped, at the least denominator."""
        kept_keys, kept = [], []
        for k, c in zip(keys, coeffs):
            c = 0 + c
            if abs(c) <= ZERO_TOL:  # not `>`: a nan is kept
                continue
            kept_keys.append(k)
            kept.append(c)
        g = math.gcd(den, *kept_keys)
        if g > 1:
            den, kept_keys = den // g, [k // g for k in kept_keys]
        out = object.__new__(cls)
        object.__setattr__(out, "_den", den)
        object.__setattr__(out, "_keys", tuple(kept_keys))
        object.__setattr__(out, "_coeffs", tuple(kept))
        object.__setattr__(out, "cutoff", cutoff)
        return out

    @classmethod
    def _kept_constant(cls, c) -> "NovikovSeries":
        """`_from_keys(1, (0,), (c,), None)` for a kept c minus the no-op loop and gcd;
        the same objects (a fresh keys tuple too), so the collector runs at the same points."""
        out, put = object.__new__(cls), object.__setattr__
        put(out, "_den", 1)
        put(out, "_keys", tuple([0]))
        put(out, "_coeffs", (c,))
        put(out, "cutoff", None)
        return out

    # -- constructors ------------------------------------------------

    # (one term needs no merge or sort: these skip the public constructor)

    @classmethod
    def zero(cls, cutoff: Optional[Rational] = None) -> "NovikovSeries":
        return cls._from_keys(1, (), (), _as_cutoff(cutoff))

    @classmethod
    def one(cls) -> "NovikovSeries":
        return cls._from_keys(1, (0,), (1.0 + 0.0j,), None)

    @classmethod
    def constant(cls, c: Scalar, cutoff: Optional[Rational] = None) -> "NovikovSeries":
        return cls.q_power(_ZERO, c, cutoff)

    @classmethod
    def q_power(
        cls, e: Rational, coeff: Scalar = 1, cutoff: Optional[Rational] = None
    ) -> "NovikovSeries":
        if type(e) is not Fraction:
            e = Fraction(e)
        cut = _as_cutoff(cutoff)
        if cut is not None and e >= cut:  # the term lies past the cutoff
            return cls._from_keys(1, (), (), cut)
        return cls._from_keys(e.denominator, (e.numerator,), (coeff,), cut)

    # -- basic queries ----------------------------------------------

    def is_zero(self) -> bool:
        return not self._keys

    def val(self) -> Fraction:
        """Smallest exponent carrying a nonzero coefficient."""
        if not self._keys:
            raise ZeroSeries("valuation of the zero series is undefined")
        return Fraction(self._keys[0], self._den)

    def leading_coefficient(self):
        if not self._keys:
            raise ZeroSeries("zero series has no leading coefficient")
        return self._coeffs[0]

    def coefficient(self, e: Rational):
        e = Fraction(e)
        for ee, c in self.terms:
            if ee == e:
                return c
        return 0j

    def max_abs_coeff(self, below: Optional[Rational] = None) -> float:
        """Largest |coefficient| among exponents < `below` (all if None);
        nan if one of them is nan."""
        n = len(self._keys) if below is None else self._n_below(Fraction(below))
        return _largest(abs(c) for c in self._coeffs[:n])

    def _n_below(self, bound: Fraction) -> int:
        """How many keys lie below the exponent `bound`."""
        return bisect.bisect_left(self._keys, _key_bound(bound, self._den))

    def truncated(self, cutoff: Rational) -> "NovikovSeries":
        if type(cutoff) is not Fraction:
            cutoff = Fraction(cutoff)
        cut = _min_cutoff(self.cutoff, cutoff)
        n = self._n_below(cut)
        return self._from_keys(self._den, self._keys[:n], self._coeffs[:n], cut)

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
        return NovikovSeries._from_keys(
            self._den, self._keys, [-c for c in self._coeffs], self.cutoff
        )

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
            shift = o.val() if o._keys else o.cutoff
            cut_a = None if shift is None else self.cutoff + shift
        cut_b = None
        if o.cutoff is not None:
            shift = self.val() if self._keys else self.cutoff
            cut_b = None if shift is None else o.cutoff + shift
        cut = _min_cutoff(cut_a, cut_b)
        da, db = self._den, o._den
        den = da if da == db else math.lcm(da, db)
        sa, sb = den // da, den // db
        ka, kb = self._keys, o._keys
        stop = None if cut is None else _key_bound(cut, den)
        # a one-term factor shifts every exponent by the same amount, so
        # the product is already sorted and has no exponents to merge
        if len(kb) == 1 or len(ka) == 1:
            right = len(kb) == 1  # o is the one-term factor
            step = kb[0] * sb if right else ka[0] * sa
            keys = [k * sa + step for k in ka] if right else [k * sb + step for k in kb]
            if stop is not None:
                del keys[bisect.bisect_left(keys, stop):]
            n = len(keys)
            coeffs = ([ca * o._coeffs[0] for ca in self._coeffs[:n]] if right
                      else [self._coeffs[0] * cb for cb in o._coeffs[:n]])
            return NovikovSeries._from_keys(den, keys, coeffs, cut)
        if not ka or not kb:
            return NovikovSeries._from_keys(1, (), (), cut)
        left = [k * sa for k in ka]
        right = list(zip([k * sb for k in kb], o._coeffs))
        if stop is None:
            stop = left[-1] + right[-1][0] + 1
        acc = {}
        for a, ca in zip(left, self._coeffs):
            bound = stop - a
            for b, cb in right:
                if b >= bound:
                    break  # o's keys increase: no later term is below the cutoff
                k = a + b
                acc[k] = acc.get(k, 0) + ca * cb
        keys = sorted(acc)
        return NovikovSeries._from_keys(den, keys, [acc[k] for k in keys], cut)

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
        return (
            self._keys == other._keys and self._den == other._den
            and self._coeffs == other._coeffs and self.cutoff == other.cutoff
        )

    def __hash__(self):
        return hash((self._den, self._keys, self._coeffs, self.cutoff))

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
    keys over a denominator that grows when an addend needs it; `series`
    returns the keyed form at the least denominator.
    """

    __slots__ = ("den", "coeffs", "cutoff")

    def __init__(self, start: NovikovSeries):
        self.den = start._den
        self.coeffs = dict(zip(start._keys, start._coeffs))
        self.cutoff = start.cutoff

    def _grow(self, d: int) -> int:
        """Rescale the keys to a denominator that d divides; return it."""
        factor = d // math.gcd(self.den, d)
        self.den *= factor
        self.coeffs = {k * factor: v for k, v in self.coeffs.items()}
        return self.den

    def add(self, x: NovikovSeries) -> None:
        den, coeffs = self.den, self.coeffs
        if den % x._den:
            den = self._grow(x._den)
            coeffs = self.coeffs
        scale = den // x._den
        for k, c in zip(x._keys, x._coeffs):
            k *= scale
            total = coeffs.get(k, 0) + c
            if abs(total) <= ZERO_TOL:
                coeffs.pop(k, None)
            else:
                coeffs[k] = total
        self.cutoff = _min_cutoff(self.cutoff, x.cutoff)

    def add_product(
        self, num: int, den: int, x: NovikovSeries, right=None, lefts=()
    ) -> None:
        """`add` of q^(num/den) * l_m * (... (l_1 * (x * right))), where
        `right` (unless None) and each l_i are the coefficients of exact
        one-term factors whose exponents, with num/den, sum to the shift
        num/den; den > 0, and num/den need not be in lowest terms.

        One pass over x's keys, with no intermediate series.  Each term's
        coefficient goes through the stages of the one-term products it
        replaces: `0 + c * right`, then `0 + l * c` for each l in order,
        dropped at the first stage where |c| <= ZERO_TOL.  A kept term
        is added at key shift + term key, as `add` adds it.  No stage cuts
        a term: the product's cutoff is x's shifted by num/den, and every
        term of x lies below x's.  A factor that the drop rule makes zero
        makes the whole product the exact zero, which adds nothing; the
        caller does not call this then.
        """
        keys = x._keys
        if keys:
            tol = ZERO_TOL
            base = self.den
            if base % den:
                base = self._grow(den)
            if base % x._den:
                base = self._grow(x._den)
            coeffs = self.coeffs
            shift, scale = num * (base // den), base // x._den
            for k, c in zip(keys, x._coeffs):
                if right is not None:
                    c = 0 + c * right
                    if abs(c) <= tol:
                        continue
                for s in lefts:
                    c = 0 + s * c
                    if abs(c) <= tol:
                        break
                else:
                    k = shift + k * scale
                    total = coeffs.get(k, 0) + c
                    if abs(total) <= tol:
                        coeffs.pop(k, None)
                    else:
                        coeffs[k] = total
        if x.cutoff is not None:
            self.cutoff = _min_cutoff(self.cutoff, x.cutoff + Fraction(num, den))

    def add_term(self, num: int, den: int, c) -> None:
        """`add` of the exact term c * q^(num/den), for a coefficient c that
        the drop rule keeps (`_kept`) and den > 0: `add_product` of a
        one-term x at exponent 0 once its stages have run."""
        base = self.den
        if base % den:
            base = self._grow(den)
        k = num * (base // den)
        total = self.coeffs.get(k, 0) + c
        if abs(total) <= ZERO_TOL:
            self.coeffs.pop(k, None)
        else:
            self.coeffs[k] = total

    def series(self) -> NovikovSeries:
        den, coeffs, cut = self.den, self.coeffs, self.cutoff
        keys = sorted(coeffs)
        if cut is not None:
            del keys[bisect.bisect_left(keys, _key_bound(cut, den)):]
        return NovikovSeries._from_keys(den, keys, [coeffs[k] for k in keys], cut)


class _Held:
    """What is derived from one series and kept in its `_held` slot, each
    None until first asked for: `inverse`; `powers`, the table of its
    powers; `eps_powers`, (eps, the table of eps's powers) for a unit
    c0 * (1 + eps)."""

    __slots__ = ("inverse", "powers", "eps_powers")

    def __init__(self):
        self.inverse = self.powers = self.eps_powers = None

    @classmethod
    def of(cls, a: NovikovSeries) -> "_Held":
        try:
            return a._held
        except AttributeError:
            held = cls()
            object.__setattr__(a, "_held", held)
            return held


def _nth(table: list, base: NovikovSeries, k: int, window=None) -> NovikovSeries:
    """P_k of the power table P_0 = table[0], P_j = P_(j-1) * base, each
    truncated at `window` when one is given.  The powers up to P_k are
    appended to `table` as they are formed, so each is formed once."""
    while len(table) <= k:
        p = table[-1] * base
        table.append(p if window is None else p.truncated(window))
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
    return not x._keys or x._keys[0] >= _key_bound(verdict_window(cutoff, x), x._den)


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


def invert(a: NovikovSeries) -> NovikovSeries:
    """Multiplicative inverse, reliable where the inputs allow.

    Factors a = c0 * q^v * (1 + eps) with val(eps) > 0 and sums the
    geometric series in eps.  The result carries cutoff a.cutoff - 2v,
    which makes val(a * invert(a) - 1) >= a.cutoff - v.  It is formed
    once per series object and held on it.
    """
    if a.is_zero():
        raise ZeroSeries("cannot invert the zero series")
    held = _Held.of(a)
    if held.inverse is None:
        held.inverse = _series_inverse(a)
    return held.inverse


def _power(a: NovikovSeries, k: int) -> NovikovSeries:
    """a^k for an integer k: P_k of the table P_0 = one(), P_k = P_(k-1) * a
    held on a, or for k < 0 P_(-k) of the table held on invert(a).  Each
    power is formed once.  (`a ** k` squares and multiplies, which forms
    other bits.)"""
    if k < 0:
        a, k = invert(a), -k
    held = _Held.of(a)
    if held.powers is None:
        held.powers = [NovikovSeries.one()]
    return _nth(held.powers, a, k)


def _series_inverse(a: NovikovSeries) -> NovikovSeries:
    """`invert` of a nonzero series, formed afresh."""
    v = a.val()
    c0 = a.leading_coefficient()
    den, keys = a._den, a._keys
    if len(keys) == 1:  # the path below, with eps = 0 and geo = one()
        if a.cutoff is None:
            return NovikovSeries._from_keys(den, (-keys[0],), (1.0 / c0,), None)
        return NovikovSeries._from_keys(
            den, (-keys[0],), ((1.0 + 0.0j) / c0,), a.cutoff - 2 * v
        )

    def normalized(den, keys, coeffs, cutoff):
        # keys shifted down by v over a denominator both share, each
        # coefficient divided by c0; the order stays sorted
        d = math.lcm(den, v.denominator)
        scale, shift = d // den, v.numerator * (d // v.denominator)
        return NovikovSeries._from_keys(
            d, [k * scale - shift for k in keys], [c / c0 for c in coeffs], cutoff
        )

    # normalized unit 1 + eps
    eps = normalized(
        den, keys[1:], a._coeffs[1:], None if a.cutoff is None else a.cutoff - v
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
        term = NovikovSeries.one()
        k_max = math.ceil(float(window) / float(step.val()))
        for _ in range(k_max + 1):
            term = (term * step).truncated(window)
            if term.is_zero():
                break
            geo.add(term)
    geo = geo.series()
    return normalized(geo._den, geo._keys, geo._coeffs, a.cutoff - 2 * v)


def _binomials(p: int, q: int):
    """binom(p/q, k) for k = 1, 2, ... as (num, den) in lowest terms, q != 0
    (den < 0 only for q < 0): binom(t, k) = binom(t, k - 1) (t - k + 1)/k
    on integers.  Transports and `fractional_power` take every binomial
    from here."""
    num = den = 1
    k = 0
    while True:
        num *= p - k * q
        k += 1
        den *= q * k
        g = math.gcd(num, den)
        num, den = num // g, den // g
        yield num, den


_TOL_RATIO = ZERO_TOL.as_integer_ratio()  # ZERO_TOL, exactly


def _ratio_dropped(num: int, den: int) -> bool:
    """|num/den| <= ZERO_TOL, exactly, for ints num and den != 0: the drop
    rule makes `constant(Fraction(num, den))` the zero series."""
    tol_num, tol_den = _TOL_RATIO
    return abs(num) * tol_den <= tol_num * abs(den)


def _fraction_multiple(num: int, den: int, x: NovikovSeries) -> NovikovSeries:
    """b * x for the rational b = num/den in lowest terms, den > 0.

    The operator would make b a Fraction and, per term, fall back to
    Fraction's reflected product: float(c) * float(b) for a float c,
    complex(c) * complex(b) for a complex c.  float(b) is num / den and
    complex(b) is complex(float(b)) (numbers.Rational and numbers.Real
    define them so), and here they are formed once for all terms.  So
    every coefficient keeps its bits.
    """
    if _ratio_dropped(num, den):
        return Fraction(num, den) * x
    fb = num / den
    cb = complex(fb)
    return NovikovSeries._from_keys(
        x._den,
        x._keys,
        [
            c * cb if type(c) is complex
            else c * fb if type(c) is float
            else c * Fraction(num, den)
            for c in x._coeffs
        ],
        x.cutoff,
    )


def _eps_powers(u: NovikovSeries):
    """(eps, its power table) for a valuation-zero unit u = c0 * (1 + eps),
    held on u; each power is truncated at u.cutoff (`_nth`).  They do not
    depend on the exponent t of `fractional_power`, so every power of one
    unit forms each of them once."""
    held = _Held.of(u)
    if held.eps_powers is None:
        eps = NovikovSeries._from_keys(u._den, u._keys[1:], u._coeffs[1:], u.cutoff)
        eps = eps * (1.0 / u.leading_coefficient())
        held.eps_powers = (eps, [NovikovSeries.one()])
    return held.eps_powers


def fractional_power(u: NovikovSeries, t: Rational) -> NovikovSeries:
    """u^t for a valuation-zero unit u and rational t.

    Writes u = c0 (1 + eps) and returns c0^t * sum_k binom(t,k) eps^k,
    with c0^t taken on the principal logarithm branch.  Satisfies the
    exponent law u^s * u^t = u^(s+t) up to cutoff/tolerance.  The powers
    of eps are held on u (`_eps_powers`).
    """
    if u.is_zero():
        raise ZeroSeries("fractional power of the zero series")
    if u.val() != 0:
        raise NonUnit(f"fractional_power needs val = 0, got val = {u.val()}")
    t = t if type(t) is Fraction else Fraction(t)  # floer's arcs are not copied
    eps, powers = _eps_powers(u)
    c0 = u.leading_coefficient()
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
    k_max = math.ceil(float(u.cutoff) / float(eps.val()))
    binomials = _binomials(t.numerator, t.denominator)
    for k, (num, den) in zip(range(1, k_max + 2), binomials):
        if num == 0:
            break
        power = _nth(powers, eps, k, u.cutoff)
        if power.is_zero():
            break
        out.add(_fraction_multiple(num, den, power))
    return scale * out.series()

