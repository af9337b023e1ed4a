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
are canonical by construction (negation, truncation, a product with a
one-term factor, the inverse of a one-term series) go through the
private `NovikovSeries._sorted` instead, which applies the per-term
rules only; its caller guarantees Fraction exponents in strictly
increasing order and a Fraction (or None) cutoff.

Binary operations propagate the weakest truncation guarantee:

    add: cutoff = min(cutoff_a, cutoff_b)
    mul: cutoff = min(cutoff_a + val(b), cutoff_b + val(a))

so reliability windows flow through long compositions without manual
bookkeeping.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .errors import NonUnit, ZeroSeries

#: coefficients with |c| <= ZERO_TOL are treated as zero
ZERO_TOL = 1e-12

Rational = Union[int, Fraction]
Scalar = Union[int, float, complex, Fraction]


def _min_cutoff(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


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
        cut = cutoff
        if cut is not None and type(cut) is not Fraction:
            cut = Fraction(cut)
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

    @classmethod
    def _sorted(
        cls, terms: Iterable[Tuple[Fraction, Scalar]], cutoff: Optional[Fraction]
    ) -> "NovikovSeries":
        """The series of `terms`, which must have Fraction exponents in
        strictly increasing order, and a Fraction (or None) cutoff.

        Applies the public constructor's per-term rules and nothing
        else: terms at or above the cutoff are dropped, each coefficient
        is stored as `0 + c`, and |c| <= ZERO_TOL is dropped.  `terms`
        may be a generator; it is not read past the cutoff.
        """
        clean = []
        for e, c in terms:
            if cutoff is not None and e >= cutoff:
                break
            c = 0 + c
            if abs(c) <= ZERO_TOL:
                continue
            clean.append((e, c))
        out = object.__new__(cls)
        object.__setattr__(out, "terms", tuple(clean))
        object.__setattr__(out, "cutoff", cutoff)
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, cutoff: Optional[Rational] = None) -> "NovikovSeries":
        return cls((), cutoff)

    @classmethod
    def one(cls) -> "NovikovSeries":
        return cls(((Fraction(0), 1.0 + 0.0j),))

    @classmethod
    def constant(cls, c: Scalar, cutoff: Optional[Rational] = None) -> "NovikovSeries":
        return cls(((Fraction(0), c),), cutoff)

    @classmethod
    def q_power(
        cls, e: Rational, coeff: Scalar = 1, cutoff: Optional[Rational] = None
    ) -> "NovikovSeries":
        return cls(((Fraction(e), coeff),), cutoff)

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
        """Largest |coefficient| among exponents < `below` (all if None)."""
        bound = None if below is None else Fraction(below)
        best = 0.0
        for e, c in self.terms:
            if bound is not None and e >= bound:
                break
            best = max(best, abs(c))
        return best

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
        return NovikovSeries(
            self.terms + o.terms, _min_cutoff(self.cutoff, o.cutoff)
        )

    __radd__ = __add__

    def __neg__(self):
        return NovikovSeries._sorted(((e, -c) for e, c in self.terms), self.cutoff)

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
            return NovikovSeries._sorted(
                ((ea + eb, ca * cb) for ea, ca in self.terms), cut
            )
        if len(self.terms) == 1:
            ea, ca = self.terms[0]
            return NovikovSeries._sorted(
                ((ea + eb, ca * cb) for eb, cb in o.terms), cut
            )
        acc = {}
        for ea, ca in self.terms:
            for eb, cb in o.terms:
                e = ea + eb
                if cut is not None and e >= cut:
                    continue
                acc[e] = acc.get(e, 0) + ca * cb
        return NovikovSeries(acc.items(), cut)

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


def _fmt_real(x: float) -> str:
    return repr(float(x))


def _fmt_coeff(c) -> str:
    z = complex(c)
    re, im = _fmt_real(z.real), _fmt_real(abs(z.imag))
    sign = "-" if z.imag < 0 else "+"
    return f"({re}{sign}{im}i)"


def series_text(a: NovikovSeries) -> str:
    """Deterministic plain-text form  c*q^(p/r) + ... [+ O(q^(cut))]."""
    parts = [f"{_fmt_coeff(c)}*q^({e})" for e, c in a.terms]
    if a.cutoff is not None:
        parts.append(f"O(q^({a.cutoff}))")
    return " + ".join(parts) if parts else "0"


def series_json(a: NovikovSeries) -> dict:
    """JSON-ready form: exact exponents, float coefficients."""
    return {
        "terms": [
            {
                "num": e.numerator,
                "den": e.denominator,
                "re": float(complex(c).real),
                "im": float(complex(c).imag),
            }
            for e, c in a.terms
        ],
        "cutoff": None
        if a.cutoff is None
        else {"num": a.cutoff.numerator, "den": a.cutoff.denominator},
    }


# ---------------------------------------------------------------------------
# function forms of the field operations
# ---------------------------------------------------------------------------


def val(a: NovikovSeries) -> Fraction:
    return a.val()


def norm(a: NovikovSeries) -> float:
    """e^(-val(a)); the non-archimedean absolute value."""
    return math.exp(-float(a.val()))


def invert(a: NovikovSeries) -> NovikovSeries:
    """Multiplicative inverse, reliable where the inputs allow.

    Factors a = c0 * q^v * (1 + eps) with val(eps) > 0 and sums the
    geometric series in eps.  The result carries cutoff a.cutoff - 2v,
    which makes val(a * invert(a) - 1) >= a.cutoff - v.
    """
    if a.is_zero():
        raise ZeroSeries("cannot invert the zero series")
    v = a.val()
    c0 = a.leading_coefficient()
    if len(a.terms) == 1:
        # the general path below, with eps = 0 and geo = one()
        if a.cutoff is None:
            return NovikovSeries._sorted(((-v, 1.0 / c0),), None)
        return NovikovSeries._sorted(
            ((-v, (1.0 + 0.0j) / c0),), a.cutoff - 2 * v
        )
    # normalized unit 1 + eps, exponents shifted down by v
    eps = NovikovSeries(
        tuple((e - v, c / c0) for e, c in a.terms[1:]),
        None if a.cutoff is None else a.cutoff - v,
    )
    if a.cutoff is None:
        if not eps.is_zero():
            raise ValueError(
                "inverting a multi-term exact series needs a finite cutoff; "
                "truncate first"
            )
        return NovikovSeries.q_power(-v, 1.0 / c0)
    window = a.cutoff - v  # reliable window of the normalized unit
    geo = NovikovSeries.one()
    term = NovikovSeries.one()
    step = (-eps).truncated(window)
    if not step.is_zero():
        k_max = math.ceil(float(window) / float(step.val()))
        for _ in range(k_max + 1):
            term = (term * step).truncated(window)
            if term.is_zero():
                break
            geo = geo + term
    inv_terms = tuple((e - v, c / c0) for e, c in geo.terms)
    return NovikovSeries(inv_terms, a.cutoff - 2 * v)


def _binom(t: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= (t - j) / (k - j)
    return out


def fractional_power(u: NovikovSeries, t: Rational) -> NovikovSeries:
    """u^t for a valuation-zero unit u and rational t.

    Writes u = c0 (1 + eps) and returns c0^t * sum_k binom(t,k) eps^k,
    with c0^t taken on the principal logarithm branch.  Satisfies the
    exponent law u^s * u^t = u^(s+t) up to cutoff/tolerance.
    """
    if u.is_zero():
        raise ZeroSeries("fractional power of the zero series")
    if u.val() != 0:
        raise NonUnit(f"fractional_power needs val = 0, got val = {u.val()}")
    t = Fraction(t)
    c0 = u.leading_coefficient()
    eps = NovikovSeries(tuple(u.terms[1:]), u.cutoff) * (1.0 / c0)
    scale = cmath.exp(t * cmath.log(c0)) if t != 0 else 1.0 + 0.0j
    if eps.is_zero():
        return NovikovSeries.constant(scale, u.cutoff)
    if u.cutoff is None:
        if t.denominator == 1 and t >= 0:
            base = NovikovSeries(u.terms) * (1.0 / c0)
            return scale * base ** int(t)
        raise ValueError(
            "fractional power of an exact non-constant series needs a "
            "finite cutoff; truncate first"
        )
    window = u.cutoff
    out = NovikovSeries.one()
    power = NovikovSeries.one()
    k = 0
    k_max = math.ceil(float(window) / float(eps.val()))
    while k < k_max + 1:
        k += 1
        b = _binom(t, k)
        if b == 0:
            break
        power = (power * eps).truncated(window)
        if power.is_zero():
            break
        out = out + b * power
    return scale * out
