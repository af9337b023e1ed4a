"""Command-line surface: parse brane/point/sheaf expressions, run the
library computations, print plain text or JSON.

Each verb takes --json and only the flags it reads: --cutoff on mu2,
assoc, theta and section, --tol on assoc, relations and witness.

Exit codes: 0 success; 1 usage or input error; 2 domain error
(non-transverse pair, degenerate configuration, ...).  Usage errors are
a command line argparse rejects (a flag the verb does not take among
them), a --cutoff that is not a positive rational at most MAX_CUTOFF
spelled in at most MAX_CUTOFF_DIGITS digits, a --tol that is negative
or not finite, and a relations bound above MAX_RELATION_BOUND = 10.
Input errors are syntax errors, a command over the work budget (below),
an --x spelled in more than MAX_CUTOFF_DIGITS digits, an expression that
is not the single object a flag takes (a sum, a multiple, a sheaf given
as a brane, ...), a sum with a term of the wrong kind (a brane among
sheaves, ...), and literals their constructor rejects (L(2,4;0), a rank
or thickness of 0, ...).  Kinds are checked on the syntax trees of all
the expressions, before any term of any of them is built.
A rejected run prints one labelled line on stderr, or under --json one
{"error", "kind", "detail"} object on stdout; it never ends in a
traceback.  JSON (--json) is the stable machine interface --
byte-identical for identical inputs and configuration; the plain format
is for humans and may change.

Work budget.  A command may ask for at most MAX_GROUP_STEPS = 100,000
steps of the Tate group law, counted before the work starts.  Building
costs |n| for each O(nP0); k0 adds |mult| per term and h per Sky,
theta-sharp |mult| + rank per brane and |k| for slope (1, k), mirror |d|
for a rank-1 bundle of degree d, all read on the syntax trees.  cf, mu2 and
assoc count on their built branes what `floer._work` says they form; at
the bound they take 44-226 ms on a 2-core x86-64 host, cf 143 ms.  So cf
of L(1,999999999;0) and L(1,0;0), a rank-10000 system, or a rank-801
system on a shift with a 100-digit denominator, exit 1 at once.

Input grammar (EBNF).  Whitespace is free before, between and after
tokens.  An INT has at most MAX_INT_DIGITS = 100 digits; a longer one is
a syntax error at that token.

    expr     := term (("+" | "-") term)*
    term     := [INT "*"] item
    item     := brane | sheaf | point
    brane    := "L" "(" int "," int ";" rat ")" [shift] [system]
    system   := "{" "M" "=" "phase" rat "," "rank" INT "}"
    shift    := "[" int "]"
    point    := "pt" "(" "x" "=" rat "," "phase" "=" rat ")"
    sheaf    := "O" "(" (int "P0" | "P0" | "D" ":" divisor) ")" [shift]
              | "Sky" "(" point "," INT ")" [shift]
              | "Bun" "(" int "," int "," point ")" [shift]
    divisor  := point (("+" | "-") point)*
    rat      := int ["/" INT]
    int      := ["-"] INT

Monodromy and point units are given as a rational number of turns:
"phase 1/7" means exp(2 pi i / 7).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from ._record import record
from .errors import ParseError, TorushmsError
from .floer import (
    FloerElement, _unit_matrix, _work, assoc_defect, cf, mu2, mu2_triangles,
)
from .mirror import mirror_of_sheaf, theta_sharp, zeta_injectivity_witness
from .novikov import NovikovSeries, series_text, vanishes
from .sheafk import (
    Bundle, K0Class, RelationBounds, Skyscraper, k0_class,
    line_bundle, o_of_n_p0, relation_suite,
)
from .tate import TatePoint, eval_section, section_through, theta_eval
from .torus import Brane, LocalSystem, index_of
from .cobord import CobordClass, class_of_sum, normal_form

__all__ = ["main", "parse_expr", "print_ast", "parse_ast"]


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|(\S)")

#: The most digits an integer token may have.  mu2 exponent denominators
#: reach about six times the digits of the brane shifts, and past 4300
#: digits CPython refuses to convert an int to or from text: shifts of
#: 700 digits still print, shifts of 800 do not.
MAX_INT_DIGITS = 100


@record
class _Tok:
    kind: str  # "int" | "name" | the punctuation character | "end"
    text: str
    col: int  # 1-based column of the first character


def _tokenize(text: str) -> List[_Tok]:
    # finditer skips what no group matches: only whitespace, since \S
    # matches every other character
    toks = [
        _Tok(("int", "name", m[0])[m.lastindex - 1], m[0], m.start() + 1)
        for m in _TOKEN_RE.finditer(text)
    ]
    return toks + [_Tok("end", "", len(text) + 1)]


# ---------------------------------------------------------------------------
# syntax trees (exact rational data; realized into library objects later)
# ---------------------------------------------------------------------------


@record
class PointAst:
    x: Fraction
    phase: Fraction


@record
class BraneAst:
    m: int
    n: int
    x: Fraction
    k: int = 0
    phase: Fraction = Fraction(0)
    rank: int = 1


@record
class OP0Ast:
    n: int
    k: int = 0


@record
class DivAst:
    plus: Tuple[PointAst, ...]
    minus: Tuple[PointAst, ...]
    k: int = 0


@record
class SkyAst:
    pt: PointAst
    h: int
    k: int = 0


@record
class BunAst:
    r: int
    d: int
    pt: PointAst
    k: int = 0


ItemAst = Union[PointAst, BraneAst, OP0Ast, DivAst, SkyAst, BunAst]


@record
class SumAst:
    terms: Tuple[Tuple[int, ItemAst], ...]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    # -- primitives --------------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self, kind: str, expected: str) -> _Tok:
        tok = self.toks[self.i]
        if tok.kind != kind:
            self.fail(expected)
        self.i += 1
        return tok

    def fail(self, expected: str):
        tok = self.toks[self.i]
        if tok.kind == "end":
            got = "end of input"
        elif len(tok.text) > 40:
            got = f"{len(tok.text)} characters"
        else:
            got = repr(tok.text)
        raise ParseError(
            f"expected {expected} at column {tok.col}, got {got}",
            position=tok.col,
            expected=[expected],
        )

    def digits(self, what: str) -> int:
        """An integer token of at most MAX_INT_DIGITS digits."""
        tok = self.take("int", what)
        if len(tok.text) > MAX_INT_DIGITS:
            self.i -= 1
            self.fail(f"{what} of at most {MAX_INT_DIGITS} digits")
        return int(tok.text)

    def int_(self, what: str = "integer") -> int:
        sign = 1
        if self.peek().kind == "-":
            self.i += 1
            sign = -1
        return sign * self.digits(what)

    def rat(self, what: str = "rational") -> Fraction:
        num = self.int_(what)
        if self.peek().kind == "/":
            self.i += 1
            den = self.digits("denominator")
            if den == 0:
                self.i -= 1
                self.fail("nonzero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def name(self, word: str):
        tok = self.take("name", f"'{word}'")
        if tok.text != word:
            self.i -= 1
            self.fail(f"'{word}'")

    def shift(self) -> int:
        if self.peek().kind == "[":
            self.i += 1
            k = self.int_("shift")
            self.take("]", "']'")
            return k
        return 0

    # -- grammar -----------------------------------------------------------

    def point(self) -> PointAst:
        self.name("pt")
        self.take("(", "'('")
        self.name("x")
        self.take("=", "'='")
        x = self.rat()
        self.take(",", "','")
        self.name("phase")
        self.take("=", "'='")
        phase = self.rat()
        self.take(")", "')'")
        return PointAst(x, phase)

    def brane(self) -> BraneAst:
        self.name("L")
        self.take("(", "'('")
        m = self.int_("slope m")
        self.take(",", "','")
        n = self.int_("slope n")
        self.take(";", "';'")
        x = self.rat("shift x")
        self.take(")", "')'")
        k = self.shift()
        phase, rank = Fraction(0), 1
        if self.peek().kind == "{":
            self.i += 1
            self.name("M")
            self.take("=", "'='")
            self.name("phase")
            phase = self.rat()
            self.take(",", "','")
            self.name("rank")
            rank = self.digits("rank")
            self.take("}", "'}'")
        return BraneAst(m, n, x, k, phase, rank)

    def sheaf_o(self) -> Union[OP0Ast, DivAst]:
        self.name("O")
        self.take("(", "'('")
        tok = self.peek()
        if tok.kind == "name" and tok.text == "D":
            self.i += 1
            self.take(":", "':'")
            plus: List[PointAst] = [self.point()]
            minus: List[PointAst] = []
            while self.peek().kind in ("+", "-"):
                sign = self.peek().kind
                self.i += 1
                (plus if sign == "+" else minus).append(self.point())
            self.take(")", "')'")
            return DivAst(tuple(plus), tuple(minus), self.shift())
        if tok.kind == "name" and tok.text == "P0":
            self.i += 1
            n = 1
        else:
            n = self.int_("multiple of P0")
            self.name("P0")
        self.take(")", "')'")
        return OP0Ast(n, self.shift())

    def sky(self) -> SkyAst:
        self.name("Sky")
        self.take("(", "'('")
        pt = self.point()
        self.take(",", "','")
        h = self.digits("thickness")
        self.take(")", "')'")
        return SkyAst(pt, h, self.shift())

    def bun(self) -> BunAst:
        self.name("Bun")
        self.take("(", "'('")
        r = self.int_("rank")
        self.take(",", "','")
        d = self.int_("degree")
        self.take(",", "','")
        pt = self.point()
        self.take(")", "')'")
        return BunAst(r, d, pt, self.shift())

    def item(self) -> ItemAst:
        tok = self.peek()
        kinds = {"L": self.brane, "pt": self.point, "O": self.sheaf_o,
                 "Sky": self.sky, "Bun": self.bun}
        if tok.kind != "name" or tok.text not in kinds:
            self.fail("'L', 'pt', 'O', 'Sky' or 'Bun'")
        return kinds[tok.text]()

    def term(self) -> Tuple[int, ItemAst]:
        mult = 1
        if self.peek().kind == "int" and self.toks[self.i + 1].kind == "*":
            mult = self.digits("multiplier")
            self.take("*", "'*'")
        return mult, self.item()

    def expr(self) -> SumAst:
        lead = 1
        if self.peek().kind == "-":  # canonical text may open with -2*...
            self.i += 1
            lead = -1
        mult, item = self.term()
        terms = [(lead * mult, item)]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.peek().kind == "+" else -1
            self.i += 1
            mult, item = self.term()
            terms.append((sign * mult, item))
        self.take("end", "end of input")
        return SumAst(tuple(terms))


def parse_ast(text: str) -> SumAst:
    """Parse an expression to its exact syntax tree."""
    return _Parser(text).expr()


# ---------------------------------------------------------------------------
# canonical printer (round-trips through parse_ast)
# ---------------------------------------------------------------------------


def _frac(x: Fraction) -> str:
    return str(Fraction(x))  # "n/d", or "n" when d == 1


def _shift_str(k: int) -> str:
    return f"[{k}]" if k else ""


def print_ast(ast) -> str:
    """Canonical text for a syntax tree; parse_ast inverts it exactly."""
    if isinstance(ast, SumAst):
        out = []
        for i, (mult, item) in enumerate(ast.terms):
            sign = ("-" if i == 0 else "- ") if mult < 0 else ("" if i == 0 else "+ ")
            mag = f"{abs(mult)}*" if abs(mult) != 1 else ""
            out.append(sign + mag + print_ast(item))
        return " ".join(out)
    if isinstance(ast, PointAst):
        return f"pt(x={_frac(ast.x)}, phase={_frac(ast.phase)})"
    if isinstance(ast, BraneAst):
        body = f"L({ast.m},{ast.n};{_frac(ast.x)}){_shift_str(ast.k)}"
        if ast.phase != 0 or ast.rank != 1:
            body += f"{{M=phase {_frac(ast.phase)}, rank {ast.rank}}}"
        return body
    if isinstance(ast, OP0Ast):
        return f"O({ast.n}P0){_shift_str(ast.k)}"
    if isinstance(ast, DivAst):
        parts = [print_ast(ast.plus[0])] + [f"+ {print_ast(p)}" for p in ast.plus[1:]]
        parts += [f"- {print_ast(p)}" for p in ast.minus]
        return f"O(D: {' '.join(parts)}){_shift_str(ast.k)}"
    if isinstance(ast, SkyAst):
        return f"Sky({print_ast(ast.pt)}, {ast.h}){_shift_str(ast.k)}"
    if isinstance(ast, BunAst):
        return f"Bun({ast.r},{ast.d},{print_ast(ast.pt)}){_shift_str(ast.k)}"
    raise TypeError(f"not a syntax tree: {ast!r}")


# ---------------------------------------------------------------------------
# realization into library objects
# ---------------------------------------------------------------------------


def _phase(turns: Fraction) -> complex:
    """exp(2*pi*i*turns) for a rational number of turns."""
    return cmath.exp(2j * cmath.pi * (turns.numerator / turns.denominator))


def _realize(ast: ItemAst):
    if isinstance(ast, PointAst):
        return TatePoint(ast.x, _phase(ast.phase))
    if isinstance(ast, BraneAst):
        if ast.phase == 0 and ast.rank == 1:
            system = LocalSystem.trivial()
        else:
            system = LocalSystem.from_eigenvalue(_phase(ast.phase), ast.rank)
        return Brane((ast.m, ast.n), ast.x, ast.k, local_system=system)
    if isinstance(ast, OP0Ast):
        return o_of_n_p0(ast.n).shifted(ast.k)
    if isinstance(ast, DivAst):
        return line_bundle(
            [_realize(p) for p in ast.plus],
            [_realize(p) for p in ast.minus],
        ).shifted(ast.k)
    if isinstance(ast, SkyAst):
        return Skyscraper(_realize(ast.pt), ast.h, ast.k)
    if isinstance(ast, BunAst):
        return Bundle(ast.r, ast.d, _realize(ast.pt), ast.k)
    raise TypeError(f"not an item: {ast!r}")


#: The class _realize builds from each kind of item.
_REALIZES = {
    PointAst: TatePoint,
    BraneAst: Brane,
    OP0Ast: Bundle,
    DivAst: Bundle,
    SkyAst: Skyscraper,
    BunAst: Bundle,
}


def _realize_terms(ast: SumAst) -> list:
    """The (object, multiplier) pairs of a syntax tree.  A literal its
    constructor rejects (slope (2,4), rank 0, ...) raises ParseError."""
    try:
        return [(_realize(item), mult) for mult, item in ast.terms]
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_expr(text: str):
    """Parse and realize: a single Brane / sheaf / TatePoint for a
    one-term expression with multiplier 1, else a list of (object,
    multiplier) pairs.  Neither kind nor work is checked here."""
    pairs = _realize_terms(parse_ast(text))
    return pairs[0][0] if len(pairs) == 1 and pairs[0][1] == 1 else pairs


class _Expr:
    """A required expression flag: the class of object it takes, the
    noun its kind error names, and whether it takes a formal sum."""

    def __init__(self, flag: str, cls, what: str, sums: bool = False):
        self.flag, self.cls, self.what, self.sums = flag, cls, what, sums

    def refused(self, ast: SumAst):
        """None when `ast` is one object of the flag's class (with `sums`, a
        sum of them); else the tree, or with `sums` the first stray term."""
        if not self.sums and (ast.terms[1:] or ast.terms[0][0] != 1):
            return ast
        return next((x for _, x in ast.terms
                     if not issubclass(_REALIZES[type(x)], self.cls)), None)


# ---------------------------------------------------------------------------
# work estimates, one per verb
# ---------------------------------------------------------------------------

#: The most work a command may ask for, in steps of the Tate group law:
#: one point_mul or K-class addition, 2-5 us on a 2-core x86-64 host
#: (CPython 3.11), so 10^5 steps take 0.2-0.5 s.  main adds |n| for each
#: O(nP0) it would build to the estimate of the verb's _VERBS entry, and
#: compares the sum with this bound once, before any object is built.
#: cf, mu2 and assoc compare their count once their branes are built.
MAX_GROUP_STEPS = 100_000


def _no_work(args, *trees) -> int:
    """Verbs whose flags bound their work (--cutoff, the relation bounds,
    --x), and the cobordism verbs, which multiply exact classes.  cf, mu2
    and assoc count theirs in `_check_floer`."""
    return 0


def _k0_steps(args, sheaf: SumAst) -> int:
    """k0 forms h multiples of a skyscraper's point and adds each term's
    class |mult| times."""
    return sum(abs(m) + (x.h if isinstance(x, SkyAst) else 0) for m, x in sheaf.terms)


def _sharp_steps(args, branes: SumAst) -> int:
    """theta-sharp forms rank-many multiples of a vertical brane's point
    and |k| multiples of P0 for slope (1, k), and adds each term's class
    |mult| times."""
    steps = 0
    for mult, item in branes.terms:
        steps += abs(mult)
        if isinstance(item, BraneAst):
            steps += item.rank + (abs(item.n) if item.m == 1 else 0)
    return steps


def _mirror_steps(args, sheaf: SumAst) -> int:
    """mirror compares a line bundle of degree d with d P0."""
    return sum(
        abs(x.n) if isinstance(x, OP0Ast)
        else abs(x.d) if isinstance(x, BunAst) and x.r == 1 else 0
        for _, x in sheaf.terms
    )


#: Floer weights in group-law steps, timed through main on a 2-core x86-64
#: host (CPython 3.11; cf at |det| 20,000 takes 150 ms): 5 a CF point, 1 a
#: matrix entry, 4 a triangle walked and 16 more listed (--triangles), and
#: 11 a triangle weighted (rank 1 costs 18, as before), plus 1 a scalar
#: step, 5 a series product and 1 per 1.5 * 10^6 squared bits of the
#: transports' binomials (`floer._work`), whose gcds take about 1.4 us per
#: 1.5 * 10^6 from ranks 10 to 800 and shift denominators of 1 to 100 digits.
_POINT, _ENTRY, _WALKED, _LISTED, _WEIGHTED, _SERIES = 5, 1, 4, 16, 11, 5
_SQUARED_BITS = 1_500_000


def _check_floer(*branes: Brane, cutoff=None, listed: bool = False) -> None:
    """Refuse cf, mu2 or assoc over the budget before any space is built."""
    points, entries, products = _work(branes, cutoff)
    _check_budget(_POINT * points + _ENTRY * entries + sum(
        comps1 * per * (_WALKED + _LISTED * listed)
        + weighted * (_WEIGHTED + steps + _SERIES * series + squares // _SQUARED_BITS)
        for comps1, per, weighted, steps, series, squares in products))


def _check_budget(steps: int) -> None:
    if steps > MAX_GROUP_STEPS:
        raise ParseError(
            f"expression needs {steps} group-law steps, more than "
            f"MAX_GROUP_STEPS = {MAX_GROUP_STEPS}"
        )


# ---------------------------------------------------------------------------
# serialization helpers: the only code that shapes JSON objects
# ---------------------------------------------------------------------------


def _ratio_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _series_json(a: NovikovSeries) -> dict:
    """A series: exact exponents, float coefficients."""
    terms = [{**_ratio_json(e), "re": complex(c).real, "im": complex(c).imag}
             for e, c in a.terms]
    return {"terms": terms,
            "cutoff": None if a.cutoff is None else _ratio_json(a.cutoff)}


def _unit(s: NovikovSeries, as_json: bool):
    """A unit series for output: one constant term prints as a single
    complex number, anything else as the series."""
    terms = s.terms
    if len(terms) == 1 and terms[0][0] == 0:
        z = complex(terms[0][1])
        if as_json:
            return {"re": z.real, "im": z.imag}
        return f"{z.real:.9g}{z.imag:+.9g}i"
    return _series_json(s) if as_json else series_text(s)


def _point_json(p: TatePoint) -> dict:
    return {"x": _frac(p.x), "unit": _unit(p.unit, True)}


def _point_text(p: TatePoint) -> str:
    return f"(x={_frac(p.x)}, unit={_unit(p.unit, False)})"


def _k0_json(c: K0Class) -> dict:
    return {"rk": c.rk, "deg": c.deg, "pt": _point_json(c.pt)}


def _k0_text(c: K0Class) -> str:
    return f"rk={c.rk} deg={c.deg} pt={_point_text(c.pt)}"


def _cob_json(c: CobordClass) -> dict:
    return {"zeta": _frac(c.zeta_part), "hom": list(c.hom)}


def _brane_json(b: Brane) -> dict:
    blocks = [{"size": size, "eigenvalue": _unit(eig, True)}
              for eig, size in b.local_system.blocks]
    return {"slope": list(b.slope), "shift": _frac(b.shift),
            "grading": b.grading_offset, "rank": b.rank, "blocks": blocks}


def _element_json(e: FloerElement) -> dict:
    return {"components": [
        {"coords": [_frac(c[0]), _frac(c[1])],
         "matrix": [[_series_json(x) for x in row] for row in matrix]}
        for c, matrix in e.components
    ]}


def _triangle_json(tri: tuple) -> dict:
    """A triangle of `floer.mu2_triangles`; its "output" is the generator
    of CF(L0, L2) at the p0 corner."""
    n, corners, area, sign, arcs, crossings = tri
    p0 = corners[0]
    return {"n": n, "corners": [[str(x), str(y)] for x, y in corners],
            "area": _ratio_json(area), "sign": sign,
            "arcs": [_ratio_json(e) for e in arcs], "crossings": crossings,
            "output": [str(p0[0] % 1), str(p0[1] % 1)]}


def _element_text(e: FloerElement) -> List[str]:
    lines = []
    for coords, matrix in e.components:
        lines.append(f"at y=({_frac(coords[0])}, {_frac(coords[1])}):")
        for row in matrix:
            lines.append("  [" + ", ".join(series_text(x) for x in row) + "]")
    return lines or ["0"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    """A command line argparse rejects, a --cutoff or --tol value its
    flag type rejects, or relation bounds `relations` rejects (exit 1).
    `on_stderr` is set when argparse has printed its own text."""

    kind = "usage"

    def __init__(self, message: str, on_stderr: bool = False):
        super().__init__(message)
        self.on_stderr = on_stderr


class _ArgParser(argparse.ArgumentParser):
    """argparse with one change: a rejected command line raises
    _UsageError after argparse's usual text is on stderr, instead of
    exiting with status 2.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        text = f"{self.prog}: error: {message}"
        print(text, file=sys.stderr)
        raise _UsageError(text, on_stderr=True)


#: Largest --cutoff a verb accepts.  The walks and theta sums run up to
#: the cutoff; at 4096 `section` takes 20-330 ms and `theta`, `mu2` and
#: `assoc` 4-12 ms each on a 2-core x86-64 host (CPython 3.11).
MAX_CUTOFF = 4096
#: The most digits a --cutoff or --x value may spell out: the length of
#: the text plus |N| for a decimal exponent eN.  A longer value is refused
#: before any Fraction is built: "1e-5000" has a 5001-digit denominator,
#: past what int-to-str conversion prints, and "1e3000000" would take
#: seconds to build only to fail the MAX_CUTOFF check.
MAX_CUTOFF_DIGITS = 1000


def _check_digits(flag: str, text: str, error) -> None:
    """Raise `error` when the rational literal `text` of `flag` spells
    more than MAX_CUTOFF_DIGITS digits, before any Fraction is built."""
    digits = len(text)
    if digits <= MAX_CUTOFF_DIGITS:
        _, e, exponent = text.lower().partition("e")
        try:
            digits += abs(int(exponent)) if e else 0
        except ValueError:
            pass  # not a number; Fraction rejects it
    if digits > MAX_CUTOFF_DIGITS:
        shown = repr(text) if len(text) <= 40 else f"{len(text)} characters"
        raise error(
            f"{flag} must have at most {MAX_CUTOFF_DIGITS} digits, an "
            f"exponent eN counting as |N| of them, got {shown}"
        )


def _cutoff(text: str) -> Fraction:
    """The --cutoff type: a positive rational, at most MAX_CUTOFF and at
    most MAX_CUTOFF_DIGITS digits long.  argparse lets a _UsageError
    through as it is, so the message is the one written here; an
    ArgumentTypeError would come back prefixed."""
    _check_digits("--cutoff", text, _UsageError)
    try:
        cutoff = Fraction(text)
    except (ValueError, ZeroDivisionError):
        cutoff = Fraction(0)
    if cutoff <= 0:
        raise _UsageError(f"--cutoff must be a positive rational p/q, got {text!r}")
    if cutoff > MAX_CUTOFF:
        raise _UsageError(f"--cutoff must be at most {MAX_CUTOFF}, got {text!r}")
    return cutoff


def _tol(text: str) -> float:
    """The --tol type: a float, finite and >= 0.  NaN would fail every
    check and inf would pass every one.  Unreadable text gets argparse's
    own "invalid float value" error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise _UsageError(f"--tol must be a finite number >= 0, got {value:g}")
    return value


def _generator(l0: Brane, l1: Brane, idx: int) -> FloerElement:
    """`floer.generator_element` at point `idx`, on one CF(l0, l1)."""
    space = cf(l0, l1)
    coords = space.coords()
    if not 0 <= idx < len(coords):
        raise ParseError(f"generator index {idx} out of range 0..{len(coords) - 1}")
    return FloerElement(space, {coords[idx]: _unit_matrix(space)})


def _cmd_cf(args):
    _check_floer(args.l0, args.l1)
    points = cf(args.l0, args.l1).points  # a parallel pair raises here
    index = index_of(args.l0, args.l1)
    gens = [
        {"coords": [_frac(x), _frac(y)], "index": index,
         "dim": args.l0.rank * args.l1.rank}
        for x, y in points
    ]
    plain = [f"generators: {len(gens)}"] + [
        f"  y=({g['coords'][0]}, {g['coords'][1]})  degree {g['index']}"
        f"  dim {g['dim']}"
        for g in gens
    ]
    return {"generators": gens}, plain


def _cmd_mu2(args):
    _check_floer(args.l0, args.l1, args.l2, cutoff=args.cutoff, listed=args.triangles)
    phi1 = _generator(args.l0, args.l1, args.phi1)
    phi2 = _generator(args.l1, args.l2, args.phi2)
    if args.triangles:
        result, tris = mu2_triangles(phi2, phi1, args.cutoff)
    else:
        result = mu2(phi2, phi1, args.cutoff)
    payload = {"cutoff": _frac(args.cutoff), "result": _element_json(result)}
    plain = [f"mu2 product (cutoff {_frac(args.cutoff)}):"] + _element_text(result)
    if args.triangles:
        payload["triangles"] = [_triangle_json(t) for t in tris]
        plain.append(f"triangles: {len(tris)}")
    return payload, plain


def _cmd_assoc(args):
    _check_floer(args.l0, args.l1, args.l2, args.l3, cutoff=args.cutoff)
    a = _generator(args.l0, args.l1, args.a)
    b = _generator(args.l1, args.l2, args.b)
    c = _generator(args.l2, args.l3, args.c)
    defect = assoc_defect(a, b, c, args.cutoff)
    ok = defect <= args.tol
    return (
        {"defect": defect, "pass": ok, "tolerance": args.tol},
        [f"associativity defect: {defect:.3e}  ({'ok' if ok else 'FAIL'})"],
    )


def _cmd_theta(args):
    series = theta_eval(args.kind, args.point, args.cutoff)
    return (
        {"kind": args.kind, "series": _series_json(series)},
        [f"theta{args.kind} = {series_text(series)}"],
    )


def _cmd_section(args):
    section = section_through(args.q, args.cutoff)
    value = eval_section(section, args.at, args.cutoff)
    zero = vanishes(value, args.cutoff)
    payload = {"sigma0": _series_json(section.sigma0), "value": _series_json(value),
               "sigma1": _series_json(section.sigma1), "vanishes": zero}
    plain = [
        f"s = sigma0*theta0 + sigma1*theta1 through {_point_text(args.q)}",
        f"value at {_point_text(args.at)}: {series_text(value)}",
        f"vanishes: {'yes' if zero else 'no'}",
    ]
    return payload, plain


def _cmd_k0(args):
    cls = k0_class(args.sheaf)
    return ({"class": _k0_json(cls)}, [f"K0 class: {_k0_text(cls)}"])


#: Largest bound `relations` accepts for each of --r-max, --d-max,
#: --n-max and --h-max.  The suite grows with the bounds: all four at 10
#: take 1.3-1.8 s on a 2-core x86-64 host (CPython 3.11).
MAX_RELATION_BOUND = 10


def _cmd_relations(args):
    try:
        bounds = RelationBounds(args.r_max, args.d_max, args.n_max, args.h_max)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    for name, value in vars(bounds).items():
        if value > MAX_RELATION_BOUND:
            raise _UsageError(
                f"--{name.replace('_', '-')} must be at most "
                f"{MAX_RELATION_BOUND}, got {value}"
            )
    points = [TatePoint.zero(), TatePoint.two_torsion()] + [
        TatePoint(Fraction(x), _phase(Fraction(phase)))
        for x, phase in (("1/3", "1/7"), ("2/5", "2/5"), ("1/7", "1/2"))
    ]
    suite = relation_suite(bounds, points)
    failures = [t for t in suite if not t.holds(args.tol)]
    payload = {"count": len(suite), "all_hold": not failures,
               "failures": [t.label for t in failures]}
    plain = [
        f"relations checked: {len(suite)}",
        f"all hold (tol {args.tol:g}): {'yes' if not failures else 'no'}",
    ]
    return payload, plain


def _cmd_mirror(args):
    pair = mirror_of_sheaf(args.sheaf)
    payload = {"brane": _brane_json(pair.brane), "anchored": pair.anchored,
               "note": pair.note}
    plain = [f"mirror brane: {pair.brane}  (system rank {pair.brane.rank})"]
    plain.append(f"anchored: {'yes' if pair.anchored else 'no'}")
    if pair.note:
        plain.append(f"note: {pair.note}")
    return payload, plain


def _cmd_theta_sharp(args):
    cls = theta_sharp(args.brane)
    return ({"class": _k0_json(cls)}, [f"theta-sharp: {_k0_text(cls)}"])


def _cmd_witness(args):
    _check_digits("--x", args.x, ParseError)
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational p/q for --x, got {args.x!r}") from None
    cls = zeta_injectivity_witness(x)
    nonzero = not cls.is_zero(args.tol)
    payload = {"class": _k0_json(cls), "nonzero": nonzero}
    plain = [f"witness({args.x}): {_k0_text(cls)}",
             f"nonzero: {'yes' if nonzero else 'no'}"]
    return payload, plain


def _cmd_cob_nf(args):
    c = normal_form(args.brane)
    return (
        {"class": _cob_json(c)},
        [f"normal form: zeta={_frac(c.zeta_part)} hom={c.hom}"],
    )


def _cmd_cob_check(args):
    lhs, rhs = class_of_sum(args.lhs), class_of_sum(args.rhs)
    equal = lhs == rhs
    payload = {"equal": equal, "lhs": _cob_json(lhs), "rhs": _cob_json(rhs)}
    return payload, [f"classes equal: {'yes' if equal else 'no'}"]


def _opt(flag: str, **kwargs):
    return flag, kwargs


_CUTOFF = _opt(
    "--cutoff", type=_cutoff, default="8", help="truncation exponent p/q"
)
_TOL = _opt("--tol", type=_tol, default=1e-9, help="tolerance")
_BRANES = [_Expr(f"--l{i}", Brane, "a single brane") for i in range(4)]


#: every verb: (name, handler, work estimate, help, the flags it reads
#: besides --json).  An `_Expr` is a required expression flag that carries
#: its kind; main parses it once, estimates the work, checks every kind,
#: then puts the built objects on args.  An `_opt` pair goes to
#: add_argument as it is.  --help lists the verbs in this order.
_VERBS = (
    ("cf", _cmd_cf, _no_work, "intersection generators", *_BRANES[:2]),
    ("mu2", _cmd_mu2, _no_work, "triangle product", *_BRANES[:3], _CUTOFF,
     _opt("--phi1", type=int, default=0, help="generator in CF(l0,l1)"),
     _opt("--phi2", type=int, default=0, help="generator in CF(l1,l2)"),
     _opt("--triangles", action="store_true", help="dump triangles")),
    ("assoc", _cmd_assoc, _no_work, "associativity defect", *_BRANES, _CUTOFF,
     _TOL, _opt("--a", type=int, default=0), _opt("--b", type=int, default=0),
     _opt("--c", type=int, default=0)),
    ("theta", _cmd_theta, _no_work, "theta series at a point", _CUTOFF,
     _opt("--kind", type=int, choices=(0, 1), required=True),
     _Expr("--point", TatePoint, "a point literal")),
    ("section", _cmd_section, _no_work,
     "evaluate at --at the section vanishing at --q", _CUTOFF,
     _Expr("--q", TatePoint, "a point literal"),
     _Expr("--at", TatePoint, "a point literal")),
    ("k0", _cmd_k0, _k0_steps, "K-theory class of a sum",
     _Expr("--sheaf", (Bundle, Skyscraper), "sheaves", sums=True)),
    ("relations", _cmd_relations, _no_work, "check the K0 relation suite", _TOL,
     _opt("--r-max", type=int, default=4), _opt("--d-max", type=int, default=4),
     _opt("--n-max", type=int, default=3), _opt("--h-max", type=int, default=3)),
    ("mirror", _cmd_mirror, _mirror_steps, "mirror brane of a sheaf",
     _Expr("--sheaf", (Bundle, Skyscraper), "a single sheaf")),
    ("theta-sharp", _cmd_theta_sharp, _sharp_steps, "K-class of anchored branes",
     _Expr("--brane", Brane, "branes", sums=True)),
    ("witness", _cmd_witness, _no_work, "K-class separating flux x from 0", _TOL,
     _opt("--x", required=True, help="rational p/q")),
    ("cob-nf", _cmd_cob_nf, _no_work, "cobordism normal form of a brane",
     _Expr("--brane", Brane, "a single brane")),
    ("cob-check", _cmd_cob_check, _no_work, "compare two formal brane sums",
     _Expr("--lhs", Brane, "branes", sums=True),
     _Expr("--rhs", Brane, "branes", sums=True)),
)


def _build_parser() -> argparse.ArgumentParser:
    top = _ArgParser(
        prog="torushms",
        description="Floer products, theta functions, K-theory and "
        "cobordism classes for straight branes on the flat torus.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, run, cost, help, *flags in _VERBS:
        p = sub.add_parser(name, help=help)
        exprs = [flag for flag in flags if isinstance(flag, _Expr)]
        p.set_defaults(run=run, cost=cost, exprs=exprs)
        for flag in flags:
            if isinstance(flag, _Expr):
                flag = _opt(flag.flag, required=True)
            p.add_argument(flag[0], **flag[1])
        p.add_argument("--json", action="store_true", help="machine output")
    return top


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _report(exc: Exception, as_json: bool) -> Tuple[int, Optional[str]]:
    """The exit code of a rejected run, 2 for a domain error and 1 for a
    usage or parse error, and its text for stdout: under --json one object;
    otherwise None, and one labelled line goes to stderr, unless argparse
    has printed its own text already."""
    domain = isinstance(exc, TorushmsError)
    code = 2 if domain else 1
    if as_json:
        detail = {}
        if isinstance(exc, ParseError):
            detail = {"position": exc.position, "expected": list(exc.expected)}
        return code, _emit_json({"error": str(exc), "kind": exc.kind, "detail": detail})
    if not getattr(exc, "on_stderr", False):
        label = f"error[{exc.kind}]" if domain else f"{exc.kind} error"
        print(f"{label}: {exc}", file=sys.stderr)
    return code, None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.  Only argparse's help and
    the answer go to stdout.  When the reader closes it early (`| head -c
    5`), the rest goes to os.devnull and the exit code is the answer's (0
    for --help), with no traceback."""
    code = 0
    try:
        code, text = _answer(argv)
        if text is not None:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _answer(argv: Optional[Sequence[str]]) -> Tuple[int, Optional[str]]:
    """The exit code of one command and its text for stdout, if any."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    as_json = "--json" in argv
    try:
        args = _build_parser().parse_args(argv)
        as_json = args.json
        texts = [getattr(args, e.flag[2:]) for e in args.exprs]
        trees = [parse_ast(text) for text in texts]
        _check_budget(args.cost(args, *trees) + sum(  # building each O(nP0)
            abs(x.n) for t in trees for _, x in t.terms if isinstance(x, OP0Ast)
        ))
        for e, text, tree in zip(args.exprs, texts, trees):
            if (bad := e.refused(tree)) is not None:
                raise ParseError(f"expected only {e.what} in this expression, got "
                                 f"{print_ast(bad)!r}" if e.sums
                                 else f"expected {e.what}, got {text!r}")
        for e, tree in zip(args.exprs, trees):  # one object, or the pairs of a sum
            pairs = _realize_terms(tree)
            setattr(args, e.flag[2:], pairs if e.sums else pairs[0][0])
        payload, plain = args.run(args)
    except SystemExit as exc:  # --help, printed by argparse
        return (0 if exc.code in (0, None) else 1), None
    except (_UsageError, ParseError, TorushmsError) as exc:
        return _report(exc, as_json)
    return 0, _emit_json(payload) if as_json else "\n".join(plain)


if __name__ == "__main__":
    sys.exit(main())
