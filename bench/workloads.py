"""The four benchmark workloads: seeded input generation, the task each
timed step runs, and the correctness checks that feed `failed`.

Every workload draws its inputs from `random.Random(seed)` as plain data
(a "spec": ints, Fractions, complex numbers, strings), hashes that data
into a digest, and only then builds library objects from it, so the
library receives nothing but generated objects.

Cost-driving sizes follow a fixed schedule (the "skeleton"): cutoffs,
local-system ranks, relation bounds, CLI verbs, and the L1 norms of the
floer slopes repeat in the same order for every seed, while the seed draws
every concrete value (slopes of those norms, shifts, points, phases,
weights, multiplicities).  Runs with different seeds therefore measure
the same amount of work, which is what keeps a 10-20 s run steady enough
to compare medians across commits.

Library functions are always reached through module attributes
(`floer.mu2`, not a `from ... import mu2` binding), so the wrappers of
the traced run see every call the tasks make.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

# Imported lazily by `load_library`, after the checkout's src/ is on sys.path.
torushms = None


def load_library(root: Path):
    """Import torushms from `root/src` and return the package.

    Refuses a torushms found anywhere else, so a run in a directory that
    holds only the benchmark fails instead of measuring another copy.
    """
    global torushms
    src = (root / "src").resolve()
    if not (src / "torushms" / "__init__.py").is_file():
        raise FileNotFoundError(f"no torushms sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import torushms as pkg
    import torushms.cli  # noqa: F401  (the cli layer is wrapped too)

    if Path(pkg.__file__).resolve().parent.parent != src:
        raise ImportError(f"torushms imported from {pkg.__file__}, not {src}")
    torushms = pkg
    return pkg


def digest_of(spec) -> str:
    """sha256 of the canonical text of a spec (repr is deterministic for
    the plain types a spec holds)."""
    return hashlib.sha256(repr(spec).encode()).hexdigest()


def _phase(turns: float) -> complex:
    return cmath.exp(2j * cmath.pi * turns)


def _unit_complex(rng: random.Random) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def _scale_point(pt, n: int):
    """Closed form of the n-fold group multiple (oracle for the checks):
    n * [-q^x M] = [-q^(n x) (-1)^(n-1) M^n]; constant units only."""
    T = torushms.tate.TatePoint
    m = pt.unit.leading_coefficient()
    if n == 0:
        return T.zero()
    return T(n * pt.x, (-1) ** (n - 1) * m ** n)


def _scale_k0(cls, n: int):
    return torushms.sheafk.K0Class(n * cls.rk, n * cls.deg, _scale_point(cls.pt, n))


@dataclass
class Outcome:
    """What the checks need from one timed task."""

    index: int
    output: Any = None
    error: Optional[str] = None


@dataclass
class Failure:
    index: int
    reason: str
    baseline: bool = False  # one of the two known defects documented in README


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    in_process = True

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.spec = self.generate(random.Random(seed))
        self.digest = digest_of(self.spec)
        self.tasks = self.build(self.spec)

    def generate(self, rng: random.Random):
        raise NotImplementedError

    def build(self, spec) -> list:
        """Library objects for every task of the schedule."""
        raise NotImplementedError

    def task_count(self) -> int:
        return len(self.tasks)

    def may_stop_after(self, done: int) -> bool:
        """True when the first `done` tasks are whole cycles of the cost
        schedule, so that a batch ending here has the schedule's mix."""
        return done % self.cycle == 0

    def warmup(self):
        self.run_task(0)

    def run_task(self, index: int):
        raise NotImplementedError

    def check(self, outcomes: Sequence[Outcome]) -> List[Failure]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# floer_sweep
# ---------------------------------------------------------------------------

_SLOPES = [
    (m, n)
    for m in range(-4, 5)
    for n in range(-4, 5)
    if (m, n) != (0, 0) and math.gcd(m, n) == 1
]

FLOER_DENOMINATORS = (5, 7, 11, 12)
FLOER_CUTOFFS = (4, 8, 16)
FLOER_CYCLE = 32         # configurations; the pool repeats them in order
FLOER_POOL = 128         # tasks, each with its own seeded draw
FLOER_ASSOC_EVERY = 16   # one task in 16 is an associativity check
FLOER_RANK2_EVERY = 4    # one task in 4 carries a Jordan rank-2 system
# Slots re-checked against mu2_bruteforce: cutoff 4, rank 1, and small
# slopes, because the oracle's lift enumeration takes seconds per product
# already at an L1 norm sum of 9.
FLOER_ORACLE_SLOTS = {0: ((0, 1), (1, 1), (1, 0)), 24: ((1, 1), (0, 1), (1, 0))}
# Six configurations per cycle repeat the heaviest one the generator draws
# (slopes, shift denominators, cutoff), so that about a fifth of the tasks
# sit at the top of the latency range and the (N-10)-th fastest falls
# inside that block: a single task varies by up to 25% on the host even
# after speed scaling, and an order statistic in a sparse tail would too.
FLOER_HEAVY_SLOTS = (2, 7, 11, 18, 22, 27)
FLOER_HEAVY = (((1, -4), (3, 4), (3, -1)), (12, 5, 12), 8)


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _base(slope, shift):
    return (shift, Fraction(0)) if slope[1] != 0 else (Fraction(0), shift)


def _canonical(v):
    m, n = v
    return v if (n > 0 or (n == 0 and m > 0)) else (-m, -n)


def _marker_on_line(slope_i, shift_i, slope_j, shift_j) -> bool:
    """True when the Pin marker of brane i lies on brane j, i.e. on an
    intersection point of the pair (torus.DEFAULT_MARKER, exact)."""
    marker = Fraction(31, 64)
    c = _canonical(slope_i)
    bi, bj = _base(slope_i, shift_i), _base(slope_j, shift_j)
    mk = (bi[0] + marker * c[0], bi[1] + marker * c[1])
    return _det((mk[0] - bj[0], mk[1] - bj[1]), slope_j).denominator == 1


def _triple_point(slopes, shifts) -> bool:
    """True when the three lines share a point on the torus (mu2 raises
    DegenerateConfiguration): d12*c0 + d20*c1 + d01*c2 in gcd(d..)*Z with
    c_i = det(base_i, v_i)."""
    v = slopes
    c = [_det(_base(v[i], shifts[i]), v[i]) for i in range(3)]
    d12, d20, d01 = _det(v[1], v[2]), _det(v[2], v[0]), _det(v[0], v[1])
    g = math.gcd(d12, math.gcd(d20, d01))
    return ((d12 * c[0] + d20 * c[1] + d01 * c[2]) / g).denominator == 1


def _valid_chain(slopes, shifts) -> bool:
    k = len(slopes)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if _det(slopes[i], slopes[j]) == 0:
                return False
            if _marker_on_line(slopes[i], shifts[i], slopes[j], shifts[j]):
                return False
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                trio = [slopes[i], slopes[j], slopes[l]]
                if _triple_point(trio, [shifts[i], shifts[j], shifts[l]]):
                    return False
    return True


def _rotate(v, quarter_turns):
    for _ in range(quarter_turns):
        v = (-v[1], v[0])
    return v


def _floer_skeleton():
    """Seed-independent cost skeleton: FLOER_CYCLE configurations of slopes
    (one pairwise-transverse draw from a fixed generator, ordered so that
    the triangle product is nonzero), shift denominators, cutoff, the brane
    that carries a rank-2 system, and whether it is an associativity check.

    Slot i of the pool uses configuration i mod FLOER_CYCLE, so any prefix
    a run reaches holds every configuration three or four times: the
    sorted latencies form short plateaus and the batch composition does
    not depend on where it stops.  The seed turns each slot's slopes by a
    multiple of 90 degrees, which keeps every L1 norm and |det| (what
    intersections and the triangle walk cost), and draws everything else."""
    rng = random.Random("floer_sweep/skeleton")
    slots = []
    for i in range(FLOER_CYCLE):
        assoc = i % FLOER_ASSOC_EVERY == FLOER_ASSOC_EVERY - 1
        k = 4 if assoc else 3
        while True:
            slopes = rng.sample(_SLOPES, k)
            if all(_det(a, b) for j, a in enumerate(slopes) for b in slopes[j + 1:]):
                break
        if i in FLOER_ORACLE_SLOTS:
            slopes = list(FLOER_ORACLE_SLOTS[i])
        if not assoc and _det(slopes[0], slopes[1]) * _det(slopes[0], slopes[2]) * _det(
            slopes[1], slopes[2]
        ) > 0:
            slopes[1], slopes[2] = slopes[2], slopes[1]
        cutoff = (4, 8)[(i // FLOER_ASSOC_EVERY) % 2] if assoc else FLOER_CUTOFFS[i % 3]
        rank2_at = rng.randrange(3) if (not assoc and i % FLOER_RANK2_EVERY == 1) else None
        dens = tuple(rng.choice(FLOER_DENOMINATORS) for _ in slopes)
        if i in FLOER_HEAVY_SLOTS:
            slopes, dens, cutoff = FLOER_HEAVY
        slots.append((tuple(slopes), dens, cutoff, rank2_at, assoc))
    return [slots[i % FLOER_CYCLE] for i in range(FLOER_POOL)]


def _coprime_numerator(rng, den):
    while True:
        k = rng.randrange(1, den)
        if math.gcd(k, den) == 1:
            return k


def _weights(rng, count):
    return tuple(_unit_complex(rng) for _ in range(count))


class FloerSweep(Workload):
    """Triangle products of seeded brane triples (ROADMAP item 2's regime:
    intersections and transports dominate)."""

    name = "floer_sweep"
    cycle = FLOER_CYCLE

    def generate(self, rng):
        spec = []
        for base_slopes, dens, cutoff, rank2_at, assoc in _floer_skeleton():
            while True:
                turn = rng.randrange(4)
                slopes = [_rotate(v, turn) for v in base_slopes]
                shifts = [Fraction(_coprime_numerator(rng, d), d) for d in dens]
                if _valid_chain(slopes, shifts):
                    break
            ranks = [1] * len(slopes)
            eig = None
            if rank2_at is not None:
                ranks[rank2_at] = 2
                eig = rng.random()
            elements = []
            for a in range(len(slopes) - 1):
                dets = abs(_det(slopes[a], slopes[a + 1]))
                elements.append(_weights(rng, dets * ranks[a] * ranks[a + 1]))
            spec.append(
                {
                    "kind": "assoc" if assoc else "mu2",
                    "slopes": tuple(slopes),
                    "shifts": tuple(shifts),
                    "ranks": tuple(ranks),
                    "eigen_turns": eig,
                    "weights": tuple(elements),
                    "cutoff": cutoff,
                }
            )
        return spec

    def build(self, spec):
        T = torushms.torus
        tasks = []
        for s in spec:
            branes = []
            for slope, shift, rank in zip(s["slopes"], s["shifts"], s["ranks"]):
                system = (
                    T.LocalSystem.from_eigenvalue(_phase(s["eigen_turns"]), 2)
                    if rank == 2
                    else T.LocalSystem.trivial()
                )
                branes.append(T.Brane(slope, shift, local_system=system))
            tasks.append((s["kind"], branes, s["weights"], s["cutoff"]))
        return tasks

    @staticmethod
    def _element(l0, l1, weights):
        """The task's element of CF(l0, l1): every generator weighted."""
        floer = torushms.floer
        space = floer.cf(l0, l1)
        rows, cols = space.hom_shape
        it = iter(weights)
        const = torushms.novikov.NovikovSeries.constant
        comps = {
            p: tuple(tuple(const(next(it)) for _ in range(cols)) for _ in range(rows))
            for p in space.coords()
        }
        return floer.FloerElement(space, comps)

    def elements(self, index):
        kind, branes, weights, cutoff = self.tasks[index]
        return [
            self._element(branes[a], branes[a + 1], weights[a])
            for a in range(len(branes) - 1)
        ]

    def run_task(self, index):
        kind, branes, weights, cutoff = self.tasks[index]
        elems = self.elements(index)
        if kind == "assoc":
            return torushms.floer.assoc_defect(*elems, cutoff)
        return torushms.floer.mu2(elems[1], elems[0], cutoff)

    def check(self, outcomes):
        failures = []
        oracle_done = set()
        for oc in outcomes:
            kind = self.tasks[oc.index][0]
            if oc.error is not None:
                failures.append(Failure(oc.index, f"raised {oc.error}"))
            elif kind == "assoc":
                reason = self._graded_associativity(oc)
                if reason:
                    failures.append(Failure(oc.index, reason))
            elif oc.index in FLOER_ORACLE_SLOTS and oc.index not in oracle_done:
                oracle_done.add(oc.index)
                reason = self._against_bruteforce(oc)
                if reason:
                    failures.append(Failure(oc.index, reason))
        return failures

    def _graded_associativity(self, oc) -> Optional[str]:
        """mu2(mu2(c,b),a) = (-1)^deg(a) mu2(c,mu2(b,a)) within 1e-8 below
        cutoff - 1, and the timed assoc_defect equals the unsigned
        max |lhs - rhs| it is defined as.

        assoc_defect alone is only zero when deg(a) is even: for odd
        deg(a) the two sides are exact negatives (README, "Findings")."""
        floer = torushms.floer
        kind, branes, weights, cutoff = self.tasks[oc.index]
        a, b, c = self.elements(oc.index)
        cut = Fraction(cutoff)
        lhs = floer.mu2(floer.mu2(c, b, cut), a, cut)
        rhs = floer.mu2(c, floer.mu2(b, a, cut), cut)
        sign = (-1) ** torushms.torus.index_of(branes[0], branes[1])
        graded = (lhs - rhs * sign).max_abs_coeff(below=cut - 1)
        unsigned = (lhs - rhs).max_abs_coeff(below=cut - 1)
        if not graded <= 1e-8:
            return f"graded associativity defect {graded:.3e} > 1e-8"
        if abs(oc.output - unsigned) > 1e-9 * max(1.0, unsigned):
            return f"assoc_defect {oc.output:.6e} differs from max|lhs - rhs| {unsigned:.6e}"
        return None

    def _against_bruteforce(self, oc) -> Optional[str]:
        kind, branes, weights, cutoff = self.tasks[oc.index]
        e1, e2 = self.elements(oc.index)
        want = torushms.floer.mu2_bruteforce(e2, e1, cutoff)
        got = oc.output
        if got.support() != want.support():
            return "mu2 support differs from mu2_bruteforce"
        for (c, mg), (_, mw) in zip(got.components, want.components):
            for rg, rw in zip(mg, mw):
                for xg, xw in zip(rg, rw):
                    if [e for e, _ in xg.terms] != [e for e, _ in xw.terms]:
                        return f"mu2 exponents differ from mu2_bruteforce at {c}"
                    if not xg.approx_eq(xw, 1e-9):
                        return f"mu2 coefficients differ from mu2_bruteforce at {c}"
        return None


# ---------------------------------------------------------------------------
# theta_bridge
# ---------------------------------------------------------------------------

THETA_DENOMINATORS = (5, 7, 11, 12, 13)
THETA_CUTOFFS = (64, 128, 256)
# A cycle of 32 slots: 30 regular tasks (twice the 15 cutoff/denominator
# pairs) and the series-unit slice, one task at cutoff 8 (seeded) and one
# at cutoff 12 (pinned) in fixed slots.
THETA_CYCLE = 32
THETA_SERIES_SLOT_8 = 3
THETA_SERIES_SLOT_12 = 8
THETA_POOL = 4 * THETA_CYCLE


def _theta_x(rng, den):
    """k/den with k coprime to den, so den is the exponent denominator the
    schedule asked for (and x is never 0 or 1/2, where the bridge is
    degenerate)."""
    return Fraction(_coprime_numerator(rng, den), den)


class ThetaBridge(Workload):
    """Both sides of the theta/Floer vanishing bridge at long cutoffs,
    where Novikov add/mul on long series carries the work."""

    name = "theta_bridge"
    cycle = THETA_CYCLE

    def generate(self, rng):
        spec = []
        regular = 0
        for i in range(THETA_POOL):
            if i % THETA_CYCLE == THETA_SERIES_SLOT_8:
                # seeded multi-term unit e^(2 pi i a) + b q^(1/3) + c q^(1/2)
                spec.append(
                    {
                        "x": _theta_x(rng, 7),
                        "unit": (
                            (Fraction(0), _phase(rng.random())),
                            (Fraction(1, 3), 0.5 * _phase(rng.random())),
                            (Fraction(1, 2), 0.25 * _phase(rng.random())),
                        ),
                        "cutoff": 8,
                    }
                )
            elif i % THETA_CYCLE == THETA_SERIES_SLOT_12:
                # pinned: the input on which the bridge disagrees at the seed
                # commit (README, "Baseline failures"); kept in every run
                spec.append(
                    {
                        "x": Fraction(1, 3),
                        "unit": (
                            (Fraction(0), _phase(1 / 7)),
                            (Fraction(1, 3), 0.5 + 0j),
                            (Fraction(1, 2), -0.25j),
                        ),
                        "cutoff": 12,
                    }
                )
            else:
                # cutoff and denominator cycle (15 combinations); the seed
                # draws the numerator and the monodromy phase
                spec.append(
                    {
                        "x": _theta_x(rng, THETA_DENOMINATORS[regular % 5]),
                        "unit": ((Fraction(0), _phase(rng.random())),),
                        "cutoff": THETA_CUTOFFS[regular % 3],
                    }
                )
                regular += 1
        return spec

    def build(self, spec):
        NS = torushms.novikov.NovikovSeries
        T = torushms.tate
        tasks = []
        for s in spec:
            cutoff = s["cutoff"]
            if len(s["unit"]) == 1:
                unit = s["unit"][0][1]
            else:
                unit = NS(s["unit"], cutoff)
            point = T.TatePoint(s["x"], unit)
            flat = T.SectionCoeffs(NS.one(), NS.one())
            tasks.append((s["x"], unit, point, flat, cutoff))
        return tasks

    def is_pinned_defect(self, index) -> bool:
        return index % THETA_CYCLE == THETA_SERIES_SLOT_12

    def run_task(self, index):
        x, unit, point, flat, cutoff = self.tasks[index]
        tate, mirror = torushms.tate, torushms.mirror
        tuned = tate.section_through(tate.conjugate_zero(point), cutoff)
        return (
            tuple(mirror.theta_floer_equiv(x, unit, tuned, cutoff)),
            tuple(mirror.theta_floer_equiv(x, unit, flat, cutoff)),
        )

    def check(self, outcomes):
        failures = []
        for oc in outcomes:
            if oc.error is not None:
                failures.append(Failure(oc.index, f"raised {oc.error}"))
                continue
            tuned, flat = oc.output
            bad = []
            if tuned != (True, True):
                bad.append(f"tuned section gave (floer={tuned[0]}, theta={tuned[1]})")
            if flat != (False, False):
                bad.append(f"flat section gave (floer={flat[0]}, theta={flat[1]})")
            if bad:
                baseline = (
                    self.is_pinned_defect(oc.index)
                    and tuned == (False, True)
                    and flat == (False, False)
                )
                failures.append(Failure(oc.index, "; ".join(bad), baseline))
        return failures


# ---------------------------------------------------------------------------
# ktheory_cobord
# ---------------------------------------------------------------------------

# Relation-suite bounds (r_max, d_max, n_max, h_max), one per task in this
# order.  Sorted by cost the cycle reads A B X C C C C E E E, so the median
# task falls inside the C block and the (N-10)-th fastest inside the E
# block for any N a run reaches, instead of on a jump between two levels.
_KT_A, _KT_B, _KT_X = (2, 2, 1, 2), (3, 3, 1, 2), (4, 4, 2, 3)
_KT_C, _KT_E = (5, 5, 2, 3), (8, 8, 4, 6)
KTHEORY_LEVELS = (_KT_C, _KT_A, _KT_E, _KT_B, _KT_C, _KT_E, _KT_X, _KT_C, _KT_E, _KT_C)
KTHEORY_POOL = 8 * len(KTHEORY_LEVELS)
KTHEORY_POINTS = 5


def _tate_point_spec(rng):
    den = rng.choice((3, 5, 7, 8, 9, 11))
    return (Fraction(rng.randrange(den), den), rng.random())


def _primitive(rng, bound):
    while True:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0) and math.gcd(*v) == 1:
            return v


def _elementary_pair(rng):
    """Slopes v0, v1 with |det| = 1 and v0 + v1 != 0."""
    while True:
        v0 = _primitive(rng, 6)
        # a Bezout partner of v0, moved along v0 by a random multiple
        a, b = v0
        g, s, t = _ext_gcd(a, b)
        w = (-t, s)  # det(v0, w) = a*s + b*t = 1
        k = rng.randint(-2, 2)
        v1 = (w[0] + k * a, w[1] + k * b)
        if rng.random() < 0.5:
            v1 = (-v1[0], -v1[1])
        if (v0[0] + v1[0], v0[1] + v1[1]) != (0, 0):
            return v0, v1


def _ext_gcd(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


class KTheoryCobord(Workload):
    """K0 relations, K-classes of large formal sums, theta-sharp and
    cobordism classes: constant series only, no intersections."""

    name = "ktheory_cobord"
    cycle = len(KTHEORY_LEVELS)

    def generate(self, rng):
        spec = []
        for i in range(KTHEORY_POOL):
            points = tuple(_tate_point_spec(rng) for _ in range(KTHEORY_POINTS))
            sheaves = []
            for _ in range(rng.randint(2, 4)):
                mult = rng.choice((-1, 1)) * rng.randint(1, 500)
                shift = rng.randint(0, 1)
                if rng.random() < 0.5:
                    sheaves.append(("sky", _tate_point_spec(rng), rng.randint(1, 4), shift, mult))
                else:
                    sheaves.append(
                        ("bun", rng.randint(1, 4), rng.randint(-5, 5), _tate_point_spec(rng), shift, mult)
                    )
            branes = []
            for _ in range(rng.randint(2, 4)):
                mult = rng.choice((-1, 1)) * rng.randint(1, 200)
                shift = rng.randint(0, 1)
                if rng.random() < 0.5:
                    branes.append(("line", rng.randint(-4, 4), shift, mult))
                else:
                    branes.append(
                        (
                            "vertical",
                            rng.choice((-1, 1)),
                            Fraction(rng.randrange(12), 12),
                            rng.random(),
                            rng.randint(1, 3),
                            shift,
                            mult,
                        )
                    )
            v0, v1 = _elementary_pair(rng)
            spec.append(
                {
                    "bounds": KTHEORY_LEVELS[i % len(KTHEORY_LEVELS)],
                    "points": points,
                    "sheaves": tuple(sheaves),
                    "branes": tuple(branes),
                    "rho_slope": _primitive(rng, 12),
                    "surgery": (v0, Fraction(rng.randrange(10), 10), v1, Fraction(rng.randrange(9), 9)),
                }
            )
        return spec

    def build(self, spec):
        T, S, C, TO = torushms.tate, torushms.sheafk, torushms.cobord, torushms.torus
        Bounds = torushms.config.RelationBounds
        tasks = []
        for s in spec:
            points = [T.TatePoint(x, _phase(ph)) for x, ph in s["points"]]
            terms = []
            for entry in s["sheaves"]:
                if entry[0] == "sky":
                    _, (x, ph), h, shift, mult = entry
                    terms.append((S.Skyscraper(T.TatePoint(x, _phase(ph)), h, shift), mult))
                else:
                    _, r, d, (x, ph), shift, mult = entry
                    terms.append((S.Bundle(r, d, T.TatePoint(x, _phase(ph)), shift), mult))
            branes = []
            for entry in s["branes"]:
                if entry[0] == "line":
                    _, k, shift, mult = entry
                    branes.append((TO.Brane((1, k), grading_offset=shift), mult))
                else:
                    _, sign, x, ph, size, shift, mult = entry
                    system = TO.LocalSystem.from_eigenvalue(_phase(ph), size)
                    branes.append(
                        (TO.Brane((0, sign), x, shift, local_system=system), mult)
                    )
            v0, f0, v1, f1 = s["surgery"]
            tasks.append(
                {
                    "bounds": Bounds(*s["bounds"]),
                    "points": points,
                    "sum": S.SheafSum(terms),
                    "terms": terms,
                    "branes": branes,
                    "rho_slope": s["rho_slope"],
                    "curves": (C.CurveClass(v0, f0), C.CurveClass(v1, f1)),
                }
            )
        return tasks

    def run_task(self, index):
        t = self.tasks[index]
        S, C, M = torushms.sheafk, torushms.cobord, torushms.mirror
        suite = S.relation_suite(t["bounds"], t["points"])
        holds = [rel.holds() for rel in suite]
        return {
            "holds": holds,
            "k0": S.k0_class(t["sum"]),
            "sharp": M.theta_sharp(t["branes"]),
            "cob": C.class_of_sum(t["branes"]),
            "rho": C.rho_values_by_recursion(t["rho_slope"]),
            "flux": C.pl_surgery_flux(*t["curves"]),
        }

    def check(self, outcomes):
        S, C, M = torushms.sheafk, torushms.cobord, torushms.mirror
        failures = []
        for oc in outcomes:
            if oc.error is not None:
                failures.append(Failure(oc.index, f"raised {oc.error}"))
                continue
            t, out = self.tasks[oc.index], oc.output
            bad = []
            if not all(out["holds"]):
                bad.append(f"{out['holds'].count(False)} relations do not hold")
            want = S.K0Class.zero()
            for sheaf, mult in t["terms"]:
                want = want + _scale_k0(S.k0_class(sheaf), mult)
            if not out["k0"].approx_eq(want, 1e-9):
                bad.append("k0_class of the sum differs from the sum of its parts")
            want_sharp = S.K0Class.zero()
            want_cob = C.CobordClass.identity()
            for brane, mult in t["branes"]:
                want_sharp = want_sharp + _scale_k0(M.theta_sharp(brane), mult)
                nf = C.normal_form(brane)
                want_cob = want_cob + C.CobordClass(mult * nf.zeta_part, (mult * nf.hom[0], mult * nf.hom[1]))
            if not out["sharp"].approx_eq(want_sharp, 1e-9):
                bad.append("theta_sharp of the sum differs from the sum of its parts")
            if out["cob"] != want_cob:
                bad.append("class_of_sum differs from the sum of normal forms")
            if out["rho"] != frozenset({C.rho_reference(t["rho_slope"])}):
                bad.append(f"rho_values_by_recursion{t['rho_slope']} = {set(out['rho'])}")
            if out["flux"] != C.surgery(*t["curves"]).flux:
                bad.append("pl_surgery_flux differs from the flux of surgery")
            if bad:
                failures.append(Failure(oc.index, "; ".join(bad)))
        return failures


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

CLI_VERBS = (
    "cf", "mu2", "assoc", "theta", "section", "k0",
    "relations", "mirror", "theta-sharp", "witness", "cob-nf", "cob-check",
)
# One cycle of 31 commands: every verb twice, `relations` four times more
# (at its default bounds it is the slowest verb, so its six runs per cycle
# hold the (N-10)-th fastest task), and one input of each rejected kind
# (about one in ten).
CLI_CYCLE = CLI_VERBS + ("relations", "invalid:parallel", "relations") + CLI_VERBS[:6] + (
    "invalid:malformed", "relations",
) + CLI_VERBS[6:] + ("relations", "invalid:constructor")
CLI_POOL = 5 * len(CLI_CYCLE)
CLI_TIMEOUT_S = 60


def _small_slope(rng):
    while True:
        v = (rng.randint(-2, 2), rng.randint(-2, 2))
        if v != (0, 0) and math.gcd(*v) == 1:
            return v


def _frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _brane_text(v, x):
    return f"L({v[0]},{v[1]};{_frac_text(x)})"


def _point_text(rng):
    den = rng.choice((3, 5, 7, 8))
    x = Fraction(rng.randrange(den), den)
    return f"pt(x={_frac_text(x)}, phase={rng.randrange(1, 9)}/9)"


def _cli_shift(rng):
    den = rng.choice((5, 7, 11))
    return Fraction(rng.randrange(den), den)


def _cli_branes(rng, k):
    while True:
        slopes = [_small_slope(rng) for _ in range(k)]
        shifts = [_cli_shift(rng) for _ in range(k)]
        if _valid_chain(slopes, shifts):
            return [_brane_text(v, x) for v, x in zip(slopes, shifts)]


def _cli_args(verb, rng):
    """argv (after the verb) for one valid command at small sizes."""
    if verb == "cf":
        l0, l1 = _cli_branes(rng, 2)
        return ["--l0", l0, "--l1", l1]
    if verb == "mu2":
        l0, l1, l2 = _cli_branes(rng, 3)
        return ["--l0", l0, "--l1", l1, "--l2", l2]
    if verb == "assoc":
        l0, l1, l2, l3 = _cli_branes(rng, 4)
        return ["--l0", l0, "--l1", l1, "--l2", l2, "--l3", l3]
    if verb == "theta":
        return ["--kind", str(rng.randint(0, 1)), "--point", _point_text(rng)]
    if verb == "section":
        return ["--q", _point_text(rng), "--at", _point_text(rng)]
    if verb == "k0":
        n = rng.randint(-3, 3)
        return ["--sheaf", f"O({n}P0) - {rng.randint(1, 9)}*Sky({_point_text(rng)}, {rng.randint(1, 3)})"]
    if verb == "relations":
        return []  # default bounds; the suite's points are fixed by the CLI
    if verb == "mirror":
        if rng.random() < 0.5:
            return ["--sheaf", f"Sky({_point_text(rng)}, {rng.randint(1, 3)})"]
        return ["--sheaf", f"O({rng.randint(-3, 3)}P0)"]
    if verb == "theta-sharp":
        k = rng.randint(-3, 3)
        x = _frac_text(_cli_shift(rng))
        return ["--brane", f"{rng.randint(1, 9)}*L(1,{k};0) - L(0,-1;{x}){{M=phase {rng.randrange(1, 9)}/9, rank {rng.randint(1, 3)}}}"]
    if verb == "witness":
        return ["--x", _frac_text(_cli_shift(rng))]
    if verb == "cob-nf":
        return ["--brane", _brane_text(_small_slope(rng), _cli_shift(rng))]
    if verb == "cob-check":
        a, b = _small_slope(rng), _small_slope(rng)
        lhs = f"{rng.randint(1, 5)}*{_brane_text(a, _cli_shift(rng))} + {_brane_text(b, _cli_shift(rng))}"
        rhs = f"{_brane_text(b, _cli_shift(rng))}"
        return ["--lhs", lhs, "--rhs", rhs]
    raise ValueError(verb)


_CONSTRUCTOR_INVALID = (
    ["cob-nf", "--brane", "L(2,4;0)"],
    ["mirror", "--sheaf", "Sky(pt(x=1/3, phase=1/7), 0)"],
    ["theta", "--kind", "0", "--point", "pt(x=1/5, phase=1/3)", "--cutoff", "1/0"],
)


def _cli_invalid(kind, rng, count):
    """(argv, expected exit codes) for one rejected input."""
    if kind == "parallel":
        v = _small_slope(rng)
        w = (-v[0], -v[1]) if rng.random() < 0.5 else v
        x0, x1 = _cli_shift(rng), _cli_shift(rng)
        return ["cf", "--l0", _brane_text(v, x0), "--l1", _brane_text(w, x1)], (2,)
    if kind == "malformed":
        v = _small_slope(rng)
        bad = rng.choice(
            (f"L({v[0]},{v[1]};", f"L({v[0]};{v[1]})", f"L({v[0]},{v[1]};1/)", f"Q({v[0]},{v[1]};0)")
        )
        return ["cob-nf", "--brane", bad], (1,)
    # constructor-invalid literals rotate through the three known shapes
    return list(_CONSTRUCTOR_INVALID[count % len(_CONSTRUCTOR_INVALID)]), (1, 2)


class CliSession(Workload):
    """One `python -m torushms.cli <verb> ... --json` process per task:
    interpreter start and import are paid on every answer."""

    name = "cli_session"
    in_process = False
    cycle = len(CLI_CYCLE)

    def generate(self, rng):
        spec = []
        constructor = 0
        for i in range(CLI_POOL):
            entry = CLI_CYCLE[i % len(CLI_CYCLE)]
            if entry.startswith("invalid:"):
                kind = entry.split(":", 1)[1]
                argv, expect = _cli_invalid(kind, rng, constructor)
                constructor += kind == "constructor"
            else:
                kind = "valid"
                argv, expect = [entry] + _cli_args(entry, rng), (0,)
            spec.append((kind, tuple(argv + ["--json"]), expect))
        return spec

    def build(self, spec):
        return list(spec)

    def warmup(self):
        """cli_session's set-up is input generation only."""

    def command(self, index) -> List[str]:
        return [sys.executable, "-m", "torushms.cli", *self.tasks[index][1]]

    def run_task(self, index):
        proc = subprocess.run(
            self.command(index),
            cwd=self.root,
            env=cli_env(self.root),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return (proc.returncode, proc.stdout, proc.stderr)

    def check(self, outcomes):
        failures = []
        for oc in outcomes:
            kind, argv, expect = self.tasks[oc.index]
            if oc.error is not None:
                failures.append(Failure(oc.index, f"raised {oc.error}"))
                continue
            code, out, err = oc.output
            traceback = "Traceback (most recent call last)" in err
            bad = []
            if code not in (0, 1, 2):
                bad.append(f"exit code {code}")
            elif code not in expect:
                bad.append(f"exit code {code}, expected {expect}")
            if not _one_json_object(out):
                bad.append("stdout is not exactly one JSON object")
            if traceback:
                bad.append("ended in a Python traceback")
            if bad:
                baseline = kind == "constructor" and traceback and code == 1
                failures.append(
                    Failure(oc.index, f"{' '.join(argv)}: {'; '.join(bad)}", baseline)
                )
        return failures


def _one_json_object(text: str) -> bool:
    try:
        obj = json.loads(text)
    except ValueError:
        return False
    return isinstance(obj, dict)


def cli_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str((root / "src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {
    "floer_sweep": FloerSweep,
    "theta_bridge": ThetaBridge,
    "ktheory_cobord": KTheoryCobord,
    "cli_session": CliSession,
}


def make(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)
