"""Golden corpus: byte-for-byte `--json` outputs of every verb (the
Floer verbs `cf`, `mu2` with and without `--triangles` and `assoc`, and
the theta, K-theory, mirror and cobordism verbs) and the exact terms and
cutoffs of four library-level `mu2` products.

The Floer files under tests/golden/ were recorded once, from the
grid-scan intersection enumerator and the series-by-series triangle
accumulation that preceded the closed-form enumerator and the per-entry
accumulator; `mu2_phase3_c16.json` from the matrix-only triangle sum
that preceded the rank-1 path and its scalar transports;
`mu2_rank3_c8.json` from the matrix loop that preceded the scalar chain
of rank-r products; `theta_k1_phase_c256.json` and
`section_vanishes_c256.json` from the theta sums that formed every power
of a constant unit as a series, before its scalar chain;
`relations_top.json` from the relation suite that built every relation
from its public family constructor; the `markers_series_c32` product of
`library_products.json` from the `Fraction` triangle walk that preceded
the integer lattice walk.  The files of the other verbs were
recorded from the code that still carried the mpmath coefficient backend and three
separate loops for sums with multiplicities; their inputs use grammar
phases and large multiplicities, so a change in evaluation order or
rounding shows up in the last bits.  They pin that behaviour: a mismatch
here is a change in what torushms computes.  Never regenerate them to
make this test pass.
"""

import cmath
import contextlib
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from torushms.cli import _series_json, main
from torushms.floer import FloerElement, cf, mu2
from torushms.novikov import NovikovSeries
from torushms.torus import Brane, LocalSystem

GOLDEN = Path(__file__).parent / "golden"

# the heavy floer_sweep triple: |det| = 16, 11 and 15
H0, H1, H2 = "L(1,-4;1/12)", "L(3,4;2/5)", "L(3,-1;5/12)"
SMALL = ("--l0", "L(0,-1;1/4)", "--l1", "L(1,2;0)", "--l2", "L(1,0;0)")
HEAVY = ("--l0", H0, "--l1", H1, "--l2", H2)
RANK2 = ("--l0", "L(0,-1;1/4)", "--l1", "L(1,2;0){M=phase 1/7, rank 2}",
         "--l2", "L(1,0;1/3)")
HEAVY_CHAIN = ("--l0", H0, "--l1", H1, "--l2", H2, "--l3", "L(0,1;1/7)")
# deg(a) = 1: the two sides of assoc are exact negatives
ODD_CHAIN = ("--l0", H0, "--l1", "L(0,1;1/7)", "--l2", H1, "--l3", H2)

#: name -> (exit code, argv without --json)
CASES = {
    "cf_small": (0, ("cf", "--l0", "L(1,2;0)", "--l1", "L(1,0;0)")),
    "cf_horizontal": (0, ("cf", "--l0", "L(1,0;1/5)", "--l1", "L(-2,3;1/7)")),
    "cf_graded": (0, ("cf", "--l0", "L(2,-3;1/7)[1]", "--l1", "L(-1,4;2/11)")),
    "cf_rank2": (0, ("cf", "--l0", "L(0,-1;1/3){M=phase 1/7, rank 2}",
                     "--l1", "L(1,2;1/5)")),
    "cf_heavy01": (0, ("cf", "--l0", H0, "--l1", H1)),
    "cf_heavy12": (0, ("cf", "--l0", H1, "--l1", H2)),
    "cf_heavy02": (0, ("cf", "--l0", H0, "--l1", H2)),
    "cf_parallel": (2, ("cf", "--l0", "L(1,0;0)", "--l1", "L(1,0;1/2)")),
    "cf_marker_collision": (2, ("cf", "--l0", "L(1,0;0)",
                                "--l1", "L(0,1;31/64)")),
    "mu2_small_c4": (0, ("mu2",) + SMALL + ("--cutoff", "4")),
    "mu2_small_c4_triangles": (0, ("mu2",) + SMALL
                               + ("--cutoff", "4", "--triangles")),
    "mu2_heavy_c8": (0, ("mu2",) + HEAVY
                     + ("--cutoff", "8", "--phi1", "3", "--phi2", "5")),
    "mu2_heavy_c8_triangles": (0, ("mu2",) + HEAVY + (
        "--cutoff", "8", "--phi1", "3", "--phi2", "5", "--triangles")),
    "mu2_heavy_c16": (0, ("mu2",) + HEAVY
                      + ("--cutoff", "16", "--phi1", "3", "--phi2", "5")),
    "mu2_heavy_c16_triangles": (0, ("mu2",) + HEAVY + (
        "--cutoff", "16", "--phi1", "3", "--phi2", "5", "--triangles")),
    "mu2_heavy_c16_first": (0, ("mu2",) + HEAVY + ("--cutoff", "16")),
    "mu2_heavy_reversed": (0, ("mu2", "--l0", H0, "--l1", H2, "--l2", H1,
                               "--cutoff", "16")),
    "mu2_rank2_c8": (0, ("mu2",) + RANK2 + ("--cutoff", "8")),
    "mu2_rank2_c8_triangles": (0, ("mu2",) + RANK2
                               + ("--cutoff", "8", "--triangles")),
    # three constant phases: the scalar transports, each with its own log
    "mu2_phase3_c16": (0, ("mu2",
                           "--l0", "L(0,-1;1/4){M=phase 1/7, rank 1}",
                           "--l1", "L(1,2;0){M=phase 2/5, rank 1}",
                           "--l2", "L(1,0;1/3){M=phase -3/11, rank 1}",
                           "--cutoff", "16")),
    # three constant phases on rank-3 Jordan blocks: the scalar chain
    "mu2_rank3_c8": (0, ("mu2",
                         "--l0", "L(0,-1;1/4){M=phase 1/7, rank 3}",
                         "--l1", "L(1,2;0){M=phase 2/5, rank 3}",
                         "--l2", "L(1,0;1/3){M=phase -3/11, rank 3}",
                         "--cutoff", "8")),
    "mu2_degenerate": (2, ("mu2", "--l0", "L(0,-1;0)", "--l1", "L(1,2;0)",
                           "--l2", "L(1,0;0)")),
    "assoc_small_c5": (0, ("assoc", "--l0", "L(1,2;0)", "--l1", "L(1,0;1/7)",
                           "--l2", "L(0,-1;1/5)", "--l3", "L(1,1;1/11)",
                           "--cutoff", "5")),
    "assoc_heavy_c8": (0, ("assoc",) + HEAVY_CHAIN + ("--cutoff", "8")),
    "assoc_heavy_c16": (0, ("assoc",) + HEAVY_CHAIN + (
        "--cutoff", "16", "--a", "1", "--b", "2")),
    "assoc_odd_c8": (0, ("assoc",) + ODD_CHAIN + ("--cutoff", "8")),
    "assoc_odd_c16": (0, ("assoc",) + ODD_CHAIN + ("--cutoff", "16")),
    "theta_k0_phase": (0, ("theta", "--kind", "0",
                           "--point", "pt(x=1/3, phase=1/7)")),
    "theta_k1_phase": (0, ("theta", "--kind", "1",
                           "--point", "pt(x=2/5, phase=-3/11)",
                           "--cutoff", "12")),
    # the power chain of a constant unit, deep: M^k for |k| up to about 32
    "theta_k1_phase_c256": (0, ("theta", "--kind", "1",
                                "--point", "pt(x=3/13, phase=2/7)",
                                "--cutoff", "256")),
    "section_vanishes": (0, ("section", "--q", "pt(x=1/3, phase=1/7)",
                             "--at", "pt(x=1/3, phase=1/7)")),
    "section_vanishes_c256": (0, ("section", "--q", "pt(x=3/13, phase=2/7)",
                                  "--at", "pt(x=3/13, phase=2/7)",
                                  "--cutoff", "256")),
    "section_elsewhere": (0, ("section", "--q", "pt(x=1/3, phase=1/7)",
                              "--at", "pt(x=1/5, phase=2/9)",
                              "--cutoff", "6")),
    "k0_mixed_mults": (0, ("k0", "--sheaf",
                           "Sky(pt(x=1/3, phase=1/7), 5)"
                           " + 7*Sky(pt(x=2/5, phase=2/9), 3)"
                           " - 6*Bun(2,3,pt(x=1/7, phase=1/3))")),
    "k0_sky_mult59": (0, ("k0", "--sheaf",
                          "59*Sky(pt(x=1/7, phase=1/7), 1)")),
    "k0_divisor": (0, ("k0", "--sheaf",
                       "O(D: pt(x=1/3, phase=1/7) + pt(x=1/5, phase=2/9)"
                       " - pt(x=0, phase=0))[1] + 3*O(-2P0)")),
    "k0_readme": (0, ("k0", "--sheaf",
                      "O(2P0) - 2*Sky(pt(x=1/3, phase=1/7), 1)")),
    "relations_default": (0, ("relations",)),
    "relations_bounds": (0, ("relations", "--r-max", "2", "--d-max", "3",
                             "--n-max", "2", "--h-max", "4",
                             "--tol", "1e-12")),
    # the heaviest level of the K-theory sweep: 2,386 relations
    "relations_top": (0, ("relations", "--r-max", "8", "--d-max", "8",
                          "--n-max", "4", "--h-max", "6")),
    "mirror_sky": (0, ("mirror", "--sheaf", "Sky(pt(x=1/3, phase=1/7), 2)")),
    "mirror_bun": (0, ("mirror", "--sheaf", "Bun(2,1,pt(x=0, phase=0))")),
    "mirror_shifted": (0, ("mirror", "--sheaf", "O(3P0)[1]")),
    "theta_sharp_mults": (0, ("theta-sharp", "--brane",
                              "5*L(0,-1;1/3){M=phase 1/7, rank 3}"
                              " - 4*L(1,2;0)")),
    "theta_sharp_unanchored": (2, ("theta-sharp", "--brane", "L(2,1;0)")),
    "witness_third": (0, ("witness", "--x", "1/3")),
    "witness_above_one": (0, ("witness", "--x", "12/7")),
    "cob_nf_shifted": (0, ("cob-nf", "--brane", "L(3,5;2/7)[1]")),
    "cob_check_mult200": (0, ("cob-check",
                              "--lhs", "200*L(3,5;1/7) - 3*L(1,2;0)",
                              "--rhs", "L(1,0;0) + 200*L(3,5;1/7)")),
    "cob_check_equal": (0, ("cob-check",
                            "--lhs", "200*L(0,1;1/3) + L(1,0;0)",
                            "--rhs", "L(1,0;0) + 200*L(0,1;1/3)")),
}


def run_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv) + ["--json"])
    return rc, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_is_byte_identical(name):
    expected_rc, argv = CASES[name]
    rc, out = run_json(argv)
    assert rc == expected_rc
    assert out == (GOLDEN / f"{name}.json").read_text()


def _weights(space, rows, cols, salt):
    """Deterministic dense constant matrices on every generator."""
    return {
        c: tuple(
            tuple(
                NovikovSeries.constant(
                    complex(1 + k + r - 0.5 * s, (salt - k + 2 * s) / 3)
                )
                for s in range(cols)
            )
            for r in range(rows)
        )
        for k, c in enumerate(space.coords())
    }


def library_products():
    """Four products with every generator weighted, so that each output
    entry sums many triangles: a Jordan rank-2 system on the middle
    brane of a small triple, the heavy rank-1 triple, the heavy triple
    with the Jordan system on its middle brane, and a rank-1 triple with
    negative d02 and d12, its own Pin markers and a series eigenvalue,
    which no CLI input can set."""
    jordan = LocalSystem.from_eigenvalue(cmath.exp(2j * cmath.pi / 7), 2)
    l0 = Brane((0, -1), F(1, 4))
    l1 = Brane((1, 2), F(0), local_system=jordan)
    l2 = Brane((1, 0), F(1, 3))
    s01, s12 = cf(l0, l1), cf(l1, l2)
    rank2 = mu2(
        FloerElement(s12, _weights(s12, 1, 2, 1)),
        FloerElement(s01, _weights(s01, 2, 1, 2)),
        F(12),
    )
    h0 = Brane((1, -4), F(1, 12))
    h1 = Brane((3, 4), F(2, 5))
    h2 = Brane((3, -1), F(5, 12))
    s01, s12 = cf(h0, h1), cf(h1, h2)
    heavy = mu2(
        FloerElement(s12, _weights(s12, 1, 1, 3)),
        FloerElement(s01, _weights(s01, 1, 1, 4)),
        F(8),
    )
    h1j = Brane((3, 4), F(2, 5), local_system=jordan)
    s01, s12 = cf(h0, h1j), cf(h1j, h2)
    heavy_rank2 = mu2(
        FloerElement(s12, _weights(s12, 1, 2, 5)),
        FloerElement(s01, _weights(s01, 2, 1, 6)),
        F(6),
    )
    # d01, d02, d12 = -5, -7, -4; a Pin marker off the default on every
    # brane; two constant phases and a series eigenvalue, all rank 1
    series = LocalSystem.from_eigenvalue(NovikovSeries(
        ((0, cmath.exp(2j * cmath.pi / 5)), (F(1, 2), 0.25 - 0.5j), (F(2, 3), 0.125)),
        F(8),
    ))
    m0 = Brane((1, 2), F(1, 6), 0, F(2, 11),
               LocalSystem.from_eigenvalue(cmath.exp(2j * cmath.pi / 9)))
    m1 = Brane((2, -1), F(2, 7), 0, F(3, 7), series)
    m2 = Brane((2, -3), F(3, 10), 0, F(2, 9),
               LocalSystem.from_eigenvalue(cmath.exp(-6j * cmath.pi / 11)))
    s01, s12 = cf(m0, m1), cf(m1, m2)
    markers = mu2(
        FloerElement(s12, _weights(s12, 1, 1, 7)),
        FloerElement(s01, _weights(s01, 1, 1, 8)),
        F(32),
    )
    return {
        "rank2_jordan_c12": rank2,
        "heavy_weighted_c8": heavy,
        "heavy_rank2_c6": heavy_rank2,
        "markers_series_c32": markers,
    }


def element_json(elem):
    return [
        {
            "coords": [str(c[0]), str(c[1])],
            "matrix": [[_series_json(x) for x in row] for row in m],
        }
        for c, m in elem.components
    ]


def test_library_products_are_exact():
    expected = json.loads((GOLDEN / "library_products.json").read_text())
    got = {k: element_json(v) for k, v in library_products().items()}
    assert sorted(got) == sorted(expected)
    for name in expected:
        # == on floats parsed back from JSON: every bit of every term
        assert got[name] == expected[name], name
