"""Golden corpus: byte-for-byte `--json` outputs of the Floer verbs
(`cf`, `mu2` with and without `--triangles`, `assoc`) and the exact
terms and cutoffs of three library-level `mu2` products.

The files under tests/golden/ were recorded once, from the grid-scan
intersection enumerator and the series-by-series triangle accumulation
that preceded the closed-form enumerator and the per-entry accumulator.
They pin that behaviour: a mismatch here is a change in what torushms
computes.  Never regenerate them to make this test pass.
"""

import cmath
import contextlib
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from torushms.cli import main
from torushms.floer import FloerElement, cf, mu2
from torushms.novikov import NovikovSeries, series_json
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
    """Three products with every generator weighted, so that each output
    entry sums many triangles: a Jordan rank-2 system on the middle
    brane of a small triple, the heavy rank-1 triple, and the heavy
    triple with the Jordan system on its middle brane."""
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
    return {
        "rank2_jordan_c12": rank2,
        "heavy_weighted_c8": heavy,
        "heavy_rank2_c6": heavy_rank2,
    }


def element_json(elem):
    return [
        {
            "coords": [str(c[0]), str(c[1])],
            "matrix": [[series_json(x) for x in row] for row in m],
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
