"""Command-line surface: grammar round trips, verb outputs, exit codes,
byte-deterministic JSON, and the exit contract under mutated input."""

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import torushms.cli
import torushms.floer
from torushms.cli import (
    MAX_CUTOFF,
    MAX_CUTOFF_DIGITS,
    MAX_GROUP_STEPS,
    MAX_INT_DIGITS,
    MAX_RELATION_BOUND,
    BraneAst,
    BunAst,
    DivAst,
    OP0Ast,
    PointAst,
    SkyAst,
    SumAst,
    main,
    parse_ast,
    parse_expr,
    print_ast,
)
from torushms.errors import ParseError
from torushms.floer import cf
from torushms.sheafk import Bundle, Skyscraper
from torushms.tate import TatePoint
from torushms.torus import Brane


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def _rand_frac(rng, max_den=12):
    den = rng.randrange(1, max_den + 1)
    return F(rng.randrange(0, den), den)


def _rand_point(rng):
    return PointAst(_rand_frac(rng), _rand_frac(rng))


def _rand_item(rng):
    k = rng.randrange(-2, 3)
    kind = rng.randrange(6)
    if kind == 0:
        return _rand_point(rng)
    if kind == 1:
        return BraneAst(
            rng.randrange(-3, 4), rng.randrange(-3, 4), _rand_frac(rng),
            k, _rand_frac(rng), rng.randrange(1, 4),
        )
    if kind == 2:
        return OP0Ast(rng.randrange(-4, 5), k)
    if kind == 3:
        plus = tuple(_rand_point(rng) for _ in range(rng.randrange(1, 3)))
        minus = tuple(_rand_point(rng) for _ in range(rng.randrange(0, 3)))
        return DivAst(plus, minus, k)
    if kind == 4:
        return SkyAst(_rand_point(rng), rng.randrange(1, 4), k)
    return BunAst(
        rng.randrange(1, 4), rng.randrange(-3, 4), _rand_point(rng), k
    )


def test_print_parse_round_trip_random():
    rng = random.Random(31415)
    mults = [-3, -2, -1, 1, 2, 3]
    for _ in range(200):
        terms = tuple(
            (rng.choice(mults), _rand_item(rng))
            for _ in range(rng.randrange(1, 4))
        )
        ast = SumAst(terms)
        text = print_ast(ast)
        back = parse_ast(text)
        assert back == ast, text
        assert print_ast(back) == text
        pad = [rng.choice(["", " ", "\t", " \t "]) for _ in range(2)]
        assert parse_ast(pad[0] + text + pad[1]) == ast, pad


def test_parse_canonical_examples():
    brane = SumAst(((1, BraneAst(1, 2, F(0))),))
    for text in ("L(1,2;0)", "L(1,2;0) ", "\tL(1,2;0)\t",
                 " L ( 1 , 2 ; 0 ) \n"):
        assert parse_ast(text) == brane, text
    assert parse_ast("O(P0)") == SumAst(((1, OP0Ast(1)),))
    assert parse_ast("O(-2P0)[1]") == SumAst(((1, OP0Ast(-2, 1)),))
    got = parse_ast("L(0,-1;1/3)[1]{M=phase 1/7, rank 2}")
    assert got == SumAst(
        ((1, BraneAst(0, -1, F(1, 3), 1, F(1, 7), 2)),)
    )
    div = parse_ast("O(D: pt(x=1/3, phase=0) - pt(x=0, phase=0))")
    ((mult, item),) = div.terms
    assert mult == 1
    assert item.plus == (PointAst(F(1, 3), F(0)),)
    assert item.minus == (PointAst(F(0), F(0)),)
    mixed = parse_ast("2*Sky(pt(x=1/2, phase=0), 2) - Bun(2,1,pt(x=0, phase=0))")
    assert [m for m, _ in mixed.terms] == [2, -1]


def test_integer_tokens_have_at_most_max_int_digits():
    long = "7" * MAX_INT_DIGITS
    assert parse_ast(f"L(1,0;1/{long})").terms[0][1].x == F(1, int(long))
    with pytest.raises(ParseError) as exc:
        parse_ast(f"L(1,0;1/{long}7)")
    assert exc.value.position == 9
    assert str(exc.value) == (
        f"expected denominator of at most {MAX_INT_DIGITS} digits at "
        f"column 9, got {MAX_INT_DIGITS + 1} characters"
    )


def test_parse_error_reports_column():
    with pytest.raises(ParseError) as exc:
        parse_ast("L(1,2:0)")
    assert exc.value.position == 6
    assert "column 6" in str(exc.value)
    with pytest.raises(ParseError):
        parse_ast("L(1,2;0) L(1,0;0)")
    with pytest.raises(ParseError):
        parse_ast("Q(1)")


def test_realization():
    b = parse_expr("L(1,2;1/3)")
    assert isinstance(b, Brane)
    assert b.slope == (1, 2) and b.shift == F(1, 3)

    b = parse_expr("L(0,-1;1/3){M=phase 1/3, rank 2}")
    assert b.rank == 2
    eig = b.local_system.blocks[0][0]
    assert abs(complex(eig.terms[0][1]) - complex(-0.5, 3 ** 0.5 / 2)) < 1e-12

    p = parse_expr("pt(x=1/2, phase=0)")
    assert isinstance(p, TatePoint)
    assert p.approx_eq(TatePoint.two_torsion())
    # phase 1/2 realizes to the unit constant -1
    p = parse_expr("pt(x=0, phase=1/2)")
    assert abs(complex(p.unit.terms[0][1]) + 1) < 1e-12

    terms = parse_expr("O(2P0) - Sky(pt(x=1/3, phase=1/7), 2)")
    assert isinstance(terms, list) and len(terms) == 2
    (obj0, m0), (obj1, m1) = terms
    assert isinstance(obj0, Bundle) and m0 == 1 and obj0.degree == 2
    assert isinstance(obj1, Skyscraper) and m1 == -1 and obj1.h == 2


# ---------------------------------------------------------------------------
# verbs (through main, as a user would call them)
# ---------------------------------------------------------------------------


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_unreadable_cutoff_exponent_is_one_json_usage_error(capsys):
    rc, out, _ = run(
        capsys, "theta", "--kind", "1", "--point", "pt(x=2/5, phase=-3/11)",
        "--cutoff", "1eX", "--json",
    )
    assert (rc, json.loads(out)["kind"]) == (1, "usage")


def test_theta_verb(capsys):
    rc, out, _ = run(
        capsys, "theta", "--kind", "0", "--point", "pt(x=0, phase=0)",
        "--cutoff", "5",
    )
    assert rc == 0
    assert out.strip() == (
        "theta0 = (1.0+0.0i)*q^(0) + (2.0+0.0i)*q^(1) + (2.0+0.0i)*q^(4)"
        " + O(q^(5))"
    )


def test_cf_verb(capsys):
    rc, out, _ = run(capsys, "cf", "--l0", "L(1,2;0)", "--l1", "L(1,0;0)")
    assert rc == 0
    assert out.splitlines()[0] == "generators: 2"


def test_mu2_verb_json_deterministic(capsys):
    argv = (
        "mu2", "--l0", "L(0,-1;1/4)", "--l1", "L(1,2;0)", "--l2",
        "L(1,0;0)", "--cutoff", "4", "--triangles", "--json",
    )
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical across runs
    payload = json.loads(out1)
    assert payload["cutoff"] == "4"
    assert payload["result"]["components"]
    assert len(payload["triangles"]) > 0


def test_assoc_verb(capsys, monkeypatch):
    rc, out, _ = run(
        capsys, "assoc", "--l0", "L(1,2;0)", "--l1", "L(1,0;1/7)",
        "--l2", "L(0,-1;1/5)", "--l3", "L(1,1;1/11)", "--cutoff", "5",
        "--json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["defect"] <= 1e-9
    # The chain above orients every triangle of both outer products
    # negatively, so its defect compares two zero elements.  In this one
    # the four products walk 11, 6, 7 and 11 triangles, and deg(a) = 0.
    products = []

    def recording_mu2(*args):
        products.append(mu2(*args))
        return products[-1]

    mu2 = torushms.floer.mu2
    monkeypatch.setattr(torushms.floer, "mu2", recording_mu2)
    rc, out, _ = run(
        capsys, "assoc", "--l0", "L(3,2;1/7)", "--l1", "L(3,1;1/5)",
        "--l2", "L(1,0;1/11)", "--l3", "L(1,1;1/13)", "--cutoff", "8",
        "--json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["defect"] <= 1e-9
    # assoc_defect forms mu2(c, b), then mu2(that, a), then mu2(b, a),
    # then mu2(c, that): the two bracketings are the 2nd and the 4th
    assert len(products) == 4
    for bracketing in (products[1], products[3]):
        largest = max(
            (x.max_abs_coeff() for _, matrix in bracketing.components
             for row in matrix for x in row),
            default=0.0,
        )
        assert largest == pytest.approx(1.0)


def test_section_verb(capsys):
    rc, out, _ = run(
        capsys, "section", "--q", "pt(x=1/3, phase=0)", "--at",
        "pt(x=1/3, phase=0)", "--cutoff", "6", "--json",
    )
    assert rc == 0
    assert json.loads(out)["vanishes"] is True
    rc, out, _ = run(
        capsys, "section", "--q", "pt(x=1/3, phase=0)", "--at",
        "pt(x=1/5, phase=0)", "--cutoff", "6", "--json",
    )
    assert rc == 0
    assert json.loads(out)["vanishes"] is False


def test_k0_verb(capsys):
    rc, out, _ = run(
        capsys, "k0", "--sheaf", "O(2P0) - 2*Sky(pt(x=1/3, phase=1/7), 1)",
        "--json",
    )
    assert rc == 0
    cls = json.loads(out)["class"]
    assert (cls["rk"], cls["deg"]) == (1, 0)
    assert cls["pt"]["x"] == "1/3"


def test_relations_verb(capsys):
    rc, out, _ = run(
        capsys, "relations", "--r-max", "2", "--d-max", "1", "--n-max",
        "1", "--h-max", "1", "--json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_hold"] is True
    assert payload["count"] > 0
    assert payload["failures"] == []


def test_mirror_verb(capsys):
    rc, out, _ = run(capsys, "mirror", "--sheaf", "O(1P0)")
    assert rc == 0
    assert "L(1,-1" in out and "anchored: yes" in out
    rc, out, _ = run(capsys, "mirror", "--sheaf",
                     "Bun(2,1,pt(x=0, phase=0))", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["anchored"] is False and payload["note"]


def test_theta_sharp_verb(capsys):
    rc, out, _ = run(capsys, "theta-sharp", "--brane", "L(1,-2;0)", "--json")
    assert rc == 0
    cls = json.loads(out)["class"]
    assert (cls["rk"], cls["deg"]) == (1, 2)


def test_witness_verb(capsys):
    rc, out, _ = run(capsys, "witness", "--x", "1/3")
    assert rc == 0
    assert "pt=(x=2/3, unit=-1+0i)" in out and "nonzero: yes" in out
    rc, out, _ = run(capsys, "witness", "--x", "0", "--json")
    assert rc == 0
    assert json.loads(out)["nonzero"] is False
    # inside the digit budget of --x (MAX_CUTOFF_DIGITS)
    rc, out, _ = run(capsys, "witness", "--x", "1e-990", "--json")
    assert rc == 0 and json.loads(out)["nonzero"] is True


def test_cob_verbs(capsys):
    rc, out, _ = run(capsys, "cob-nf", "--brane", "L(0,1;1/3)")
    assert rc == 0
    assert out.strip() == "normal form: zeta=1/3 hom=(0, 1)"
    rc, out, _ = run(
        capsys, "cob-check",
        "--lhs", "L(0,1;1/3) + L(1,0;0)",
        "--rhs", "L(1,0;0) + L(0,1;1/3)", "--json",
    )
    assert rc == 0
    assert json.loads(out)["equal"] is True
    rc, out, _ = run(
        capsys, "cob-check", "--lhs", "L(0,1;1/3)", "--rhs", "L(0,1;1/4)",
        "--json",
    )
    assert rc == 0
    assert json.loads(out)["equal"] is False


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_usage_errors(capsys):
    assert main(["not-a-verb"]) == 1
    capsys.readouterr()
    assert main(["cf", "--l0", "L(1,0;0)"]) == 1  # missing --l1
    capsys.readouterr()
    rc, _, err = run(capsys, *MU2, "--cutoff", "abc")
    assert rc == 1 and "usage error" in err


def test_exit_code_parse_errors(capsys):
    rc, _, err = run(capsys, "cf", "--l0", "L(1,2:0)", "--l1", "L(1,0;0)")
    assert rc == 1
    assert "parse error" in err and "column 6" in err
    rc, out, _ = run(capsys, "cf", "--l0", "L(1,2:0)", "--l1", "L(1,0;0)",
                     "--json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["kind"] == "parse"
    assert payload["detail"]["position"] == 6
    # structurally valid text of the wrong type
    rc, _, err = run(capsys, "k0", "--sheaf", "L(1,0;0)")
    assert rc == 1
    # generator index out of range
    rc, _, err = run(
        capsys, "mu2", "--l0", "L(0,-1;1/4)", "--l1", "L(1,2;0)",
        "--l2", "L(1,0;0)", "--phi1", "7",
    )
    assert rc == 1


def test_exit_code_domain_errors(capsys):
    rc, out, _ = run(capsys, "cf", "--l0", "L(1,0;0)", "--l1", "L(1,0;1/2)",
                     "--json")
    assert rc == 2
    assert json.loads(out)["kind"] == "non-transverse"
    rc, out, _ = run(capsys, "theta-sharp", "--brane", "L(2,1;0)", "--json")
    assert rc == 2
    assert json.loads(out)["kind"] == "unanchored-slope"
    rc, _, err = run(
        capsys, "mu2", "--l0", "L(0,-1;0)", "--l1", "L(1,2;0)", "--l2",
        "L(1,0;0)",
    )
    assert rc == 2
    assert "degenerate-configuration" in err


def test_numeric_flags_that_fail_to_parse(capsys):
    theta = ("theta", "--kind", "0", "--point", "pt(x=1/5, phase=1/3)")
    for cutoff in ("1/0", "abc", "-2"):
        rc, out, err = run(capsys, *theta, "--cutoff", cutoff)
        assert rc == 1 and out == "" and "usage error" in err
        rc, out, err = run(capsys, *theta, "--cutoff", cutoff, "--json")
        assert rc == 1 and err == ""
        assert json.loads(out)["kind"] == "usage"
    for x in ("abc", "1/0"):
        rc, out, err = run(capsys, "witness", "--x", x)
        assert rc == 1 and out == "" and "parse error" in err
        rc, out, err = run(capsys, "witness", "--x", x, "--json")
        assert rc == 1 and err == ""
        assert json.loads(out)["kind"] == "parse"


def test_negative_relation_bounds_are_usage_errors(capsys):
    rc, out, err = run(capsys, "relations", "--r-max", "-1")
    assert rc == 1 and out == ""
    assert "usage error" in err and "r_max" in err
    rc, out, _ = run(capsys, "relations", "--h-max", "-2", "--json")
    assert rc == 1
    assert json.loads(out)["kind"] == "usage"


@pytest.mark.parametrize("flag", ["--r-max", "--d-max", "--n-max", "--h-max"])
def test_relation_bounds_above_max_are_usage_errors(capsys, monkeypatch, flag):
    too_big = str(MAX_RELATION_BOUND + 1)
    rc, out, _ = run(capsys, "relations", flag, too_big, "--json")
    assert rc == 1
    assert json.loads(out) == {
        "error": f"{flag} must be at most {MAX_RELATION_BOUND}, got {too_big}",
        "kind": "usage",
        "detail": {},
    }
    monkeypatch.setattr(torushms.cli, "MAX_RELATION_BOUND", 1)
    ones = ("--r-max", "1", "--d-max", "1", "--n-max", "1", "--h-max", "1")
    assert run(capsys, "relations", *ones)[0] == 0
    rc, _, err = run(capsys, "relations", *ones, flag, "2")
    assert rc == 1 and f"{flag} must be at most 1, got 2" in err


def test_removed_precision_flag_is_rejected(capsys):
    rc, out, err = run(
        capsys, "mu2", "--l0", "L(0,-1;1/4)",
        "--l1", "L(1,2;0){M=phase 1/7, rank 1}", "--l2", "L(1,0;1/3)",
        "--prec", "128",
    )
    assert rc == 1 and out == ""
    assert "unrecognized arguments: --prec" in err
    assert "Traceback" not in err


def test_zero_denominator_is_a_parse_error(capsys):
    # the error points at the denominator token, in every rational slot
    cases = (
        (("cob-nf", "--brane", "L(1,0;1/0)"), 9),
        (("k0", "--sheaf", "Sky(pt(x=1/0, phase=1/7), 2)"), 12),
        (("k0", "--sheaf", "Sky(pt(x=1/3, phase=-2/00), 2)"), 24),
        (("theta-sharp", "--brane", "L(0,-1;0){M=phase 1/0, rank 2}"), 21),
    )
    for argv, col in cases:
        rc, out, err = run(capsys, *argv, "--json")
        assert rc == 1 and err == ""
        payload = json.loads(out)
        assert payload["kind"] == "parse"
        assert payload["detail"] == {
            "position": col, "expected": ["nonzero denominator"],
        }
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert f"parse error: expected nonzero denominator at column {col}" in err
    with pytest.raises(ParseError):
        parse_ast("pt(x=1/0, phase=0)")


MU2 = ("mu2", "--l0", "L(0,-1;1/4)", "--l1", "L(1,2;0)", "--l2", "L(1,0;1/3)")
ASSOC = ("assoc", "--l0", "L(1,2;0)", "--l1", "L(1,0;1/7)", "--l2",
         "L(0,-1;1/5)", "--l3", "L(1,1;1/11)", "--cutoff", "5")


@pytest.mark.parametrize(
    "argv, message",
    [
        (MU2 + ("--prec", "128"), "unrecognized arguments: --prec 128"),
        (("cf", "--l0", "L(1,0;0)"), "the following arguments are required: --l1"),
        (MU2 + ("--phi1", "x"), "argument --phi1: invalid int value: 'x'"),
        (ASSOC + ("--tol", "tight"),
         "argument --tol: invalid float value: 'tight'"),
    ],
    ids=["unknown-flag", "missing-flag", "bad-phi1", "bad-tol"],
)
def test_argparse_failures_under_json_print_one_usage_object(capsys, argv, message):
    rc, out, err = run(capsys, *argv, "--json")
    assert rc == 1
    payload = json.loads(out)  # exactly one JSON object on stdout
    assert payload["kind"] == "usage" and payload["detail"] == {}
    assert payload["error"].endswith(message)
    # argparse's own text stays on stderr
    assert err.startswith("usage: torushms") and message in err
    assert "Traceback" not in err


def test_help_still_exits_zero_under_json(capsys):
    rc, out, err = run(capsys, "cf", "--help", "--json")
    assert rc == 0 and out.startswith("usage: torushms cf") and err == ""


#: verb -> (a valid argv after the verb, the flags it reads besides
#: --json), in the order `torushms --help` lists the verbs
VERB_FLAGS = {
    "cf": (("--l0", "L(1,2;0)", "--l1", "L(1,0;0)"), {"--l0", "--l1"}),
    "mu2": (MU2[1:], {"--l0", "--l1", "--l2", "--cutoff", "--phi1",
                      "--phi2", "--triangles"}),
    "assoc": (ASSOC[1:-2], {"--l0", "--l1", "--l2", "--l3", "--cutoff",
                            "--tol", "--a", "--b", "--c"}),
    "theta": (("--kind", "0", "--point", "pt(x=1/5, phase=1/3)"),
              {"--kind", "--point", "--cutoff"}),
    "section": (("--q", "pt(x=1/3, phase=0)", "--at", "pt(x=1/5, phase=0)"),
                {"--q", "--at", "--cutoff"}),
    "k0": (("--sheaf", "O(P0)"), {"--sheaf"}),
    "relations": (("--r-max", "1", "--d-max", "1", "--n-max", "1",
                   "--h-max", "1"),
                  {"--r-max", "--d-max", "--n-max", "--h-max", "--tol"}),
    "mirror": (("--sheaf", "O(P0)"), {"--sheaf"}),
    "theta-sharp": (("--brane", "L(1,-2;0)"), {"--brane"}),
    "witness": (("--x", "1/3"), {"--x", "--tol"}),
    "cob-nf": (("--brane", "L(0,1;1/3)"), {"--brane"}),
    "cob-check": (("--lhs", "L(0,1;1/3)", "--rhs", "L(0,1;1/4)"),
                  {"--lhs", "--rhs"}),
}


def test_help_lists_every_verb(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert re.search(r"\{([a-z0-9,-]+)\}", out)[1].split(",") == list(VERB_FLAGS)


@pytest.mark.parametrize("verb", list(VERB_FLAGS))
def test_each_verb_takes_exactly_the_flags_it_reads(capsys, verb):
    args, flags = VERB_FLAGS[verb]
    rc, out, _ = run(capsys, verb, "--help")
    assert rc == 0
    assert set(re.findall(r"--[a-z0-9-]+", out)) == flags | {"--help", "--json"}
    rc, base, _ = run(capsys, verb, *args, "--json")
    assert rc == 0 and "error" not in json.loads(base)
    for flag, value in (("--cutoff", "8"), ("--tol", "1e-9")):
        rc, out, err = run(capsys, verb, *args, flag, value, "--json")
        if flag in flags:  # the default, spelled out
            assert (rc, out) == (0, base)
            continue
        assert rc == 1 and err.startswith("usage: torushms")
        assert json.loads(out) == {
            "error": f"torushms: error: unrecognized arguments: {flag} {value}",
            "kind": "usage",
            "detail": {},
        }


#: the directory the package under test was imported from
SRC = Path(torushms.cli.__file__).resolve().parents[1]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Each CLI answer is a fresh interpreter that pays for every import;
    the records of the library are built without `dataclasses`, which
    would pull in `inspect`.  Checked by module name, not by time, and
    without `site`, which may load either module on its own."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, torushms.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _with_pipe_closed(argv, keep=0):
    """(exit code, stderr) of `python -m torushms.cli *argv` whose reader
    takes `keep` bytes of stdout and closes it."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "torushms.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    got = proc.stdout.read(keep)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert len(got) == keep
    return proc.wait(timeout=60), err


def test_a_pipe_closed_early_ends_with_the_answers_code_and_no_traceback():
    """`| head -c N`: an answer, a JSON parse error and --help, each with
    the pipe closed before the first write, and 5 bytes read of a mu2
    listing longer than a pipe buffer holds (124 KB), so that the rest
    is written after the close."""
    heavy = ("--l0", "L(1,-4;1/12)", "--l1", "L(3,4;2/5)", "--l2", "L(3,-1;5/12)")
    runs = [
        (("relations", "--json"), 0, 0),
        (("cf", "--l0", "L(1,2;0)", "--l1", "L(1,0;0", "--json"), 0, 1),
        (("cf", "--help"), 0, 0),
        (("mu2", *heavy, "--cutoff", "2048", "--triangles", "--json"), 5, 0),
    ]
    for argv, keep, code in runs:
        assert _with_pipe_closed(argv, keep) == (code, ""), argv


def test_cutoff_above_the_bound_is_a_usage_error(capsys):
    theta = VERB_FLAGS["theta"][0]
    # end to end, so that a lost bound fails here instead of hanging
    proc = subprocess.run(
        [sys.executable, "-m", "torushms.cli", "theta", *theta,
         "--cutoff", "1e400", "--json"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["kind"] == "usage"
    rc, out, _ = run(capsys, "theta", *theta, "--cutoff", str(MAX_CUTOFF),
                     "--json")
    assert rc == 0
    assert json.loads(out)["series"]["cutoff"] == {"num": MAX_CUTOFF, "den": 1}
    over = ("1e400", str(10 ** 400), f"{10 * MAX_CUTOFF + 1}/10")
    for verb in ("mu2", "assoc", "theta", "section"):
        for value in over:
            argv = (verb, *VERB_FLAGS[verb][0], "--cutoff", value)
            start = time.perf_counter()
            rc, out, err = run(capsys, *argv, "--json")
            assert time.perf_counter() - start < 1
            message = f"--cutoff must be at most {MAX_CUTOFF}, got {value!r}"
            assert rc == 1 and err == ""
            assert json.loads(out) == {
                "error": message, "kind": "usage", "detail": {},
            }
            rc, out, err = run(capsys, *argv)
            assert (rc, out, err) == (1, "", f"usage error: {message}\n")


def test_cutoff_with_too_many_digits_is_a_usage_error(capsys):
    """A value whose exact rational would need more than MAX_CUTOFF_DIGITS
    digits is refused before it is built: printed exactly, a tiny cutoff
    would pass the int-to-str limit, and a huge exponent takes seconds to
    build."""
    mu2 = VERB_FLAGS["mu2"][0]
    proc = subprocess.run(
        [sys.executable, "-m", "torushms.cli", "mu2", *mu2,
         "--cutoff", "1e-5000", "--json"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["kind"] == "usage"
    long = "1/1" + "0" * 5000
    shown = {"1e-5000": "'1e-5000'", long: "5003 characters",
             "1e3000000": "'1e3000000'"}
    for verb in ("mu2", "assoc", "theta", "section"):
        for value, named in shown.items():
            argv = (verb, *VERB_FLAGS[verb][0], "--cutoff", value)
            start = time.perf_counter()
            rc, out, err = run(capsys, *argv, "--json")
            assert time.perf_counter() - start < 0.1
            message = (
                f"--cutoff must have at most {MAX_CUTOFF_DIGITS} digits, an "
                f"exponent eN counting as |N| of them, got {named}"
            )
            assert rc == 1 and err == ""
            assert json.loads(out) == {
                "error": message, "kind": "usage", "detail": {},
            }
            rc, out, err = run(capsys, *argv)
            assert (rc, out, err) == (1, "", f"usage error: {message}\n")
    # a tiny cutoff inside the budget still runs, and prints exactly
    rc, out, _ = run(capsys, "mu2", *mu2, "--cutoff", "1e-900", "--json")
    assert rc == 0
    assert json.loads(out)["cutoff"] == "1/1" + "0" * 900


_NINES = "9" * 4400


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cob-nf", "--brane", f"L(1,0;1/{_NINES})"),
         f"expected denominator of at most {MAX_INT_DIGITS} digits at "
         "column 9, got 4400 characters"),
        (("k0", "--sheaf", f"{_NINES}*Sky(pt(x=1/3, phase=1/7), 1)"),
         f"expected multiplier of at most {MAX_INT_DIGITS} digits at "
         "column 1, got 4400 characters"),
        (("witness", "--x", "1e-5000"),
         f"--x must have at most {MAX_CUTOFF_DIGITS} digits, an exponent eN "
         "counting as |N| of them, got '1e-5000'"),
    ],
    ids=["grammar-denominator", "grammar-multiplier", "witness-x"],
)
def test_oversized_integer_literals_are_parse_errors(capsys, argv, message):
    """Past CPython's 4300-digit int/str conversion limit these inputs
    would end in a traceback; they are refused before any int is built."""
    rc, out, err = run(capsys, *argv, "--json")
    assert rc == 1 and err == ""
    payload = json.loads(out)
    assert (payload["kind"], payload["error"]) == ("parse", message)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (1, "", f"parse error: {message}\n")


_PT = "pt(x=1/3, phase=1/7)"


def _over_budget(steps, budget=MAX_GROUP_STEPS):
    return {
        "error": f"expression needs {steps} group-law steps, more than "
        f"MAX_GROUP_STEPS = {budget}",
        "kind": "parse",
        "detail": {"position": None, "expected": []},
    }


@pytest.mark.parametrize(
    "argv, steps",
    [
        (("k0", "--sheaf", f"100000*Sky({_PT}, 1)"), 100001),
        (("k0", "--sheaf", f"Sky({_PT}, 100000)"), 100001),
        (("k0", "--sheaf", f"123456789*Sky({_PT}, 1)"), 123456790),
        (("theta-sharp", "--brane", "L(1,100000;0)"), 100002),
        (("theta-sharp", "--brane", "L(0,-1;0){M=phase 1/7, rank 123456789}"),
         123456790),
        (("mirror", "--sheaf", "O(100000P0)"), 200000),
        (("mirror", "--sheaf", "Bun(1,-123456789,pt(x=0, phase=0))"), 123456789),
        (("cob-nf", "--brane", "O(100001P0)"), 100001),
    ],
    ids=["k0-mult", "k0-thickness", "k0-9-digits", "sharp-slope",
         "sharp-rank", "mirror-op0", "mirror-bun", "cob-nf-op0"],
)
def test_expressions_over_the_group_law_budget_are_parse_errors(
    capsys, monkeypatch, argv, steps
):
    """Counted on the syntax tree: no object is built, so a 9-digit
    multiple is refused as fast as a 6-digit one."""
    monkeypatch.setattr(
        torushms.cli, "_realize", lambda ast: pytest.fail("object built")
    )
    rc, out, err = run(capsys, *argv, "--json")
    assert rc == 1 and err == ""
    assert json.loads(out) == _over_budget(steps)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cob-nf", "--brane", "O(100000P0)"),
         "expected a single brane, got 'O(100000P0)'"),
        (("cf", "--l0", "O(99999P0)", "--l1", "L(1,0;0)"),
         "expected a single brane, got 'O(99999P0)'"),
        (("theta", "--kind", "0", "--point", "O(100000P0)"),
         "expected a point literal, got 'O(100000P0)'"),
        (("k0", "--sheaf", "O(2P0) + L(1,0;0)"),
         "expected only sheaves in this expression, got 'L(1,0;0)'"),
        (("theta-sharp", "--brane", "L(1,0;0) + O(99990P0)"),
         "expected only branes in this expression, got 'O(99990P0)'"),
        (("cob-check", "--lhs", "L(1,0;0)", "--rhs", _PT),
         f"expected only branes in this expression, got '{_PT}'"),
        # the kind error comes before the thickness-0 constructor error
        (("k0", "--sheaf", f"L(1,0;0) + Sky({_PT}, 0)"),
         "expected only sheaves in this expression, got 'L(1,0;0)'"),
    ],
    ids=["cob-nf", "cf", "theta", "k0-sum", "sharp-sum", "cob-check-sum",
         "k0-sum-kind-first"],
)
def test_a_single_object_of_the_wrong_kind_is_refused_before_it_is_built(
    capsys, monkeypatch, argv, message
):
    """Within the group-law budget, yet a degree-10^5 bundle is not built
    only to be refused as the wrong kind of object.  A sum is checked
    term by term on its tree, and every flag is checked before any flag
    is built, so no term of a valid --lhs is built either."""
    monkeypatch.setattr(
        torushms.cli, "_realize", lambda ast: pytest.fail("object built")
    )
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv, "--json")
    assert time.perf_counter() - start < 0.1
    assert rc == 1 and err == ""
    assert json.loads(out) == {
        "error": message,
        "kind": "parse",
        "detail": {"position": None, "expected": []},
    }


@pytest.mark.parametrize(
    "argv",
    [MU2, ("k0", "--sheaf", f"O(3P0) - 2*Sky({_PT}, 4)"),
     ("section", "--q", _PT, "--at", _PT),
     ("cob-check", "--lhs", "2*L(1,2;1/3)", "--rhs", "L(1,0;0) - L(0,1;0)")],
    ids=["mu2", "k0", "section", "cob-check"],
)
def test_each_expression_is_parsed_once(capsys, monkeypatch, argv):
    """main parses each expression flag once, for the work estimate, and
    builds its objects from that tree: no handler parses again."""
    calls = []
    expr = torushms.cli._Parser.expr

    def counting_expr(self):
        calls.append(self.text)
        return expr(self)

    monkeypatch.setattr(torushms.cli._Parser, "expr", counting_expr)
    assert run(capsys, *argv, "--json")[0] == 0
    assert sorted(calls) == sorted(argv[2::2])


@pytest.mark.parametrize(
    "verb, flag, text, steps",
    [
        ("k0", "--sheaf", f"O(3P0) - 2*Sky({_PT}, 4)", 3 + 1 + (2 + 4)),
        ("theta-sharp", "--brane",
         "3*L(1,-2;0) - L(0,-1;1/3){M=phase 1/7, rank 2}", (3 + 1 + 2) + (1 + 2)),
        ("mirror", "--sheaf", "O(-4P0)", 4 + 4),
        ("mirror", "--sheaf", "Bun(1,-5,pt(x=0, phase=0))", 5),
        ("mirror", "--sheaf", f"Bun(2,-5,{_PT})", 0),
        ("cob-check", "--lhs", "1000000*L(1,2;1/3)", 0),
    ],
)
def test_group_law_steps_are_counted_per_verb(
    capsys, monkeypatch, verb, flag, text, steps
):
    """At the budget the command runs; one step below it, it is refused.
    cob-check multiplies exact classes, so its multipliers cost nothing."""
    argv = (verb, flag, text) + (("--rhs", text) if verb == "cob-check" else ())
    monkeypatch.setattr(torushms.cli, "MAX_GROUP_STEPS", steps)
    assert run(capsys, *argv, "--json")[0] == 0
    if steps:
        monkeypatch.setattr(torushms.cli, "MAX_GROUP_STEPS", steps - 1)
        rc, out, _ = run(capsys, *argv, "--json")
        assert rc == 1 and json.loads(out) == _over_budget(steps, steps - 1)


_SLOPE = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda v: v != (0, 0) and math.gcd(*v) == 1
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_SLOPE, min_size=3, max_size=3),
    st.lists(st.sampled_from(["0", "1/2", "1/3", "2/5", "1/7"]), min_size=3,
             max_size=3),
    st.integers(1, 64),
)
def test_the_mu2_estimate_counts_every_triangle_the_walk_lists(
    slopes, shifts, cutoff
):
    """--triangles adds 16 steps per triangle the count walks, so the
    difference it makes covers the listing, with at most one triangle to
    spare (`novikov.lattice_bound` against the window of phi1's one
    generator)."""
    branes = [f"L({m},{n};{x})" for (m, n), x in zip(slopes, shifts)]
    argv = ["mu2", "--l0", branes[0], "--l1", branes[1], "--l2", branes[2],
            "--cutoff", str(cutoff), "--json"]
    counted = []
    check = torushms.cli._check_budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torushms.cli, "_check_budget", lambda steps: counted.append(steps))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(argv)
            rc = main(argv + ["--triangles"])
    assume(rc == 0)
    plain, listed = counted[1::2]  # after each run's tree check
    assert check is torushms.cli._check_budget
    walked = len(json.loads(out.getvalue().splitlines()[-1])["triangles"])
    assert walked * 16 <= listed - plain <= (walked + 1) * 16


@pytest.mark.parametrize("argv, calls", [(MU2, 3), (ASSOC, 7)],
                         ids=["mu2", "assoc"])
def test_each_product_builds_each_space_once(capsys, monkeypatch, argv, calls):
    """One CF space per generator, and one per mu2 output: mu2 takes its
    inputs' spaces as they are (assoc computes four products)."""
    seen = []

    def counting_cf(l0, l1):
        seen.append((l0, l1))
        return cf(l0, l1)

    monkeypatch.setattr(torushms.floer, "cf", counting_cf)
    monkeypatch.setattr(torushms.cli, "cf", counting_cf)
    rc, _, _ = run(capsys, *argv, "--json")
    assert rc == 0 and len(seen) == calls


#: the standard triple: |det| 1 for (l0, l1), 2 for (l1, l2), 1 for (l0, l2)
STD = ("--l0", "L(0,-1;1/4)", "--l1", "L(1,2;0)", "--l2", "L(1,0;0)")
_RANK = "{M=phase 1/7, rank %d}"


def _std_steps(r0=1, listed=False, B=11):
    """mu2 on STD at cutoff 8 with rank r0 on l0: 5 steps a point of the
    spaces of phi1, phi2 and the output (|det| 1, 2, 1); 1 an entry of
    phi1 (1 x r0), phi2 (1 x 1) and the output's one component (1 x r0);
    1 + isqrt(4 * 32) = 12 triangles walked, 4 steps each (20 listed);
    phi2 weights 12 // 2 + 1 = 7 of them, 11 steps each plus 1 per scalar
    step (4 r0 products of the e00 chain, r0 + 1 + 1 transport diagonals)
    and 1 per 1.5 * 10^6 squared bits of l0's binomials: binom(t, d) for
    d < r0 counts d B bits on the arc U / R, R = 4 and |U| <= isqrt(32 *
    16 - 1) = 22, so B = bits(4) + bits(3) + bits(6) + 3 = 11.  A shift
    1/D on l0 makes R = D and B = bits(D) + bits(bits(D)) + bits(6) + 3."""
    return (5 * (1 + 2 + 1) + (r0 + 1 + r0) + 12 * (20 if listed else 4)
            + 7 * (11 + 4 * r0 + r0 + 2 + _squared(B, r0) // 1_500_000))


def _squared(B, s):
    """The squared bits of a size-s Jordan block's binomials, d B bits each."""
    return B * B * (s - 1) * s * (2 * s - 1) // 6


def _assoc_steps(r0=1):
    """ASSOC with rank r0 on l0: the spaces of a, b, c (|det| 2, 1, 1) and
    their entries (r0, 1, 1); then mu2(c, b) walks 7 triangles and weights
    7, 7 scalar steps each, mu2(., a) is misoriented, mu2(b, a) walks and
    weights 5, 5 r0 + 2 scalar steps each and l0's binomials on the arc
    U / 70, |U| <= isqrt(5 * 70^2 - 1) = 156 (B = 7 + 3 + 2 + 3 = 15), and
    mu2(c, .) is misoriented; each product builds one 1-point space, and
    the two oriented ones one output component each, of 1 and r0
    entries."""
    return (5 * (2 + 1 + 1) + (r0 + 1 + 1) + (5 + 1 + 7 * 4 + 7 * (11 + 7)) + 5
            + (5 + r0 + 5 * 4 + 5 * (11 + 5 * r0 + 2 + _squared(15, r0) // 1_500_000)) + 5)


@pytest.mark.parametrize(
    "argv, steps",
    [
        (("cf", "--l0", "L(1,999999999;0)", "--l1", "L(1,0;0)"), 5 * 999999999),
        (("mu2", "--l0", "L(0,-1;1/4)" + _RANK % 10000) + STD[2:],
         _std_steps(r0=10000)),
        (("assoc", "--l0", "L(1,2;0)" + _RANK % 10000) + ASSOC[3:],
         _assoc_steps(r0=10000)),
        # 10^99 + 7 has 329 bits
        (("mu2", "--l0", f"L(0,-1;1/{10**99 + 7})" + _RANK % 801) + STD[2:],
         _std_steps(r0=801, B=329 + 9 + 3 + 3)),
    ],
    ids=["cf", "mu2", "assoc", "mu2-long-shift"],
)
def test_floer_work_over_the_budget_is_refused_before_any_work(
    capsys, monkeypatch, argv, steps
):
    """A slope of 10^9 makes cf list 10^9 points, a rank-10^4 system makes
    each weighted mu2 triangle form 5 * 10^4 scalar steps, and a shift
    1/(10^99 + 7) makes a rank-801 transport's exact binomials grow by 344
    bits a degree, against 11 for a shift 1/4: the count
    reads only the built branes and --cutoff, so no space is built.
    Building a brane is a gcd and one Jordan-block record at any rank."""
    def fail(*args):
        pytest.fail("Floer work started")

    for module in (torushms.cli, torushms.floer):
        monkeypatch.setattr(module, "cf", fail)
    for module in (torushms.floer, torushms.torus):
        monkeypatch.setattr(module, "intersections", fail)
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv, "--json")
    assert time.perf_counter() - start < 0.1
    assert rc == 1 and err == ""
    assert json.loads(out) == _over_budget(steps)


@pytest.mark.parametrize(
    "argv, steps",
    [
        (("cf", "--l0", "L(1,7;0)", "--l1", "L(1,0;0)"), 5 * 7),
        (("cf", "--l0", "L(1,7;0)", "--l1", "L(1,0;0){M=phase 1/3, rank 9}"),
         5 * 7),
        (("mu2",) + STD, _std_steps()),
        (("mu2",) + STD + ("--triangles",), _std_steps(listed=True)),
        (("mu2", "--l0", "L(0,-1;1/4)" + _RANK % 8) + STD[2:], _std_steps(r0=8)),
        (("mu2", "--l0", f"L(0,-1;1/{10**99 + 7})" + _RANK % 8) + STD[2:],
         _std_steps(r0=8, B=329 + 9 + 3 + 3)),
        # a parallel pair ends the work: mu2 builds CF(l0, l1) and its
        # generator's one entry only
        (("mu2",) + STD[:4] + ("--l2", "L(1,2;1/2)"), 5 * 1 + 1),
        (ASSOC, _assoc_steps()),
        # every product oriented, rank 1: a weighted triangle takes 11 + 7
        # scalar steps on generators, and 11 + 3 + 5 * 4 with 4 series
        # products on a mu2 output.  Spaces of a, b, c: |det| 3, 1, 1, 1
        # entry each.  mu2(c, b): 12 walked and weighted, 2 output points and
        # components; mu2(., a): 7 walked, its phi2 on 2 of the |det| 2
        # points weights min(7, 2 * 4); mu2(b, a): 7 and 7, 2 output points
        # and components; mu2(c, .): 6 and 6 for each of 2 components, 1
        # output point
        (("assoc", "--l0", "L(3,2;1/7)", "--l1", "L(3,1;1/5)", "--l2",
          "L(1,0;1/11)", "--l3", "L(1,1;1/13)"),
         5 * (3 + 1 + 1) + 3 + (6 * 2 + 12 * 4 + 12 * 18) + (6 + 7 * 4 + 7 * 34)
         + (6 * 2 + 7 * 4 + 7 * 18) + (6 + 2 * 6 * 4 + 12 * 34)),
    ],
    ids=["cf", "cf-rank", "mu2", "mu2-triangles", "mu2-rank", "mu2-long-shift", "mu2-parallel",
         "assoc", "assoc-oriented"],
)
def test_floer_work_is_counted_per_verb(capsys, monkeypatch, argv, steps):
    """At the budget the command runs; one step below it, it is refused."""
    monkeypatch.setattr(torushms.cli, "MAX_GROUP_STEPS", steps)
    rc, _, _ = run(capsys, *argv, "--json")
    assert rc == (2 if "L(1,2;1/2)" in argv else 0)
    monkeypatch.setattr(torushms.cli, "MAX_GROUP_STEPS", steps - 1)
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 1 and json.loads(out) == _over_budget(steps, steps - 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cf", "--l0", "L(2,999999998;0)", "--l1", "L(1,0;0)"),
         "slope (2, 999999998) must be primitive nonzero"),
        (("cf", "--l0", "2*L(1,999999999;0)", "--l1", "L(1,0;0)"),
         "expected a single brane, got '2*L(1,999999999;0)'"),
        (("mu2", "--l0", "L(1,999999999;0)", "--l1", "L(1,0;0){M=phase 0, rank 0}",
          "--l2", "L(0,1;0)"),
         "Jordan block size must be >= 1"),
    ],
    ids=["not-primitive", "multiple", "rank-0"],
)
def test_a_brane_refused_before_any_work_costs_nothing(capsys, argv, message):
    """The constructor or the kind check refuses these before cf runs, so
    their slopes of 10^9 are not counted against the budget."""
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 1
    assert json.loads(out) == {
        "error": message, "kind": "parse",
        "detail": {"position": None, "expected": []},
    }


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize(
    "argv, kind, message",
    [
        (("cob-nf", "--brane", "L(2,4;0)"),
         "parse", "slope (2, 4) must be primitive nonzero"),
        (("cf", "--l0", "L(0,0;0)", "--l1", "L(1,0;0)"),
         "parse", "slope (0, 0) must be primitive nonzero"),
        (("mirror", "--sheaf", "Bun(0,1,pt(x=0, phase=0))"),
         "parse", "bundle rank must be >= 1"),
        (("k0", "--sheaf", "Sky(pt(x=1/3, phase=1/7), 0)"),
         "parse", "skyscraper thickness must be >= 1"),
        (("theta-sharp", "--brane", "L(1,0;0){M=phase 1/7, rank 0}"),
         "parse", "Jordan block size must be >= 1"),
        (ASSOC + ("--tol", "nan"),
         "usage", "--tol must be a finite number >= 0, got nan"),
        (("relations", "--tol", "inf"),
         "usage", "--tol must be a finite number >= 0, got inf"),
        (("witness", "--x", "1/3", "--tol", "-1"),
         "usage", "--tol must be a finite number >= 0, got -1"),
    ],
    ids=["slope-not-primitive", "slope-zero", "bundle-rank-0",
         "sky-thickness-0", "jordan-rank-0", "tol-nan", "tol-inf", "tol-negative"],
)
def test_invalid_literals_and_tolerances_exit_1(capsys, argv, kind, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == f"{kind} error: {message}\n"
    rc, out, err = run(capsys, *argv, "--json")
    assert rc == 1 and err == ""
    detail = {"position": None, "expected": []} if kind == "parse" else {}
    assert json.loads(out, parse_constant=_no_constant) == {
        "error": message, "kind": kind, "detail": detail,
    }


# ---------------------------------------------------------------------------
# exit contract under mutation
# ---------------------------------------------------------------------------

#: verb argv whose grammar arguments are mutated
GRAMMAR = [
    ("cf", "--l0", "L(1,2;0)", "--l1", "L(1,0;1/5){M=phase 1/7, rank 2}"),
    ("cob-nf", "--brane", "L(0,1;1/3)[1]"),
    ("cob-check", "--lhs", "2*L(0,1;1/3) + L(1,0;0)",
     "--rhs", "L(1,0;0) - L(0,-1;2/3)"),
    ("k0", "--sheaf", "O(2P0) - 2*Sky(pt(x=1/3, phase=1/7), 1)"
     " + Bun(2,1,pt(x=0, phase=0)) - O(D: pt(x=1/3, phase=0) - pt(x=0, phase=0))"),
    ("mirror", "--sheaf", "Sky(pt(x=1/3, phase=1/7), 2)[1]"),
    ("theta-sharp", "--brane", "3*L(1,-2;0) - L(0,-1;1/3){M=phase 1/7, rank 2}"),
    ("mu2", "--l0", "L(0,-1;1/4)", "--l1", "L(1,2;0){M=phase 1/7, rank 2}",
     "--l2", "L(1,0;0)"),
    ASSOC[:-2],
]
#: verb argv whose flag values are mutated, with the flags to mutate: the
#: verb's own flags, and in the last entry two that cob-nf does not take
FLAGS = [
    (("mu2", "--l0", "L(0,-1;1/4)", "--l1", "L(1,2;0)", "--l2", "L(1,0;0)"),
     ("--cutoff", "--phi1")),
    (ASSOC[:-2], ("--cutoff", "--tol")),
    (("theta", "--kind", "1", "--point", "pt(x=1/5, phase=1/3)"),
     ("--cutoff",)),
    (("section", "--q", "pt(x=1/3, phase=1/7)", "--at", "pt(x=1/5, phase=0)"),
     ("--cutoff",)),
    (("witness", "--x", "1/3"), ("--x", "--tol")),
    (("relations", "--r-max", "1", "--d-max", "1", "--n-max", "1",
      "--h-max", "1"), ("--tol",)),
    (("cob-nf", "--brane", "L(0,1;1/3)"), ("--cutoff", "--tol")),
]

_TOKEN = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|\S")
_VOCAB = sorted(
    {t for argv in GRAMMAR for a in argv[2::2] for t in _TOKEN.findall(a)}
    | {"Sky", "Bun", "O", "pt", "L", "P0", "D", "0", "00", "999", "-", "/",
       "*", "@", "#", "x", "abc"}
)
_INT = st.integers(-999, 999).map(str)
_JUNK = st.sampled_from(
    ["", " ", "abc", "nan", "inf", "-inf", "1/0", "0", "-0", "1.5", "0/5",
     "1/-3", "--json", "1e-9", "x"]
)
_RATIONAL = st.builds("{}/{}".format, _INT, _INT)
#: past the --cutoff bound, so rejected before any work
_HUGE = st.one_of(
    st.just("1e400"), st.integers(MAX_CUTOFF + 1, 10 ** 400).map(str)
)
#: tiny or long cutoffs, around the digit budget: 1e-N and 1/10**N
_DIGITS = st.integers(MAX_CUTOFF_DIGITS - 10, 6000)
_TINY_OR_LONG = st.one_of(
    _DIGITS.map("1e-{}".format),
    _DIGITS.map("1e{}".format),
    _DIGITS.map(lambda n: "1/1" + "0" * n),
)
_VALUES = {
    "--cutoff": st.one_of(_INT, _RATIONAL, _JUNK, _HUGE, _TINY_OR_LONG),
    "--x": st.one_of(_INT, _RATIONAL, _JUNK, _TINY_OR_LONG),
    "--phi1": st.one_of(_INT, _JUNK),
    "--tol": st.one_of(_JUNK, st.just("1e400"), st.floats().map(repr)),
}


@st.composite
def _mutated_grammar(draw):
    argv = list(draw(st.sampled_from(GRAMMAR)))
    slot = draw(st.sampled_from(range(2, len(argv), 2)))
    toks = _TOKEN.findall(argv[slot])
    i = draw(st.integers(0, len(toks) - 1))
    op = draw(st.sampled_from(["drop", "repeat", "replace", "long"]))
    if op == "drop":
        del toks[i]
    elif op == "repeat":
        toks.insert(i, toks[i])
    elif op == "replace":
        toks[i] = draw(st.sampled_from(_VOCAB))
    else:
        digits = st.one_of(
            st.integers(4, MAX_INT_DIGITS), st.integers(MAX_INT_DIGITS + 1, 6000)
        )
        toks[i] = "9" * draw(digits)
    argv[slot] = " ".join(toks)
    return argv


@st.composite
def _mutated_flag(draw):
    base, flags = draw(st.sampled_from(FLAGS))
    flag = draw(st.sampled_from(flags))
    argv = list(base)
    if flag in argv:
        argv[argv.index(flag) + 1] = draw(_VALUES[flag])
    else:
        argv += [flag, draw(_VALUES[flag])]
    return argv


@settings(max_examples=500, deadline=None)
@given(st.one_of(_mutated_grammar(), _mutated_flag()))
def test_every_input_exits_0_1_or_2_with_one_json_object(argv):
    """Mutated inputs end in exit 0, 1 or 2 and, under --json, in exactly
    one JSON object on stdout (NaN and Infinity are not JSON), never in a
    traceback.  One token of a valid grammar argument is dropped,
    repeated or replaced (by a vocabulary token or by an integer of 4 to
    6000 digits), or one flag value is replaced or added; the flag is one
    its verb reads, or one cob-nf does not take.

    Integer tokens of up to MAX_INT_DIGITS digits are accepted; the work
    budget refuses the commands they would make slow before any object
    is built.  Longer tokens run to 6000 digits, past the int/str
    conversion limit, which the parser refuses at that token.  --cutoff
    values run up to 10**400, past MAX_CUTOFF, which the flag rejects
    before any lattice walk or theta sum starts, and, like --x values,
    to tiny or long values around MAX_CUTOFF_DIGITS."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + ["--json"])  # an escaping exception fails here
    assert rc in (0, 1, 2), (argv, rc)
    payload = json.loads(out.getvalue(), parse_constant=_no_constant)
    assert isinstance(payload, dict), argv
    assert (rc == 0) == ("error" not in payload), (argv, payload)
    assert "Traceback" not in err.getvalue()
