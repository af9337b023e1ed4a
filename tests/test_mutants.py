"""The mutant record, tests/mutants.json, still fits the code: each
mutant's `old` snippet occurs exactly once in its `src/` file, each test
it names exists, and ids are unique.  No mutant is run here; a refactor
that removes mutated code must re-target or retire the mutant.  Run the
record with `python tests/mutants.py`."""

import ast

from mutants import ROOT, load

MUTANTS = load()


def test_each_old_snippet_occurs_once_in_its_source_file():
    for m in MUTANTS:
        assert m["file"].startswith("src/") and m["old"] != m["new"], m["id"]
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["id"]


def test_each_named_test_exists():
    defined = {}
    for m in MUTANTS:
        assert m["tests"], m["id"]
        for test in m["tests"]:
            file, _, name = test.partition("::")
            if file not in defined:
                tree = ast.parse((ROOT / file).read_text())
                defined[file] = {
                    node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                }
            assert name in defined[file], (m["id"], test)


def test_ids_are_unique():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))
