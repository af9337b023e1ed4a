"""Self-test of the benchmark harness (not part of the library's suite).

    python3 -m pytest -q bench/selftest.py     # about two minutes

Checks that inputs are a function of the seed, that every metric a run
prints is declared in BENCHMARK.json with its unit, that a check forced
to fail is counted in `failed` and `fail_ratio`, and that the benchmark
refuses to run where the torushms sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402

W.load_library(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seconds=1, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_inputs_are_a_function_of_the_seed():
    for name in WORKLOAD_NAMES:
        first = W.make(name, 7, ROOT).digest
        assert W.make(name, 7, ROOT).digest == first, name
        assert W.make(name, 8, ROOT).digest != first, name


def test_printed_metrics_are_declared():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in WORKLOAD_NAMES:
            proc = _run(name, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            final = json.loads(lines[-1])
            assert set(final) == {"correct", "attempted", "failed", "metrics"}
            assert final["attempted"] >= 1
            got = {m: v["unit"] for m, v in final["metrics"].items()}
            assert got == declared, (name, trace, set(got) ^ set(declared))
            printed = {l.split()[1] for l in lines if l.startswith("metric ")}
            assert printed == set(declared) | {"fail_ratio"}, (name, trace)


def test_forced_check_failure_is_counted(monkeypatch):
    # break the oracle the k0_class check compares against
    monkeypatch.setattr(W, "_scale_k0", lambda cls, n: W.torushms.sheafk.K0Class(1, 1, cls.pt))
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: ([0.1], [0.1]))
    result = run.run_untraced("ktheory_cobord", 1, 0.5)
    args = run.parse_args(["--workload", "ktheory_cobord", "--seed", "1", "--seconds", "0.5"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        final = run.report(args, result)
    assert final["failed"] == final["attempted"] >= 1
    assert final["correct"] is False
    assert f"metric fail_ratio = 1 ratio" in out.getvalue()


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(WORKLOAD_NAMES[0], 0, cwd=bare, script=bare / "bench" / "run.py")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
