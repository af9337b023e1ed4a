#!/usr/bin/env python3
"""Run one torushms benchmark workload and print its metrics.

    python3 bench/run.py --workload floer_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; torushms is imported from its `src/`.
With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json,
with `--trace 1` the per-layer metrics (a traced replay of the same tasks).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

perf_counter = time.perf_counter

SETUP_REPEATS = 7          # set-ups measured per run; setup_s is their median
CLI_SETUP_REPEATS = 15     # cli_session set-up is input generation only
PROBE_REPEATS = 5          # interpreter / import probes in the traced cli run
PROBE_TIMEOUT_S = 120
SPAN_DIR = ".bench_out"    # spans of traced runs, inside the checkout


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        timeout=30,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_of(latencies):
    """The (N-10)-th fastest latency: the highest percentile with ten
    samples beyond it (the slowest one when N <= 10)."""
    ordered = sorted(latencies)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Child mode of the set-up measurement: import, generate, warm up."""
    W.load_library(ROOT)
    W.make(workload, seed, ROOT).warmup()
    print("ready", flush=True)
    return 0


def _spawn_until_ready(cmd) -> float:
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def calibrated(measure, repeats):
    """Run `measure()` `repeats` times, each between two loop probes;
    returns (raw seconds, seconds at the reference speed)."""
    raw, probes = [], [speed.probe()]
    for _ in range(repeats):
        raw.append(measure())
        probes.append(speed.probe())
    ref = speed.REFERENCE_PROBE_S
    scaled = [t * ref / statistics.median(probes[i:i + 2]) for i, t in enumerate(raw)]
    return raw, scaled


def measure_setup(workload: str, seed: int):
    """Set-up times, one per repeat, as (raw, scaled) lists of seconds.

    In-process workloads: from spawning a fresh interpreter to the end of
    its warm-up task (import torushms, generate inputs, one untimed task).
    cli_session: input generation alone, in this process."""
    if workload == "cli_session":
        def measure():
            t0 = perf_counter()
            W.make(workload, seed, ROOT)
            return perf_counter() - t0
        return calibrated(measure, CLI_SETUP_REPEATS)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    return calibrated(lambda: _spawn_until_ready(cmd), SETUP_REPEATS)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


def _attempt(fn, index):
    try:
        return W.Outcome(index, fn(index))
    except Exception as exc:  # a failed task is counted, never fatal
        return W.Outcome(index, error=f"{type(exc).__name__}: {exc}")


class Batch:
    """Outcomes, raw latencies and the speed probe taken before each task."""

    def __init__(self, probe: speed.Probe):
        self.probe = probe
        self.outcomes, self.latencies, self.probes = [], [], []

    def run(self, run_task, index, tracer=None, task_id=-1):
        self.probes.append(self.probe.measure())
        if tracer is not None:
            tracer.task = task_id
            tracer.active = True
        t0 = perf_counter()
        self.outcomes.append(_attempt(run_task, index))
        t1 = perf_counter()
        if tracer is not None:
            tracer.active = False
        self.latencies.append(t1 - t0)
        return t1

    def scaled(self):
        return self.probe.scale_each(self.latencies, self.probes)


def task_probe(wl) -> speed.Probe:
    if wl.in_process:
        return speed.Probe.loop()
    return speed.Probe.process(ROOT, W.cli_env(ROOT))


def timed_batch(wl, seconds: float, probe: speed.Probe) -> Batch:
    """Closed loop, one client: the next task starts when the previous one
    ends, until `seconds` have passed and the tasks so far are whole
    cycles of the workload's cost schedule."""
    batch = Batch(probe)
    pool = wl.task_count()
    start = perf_counter()
    i = 0
    while True:
        end = batch.run(wl.run_task, i % pool)
        i += 1
        if end - start >= seconds and wl.may_stop_after(i):
            return batch


def replay(run_task, indices, tracer=None) -> Batch:
    """Run exactly these tasks in this process (traced when a tracer is
    given)."""
    batch = Batch(speed.Probe.loop())
    for task_id, index in enumerate(indices):
        batch.run(run_task, index, tracer, task_id)
    return batch


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setup_raw, setup = measure_setup(workload, seed)
    wl = W.make(workload, seed, ROOT)
    wl.warmup()
    batch = timed_batch(wl, seconds, task_probe(wl))
    t0 = perf_counter()
    failures = wl.check(batch.outcomes)
    checker_s = perf_counter() - t0
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    raw, lat = batch.latencies, batch.scaled()
    n = len(lat)
    q1, _, q3 = quartiles(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "tasks_per_s": (n / sum(lat), "1/s"),
        "task_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "task_tail_ms": (tail_of(lat) * 1000.0, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    s1, _, s3 = quartiles(setup)
    notes = {
        "setup_s": f"N={len(setup)} set-ups; q1={s1:.4f} q3={s3:.4f}; raw median {statistics.median(setup_raw):.4f}",
        "tasks_per_s": f"N={n} tasks; raw {n / sum(raw):.4f} over {sum(raw):.3f} s",
        "task_p50_ms": f"N={n}; q1={q1 * 1000:.3f} q3={q3 * 1000:.3f}; raw {statistics.median(raw) * 1000:.3f}",
        "task_tail_ms": f"N={n}; rank {max(n - 10, 1)} of {n}; raw {tail_of(raw) * 1000:.3f}",
        "peak_rss_mb": "RUSAGE_SELF" if wl.in_process else "RUSAGE_CHILDREN (largest CLI process)",
        "speed": f"probe median {statistics.median(batch.probes) * 1000:.3f} ms"
                 f" (reference {batch.probe.reference_s * 1000:.3f} ms); times above are at the reference speed",
    }
    return {
        "wl": wl, "metrics": metrics, "notes": notes, "attempted": n,
        "failures": failures, "checker_s": checker_s,
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def _cli_main_runner(argvs):
    """In-process `torushms.cli.main(argv)` with output captured; an
    exception escaping main (a traceback in the real process) is recorded
    as the task's error."""
    cli = sys.modules["torushms.cli"]

    def run(index):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(argvs[index]))

    return run


def _process_ms(code: str, env) -> float:
    """Median wall time of `python -c code`, at the reference speed."""
    def measure():
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=PROBE_TIMEOUT_S)
        return perf_counter() - t0
    return statistics.median(calibrated(measure, PROBE_REPEATS)[1]) * 1000.0


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    wl = W.make(workload, seed, ROOT)
    wl.warmup()
    timed = timed_batch(wl, seconds, task_probe(wl))
    indices = [oc.index for oc in timed.outcomes]
    cli_counts = {"cli.exit.0": 0, "cli.exit.1": 0, "cli.exit.2": 0,
                  "cli.exit.other": 0, "cli.tracebacks": 0}
    cli_ms = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0}
    if wl.in_process:
        runner, untraced = wl.run_task, timed
    else:
        for oc in timed.outcomes:
            if oc.output is None:
                continue
            code, _, err = oc.output
            key = f"cli.exit.{code}" if code in (0, 1, 2) else "cli.exit.other"
            cli_counts[key] += 1
            cli_counts["cli.tracebacks"] += "Traceback (most recent call last)" in err
        env = W.cli_env(ROOT)
        cli_ms["cli.interpreter_ms"] = _process_ms("pass", env)
        cli_ms["cli.import_ms"] = _process_ms("import torushms.cli", env)
        # the layers behind each command, replayed in this process through
        # cli.main; its untraced replay is the reference for the overhead
        runner = _cli_main_runner([task[1] for task in wl.tasks])
        untraced = replay(runner, indices)

    tracer = tracing.Tracer()
    mu2_inputs = []
    tracer.on_mu2 = lambda args, kwargs: mu2_inputs.append((args, kwargs))
    tracer.install()
    try:
        traced = replay(runner, indices, tracer)
        batch = tracer.layer_totals()
        counters = dict(tracer.counters)
        top_level_s = tracer.top_level_s
        # the checks, traced on their own: mu2_bruteforce is checker cost only
        tracer.reset_totals()
        tracer.on_mu2 = None
        tracer.task = -1
        tracer.active = True
        failures = wl.check(timed.outcomes)
        tracer.active = False
        brute_self_s = tracer.layer_totals()["floer.mu2_bruteforce"][2]
    finally:
        tracer.active = False
        tracer.uninstall()

    floer = sys.modules["torushms.floer"]
    triangles = 0
    for args, kwargs in mu2_inputs:
        triangles += len(floer.mu2_triangles(*args, **kwargs)[1])

    span_file = ROOT / SPAN_DIR / f"spans-{workload}.bin"  # the latest traced run
    tracer.write(span_file, {"workload": workload, "seed": seed})

    traced_raw_s = sum(traced.latencies)
    traced_s = sum(traced.scaled())
    untraced_s = sum(untraced.scaled())
    f = traced_s / traced_raw_s  # this replay's factor to the reference speed
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for name in tracing.SPAN_NAMES:
        calls, total_s, self_s = batch[name]
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", self_s * f, "s")
    metrics["floer.mu2_bruteforce.self_s"] = (brute_self_s * f, "s")
    del metrics["floer.mu2_bruteforce.calls"]
    del metrics["cli.main.calls"]
    pairs = counters["novikov.mul.term_pairs"]
    put("novikov.mul.term_pairs", pairs, "count")
    put("novikov.mul.kept_ratio", counters["novikov.mul.terms_kept"] / pairs if pairs else 0.0, "ratio")
    put("novikov.add.terms_in", counters["novikov.add.terms_in"], "count")
    calls, _, self_s = batch["torus.intersections"]
    put("torus.intersections.points", counters["torus.intersections.points"], "count")
    put("torus.intersections.us_per_call", self_s * f / calls * 1e6 if calls else 0.0, "us")
    _, mu2_total_s, _ = batch["floer.mu2"]
    put("floer.mu2.triangles", triangles, "count")
    put("floer.mu2.ns_per_triangle", mu2_total_s * f / triangles * 1e9 if triangles else 0.0, "ns")
    put("tate.theta_eval.terms", counters["tate.theta_eval.terms"], "count")
    put("tate.point_pow.n_total", counters["tate.point_pow.n_total"], "count")
    put("sheafk.relation_suite.relations", counters["sheafk.relation_suite.relations"], "count")
    put("sheafk.k0_class.mult_total", counters["sheafk.k0_class.mult_total"], "count")
    put("cobord.class_of_sum.mult_total", counters["cobord.class_of_sum.mult_total"], "count")
    for name, value in cli_ms.items():
        put(name, value, "ms")
    for name, value in cli_counts.items():
        put(name, value, "count")
    outside_s = (traced_raw_s - top_level_s) * f
    put("trace.overhead_ratio", traced_s / untraced_s, "ratio")
    put("trace.batch_s", traced_s, "s")
    put("trace.untraced_batch_s", untraced_s, "s")
    put("trace.outside_spans_s", outside_s, "s")
    put("trace.spans", tracer.span_count(), "count")

    self_sum = sum(batch[n][2] for n in tracing.SPAN_NAMES) * f
    notes = {
        "accounting": (
            f"layer self times {self_sum:.4f} s + outside spans {outside_s:.4f} s"
            f" = {self_sum + outside_s:.4f} s; traced batch {traced_s:.4f} s"
            f" (raw {traced_raw_s:.4f} s, factor {f:.4f} to the reference speed)"
        ),
        "spans": f"{tracer.span_count()} spans written to {span_file.relative_to(ROOT)}",
    }
    return {
        "wl": wl, "metrics": metrics, "notes": notes, "attempted": len(timed.outcomes),
        "failures": failures, "checker_s": None,
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def report(args, result) -> dict:
    wl, failures = result["wl"], result["failures"]
    prov = provenance(args.seed)
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={json.dumps(v)}" for k, v in prov.items())
          + f" input_digest={wl.digest[:16]}")
    notes = result["notes"]
    for name, (value, unit) in result["metrics"].items():
        note = notes.get(name)
        print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    attempted, failed = result["attempted"], len(failures)
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio  (failed {failed} of {attempted} attempted)")
    for key in ("speed", "accounting", "spans"):
        if key in notes:
            print(f"{key}: {notes[key]}")
    if result["checker_s"] is not None:
        print(f"checker: {result['checker_s']:.3f} s outside the timed batch")
    for f in failures:
        tag = " [baseline defect]" if f.baseline else ""
        print(f"failure: task {f.index}: {f.reason}{tag}")
    return {
        "correct": all(f.baseline for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        W.load_library(ROOT)
    except (ImportError, OSError) as exc:
        print(f"bench: cannot load torushms: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    final = report(args, result)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
