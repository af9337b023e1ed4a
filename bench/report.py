#!/usr/bin/env python3
"""Run benchmark workloads over several seeds and summarise every metric.

    python3 bench/report.py                        # all workloads, seeds 1-5, untraced
    python3 bench/report.py --workloads theta_bridge --seeds 1-10
    python3 bench/report.py --trace 1 --seeds 1-3  # per-layer metrics

Each (workload, seed) is one `bench/run.py` process, run one at a time.
Prints the provenance (nproc, CPU model, Python, git sha, seeds), then per
workload and metric: unit, number of runs, median, first and third
quartile, and the spread (q3 - q1) / median beside the bound that
BENCHMARK.json gives it.  The raw results are written as JSON to
`.bench_out/report.json` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

RUN_TIMEOUT_S = 900


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["failures"] = [l for l in lines if l.startswith("failure:")]
    return result


def summarise(values):
    q1, med, q3 = run.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    prov = run.provenance(seeds[0])
    del prov["seed"]
    print("provenance: " + " ".join(f"{k}={json.dumps(v)}" for k, v in prov.items())
          + f" seeds={args.seeds} seconds={args.seconds} trace={args.trace}")
    record = {"provenance": prov, "seeds": seeds, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            results.append(run_one(workload, seed, args.seconds, args.trace))
            print(f"  {workload} seed {seed}: done", file=sys.stderr, flush=True)
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':38} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        rows = {}
        fail = [r["failed"] / r["attempted"] for r in results]
        names = list(results[0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            s = summarise(values)
            rows[name] = dict(s, unit=unit, values=values)
            bound = bounds.get(name)
            print(f"  {name:38} {unit:>6} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g}"
                  f" {s['spread']:7.3f} {bound if bound is not None else '':>6}")
        fq1, fmed, fq3 = run.quartiles(fail)
        print(f"  {'fail_ratio':38} {'ratio':>6} {fmed:12.6g} {fq1:12.6g} {fq3:12.6g}"
              f"   (attempted {sum(r['attempted'] for r in results)},"
              f" failed {sum(r['failed'] for r in results)},"
              f" correct {all(r['correct'] for r in results)})")
        for line in sorted({l for r in results for l in r["failures"]}):
            print(f"  {line}")
        record["workloads"][workload] = {"metrics": rows, "fail_ratio": fail,
                                         "correct": [r["correct"] for r in results]}
    out = ROOT / run.SPAN_DIR / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
