#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report how steady each metric is.

Usage (from the repository root)::

    python3 perfbench/prove.py --seeds 1,2,3,4,5,6,7,8,9,10 \\
        --trace-seeds 42 --out perfbench/results/BENCH_baseline.json
    python3 perfbench/prove.py --workloads sec3 --seeds 1,2,3,4,5 \\
        --against perfbench/results/BENCH_baseline.json

Untraced runs interleave the workloads, rotating their order from seed to
seed, so slow drift of the host spreads over every workload alike.  For
each end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the sample count and the spread
(q3 - q1) / median against the metric's bound in ``BENCHMARK.json``: a
spread above the bound fails, one above a third of it is marked.  Traced
runs (``--trace-seeds``) add the per-layer table and the tracing overhead.
``--against`` compares medians with an earlier ``--out`` file; results from
different kernel backends are never compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(l[len("env: "):]) for l in lines if l.startswith("env: "))
    end = next(float(l.split(":")[1]) for l in lines if l.startswith("env.calibration_ms_end:"))
    env["calibration_ms_end"] = end
    return {"workload": workload, "seed": seed, "trace": trace, "env": env, **result,
            "report": lines[:-1]}


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seeds", default="", help="seeds of traced runs, per workload")
    parser.add_argument("--out", help="write every run and the statistics here (JSON)")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",") if s]
    trace_seeds = [int(s) for s in args.trace_seeds.split(",") if s]

    runs = []
    for i, seed in enumerate(seeds):
        for workload in workloads[i % len(workloads):] + workloads[: i % len(workloads)]:
            runs.append(bench_run(workload, seed, args.seconds, 0))
            r = runs[-1]
            print(f"{workload:<14} seed {seed:<4} correct={r['correct']} failed={r['failed']}/"
                  f"{r['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
    for seed in trace_seeds:
        for workload in workloads:
            runs.append(bench_run(workload, seed, args.seconds, 1))
            print(f"{workload:<14} seed {seed:<4} traced, correct={runs[-1]['correct']}", flush=True)

    backends = {r["env"]["backend"] for r in runs}
    if len(backends) > 1:
        raise SystemExit(f"runs used several kernel backends: {sorted(backends)}")
    backend = backends.pop()
    summary: dict[str, dict] = {}
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    print(f"\n{'workload':<14} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12}  n  spread  bound")
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        if not mine:
            continue
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            s = stats([r["metrics"][metric["name"]]["value"] for r in mine])
            s["unit"] = metric["unit"]
            summary[workload][metric["name"]] = s
            verdict = ""
            if metric["name"] != "setup_s" and s["spread"] > metric["bound"]:
                verdict, ok = "TOO WIDE", False
            elif s["spread"] > metric["bound"] / 3:
                verdict = "above a third of the bound"
            print(f"{workload:<14} {metric['name']:<18} {s['median']:>12.5g} {s['q1']:>12.5g} "
                  f"{s['q3']:>12.5g} {s['n']:>2} {s['spread']:>7.3f} {metric['bound']:>5}  {verdict}")

    if args.against:
        old = json.loads(Path(args.against).read_text(encoding="utf-8"))
        if old["backend"] != backend:
            raise SystemExit(f"{args.against} used the {old['backend']} backend; not comparable")
        print(f"\nagainst {args.against}: change of the median, positive = worse")
        for workload, metrics in summary.items():
            for metric in bench["end_to_end"]:
                before = old["end_to_end"].get(workload, {}).get(metric["name"])
                if before is None:
                    continue
                worse = worse_by(metric, metrics[metric["name"]]["median"], before["median"])
                flag = "WORSE THAN BOUND" if worse > metric["bound"] else ""
                ok = ok and not flag
                print(f"{workload:<14} {metric['name']:<18} {worse:>+8.3f} {flag}")

    traced = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        if mine:
            traced[workload] = {
                name: {"median": statistics.median(r["metrics"][name]["value"] for r in mine),
                       "unit": mine[0]["metrics"][name]["unit"], "n": len(mine)}
                for name in mine[0]["metrics"]
            }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({
            "backend": backend,
            "seconds": args.seconds,
            "end_to_end": summary,
            "per_layer": traced,
            "runs": runs,
        }, indent=1) + "\n", encoding="utf-8")
    print("\nall runs correct and every spread within its bound" if ok else "\nNOT STEADY OR NOT CORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
