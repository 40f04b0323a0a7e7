#!/usr/bin/env python3
"""deecsim benchmark: ``deecsim run`` timed end to end, or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sec3 --seed 42 --seconds 40 --trace 0

The benchmark imports ``deecsim`` from ``src/`` beside this directory and
exits non-zero when it is not there.  It writes a spec file generated from
the ``paper-sec3`` preset (``base_seed`` = ``--seed``) and calls
``deecsim.cli.main`` in-process on it with ``--jobs 1``, repeatedly, until
``--seconds`` have passed.  The first invocation is a warm-up; every
invocation's artifacts go through the correctness gate (``checks.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: the
timings at the 90th percentile of the invocation walls, set-up time as the
median of fresh-process set-ups.  ``--trace 1`` alternates untraced and
traced invocations and reports the per-layer metrics (``tracing.py``), the
tracing overhead, and the kernel layer sweep.  The report shows each
sampled quantity's median, quartiles and sample count; the last line of
standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Timings never go into the run's
output directory, only to standard output.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import importlib.util
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
from dataclasses import dataclass, replace
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 42
SETUP_REPEATS = 7  # fewest fresh-process set-ups measured per run
SETUP_EVERY = 4  # one set-up is measured after every fourth timed invocation
MIN_REPEATS = 3  # timed invocations per run, however short --seconds is
# The invocation-wall percentile the timing metrics report.  The host's speed
# swings by up to 3x over seconds to a minute; its slowest, loaded level
# holds for most of the time, and the 90th percentile of ~100 short
# invocations reads that level, where the median jumps with the share of
# fast stretches in the run.
WALL_PERCENTILE = 90

END_TO_END = {
    "wall_s": "s",
    "runs_per_s": "1/s",
    "node_rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Runs in a fresh interpreter: import, spec parse and validation, first build.
SETUP_PROGRAM = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import deecsim
from deecsim.cli import load_spec
spec = load_spec(sys.argv[2])
deecsim.Simulation(spec.network_config(spec.protocols[0], spec.seeds[0]))
elapsed = time.perf_counter() - start
if not deecsim.__file__.startswith(sys.argv[1]):
    sys.exit("deecsim was not imported from " + sys.argv[1])
print(repr(elapsed))
"""


@dataclass(frozen=True)
class Workload:
    """A ``paper-sec3`` variant; ``None`` keeps the preset's value."""

    name: str
    protocols: tuple[str, ...]
    seed_count: int
    nodes: int | None = None
    max_rounds: int | None = None
    profile: str | None = None
    smoke: tuple[tuple[str, int], ...] = ()

    def sized(self, smoke: bool) -> "Workload":
        return replace(self, **dict(self.smoke)) if smoke else self


ALL_PROTOCOLS = ("deec", "ddeec", "edeec", "eddeec")

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's experiment in its all-alive phase: one seed per
        # protocol, capped at 500 rounds, before the first node dies, so
        # every seed does the same work.  Per-round Python overhead, elect
        # and steady dominate, as over the uncapped runs (73% of whose
        # node-rounds are alive).  The cap keeps an invocation near 0.3 s.
        Workload(
            "sec3",
            ALL_PROTOCOLS,
            seed_count=1,
            max_rounds=500,
            smoke=(("max_rounds", 40),),
        ),
        # Same population mix and field at n = 5000: the dense nearest-head
        # assignment is ~97% of a round.  No node dies before the cap, so
        # every seed does the same number of rounds.
        Workload(
            "dense-5k",
            ("eddeec",),
            seed_count=1,
            nodes=5000,
            max_rounds=12,
            smoke=(("nodes", 500), ("max_rounds", 5)),
        ),
        # Verbatim radio table: the network mostly dies within ~50 rounds but
        # single nodes linger for thousands of rounds.  Nearly every run
        # reaches the 100-round cap, so the work of an invocation is the same
        # from seed to seed, while ~58% of node-rounds are dead ones and
        # per-run build and emission weigh more than on any other workload.
        Workload(
            "verbatim-tail",
            ALL_PROTOCOLS,
            seed_count=5,
            max_rounds=100,
            profile="table1-verbatim",
            smoke=(("seed_count", 2), ("max_rounds", 40)),
        ),
    )
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_deecsim():
    if not (SRC / "deecsim" / "__init__.py").is_file():
        fail(f"no deecsim sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import deecsim

    if not Path(deecsim.__file__).resolve().is_relative_to(SRC):
        fail(f"deecsim imported from {deecsim.__file__}, not {SRC}")
    return deecsim


def write_spec(workload: Workload, base_seed: int, path: Path, cli) -> None:
    """The ``paper-sec3`` preset with the workload's overrides."""
    spec = configparser.ConfigParser(interpolation=None)
    spec.read(cli.resolve_spec_path("paper-sec3"), encoding="utf-8")
    for section, key, value in (
        ("network", "nodes", workload.nodes),
        ("network", "max_rounds", workload.max_rounds),
        ("radio", "profile", workload.profile),
        ("experiment", "protocols", ",".join(workload.protocols)),
        ("experiment", "base_seed", base_seed),
        ("experiment", "seed_count", workload.seed_count),
        ("experiment", "emit", "csv,svg,summary"),
        ("experiment", "jobs", 1),
    ):
        if value is not None:
            spec[section][key] = str(value)
    with open(path, "w", encoding="utf-8") as f:
        spec.write(f)


def calibration_ms() -> float:
    """Median time of a fixed numpy loop, to show host speed drift.

    The arrays are small, like a 100-node round's, so the loop measures
    interpreter and ufunc dispatch speed and never the allocator's page
    faults.
    """
    import numpy as np

    a = np.arange(256, dtype=np.float64)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(5000):
            np.sqrt(a * a + 1.0).sum()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def environment(deecsim) -> dict:
    import numpy as np

    return {
        "backend": deecsim.get_backend().name,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_ms": calibration_ms(),
    }


def measure_setup(spec_path: Path) -> float:
    """Seconds from a fresh interpreter to the first built network."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROGRAM, str(SRC), str(spec_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    """One benchmark run: a workload at one seed, in one work directory."""

    def __init__(self, workload: Workload, seed: int, check_golden: bool):
        import deecsim.cli as cli

        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.work = HERE / ".work" / f"{workload.name}-{os.getpid()}"
        self.out = self.work / "out"
        self.spec_path = self.work / "spec.cfg"
        self.work.mkdir(parents=True, exist_ok=True)
        write_spec(workload, seed, self.spec_path, cli)
        spec = cli.load_spec(self.spec_path)
        self.n = spec.n
        self.max_rounds = spec.max_rounds
        self.protocols = [p.value for p in spec.protocols]
        self.seeds = list(spec.seeds)
        self.argv = ["run", str(self.spec_path), "--output-dir", str(self.out), "--jobs", "1"]
        self.golden = None
        if check_golden:
            golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
            self.golden = golden[workload.name]["digests"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None  # the first invocation's check

    @property
    def runs(self) -> int:
        return len(self.protocols) * len(self.seeds)

    def node_rounds(self) -> int:
        return self.n * sum(self.reference.rounds.values())

    def invoke(self, main=None) -> float:
        """One ``deecsim run``; returns its wall time in seconds."""
        main = main or self.cli.main
        shutil.rmtree(self.out, ignore_errors=True)
        sink = io.StringIO()
        self.attempted += self.runs
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = main(self.argv)
            except Exception as exc:  # counted as failed runs, reported below
                code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        if code != 0:
            self.failed += self.runs
            self.problems.append(f"deecsim run returned {code!r}: {sink.getvalue()[-500:]}")
            return wall
        if self.reference is None:
            check = checks.check_artifacts(self.out, self.protocols, self.seeds, self.n,
                                           self.max_rounds, self.golden)
            self.reference = check
            self.failed += len(check.failed)
            self.problems.extend(check.problems)
        elif checks.digests(self.out) != self.reference.digests:
            self.failed += self.runs
            self.problems.append("artifacts differ from the first invocation's")
        else:  # the same bytes as the first invocation, so the same verdict
            self.failed += len(self.reference.failed)
        return wall

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated within the samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report(name: str, unit: str, values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    print(f"  {name:<36} {median:>14.6g} {unit:<6} q1 {q1:<12.6g} q3 {q3:<12.6g} n={len(values)}")
    return median


def run_untraced(bench: Bench, seconds: float) -> dict:
    # One set-up and one invocation as warm-up; the invocation is also the
    # reference for the correctness gate.  The host's speed drifts over
    # seconds, so set-up samples alternate with the timed invocations
    # instead of running back to back.
    measure_setup(bench.spec_path)
    bench.invoke()
    walls, setup = [], []
    start = time.perf_counter()
    while (len(walls) < MIN_REPEATS or len(setup) < SETUP_REPEATS
           or time.perf_counter() - start < seconds):
        walls.append(bench.invoke())
        if len(walls) % SETUP_EVERY == 1:
            setup.append(measure_setup(bench.spec_path))
    print("invocation walls, s: " + " ".join(f"{w:.3f}" for w in walls))
    node_rounds = bench.node_rounds() if bench.reference else 0
    wall = percentile(walls, WALL_PERCENTILE)
    print(f"end-to-end ({bench.runs} runs, {node_rounds} node-rounds per invocation):")
    report("invocation wall", "s", walls)
    values = {
        "wall_s": wall,
        "runs_per_s": bench.runs / wall,
        "node_rounds_per_s": node_rounds / wall,
    }
    for name in values:
        print(f"  {name:<36} {values[name]:>14.6g} {END_TO_END[name]:<6} "
              f"at the p{WALL_PERCENTILE} invocation wall, "
              f"{sum(w > wall for w in walls)} of {len(walls)} invocations beyond it")
    values["setup_s"] = report("setup_s", "s", setup)
    values["peak_rss_mb"] = report("peak_rss_mb", "MB", [peak_rss_mb()])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_traced(bench: Bench, seconds: float) -> dict:
    import tracing

    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", bench.cli.main)
    bench.invoke()  # warm-up, and the reference for the correctness gate
    untraced, traced, trace_ids = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_REPEATS or time.perf_counter() - start < seconds:
        untraced.append(bench.invoke())
        tracer.trace_id = len(trace_ids) + 1
        trace_ids.append(tracer.trace_id)
        first_ledger = len(tracer.ledgers)
        with tracing.installed(tracer):
            traced.append(bench.invoke(traced_main))
        broken = [l for l in tracer.ledgers[first_ledger:] if not l.holds()]
        if broken:
            bench.failed += len(broken)
            bench.problems.extend(
                f"energy ledger broken: {l.protocol} seed {l.seed}" for l in broken
            )
    bytes_written = sum(p.stat().st_size for p in bench.out.iterdir()) if bench.out.is_dir() else 0
    rows = sum(bench.reference.rounds.values()) if bench.reference else 0
    values = tracing.run_layer_metrics(tracer, trace_ids, rows, bytes_written)
    spec = bench.cli.load_spec("paper-sec3")
    config = spec.network_config(spec.protocols[-1], bench.cli.derive_seeds(bench.seed, 1)[0])
    values.update(tracing.sweep_metrics(config, tracing.Tracer()))
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    values["trace.traced_wall_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]

    print(f"per-layer ({len(traced)} traced invocations, interleaved with untraced ones):")
    for name, (unit, _, moves) in tracing.PER_LAYER.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit:<6} moves: {moves}")
    print("  layer self time per invocation, ms: " + ", ".join(
        f"{layer} {ms:.1f}" for layer, ms in tracing.layer_self_ms(tracer, trace_ids).items()))
    report("trace.untraced_wall_s", "s", untraced)
    report("trace.traced_wall_s", "s", traced)
    spans_dir = HERE / "out"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"spans_{bench.workload.name}_{bench.seed}.npz"
    tracer.save(spans_path)
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _, _) in tracing.PER_LAYER.items()
    }


def record_golden(bench: Bench) -> None:
    """Write the default-seed artifact digests of the workload to golden.json."""
    bench.invoke()
    if bench.problems:
        fail("; ".join(bench.problems))
    path = HERE / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    golden[bench.workload.name] = {"seed": bench.seed, "digests": bench.reference.digests}
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(bench.reference.digests)} digests for {bench.workload.name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"base_seed of the generated spec (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the smoke test")
    parser.add_argument("--record-golden", action="store_true",
                        help="write the workload's artifact digests at --seed to golden.json")
    args = parser.parse_args(argv)

    deecsim = import_deecsim()
    workload = WORKLOADS[args.workload].sized(args.smoke)
    check_golden = args.seed == DEFAULT_SEED and not args.smoke and not args.record_golden
    bench = Bench(workload, args.seed, check_golden)
    try:
        if args.record_golden:
            record_golden(bench)
            return 0
        env = environment(deecsim)
        print(f"deecsim benchmark: workload={workload.name} seed={args.seed} "
              f"trace={args.trace} seconds={args.seconds:g}" + (" (smoke)" if args.smoke else ""))
        print("env: " + json.dumps(env))
        if args.trace:
            metrics = run_traced(bench, args.seconds)
        else:
            metrics = run_untraced(bench, args.seconds)
        print("env.calibration_ms_end: " + repr(calibration_ms()))
    finally:
        bench.close()

    for problem in list(dict.fromkeys(bench.problems))[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"correctness: {bench.failed} of {bench.attempted} runs failed "
          f"(failed_frac {bench.failed / max(bench.attempted, 1):g})"
          + ("; golden digests checked" if check_golden else ""))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
