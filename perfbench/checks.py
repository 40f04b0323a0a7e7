"""Correctness gate for the artifacts of one ``deecsim run`` invocation.

Seed-independent invariants, checked on every seed:

- each (protocol, seed) run has its CSV rows, numbered 0 .. rounds - 1, and
  the run ends where the engine stops it: all nodes dead, or the round cap;
- ``alive`` and the total residual never increase, cumulative packets never
  decrease;
- ``summary.csv`` parses, and its death-round and packet means agree with
  the series;
- both SVG charts parse and draw one polyline per protocol.

At a workload's default seed the SHA-256 digests of every artifact must
equal the committed ``golden.json``.  A failure marks the runs it concerns:
a series file its protocol's runs, any other artifact every run.
"""

from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_HEADER = "protocol,seed,round,alive,packets_bs,packets_ch,residual_j,ch_count"
SUMMARY_FIELDS = ("first_dead", "half_dead", "all_dead", "total_packets")
SUMMARY_STATS = ("mean", "min", "max", "std")
SVG_FILES = ("alive_vs_round.svg", "packets_vs_round.svg")


@dataclass
class ArtifactCheck:
    """Outcome of checking one invocation's output directory."""

    runs: list[tuple[str, int]]
    failed: set[tuple[str, int]] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    rounds: dict[tuple[str, int], int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, problem: str, protocol: str | None = None) -> None:
        self.problems.append(problem)
        self.failed.update(r for r in self.runs if protocol is None or r[0] == protocol)


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in ``out_dir``, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def _read_series(path: Path, protocol: str, check: ArtifactCheck) -> dict[int, np.ndarray] | None:
    with open(path, encoding="ascii") as f:
        header = f.readline().rstrip("\n")
        if header != CSV_HEADER:
            check.fail(f"{path.name}: bad header {header!r}", protocol)
            return None
        rows: dict[int, list[list[float]]] = defaultdict(list)
        for line in f:
            cells = line.rstrip("\n").split(",")
            if len(cells) != 8 or cells[0] != protocol:
                check.fail(f"{path.name}: malformed row {line.strip()!r}", protocol)
                return None
            rows[int(cells[1])].append([float(c) for c in cells[2:]])
    return {seed: np.array(values) for seed, values in rows.items()}


def _milestones(alive: np.ndarray, packets_bs: np.ndarray, n: int) -> tuple[float, ...]:
    rounds = len(alive)

    def first(mask: np.ndarray) -> float:
        hits = np.flatnonzero(mask)
        return float(hits[0]) if hits.size else float(rounds)

    return first(alive < n), first(alive <= n / 2), first(alive == 0), float(packets_bs[-1])


def _check_series(protocol: str, seed: int, table: np.ndarray, n: int, max_rounds: int,
                  check: ArtifactCheck) -> None:
    rnd, alive, packets_bs, packets_ch, residual, ch_count = table.T
    where = f"series_{protocol}.csv seed {seed}"
    rounds = len(rnd)
    problems = []
    if not np.array_equal(rnd, np.arange(rounds)):
        problems.append("rounds are not 0 .. rows - 1")
    if np.any(np.diff(alive) > 0) or alive.min() < 0 or alive.max() > n:
        problems.append("alive increases or leaves [0, n]")
    if np.any(np.diff(packets_bs) < 0) or np.any(np.diff(packets_ch) < 0):
        problems.append("cumulative packets decrease")
    if np.any(np.diff(residual) > 0) or residual.min() < 0:
        problems.append("total residual increases or is negative")
    if ch_count.min() < 0:
        problems.append("negative head count")
    if np.any(alive[:-1] == 0) or not (alive[-1] == 0 or rounds == max_rounds):
        problems.append(f"{rounds} rows, but the run did not end at all-dead or the cap")
    if problems:
        check.problems.extend(f"{where}: {p}" for p in problems)
        check.failed.add((protocol, seed))
    check.rounds[(protocol, seed)] = rounds


def _check_summary(out_dir: Path, protocols, series: dict, n: int, seed_count: int,
                   check: ArtifactCheck) -> None:
    path = out_dir / "summary.csv"
    if not path.is_file():
        check.fail("summary.csv missing")
        return
    lines = path.read_text(encoding="ascii").splitlines()
    header = "protocol,seeds," + ",".join(f"{f}_{s}" for f in SUMMARY_FIELDS for s in SUMMARY_STATS)
    if not lines or lines[0] != header:
        check.fail("summary.csv: bad header")
        return
    seen = set()
    for line in lines[1:]:
        cells = line.split(",")
        protocol = cells[0]
        try:
            values = [float(c) for c in cells[2:]]
            seeds = int(cells[1])
        except ValueError:
            check.fail(f"summary.csv: unparsable row {line!r}")
            continue
        if protocol not in protocols or len(values) != len(SUMMARY_FIELDS) * len(SUMMARY_STATS):
            check.fail(f"summary.csv: unexpected row {line!r}")
            continue
        seen.add(protocol)
        if seeds != seed_count or not all(math.isfinite(v) for v in values):
            check.fail(f"summary.csv: {protocol}: bad seed count or value", protocol)
            continue
        tables = series.get(protocol, {})
        if len(tables) != seed_count:
            continue  # already reported as missing runs
        expected = np.mean(
            [_milestones(t[:, 1], t[:, 2], n) for t in tables.values()], axis=0
        )
        means = values[:: len(SUMMARY_STATS)]
        if not np.allclose(means, expected, rtol=1e-8, atol=0.0):
            check.fail(f"summary.csv: {protocol}: means {means} != series {expected.tolist()}",
                       protocol)
    if seen != set(protocols):
        check.fail(f"summary.csv: rows for {sorted(seen)}, expected {sorted(protocols)}")
    if not (out_dir / "summary.txt").is_file():
        check.fail("summary.txt missing")


def _check_svg(out_dir: Path, protocols, check: ArtifactCheck) -> None:
    for name in SVG_FILES:
        try:
            root = ET.parse(out_dir / name).getroot()
        except (OSError, ET.ParseError) as exc:
            check.fail(f"{name}: {exc}")
            continue
        lines = root.findall("{http://www.w3.org/2000/svg}polyline")
        if len(lines) != len(protocols):
            check.fail(f"{name}: {len(lines)} polylines for {len(protocols)} protocols")


def check_artifacts(out_dir: Path, protocols, seeds, n: int, max_rounds: int,
                    golden: dict[str, str] | None = None) -> ArtifactCheck:
    """Check an invocation's output directory; ``golden`` digests if given."""
    check = ArtifactCheck(runs=[(p, s) for p in protocols for s in seeds])
    series: dict[str, dict[int, np.ndarray]] = {}
    for protocol in protocols:
        path = out_dir / f"series_{protocol}.csv"
        if not path.is_file():
            check.fail(f"{path.name} missing", protocol)
            continue
        tables = _read_series(path, protocol, check)
        if tables is None:
            continue
        series[protocol] = tables
        if set(tables) != set(seeds):
            check.fail(f"{path.name}: seeds {sorted(tables)} != {sorted(seeds)}", protocol)
            continue
        for seed in seeds:
            _check_series(protocol, seed, tables[seed], n, max_rounds, check)
    _check_summary(out_dir, protocols, series, n, len(seeds), check)
    _check_svg(out_dir, protocols, check)

    check.digests = digests(out_dir)
    if golden is not None:
        for name in sorted(set(golden) | set(check.digests)):
            if golden.get(name) != check.digests.get(name):
                protocol = name[len("series_"):-len(".csv")] if name.startswith("series_") else None
                check.fail(f"{name}: digest differs from golden.json", protocol)
    return check
