"""Evaluation metrics and serialized outputs.

Turns per-round simulation series into the standard lifetime metrics
(stability period = rounds until the first death, network lifetime = rounds
until the last death), per-round CSV files, cross-seed summaries and static
SVG line charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CSV_HEADER = "protocol,seed,round,alive,packets_bs,packets_ch,residual_j,ch_count"

# each chart kind's SimResult series, title and y-axis label, in emission order
PLOT_KINDS = {
    "alive_vs_round": ("alive", "Alive nodes per round", "alive nodes"),
    "packets_vs_round": ("packets_bs", "Cumulative packets to BS", "packets to BS (cumulative)"),
}

# each protocol's colour, in legend order, so artifacts are deterministic
_PALETTE = {
    "deec": "#1f77b4",
    "ddeec": "#ff7f0e",
    "edeec": "#2ca02c",
    "eddeec": "#d62728",
}

# BatchSummary's aggregates as the summary files list them: the field (the
# summary.csv column prefix), its summary.txt column head, and the width of
# its mean there
_SUMMARY_FIELDS = (("first_dead", "first_dead", 10), ("half_dead", "half_dead", 10),
                   ("all_dead", "all_dead", 10), ("total_packets", "packets_bs", 12))
# summary.csv column suffix -> Aggregate attribute
_SUMMARY_STATS = {"mean": "mean", "min": "minimum", "max": "maximum", "std": "stddev"}


@dataclass
class SimResult:
    """Per-round series of one run plus enough metadata to serialize it.

    All series share one entry per simulated round; packets are cumulative.
    """

    protocol: str
    seed: int
    n: int
    alive: np.ndarray
    packets_bs: np.ndarray
    packets_ch: np.ndarray
    residual_j: np.ndarray
    ch_count: np.ndarray
    charged_j: np.ndarray
    overdraft_j: np.ndarray
    max_rounds: int

    @property
    def rounds(self) -> int:
        return len(self.alive)


@dataclass(frozen=True)
class LifetimeSummary:
    """Death-round milestones of one run; ``None`` means not reached."""

    first_dead: int | None
    half_dead: int | None
    all_dead: int | None
    total_packets_bs: int
    rounds: int


def summarize(result: SimResult) -> LifetimeSummary:
    """Derive death-round milestones from the alive series.

    ``first_dead`` is the first round with any death, ``half_dead`` the
    first with at most half the population alive, ``all_dead`` the first
    with none.
    """
    alive = result.alive
    if len(alive) == 0:
        raise ValueError("cannot summarize an empty series")

    def first_index(mask: np.ndarray) -> int | None:
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else None

    return LifetimeSummary(
        first_dead=first_index(alive < result.n),
        half_dead=first_index(alive <= result.n / 2),
        all_dead=first_index(alive == 0),
        total_packets_bs=int(result.packets_bs[-1]),
        rounds=result.rounds,
    )


@dataclass(frozen=True)
class Aggregate:
    """min/mean/max/stddev of one metric across seeds."""

    mean: float
    minimum: float
    maximum: float
    stddev: float

    @classmethod
    def of(cls, values: list[float]) -> "Aggregate":
        arr = np.asarray(values, dtype=np.float64)
        return cls(
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            stddev=float(arr.std()),
        )


@dataclass(frozen=True)
class BatchSummary:
    """Cross-seed aggregates for one protocol.

    Death rounds that were not reached are right-censored at the run's
    series length (the round cap).
    """

    protocol: str
    seed_count: int
    first_dead: Aggregate
    half_dead: Aggregate
    all_dead: Aggregate
    total_packets: Aggregate

    @classmethod
    def from_results(cls, results: list[SimResult]) -> "BatchSummary":
        if not results:
            raise ValueError("need at least one result")
        labels = {r.protocol for r in results}
        if len(labels) != 1:
            raise ValueError(f"results span several protocols: {sorted(labels)}")
        summaries = [summarize(r) for r in results]

        def censored(value: int | None, s: LifetimeSummary) -> float:
            return float(value if value is not None else s.rounds)

        return cls(
            protocol=results[0].protocol,
            seed_count=len(results),
            first_dead=Aggregate.of([censored(s.first_dead, s) for s in summaries]),
            half_dead=Aggregate.of([censored(s.half_dead, s) for s in summaries]),
            all_dead=Aggregate.of([censored(s.all_dead, s) for s in summaries]),
            total_packets=Aggregate.of([float(s.total_packets_bs) for s in summaries]),
        )


def summary_lines(summaries: list[BatchSummary]) -> list[str]:
    """The ``summary.txt`` table: mean +- stddev of each aggregate, one row
    per protocol in the given order."""
    header = f"{'protocol':<9} seeds" + "".join(
        f" {head:>{width + 6}}" for _, head, width in _SUMMARY_FIELDS
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(f"{s.protocol:<9} {s.seed_count:>5}" + "".join(
            f" {getattr(s, field).mean:>{width}.1f} +-{getattr(s, field).stddev:<6.1f}"
            for field, _, width in _SUMMARY_FIELDS
        ))
    return lines


def summary_csv_lines(summaries: list[BatchSummary]) -> list[str]:
    """The ``summary.csv`` rows: every statistic of each aggregate, one row
    per protocol in the given order."""
    cells = [f"{field}_{stat}" for field, _, _ in _SUMMARY_FIELDS for stat in _SUMMARY_STATS]
    lines = ["protocol,seeds," + ",".join(cells)]
    for s in summaries:
        cells = [f"{getattr(getattr(s, field), attr):.9g}"
                 for field, _, _ in _SUMMARY_FIELDS for attr in _SUMMARY_STATS.values()]
        lines.append(",".join([s.protocol, str(s.seed_count), *cells]))
    return lines


def write_lines(lines: list[str], destination) -> None:
    """Write ``lines`` to ``destination`` as ASCII, each ended by ``\\n``."""
    with open(destination, "w", encoding="ascii", newline="") as f:
        f.write("\n".join(lines) + "\n")


def emit_series_csv(results: list[SimResult], destination) -> None:
    """Write the per-round series of one protocol to ``destination``.

    One row per (seed, round), sorted, written one seed at a time; floats
    carry up to 9 significant digits with a decimal point regardless of
    locale.  An empty result list produces a header-only file.
    """
    labels = {r.protocol for r in results}
    if len(labels) > 1:
        raise ValueError(f"results span several protocols: {sorted(labels)}")
    with open(destination, "w", encoding="ascii", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for result in sorted(results, key=lambda r: r.seed):
            prefix = f"{result.protocol},{result.seed},"
            columns = zip(
                range(result.rounds),
                result.alive.tolist(),
                result.packets_bs.tolist(),
                result.packets_ch.tolist(),
                result.residual_j.tolist(),
                result.ch_count.tolist(),
            )
            f.write("".join(
                f"{prefix}{rnd},{alive},{bs},{to_ch},{residual:.9g},{heads}\n"
                for rnd, alive, bs, to_ch, residual, heads in columns
            ))


def seed_mean_series(results: list[SimResult], kind: str) -> np.ndarray:
    """Mean series across seeds for one protocol.

    Shorter runs are padded to the longest: a run that has ended keeps its
    last value (a dead network's 0 alive nodes, its final packet count).
    """
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}")
    length = max(r.rounds for r in results)
    stacked = np.zeros((len(results), length), dtype=np.float64)
    for row, result in enumerate(results):
        series = getattr(result, PLOT_KINDS[kind][0])
        stacked[row, : len(series)] = series
        stacked[row, len(series):] = series[-1:]
    return stacked.mean(axis=0)


def _ticks(span: float):
    """Axis ticks 0, step, 2*step, ... up to span, where step is the largest
    1/2/5 * 10^k giving at least 4 intervals over span."""
    step = 1.0
    if span > 0:
        raw = span / 4.0
        step = 10.0 ** math.floor(math.log10(raw))
        step = next((step * mult for mult in (5.0, 2.0) if step * mult <= raw), step)
    tick = 0.0
    while tick <= span:
        yield tick
        tick += step


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _line(x1, y1, x2, y2, stroke="black", width=1) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _text(x, y, body, size, anchor="middle", transform=None) -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{transform}>{body}</text>'
    )


def emit_plot_svg(results: list[SimResult], kind: str, destination) -> None:
    """Write a static SVG line chart: one polyline per protocol.

    Each polyline is the seed-mean series (one vertex per round), drawn
    with a fixed palette and legend, in the palette's protocol order; no
    scripting or interactivity.  An unknown plot kind (checked by
    :func:`seed_mean_series`), a result with no rounds or a protocol label
    with no colour is an error.
    """
    if not results:
        raise ValueError("need at least one result to plot")
    if not all(r.rounds for r in results):
        raise ValueError("cannot plot a result with no rounds")
    unknown = {r.protocol for r in results} - set(_PALETTE)
    if unknown:
        raise ValueError(f"no colour for protocol(s) {', '.join(sorted(unknown))}")

    groups = {p: [r for r in results if r.protocol == p] for p in _PALETTE}
    series = {p: seed_mean_series(group, kind) for p, group in groups.items() if group}
    x_max = max(len(s) for s in series.values())
    y_max = max(float(s.max()) for s in series.values())
    if y_max <= 0:
        y_max = 1.0

    width, height = 880.0, 520.0
    left, right, top, bottom = 80.0, 180.0, 40.0, 60.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(x):
        return left + plot_w * (x / x_max)

    def sy(y):
        return top + plot_h * (1.0 - y / y_max)

    _, title, y_label = PLOT_KINDS[kind]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
        _text(left + plot_w / 2, 24, title, 16),
        # axes
        _line(left, top + plot_h, left + plot_w, top + plot_h),
        _line(left, top, left, top + plot_h),
    ]

    for tick in _ticks(float(x_max)):
        px = sx(tick)
        parts += [_line(px, top + plot_h, px, top + plot_h + 5),
                  _text(px, top + plot_h + 20, _fmt(tick), 11)]
    for tick in _ticks(y_max):
        py = sy(tick)
        parts += [_line(left - 5, py, left, py),
                  _text(left - 8, py + 4, _fmt(tick), 11, anchor="end")]

    mid = top + plot_h / 2
    parts += [_text(left + plot_w / 2, height - 14, "round", 13),
              _text(20, mid, y_label, 13, transform=f"rotate(-90 20 {_fmt(mid)})")]

    lx = left + plot_w + 24
    for idx, (protocol, values) in enumerate(series.items()):
        color = _PALETTE[protocol]
        px = sx(np.arange(values.size, dtype=np.float64)).tolist()
        py = sy(values).tolist()
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        ly = top + 16 + 22 * idx
        parts += [f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>',
                  _line(lx, ly - 4, lx + 26, ly - 4, stroke=color, width=2),
                  _text(lx + 32, ly, protocol.upper(), 12, anchor=None)]

    parts.append("</svg>")
    write_lines(parts, destination)
