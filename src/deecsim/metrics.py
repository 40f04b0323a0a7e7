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

PLOT_KINDS = ("alive_vs_round", "packets_vs_round")

# fixed protocol order and palette so artifacts are deterministic
_PROTOCOL_ORDER = ("deec", "ddeec", "edeec", "eddeec")
_PALETTE = {
    "deec": "#1f77b4",
    "ddeec": "#ff7f0e",
    "edeec": "#2ca02c",
    "eddeec": "#d62728",
}
_FALLBACK_COLORS = ("#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


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
    total_packets_ch: int
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
        total_packets_ch=int(result.packets_ch[-1]),
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


def emit_series_csv(results: list[SimResult], destination) -> None:
    """Write the per-round series of one protocol to ``destination``.

    One row per (seed, round), sorted; floats carry up to 9 significant
    digits with a decimal point regardless of locale.  An empty result list
    produces a header-only file.
    """
    labels = {r.protocol for r in results}
    if len(labels) > 1:
        raise ValueError(f"results span several protocols: {sorted(labels)}")
    lines = [CSV_HEADER]
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
        lines.extend(
            f"{prefix}{rnd},{alive},{bs},{to_ch},{residual:.9g},{heads}"
            for rnd, alive, bs, to_ch, residual, heads in columns
        )
    lines.append("")
    with open(destination, "w", encoding="ascii", newline="") as f:
        f.write("\n".join(lines))


def seed_mean_series(results: list[SimResult], kind: str) -> np.ndarray:
    """Mean series across seeds for one protocol.

    Shorter runs are padded to the longest: a dead network keeps 0 alive
    nodes and stops producing packets, so alive pads with 0 and cumulative
    packets pad with their final value.
    """
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}")
    length = max(r.rounds for r in results)
    stacked = np.zeros((len(results), length), dtype=np.float64)
    for row, result in enumerate(results):
        series = result.alive if kind == "alive_vs_round" else result.packets_bs
        stacked[row, : len(series)] = series
        if kind == "packets_vs_round" and len(series) < length:
            stacked[row, len(series):] = series[-1]
    return stacked.mean(axis=0)


def _nice_step(span: float) -> float:
    """Largest 1/2/5 * 10^k step giving at least 4 intervals over span."""
    if span <= 0:
        return 1.0
    raw = span / 4.0
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (5.0, 2.0, 1.0):
        if power * mult <= raw:
            return power * mult
    return power


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def emit_plot_svg(results: list[SimResult], kind: str, destination) -> None:
    """Write a static SVG line chart: one polyline per protocol.

    Each polyline is the seed-mean series (one vertex per round), drawn
    with a fixed palette and legend; no scripting or interactivity.
    """
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}")
    if not results:
        raise ValueError("need at least one result to plot")

    by_protocol: dict[str, list[SimResult]] = {}
    for result in results:
        by_protocol.setdefault(result.protocol, []).append(result)
    ordered = [p for p in _PROTOCOL_ORDER if p in by_protocol]
    ordered += sorted(set(by_protocol) - set(ordered))

    series = {p: seed_mean_series(by_protocol[p], kind) for p in ordered}
    x_max = max(len(s) for s in series.values())
    y_max = max(float(s.max()) for s in series.values())
    if y_max <= 0:
        y_max = 1.0

    width, height = 880.0, 520.0
    left, right, top, bottom = 80.0, 180.0, 40.0, 60.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(x):
        return left + plot_w * (x / x_max) if x_max else left

    def sy(y):
        return top + plot_h * (1.0 - y / y_max)

    y_label = "alive nodes" if kind == "alive_vs_round" else "packets to BS (cumulative)"
    title = (
        "Alive nodes per round" if kind == "alive_vs_round" else "Cumulative packets to BS"
    )

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    parts.append(f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>')
    parts.append(
        f'<text x="{_fmt(left + plot_w / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>'
    )
    # axes
    parts.append(
        f'<line x1="{_fmt(left)}" y1="{_fmt(top + plot_h)}" x2="{_fmt(left + plot_w)}" '
        f'y2="{_fmt(top + plot_h)}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(left)}" y1="{_fmt(top)}" x2="{_fmt(left)}" '
        f'y2="{_fmt(top + plot_h)}" stroke="black" stroke-width="1"/>'
    )

    x_step = _nice_step(float(x_max))
    tick = 0.0
    while tick <= x_max:
        px = sx(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(top + plot_h)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(top + plot_h + 5)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(top + plot_h + 20)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
        tick += x_step
    y_step = _nice_step(y_max)
    tick = 0.0
    while tick <= y_max:
        py = sy(tick)
        parts.append(
            f'<line x1="{_fmt(left - 5)}" y1="{_fmt(py)}" x2="{_fmt(left)}" '
            f'y2="{_fmt(py)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(left - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
        tick += y_step

    parts.append(
        f'<text x="{_fmt(left + plot_w / 2)}" y="{_fmt(height - 14)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">round</text>'
    )
    parts.append(
        f'<text x="20" y="{_fmt(top + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_fmt(top + plot_h / 2)})">{y_label}</text>'
    )

    fallback = iter(_FALLBACK_COLORS)
    for idx, protocol in enumerate(ordered):
        color = _PALETTE.get(protocol) or next(fallback)
        values = series[protocol]
        px = sx(np.arange(values.size, dtype=np.float64)).tolist()
        py = sy(values).tolist()
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        ly = top + 16 + 22 * idx
        lx = left + plot_w + 24
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 26)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 32)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="12">{protocol.upper()}</text>'
        )

    parts.append("</svg>")
    with open(destination, "w", encoding="ascii", newline="") as f:
        f.write("\n".join(parts) + "\n")
