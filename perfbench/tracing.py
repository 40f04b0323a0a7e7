"""Span tracing around the public calls into each deecsim layer.

The program itself carries no tracing.  ``installed(tracer)`` swaps, for the
duration of a ``with`` block, the public functions that ``deecsim run``
reaches for timed wrappers, and restores them on exit:

- ``cli``: ``load_spec``
- ``engine``: ``run``, the ``Simulation`` constructor and its three round
  phases, and the per-round uniform draw ``rng.random``
- ``_kernels``: the backend's ``elect`` / ``assign`` / ``steady``
- ``metrics``: ``emit_series_csv``, ``emit_plot_svg`` and
  ``BatchSummary.from_results``

Spans (trace id, name, start, end, parent) and per-round counts stay in
compact in-memory arrays until ``save`` writes them out.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

import deecsim.cli as cli
import deecsim.engine as engine
import deecsim.metrics as metrics

LAYERS = ("cli", "engine", "kernels", "metrics")

# Every span name a traced ``deecsim run`` must produce; a missing one means a
# wrapped function is no longer on the call path.
RUN_SPANS = (
    "cli.main",
    "cli.load_spec",
    "engine.run",
    "engine.build",
    "engine.elect_cluster_heads",
    "engine.rng",
    "engine.form_clusters",
    "engine.steady_state",
    "kernels.elect",
    "kernels.assign",
    "kernels.steady",
    "metrics.emit_series_csv",
    "metrics.emit_plot_svg",
    "metrics.summary",
)

_BYTES_PER_F64 = 8
_DENSE_TEMPORARIES = 3  # dx, dy, d2 in the dense nearest-head assignment


@dataclasses.dataclass(frozen=True)
class RunLedger:
    """Energy bookkeeping of one traced ``engine.run`` call."""

    protocol: str
    seed: int
    initial_j: float
    final_j: float
    charged_j: float
    overdraft_j: float

    def holds(self, rel_tol: float = 1e-9) -> bool:
        """initial - final residual == sum(charged) - sum(overdraft)."""
        spent = self.initial_j - self.final_j
        return abs(spent - (self.charged_j - self.overdraft_j)) <= rel_tol * self.initial_j


def _copy(values: array) -> np.ndarray:
    # a copy, so that no numpy view pins the array's buffer while it grows
    return np.array(values, dtype=np.int32 if values.typecode == "i" else np.int64)


class Tracer:
    """In-memory span and per-round count recorder."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.trace_id = 0
        self.span_trace = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        # one entry per election call: n, alive, eligible and elected nodes
        self.round_trace = array("i")
        self.round_n = array("q")
        self.round_alive = array("q")
        self.round_eligible = array("q")
        self.round_heads = array("q")
        self.ledgers: list[RunLedger] = []
        self.last_initial_j = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_trace.append(self.trace_id)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end

        return traced

    def record_round(self, n: int, alive: int, eligible: int, heads: int) -> None:
        self.round_trace.append(self.trace_id)
        self.round_n.append(n)
        self.round_alive.append(alive)
        self.round_eligible.append(eligible)
        self.round_heads.append(heads)

    def spans(self, trace_ids=None) -> dict[str, np.ndarray]:
        """Span arrays, optionally restricted to some trace ids."""
        out = {
            "trace": _copy(self.span_trace),
            "name": _copy(self.span_name),
            "parent": _copy(self.span_parent),
            "start": _copy(self.span_start),
            "end": _copy(self.span_end),
        }
        out["dur"] = out["end"] - out["start"]
        child = np.zeros(len(out["dur"]), dtype=np.int64)
        has_parent = out["parent"] >= 0
        np.add.at(child, out["parent"][has_parent], out["dur"][has_parent])
        out["self"] = out["dur"] - child
        if trace_ids is not None:
            keep = np.isin(out["trace"], list(trace_ids))
            out = {k: v[keep] for k, v in out.items()}
        return out

    def durations_ns(self, spans: dict[str, np.ndarray], name: str) -> np.ndarray:
        if name not in self._name_ids:
            return np.zeros(0, dtype=np.int64)
        return spans["dur"][spans["name"] == self._name_ids[name]]

    def rounds(self, trace_ids) -> dict[str, np.ndarray]:
        keep = np.isin(_copy(self.round_trace), list(trace_ids))
        return {
            key: _copy(getattr(self, f"round_{key}"))[keep]
            for key in ("n", "alive", "eligible", "heads")
        }

    def save(self, path) -> None:
        """Write every span and per-round count to an ``.npz`` file."""
        spans = self.spans()
        np.savez(
            path,
            names=np.array(self.names),
            **{f"span_{k}": v for k, v in spans.items()},
            **{f"round_{k}": v for k, v in self.rounds(set(spans["trace"].tolist())).items()},
        )


class _TracedRng:
    """Proxy of a ``numpy`` Generator whose ``random`` runs in a span."""

    def __init__(self, rng, random) -> None:
        self._rng = rng
        self.random = random

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _traced_simulation(tracer: Tracer, base):
    build = tracer.wrap("engine.build", base.__init__)
    elect = tracer.wrap("engine.elect_cluster_heads", base.elect_cluster_heads)
    form = tracer.wrap("engine.form_clusters", base.form_clusters)
    steady = tracer.wrap("engine.steady_state", base.steady_state)
    kernel_cache: dict[int, object] = {}

    class TracedSimulation(base):
        def __init__(self, config, backend=None):
            build(self, config, backend)
            tracer.last_initial_j = float(self.initial_energy.sum())
            key = id(self.kernels)
            if key not in kernel_cache:
                kernel_cache[key] = dataclasses.replace(
                    self.kernels,
                    elect=tracer.wrap("kernels.elect", self.kernels.elect),
                    assign=tracer.wrap("kernels.assign", self.kernels.assign),
                    steady=tracer.wrap("kernels.steady", self.kernels.steady),
                )
            self.kernels = kernel_cache[key]
            self.rng = _TracedRng(self.rng, tracer.wrap("engine.rng", self.rng.random))

        def elect_cluster_heads(self):
            alive = self.alive
            n_alive = int(np.count_nonzero(alive))
            eligible = int(np.count_nonzero(alive & (self.ineligible_until <= self.round)))
            heads = elect(self)
            tracer.record_round(self.config.n, n_alive, eligible, len(heads))
            return heads

        def form_clusters(self, ch_ids):
            return form(self, ch_ids)

        def steady_state(self, assignment_codes):
            return steady(self, assignment_codes)

    return TracedSimulation


@contextmanager
def installed(tracer: Tracer):
    """Route ``deecsim``'s public layer calls through ``tracer``'s spans."""
    summary_cls = metrics.BatchSummary
    saved = [
        (cli, "load_spec", cli.load_spec),
        (cli, "run", cli.run),
        (cli, "emit_series_csv", cli.emit_series_csv),
        (cli, "emit_plot_svg", cli.emit_plot_svg),
        (engine, "Simulation", engine.Simulation),
        (summary_cls, "from_results", summary_cls.__dict__["from_results"]),
    ]
    run_span = tracer.wrap("engine.run", cli.run)

    def traced_run(config, *args, **kwargs):
        result = run_span(config, *args, **kwargs)
        tracer.ledgers.append(
            RunLedger(
                protocol=result.protocol,
                seed=result.seed,
                initial_j=tracer.last_initial_j,
                final_j=float(result.residual_j[-1]),  # a run has at least one round
                charged_j=float(result.charged_j.sum()),
                overdraft_j=float(result.overdraft_j.sum()),
            )
        )
        return result

    from_results = summary_cls.__dict__["from_results"].__func__
    try:
        cli.load_spec = tracer.wrap("cli.load_spec", cli.load_spec)
        cli.run = traced_run
        cli.emit_series_csv = tracer.wrap("metrics.emit_series_csv", cli.emit_series_csv)
        cli.emit_plot_svg = tracer.wrap("metrics.emit_plot_svg", cli.emit_plot_svg)
        engine.Simulation = _traced_simulation(tracer, engine.Simulation)
        summary_cls.from_results = classmethod(tracer.wrap("metrics.summary", from_results))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# Per-layer metrics: name -> (unit, better, the end-to-end metric it should
# move and on which workload).
PER_LAYER = {
    "cli.load_spec_ms": ("ms", "lower", "setup_s on every workload"),
    "engine.build_ms": ("ms", "lower", "runs_per_s on verbatim-tail; setup_s"),
    "engine.self_us_per_round": (
        "us", "lower",
        "node_rounds_per_s on sec3 and verbatim-tail; no change predicted on dense-5k",
    ),
    "engine.rng_us_per_round": ("us", "lower", "node_rounds_per_s on sec3"),
    "kernels.elect_us_per_round": ("us", "lower", "node_rounds_per_s on sec3 and verbatim-tail"),
    "kernels.elect_us_per_round_p99": ("us", "lower", "node_rounds_per_s on sec3 and verbatim-tail"),
    "kernels.assign_us_per_round": (
        "us", "lower", "wall_s on dense-5k (~97% of a round); ~19% of a round on sec3",
    ),
    "kernels.assign_us_per_round_p99": ("us", "lower", "wall_s on dense-5k"),
    "kernels.steady_us_per_round": ("us", "lower", "node_rounds_per_s on sec3 and verbatim-tail"),
    "kernels.steady_us_per_round_p99": ("us", "lower", "node_rounds_per_s on sec3 and verbatim-tail"),
    "kernels.assign_pairs_per_round": ("count", "lower", "wall_s on dense-5k (member x head pairs)"),
    "kernels.assign_ns_per_pair": ("ns", "lower", "wall_s on dense-5k"),
    "kernels.assign_temp_mb": (
        "MB", "lower", "peak_rss_mb on dense-5k (computed dx/dy/d2 bytes, not measured)",
    ),
    "kernels.elect_heads_per_round": ("count", "higher", "assign and steady work on every workload"),
    "kernels.elect_eligible_frac": ("ratio", "higher", "node_rounds_per_s on sec3 (useful draws / draws)"),
    "kernels.steady_alive_frac": (
        "ratio", "higher", "node_rounds_per_s on verbatim-tail (dead-node work a masked engine skips)",
    ),
    "metrics.csv_us_per_row": ("us", "lower", "wall_s, largest share on verbatim-tail"),
    "metrics.rows": ("count", "lower", "wall_s, largest share on verbatim-tail"),
    "metrics.svg_ms": ("ms", "lower", "wall_s, largest share on verbatim-tail"),
    "metrics.summary_ms": ("ms", "lower", "wall_s, largest share on verbatim-tail"),
    "metrics.bytes_written": ("bytes", "lower", "wall_s, largest share on verbatim-tail"),
    "trace.untraced_wall_s": ("s", "lower", "wall_s (same invocation, tracing off)"),
    "trace.traced_wall_s": ("s", "lower", "none: the traced invocation"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall time"),
}
SWEEP_NODES = {100: 400, 1000: 80, 5000: 20}  # n -> rounds stepped
for _n in SWEEP_NODES:
    for _kernel in ("elect", "assign", "steady"):
        PER_LAYER[f"sweep.n{_n}.{_kernel}_us_per_round"] = (
            "us", "lower", f"layer scaling only: {_kernel} at n = {_n}",
        )


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def _per_trace_sum_ns(tracer: Tracer, spans, name: str, trace_ids) -> list[int]:
    mask = spans["name"] == tracer.name_id(name)
    return [int(spans["dur"][mask & (spans["trace"] == t)].sum()) for t in trace_ids]


def run_layer_metrics(tracer: Tracer, trace_ids, rows: int, bytes_written: int) -> dict:
    """Per-layer metrics of the traced ``deecsim run`` invocations."""
    spans = tracer.spans(trace_ids)
    missing = [name for name in RUN_SPANS if not len(tracer.durations_ns(spans, name))]
    if missing:
        raise RuntimeError(f"traced run produced no span for: {', '.join(missing)}")

    def ns(name):
        return tracer.durations_ns(spans, name)

    counts = tracer.rounds(trace_ids)
    rounds = len(counts["n"])
    kernels = {k: ns(f"kernels.{k}") for k in ("elect", "assign", "steady")}
    kernel_total = sum(int(v.sum()) for v in kernels.values())
    engine_self = int(ns("engine.run").sum()) - int(ns("engine.build").sum()) - kernel_total
    pairs = (counts["alive"] - counts["heads"]) * counts["heads"]  # members x heads

    out = {
        "cli.load_spec_ms": _median(ns("cli.load_spec")) / 1e6,
        "engine.build_ms": _median(ns("engine.build")) / 1e6,
        "engine.self_us_per_round": engine_self / rounds / 1e3,
        "engine.rng_us_per_round": _median(ns("engine.rng")) / 1e3,
        "kernels.assign_pairs_per_round": float(pairs.mean()),
        "kernels.assign_ns_per_pair": float(kernels["assign"].sum() / max(int(pairs.sum()), 1)),
        "kernels.assign_temp_mb": float(pairs.max()) * _DENSE_TEMPORARIES * _BYTES_PER_F64 / 1e6,
        "kernels.elect_heads_per_round": float(counts["heads"].mean()),
        "kernels.elect_eligible_frac": float(counts["eligible"].sum() / counts["n"].sum()),
        "kernels.steady_alive_frac": float(counts["alive"].sum() / counts["n"].sum()),
        "metrics.csv_us_per_row": float(ns("metrics.emit_series_csv").sum())
        / (rows * len(trace_ids)) / 1e3,
        "metrics.rows": float(rows),
        "metrics.svg_ms": _median(_per_trace_sum_ns(tracer, spans, "metrics.emit_plot_svg", trace_ids)) / 1e6,
        "metrics.summary_ms": _median(_per_trace_sum_ns(tracer, spans, "metrics.summary", trace_ids)) / 1e6,
        "metrics.bytes_written": float(bytes_written),
    }
    for kernel, durations in kernels.items():
        out[f"kernels.{kernel}_us_per_round"] = _median(durations) / 1e3
        out[f"kernels.{kernel}_us_per_round_p99"] = float(np.percentile(durations, 99)) / 1e3
    return out


def layer_self_ms(tracer: Tracer, trace_ids) -> dict[str, float]:
    """Self time per layer (span time not covered by child spans), per invocation."""
    spans = tracer.spans(trace_ids)
    out = {}
    for layer in LAYERS:
        ids = [i for i, name in enumerate(tracer.names) if name.split(".")[0] == layer]
        out[layer] = float(spans["self"][np.isin(spans["name"], ids)].sum()) / 1e6 / len(trace_ids)
    return out


def sweep_metrics(config, tracer: Tracer) -> dict:
    """Kernel us per round at each swept network size, stepping ``Simulation``."""
    out = {}
    with installed(tracer):
        for n, rounds in SWEEP_NODES.items():
            tracer.trace_id = n
            sim = engine.Simulation(dataclasses.replace(config, n=n))
            for _ in range(rounds):
                sim.step()
            spans = tracer.spans([n])
            for kernel in ("elect", "assign", "steady"):
                out[f"sweep.n{n}.{kernel}_us_per_round"] = (
                    _median(tracer.durations_ns(spans, f"kernels.{kernel}")) / 1e3
                )
    return out
