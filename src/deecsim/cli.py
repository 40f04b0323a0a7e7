"""Experiment runner: spec files in, CSV/SVG/summary artifacts out.

A spec is an INI-style file with ``[network]``, ``[radio]``,
``[heterogeneity]``, ``[protocol]`` and ``[experiment]`` sections; unknown
sections or keys are errors.  The bundled ``paper-sec3`` preset encodes the
classic 100-node three-tier benchmark scenario.

Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .engine import NetworkConfig, run
from .metrics import (
    BatchSummary,
    SimResult,
    emit_plot_svg,
    emit_series_csv,
)
from .model import RADIO_PROFILES, FieldGeometry, RadioParams
from .protocols import HeterogeneityParams, Protocol, ProtocolConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

EMIT_CHOICES = ("csv", "svg", "summary")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SpecError(ValueError):
    """Invalid or unparsable experiment spec; message names the field."""


def derive_seeds(base_seed: int, count: int) -> tuple[int, ...]:
    """Derive ``count`` run seeds from ``base_seed`` with splitmix64.

    Seed ``i`` is the splitmix64 finalizer applied to
    ``base_seed + (i + 1) * 0x9E3779B97F4A7C15`` (mod 2^64), so the first
    ``k`` seeds of any longer derivation are identical and the list is
    reproducible in any language.
    """
    if count < 1:
        raise SpecError("seed count must be at least 1")
    seeds = []
    for i in range(count):
        z = (base_seed + (i + 1) * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        seeds.append(z ^ (z >> 31))
    return tuple(seeds)


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment matrix: network template x protocols x seeds."""

    n: int
    side_m: float
    bs_position: tuple[float, float] | None
    max_rounds: int
    radio: RadioParams
    het: HeterogeneityParams
    p_opt: float
    z: float
    c: float
    avg_energy_mode: str
    protocols: tuple[Protocol, ...]
    seeds: tuple[int, ...]
    base_seed: int | None
    output_dir: Path
    emit: tuple[str, ...]
    jobs: int

    def network_config(self, protocol: Protocol, seed: int) -> NetworkConfig:
        return NetworkConfig(
            n=self.n,
            geometry=FieldGeometry(side_m=self.side_m, bs_position=self.bs_position),
            radio=self.radio,
            het=self.het,
            protocol=ProtocolConfig(
                kind=protocol,
                p_opt=self.p_opt,
                z=self.z,
                c=self.c,
                avg_energy_mode=self.avg_energy_mode,
            ),
            seed=seed,
            max_rounds=self.max_rounds,
        )


_KNOWN_KEYS = {
    "network": {"nodes", "field_m", "bs_x", "bs_y", "max_rounds"},
    "radio": {
        "profile",
        "e_elec_j",
        "eps_fs_j",
        "eps_mp_j",
        "e_da_j",
        "d0_m",
        "message_bits",
    },
    "heterogeneity": {"m", "m0", "a", "b", "e0_j"},
    "protocol": {"p_opt", "z", "c", "avg_energy_mode"},
    "experiment": {
        "protocols",
        "seeds",
        "base_seed",
        "seed_count",
        "output_dir",
        "emit",
        "jobs",
    },
}


def _get(parser, section, key, cast, default, where):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{where}: [{section}] {key} = {raw!r}: {exc}") from exc


def resolve_spec_path(spec: str) -> Path:
    """Resolve a spec argument: an existing path, or a bundled preset name."""
    path = Path(spec)
    if path.exists():
        return path
    name = spec.removesuffix(".cfg")
    bundled = resources.files("deecsim").joinpath(f"presets/{name}.cfg")
    if bundled.is_file():
        return Path(str(bundled))
    raise SpecError(f"spec file not found: {spec}")


def _parse_protocols(raw: str, label: str) -> tuple[Protocol, ...]:
    """Parse a comma-separated protocol list; ``label`` prefixes errors."""
    try:
        protocols = tuple(
            Protocol(token.strip().lower()) for token in raw.split(",") if token.strip()
        )
    except ValueError as exc:
        raise SpecError(f"{label}: {exc}") from exc
    if not protocols:
        raise SpecError(f"{label} must name at least one protocol")
    if len(set(protocols)) != len(protocols):
        raise SpecError(f"{label} lists a protocol twice")
    return protocols


def load_spec(path: str | Path, profile: str | None = None) -> ExperimentSpec:
    """Parse and validate an experiment spec file.

    All radio/network parameters default to the ``table1-verbatim`` profile
    and its benchmark scenario; the seed source (``seeds`` or ``base_seed``
    + ``seed_count``) is mandatory.  A ``profile`` replaces the spec's
    ``[radio] profile`` key; the spec's per-key radio values still apply on
    top of it.
    """
    path = resolve_spec_path(str(path))
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f, source=str(path))
    except configparser.Error as exc:
        raise SpecError(f"{path}: {exc}") from exc
    if profile is not None:
        if not parser.has_section("radio"):
            parser.add_section("radio")
        parser.set("radio", "profile", profile)

    where = str(path)
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise SpecError(f"{where}: unknown section [{section}]")
        unknown = set(parser.options(section)) - _KNOWN_KEYS[section]
        if unknown:
            raise SpecError(
                f"{where}: unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )

    n = _get(parser, "network", "nodes", int, 100, where)
    side_m = _get(parser, "network", "field_m", float, 100.0, where)
    bs_x = _get(parser, "network", "bs_x", float, None, where)
    bs_y = _get(parser, "network", "bs_y", float, None, where)
    if (bs_x is None) != (bs_y is None):
        raise SpecError(f"{where}: [network] bs_x and bs_y must be given together")
    bs_position = (bs_x, bs_y) if bs_x is not None else None
    max_rounds = _get(parser, "network", "max_rounds", int, 10000, where)

    profile = _get(parser, "radio", "profile", str, "table1-verbatim", where)
    if profile not in RADIO_PROFILES:
        raise SpecError(
            f"{where}: [radio] profile must be one of {', '.join(sorted(RADIO_PROFILES))}"
        )
    base_radio = RADIO_PROFILES[profile]
    try:
        radio = RadioParams(
            e_elec=_get(parser, "radio", "e_elec_j", float, base_radio.e_elec, where),
            eps_fs=_get(parser, "radio", "eps_fs_j", float, base_radio.eps_fs, where),
            eps_mp=_get(parser, "radio", "eps_mp_j", float, base_radio.eps_mp, where),
            e_da=_get(parser, "radio", "e_da_j", float, base_radio.e_da, where),
            d0=_get(parser, "radio", "d0_m", float, base_radio.d0, where),
            message_bits=_get(
                parser, "radio", "message_bits", int, base_radio.message_bits, where
            ),
        )
        het = HeterogeneityParams(
            m=_get(parser, "heterogeneity", "m", float, 0.8, where),
            m0=_get(parser, "heterogeneity", "m0", float, 0.6, where),
            a=_get(parser, "heterogeneity", "a", float, 2.0, where),
            b=_get(parser, "heterogeneity", "b", float, 3.5, where),
            e0=_get(parser, "heterogeneity", "e0_j", float, 0.5, where),
        )
        p_opt = _get(parser, "protocol", "p_opt", float, 0.1, where)
        z = _get(parser, "protocol", "z", float, 0.7, where)
        c = _get(parser, "protocol", "c", float, 1.0, where)
        avg_energy_mode = _get(
            parser, "protocol", "avg_energy_mode", str, "estimated", where
        )
        # constructed once here so range violations surface as spec errors
        ProtocolConfig(
            kind=Protocol.EDDEEC, p_opt=p_opt, z=z, c=c, avg_energy_mode=avg_energy_mode
        )
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc

    raw_protocols = _get(
        parser, "experiment", "protocols", str, "deec,ddeec,edeec,eddeec", where
    )
    protocols = _parse_protocols(raw_protocols, f"{where}: [experiment] protocols")

    base_seed = _get(parser, "experiment", "base_seed", int, None, where)
    seed_count = _get(parser, "experiment", "seed_count", int, None, where)
    raw_seeds = _get(parser, "experiment", "seeds", str, None, where)
    if raw_seeds is not None:
        try:
            seeds = tuple(int(tok.strip()) for tok in raw_seeds.split(",") if tok.strip())
        except ValueError as exc:
            raise SpecError(f"{where}: [experiment] seeds: {exc}") from exc
        if not seeds:
            raise SpecError(f"{where}: [experiment] seeds is empty")
        if len(set(seeds)) != len(seeds):
            raise SpecError(f"{where}: [experiment] seeds lists a seed twice")
    elif base_seed is not None and seed_count is not None:
        if seed_count < 1:
            raise SpecError(f"{where}: [experiment] seed_count must be at least 1")
        seeds = derive_seeds(base_seed, seed_count)
    else:
        raise SpecError(
            f"{where}: [experiment] must give either seeds or base_seed + seed_count"
        )

    output_dir = Path(_get(parser, "experiment", "output_dir", str, "results", where))
    raw_emit = _get(parser, "experiment", "emit", str, "csv,svg,summary", where)
    emit = tuple(tok.strip().lower() for tok in raw_emit.split(",") if tok.strip())
    unknown_emit = set(emit) - set(EMIT_CHOICES)
    if unknown_emit:
        raise SpecError(
            f"{where}: [experiment] emit: unknown kind(s) {', '.join(sorted(unknown_emit))}"
        )
    jobs = _get(parser, "experiment", "jobs", int, 1, where)
    if jobs < 1:
        raise SpecError(f"{where}: [experiment] jobs must be at least 1")

    try:
        spec = ExperimentSpec(
            n=n,
            side_m=side_m,
            bs_position=bs_position,
            max_rounds=max_rounds,
            radio=radio,
            het=het,
            p_opt=p_opt,
            z=z,
            c=c,
            avg_energy_mode=avg_energy_mode,
            protocols=protocols,
            seeds=seeds,
            base_seed=base_seed,
            output_dir=output_dir,
            emit=emit,
            jobs=jobs,
        )
        # validates n/max_rounds/quotas once up front
        spec.network_config(protocols[0], seeds[0])
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc
    return spec


def _summary_lines(summaries: list[BatchSummary]) -> list[str]:
    header = (
        f"{'protocol':<9} {'seeds':>5} {'first_dead':>16} {'half_dead':>16} "
        f"{'all_dead':>16} {'packets_bs':>18}"
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s.protocol:<9} {s.seed_count:>5}"
            f" {s.first_dead.mean:>10.1f} +-{s.first_dead.stddev:<6.1f}"
            f" {s.half_dead.mean:>10.1f} +-{s.half_dead.stddev:<6.1f}"
            f" {s.all_dead.mean:>10.1f} +-{s.all_dead.stddev:<6.1f}"
            f" {s.total_packets.mean:>12.1f} +-{s.total_packets.stddev:<6.1f}"
        )
    return lines


def _summary_csv_lines(summaries: list[BatchSummary]) -> list[str]:
    fields = ("first_dead", "half_dead", "all_dead", "total_packets")
    stats = ("mean", "min", "max", "std")
    header = "protocol,seeds," + ",".join(f"{f}_{s}" for f in fields for s in stats)
    lines = [header]
    for s in summaries:
        cells = [s.protocol, str(s.seed_count)]
        for f in fields:
            agg = getattr(s, f)
            cells += [
                f"{agg.mean:.9g}",
                f"{agg.minimum:.9g}",
                f"{agg.maximum:.9g}",
                f"{agg.stddev:.9g}",
            ]
        lines.append(",".join(cells))
    return lines


def run_experiment(spec: ExperimentSpec, echo=print) -> int:
    """Run the full protocol x seed matrix and write the requested artifacts.

    Runs are independent and may execute on worker threads; artifact bytes
    never depend on scheduling because results are collected per (protocol,
    seed) key and written in a fixed order.  On I/O failure every artifact
    written so far is removed.
    """
    pairs = [(protocol, seed) for protocol in spec.protocols for seed in spec.seeds]
    if spec.jobs > 1:
        with ThreadPoolExecutor(max_workers=spec.jobs) as pool:
            results = list(
                pool.map(lambda ps: run(spec.network_config(ps[0], ps[1])), pairs)
            )
    else:
        results = [run(spec.network_config(protocol, seed)) for protocol, seed in pairs]

    by_protocol: dict[str, list[SimResult]] = {p.value: [] for p in spec.protocols}
    for result in results:
        by_protocol[result.protocol].append(result)
    for group in by_protocol.values():
        group.sort(key=lambda r: r.seed)

    summaries = [BatchSummary.from_results(group) for group in by_protocol.values()]
    summaries.sort(key=lambda s: s.first_dead.mean, reverse=True)

    written: list[Path] = []
    try:
        spec.output_dir.mkdir(parents=True, exist_ok=True)
        if "csv" in spec.emit:
            for protocol in spec.protocols:
                dest = spec.output_dir / f"series_{protocol.value}.csv"
                written.append(dest)
                emit_series_csv(by_protocol[protocol.value], dest)
        if "svg" in spec.emit:
            all_results = [r for p in spec.protocols for r in by_protocol[p.value]]
            for kind in ("alive_vs_round", "packets_vs_round"):
                dest = spec.output_dir / f"{kind}.svg"
                written.append(dest)
                emit_plot_svg(all_results, kind, dest)
        if "summary" in spec.emit:
            dest = spec.output_dir / "summary.txt"
            written.append(dest)
            dest.write_text("\n".join(_summary_lines(summaries)) + "\n", encoding="ascii")
            dest = spec.output_dir / "summary.csv"
            written.append(dest)
            dest.write_text(
                "\n".join(_summary_csv_lines(summaries)) + "\n", encoding="ascii"
            )
    except OSError as exc:
        for path in written:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        echo(f"error: failed writing artifacts: {exc}", file=sys.stderr)
        return EXIT_IO

    for line in _summary_lines(summaries):
        echo(line)
    echo(f"artifacts written to {spec.output_dir}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # bad usage is a validation failure under this tool's exit-code contract
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deecsim",
        description="Round-based simulator for DEEC-family cluster-head election.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser(
        "run",
        help="run an experiment spec (a file path or the bundled 'paper-sec3')",
    )
    run_p.add_argument("spec", help="spec file path or bundled preset name")
    run_p.add_argument("--output-dir", help="override the spec's output directory")
    run_p.add_argument(
        "--seed-count",
        type=int,
        help="derive this many seeds from the spec's base_seed",
    )
    run_p.add_argument(
        "--protocols",
        help="comma-separated subset of deec,ddeec,edeec,eddeec",
    )
    run_p.add_argument(
        "--profile",
        choices=sorted(RADIO_PROFILES),
        help="radio profile to use in place of the spec's; the spec's per-key "
        "radio values still apply",
    )
    run_p.add_argument(
        "--emit",
        help=f"comma-separated subset of {','.join(EMIT_CHOICES)}",
    )
    run_p.add_argument(
        "--jobs", type=int, help="worker threads for independent (protocol, seed) runs"
    )
    return parser


def _apply_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    if args.output_dir is not None:
        spec = replace(spec, output_dir=Path(args.output_dir))
    if args.seed_count is not None:
        if spec.base_seed is None:
            raise SpecError("--seed-count needs a base_seed in the spec file")
        spec = replace(spec, seeds=derive_seeds(spec.base_seed, args.seed_count))
    if args.protocols is not None:
        spec = replace(spec, protocols=_parse_protocols(args.protocols, "--protocols"))
    if args.emit is not None:
        emit = tuple(tok.strip().lower() for tok in args.emit.split(",") if tok.strip())
        unknown = set(emit) - set(EMIT_CHOICES)
        if unknown:
            raise SpecError(f"--emit: unknown kind(s) {', '.join(sorted(unknown))}")
        spec = replace(spec, emit=emit)
    if args.jobs is not None:
        if args.jobs < 1:
            raise SpecError("--jobs must be at least 1")
        spec = replace(spec, jobs=args.jobs)
    return spec


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = load_spec(args.spec, profile=args.profile)
        spec = _apply_overrides(spec, args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
