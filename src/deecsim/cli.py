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
from collections import defaultdict
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

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
    """A validated experiment matrix: network template x protocols x seeds.

    ``template`` is the run config of the first protocol and the first seed;
    every run's config is the template with those two replaced.
    """

    template: NetworkConfig
    protocols: tuple[Protocol, ...]
    seeds: tuple[int, ...]
    output_dir: Path
    emit: tuple[str, ...]
    jobs: int

    @property
    def n(self) -> int:
        return self.template.n

    @property
    def max_rounds(self) -> int:
        return self.template.max_rounds

    def network_config(self, protocol: Protocol, seed: int) -> NetworkConfig:
        kind = replace(self.template.protocol, kind=protocol)
        return replace(self.template, protocol=kind, seed=seed)


class _Key(NamedTuple):
    cast: Callable[[str], Any]  # parses the value, or each list item
    part: str | None = None
    field: str | None = None  # None: the key's own name
    noun: str | None = None  # the items of a comma list
    default: Any = None


def _emit_kind(token: str) -> str:
    kind = token.lower()
    if kind not in EMIT_CHOICES:
        raise ValueError(f"unknown kind(s) {kind}")
    return kind


def _profile(name: str) -> RadioParams:
    if name not in RADIO_PROFILES:
        raise ValueError(f"must be one of {', '.join(sorted(RADIO_PROFILES))}")
    return RADIO_PROFILES[name]


def _count(raw: str) -> int:
    count = int(raw)
    if count < 1:
        raise ValueError("must be at least 1")
    return count


# What an omitted network key takes: the table1-verbatim radio and the
# benchmark scenario's field and population; the protocol and the round cap
# keep their own classes' defaults.  Kind and seed come from the experiment.
_DEFAULT = NetworkConfig(
    n=100,
    geometry=FieldGeometry(side_m=100.0),
    radio=RADIO_PROFILES["table1-verbatim"],
    het=HeterogeneityParams(m=0.8, m0=0.6, a=2.0, b=3.5, e0=0.5),
    protocol=ProtocolConfig(kind=Protocol.DEEC),
    seed=0,
)

# Every spec key, once, by section.  A key with a part sets that part's
# field: "network" is the template itself, "radio", "het" and "protocol" its
# parts, and "derive" the arguments of derive_seeds.  load_spec reads the
# other keys by name; each takes its default when the spec omits it.
SPEC_KEYS: dict[str, dict[str, _Key]] = {
    "network": {
        "nodes": _Key(int, "network", "n"),
        "field_m": _Key(float, default=_DEFAULT.geometry.side_m),
        "bs_x": _Key(float),
        "bs_y": _Key(float),
        "max_rounds": _Key(int, "network"),
    },
    "radio": {
        # the named profile's values, replaced by the radio keys given
        "profile": _Key(_profile, default=_DEFAULT.radio),
        "e_elec_j": _Key(float, "radio", "e_elec"),
        "eps_fs_j": _Key(float, "radio", "eps_fs"),
        "eps_mp_j": _Key(float, "radio", "eps_mp"),
        "e_da_j": _Key(float, "radio", "e_da"),
        "d0_m": _Key(float, "radio", "d0"),
        "message_bits": _Key(int, "radio"),
    },
    "heterogeneity": {
        "m": _Key(float, "het"),
        "m0": _Key(float, "het"),
        "a": _Key(float, "het"),
        "b": _Key(float, "het"),
        "e0_j": _Key(float, "het", "e0"),
    },
    "protocol": {
        "p_opt": _Key(float, "protocol"),
        "z": _Key(float, "protocol"),
        "c": _Key(float, "protocol"),
        "avg_energy_mode": _Key(str, "protocol"),
    },
    "experiment": {
        "protocols": _Key(lambda token: Protocol(token.lower()), noun="protocol",
                          default=tuple(Protocol)),
        "seeds": _Key(int, noun="seed"),
        "base_seed": _Key(int, "derive"),
        "seed_count": _Key(_count, "derive", "count"),
        "output_dir": _Key(Path, default=Path("results")),
        "emit": _Key(_emit_kind, noun="kind", default=EMIT_CHOICES),
        "jobs": _Key(_count, default=1),
    },
}

# Every CLI flag with its help, in --help order.  A flag sets the spec key
# it is named after (--seed-count sets seed_count), which is also the
# argparse destination of its value.  The value replaces the key's on the
# parsed spec before validation, and errors about the key name the flag.
_FLAG_HELP = {
    "--output-dir": "override the spec's output directory",
    "--seed-count": "derive this many seeds from the spec's base_seed",
    "--protocols": "comma-separated subset of deec,ddeec,edeec,eddeec",
    "--profile": f"radio profile ({' or '.join(sorted(RADIO_PROFILES))}) to use in place "
    "of the spec's; the spec's per-key radio values still apply",
    "--emit": f"comma-separated subset of {','.join(EMIT_CHOICES)}",
    "--jobs": "worker threads for independent (protocol, seed) runs",
}

# flag -> (section, key, help)
FLAGS = {
    flag: (section, key, help)
    for flag, help in _FLAG_HELP.items()
    for section, keys in SPEC_KEYS.items()
    for key in keys
    if key == flag[2:].replace("-", "_")
}


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


def _parse_list(raw: str, label: str, item: Callable[[str], Any], noun: str) -> tuple:
    """Parse a comma-separated list of ``item(token)`` values, at least one
    and none repeated; ``label`` prefixes errors."""
    try:
        items = tuple(item(token.strip()) for token in raw.split(",") if token.strip())
    except ValueError as exc:
        raise SpecError(f"{label}: {exc}") from exc
    if not items:
        raise SpecError(f"{label} must name at least one {noun}")
    if len(set(items)) != len(items):
        raise SpecError(f"{label} lists a {noun} twice")
    return items


def _parse(raw: str, label: str, key: _Key) -> Any:
    if key.noun is not None:
        return _parse_list(raw, label, key.cast, key.noun)
    try:
        return key.cast(raw)
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{label} = {raw!r}: {exc}") from exc


def load_spec(path: str | Path, flags: dict[str, str] | None = None) -> ExperimentSpec:
    """Parse and validate an experiment spec file, once, as ``SPEC_KEYS`` says.

    The seed source (``seeds``, or ``base_seed`` + ``seed_count``, never
    both) is mandatory.  ``flags`` maps CLI flags of ``FLAGS`` to values
    (strings, as on the command line) that replace the spec keys they name;
    ``--profile`` replaces only the ``[radio] profile`` key, so the spec's
    per-key radio values still apply on top of it.  The network keys are
    validated by building the spec's template, the ``NetworkConfig`` every
    run is derived from.
    """
    path = resolve_spec_path(str(path))
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f, source=str(path))
    except configparser.Error as exc:
        raise SpecError(f"{path}: {exc}") from exc
    flag_of = {}
    for flag, value in (flags or {}).items():
        section, key, _ = FLAGS[flag]
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
        flag_of[key] = flag

    where = str(path)
    for section in parser.sections():
        if section not in SPEC_KEYS:
            raise SpecError(f"{where}: unknown section [{section}]")
        unknown = set(parser.options(section)) - set(SPEC_KEYS[section])
        if unknown:
            raise SpecError(
                f"{where}: unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )

    given = {}  # key -> parsed value, for the keys the spec gives
    parts = defaultdict(dict)  # part -> field -> value
    for section, keys in SPEC_KEYS.items():
        for key, how in keys.items():
            if parser.has_option(section, key):
                label = flag_of.get(key, f"{where}: [{section}] {key}")
                given[key] = _parse(parser.get(section, key), label, how)
                if how.part is not None:
                    parts[how.part][how.field or key] = given[key]
    # the keys read by name: each one's value, or its default
    got = SimpleNamespace(**{key: given.get(key, how.default) for keys in SPEC_KEYS.values()
                             for key, how in keys.items() if how.part is None})

    if got.seeds is not None:
        seeds = got.seeds
        also = [flag_of.get(key, key) for key, how in SPEC_KEYS["experiment"].items()
                if how.part == "derive" and key in given]
        if also:
            raise SpecError(
                f"{where}: [experiment] seeds excludes base_seed and seed_count, "
                f"but {' and '.join(also)} is also given"
            )
    elif len(parts["derive"]) == 2:
        seeds = derive_seeds(**parts["derive"])
    else:
        raise SpecError(
            f"{where}: [experiment] must give either seeds or base_seed + seed_count"
        )

    if (got.bs_x is None) != (got.bs_y is None):
        raise SpecError(f"{where}: [network] bs_x and bs_y must be given together")
    bs = None if got.bs_x is None else (got.bs_x, got.bs_y)
    # each constructor checks its ranges once, the template the quotas
    try:
        template = replace(
            _DEFAULT,
            geometry=FieldGeometry(got.field_m, bs),
            radio=replace(got.profile, **parts["radio"]),
            het=replace(_DEFAULT.het, **parts["het"]),
            protocol=replace(_DEFAULT.protocol, kind=got.protocols[0], **parts["protocol"]),
            seed=seeds[0],
            **parts["network"],
        )
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc
    return ExperimentSpec(template=template, protocols=got.protocols, seeds=seeds,
                          output_dir=got.output_dir, emit=got.emit, jobs=got.jobs)


def _summary_lines(summaries: list[BatchSummary]) -> list[str]:
    header = (
        f"{'protocol':<9} seeds {'first_dead':>16} {'half_dead':>16} "
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
        # imported here: concurrent.futures and the logging it pulls in add
        # several ms to every serial run's start-up
        from concurrent.futures import ThreadPoolExecutor

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
    for flag, (_, _, help) in FLAGS.items():
        run_p.add_argument(flag, help=help)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    flags = {flag: args[key] for flag, (_, key, _) in FLAGS.items() if args[key] is not None}
    try:
        spec = load_spec(args["spec"], flags)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
