import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deecsim import RADIO_PROFILES, Protocol
from deecsim import cli
from deecsim.cli import (
    EMIT_CHOICES,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    SpecError,
    derive_seeds,
    load_spec,
    main,
    run_experiment,
)

TINY_SPEC = """
[network]
nodes = 20
field_m = 50
max_rounds = 150

[heterogeneity]
m = 0.5
m0 = 0.5
a = 2.0
b = 3.5
e0_j = 0.05

[radio]
profile = leach-standard

[protocol]
p_opt = 0.1
z = 0.7
c = 0.1

[experiment]
protocols = deec,eddeec
base_seed = 7
seed_count = 2
emit = csv,svg,summary
"""


def write_tiny_spec(tmp_path, out_dir, extra=""):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SPEC + f"output_dir = {out_dir}\n" + extra)
    return path


class TestDeriveSeeds:
    def test_known_values_frozen(self):
        # splitmix64 finalizer over base_seed + (i+1)*golden gamma
        assert derive_seeds(42, 2) == (13679457532755275413, 2949826092126892291)
        assert derive_seeds(7, 1) == (7191089600892374487,)

    def test_prefix_property(self):
        assert derive_seeds(42, 3) == derive_seeds(42, 4)[:3]

    def test_count_validation(self):
        with pytest.raises(SpecError):
            derive_seeds(42, 0)


class TestLoadSpec:
    def test_bundled_preset_values(self):
        spec = load_spec("paper-sec3")
        net = spec.template
        assert spec.n == 100
        assert net.geometry.side_m == 100.0
        assert net.het.e0 == 0.5
        assert net.radio.message_bits == 4000
        assert net.protocol.p_opt == 0.1
        assert net.het.m == 0.8 and net.het.m0 == 0.6
        assert net.het.a == 2.0 and net.het.b == 3.5
        assert net.protocol.z == 0.7
        assert net.radio.eps_fs == 10e-12  # leach-standard reproduction default
        assert spec.protocols == (Protocol.DEEC, Protocol.DDEEC, Protocol.EDEEC, Protocol.EDDEEC)
        assert len(spec.seeds) == 20

    def test_defaults_are_table1_verbatim(self, tmp_path):
        path = tmp_path / "bare.cfg"
        path.write_text("[experiment]\nbase_seed = 1\nseed_count = 1\n")
        spec = load_spec(path)
        assert spec.template.radio.eps_fs == 10e-9
        assert spec.template.radio.e_elec == 50e-9
        assert spec.template.radio.d0 == 70.0
        assert spec.n == 100 and spec.max_rounds == 10000

    def test_missing_seeds_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("[network]\nnodes = 10\n")
        with pytest.raises(SpecError, match="seeds"):
            load_spec(path)

    def test_out_of_range_z_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text(
            "[protocol]\nz = 1.2\n[experiment]\nbase_seed = 1\nseed_count = 1\n"
        )
        with pytest.raises(SpecError, match="z"):
            load_spec(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text(
            "[network]\nnodess = 10\n[experiment]\nbase_seed = 1\nseed_count = 1\n"
        )
        with pytest.raises(SpecError, match="nodess"):
            load_spec(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("[radios]\nprofile = leach-standard\n")
        with pytest.raises(SpecError, match="radios"):
            load_spec(path)

    def test_unknown_profile_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text(
            "[radio]\nprofile = cooja\n[experiment]\nbase_seed = 1\nseed_count = 1\n"
        )
        with pytest.raises(SpecError, match="profile"):
            load_spec(path)

    def test_unknown_protocol_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text(
            "[experiment]\nprotocols = leach\nbase_seed = 1\nseed_count = 1\n"
        )
        with pytest.raises(SpecError, match="protocols"):
            load_spec(path)

    def test_explicit_seed_list(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("[experiment]\nseeds = 5, 6, 7\n")
        assert load_spec(path).seeds == (5, 6, 7)

    @pytest.mark.parametrize("keys", [
        "base_seed = 1\nseed_count = 5\n", "base_seed = 1\n", "seed_count = 5\n",
    ])
    def test_seed_list_excludes_derived_seeds(self, tmp_path, keys):
        path = tmp_path / "x.cfg"
        path.write_text("[experiment]\nseeds = 7, 8\n" + keys)
        with pytest.raises(SpecError, match="seeds excludes base_seed and seed_count"):
            load_spec(path)

    def test_duplicate_seeds_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("[experiment]\nseeds = 1, 2, 1\n")
        with pytest.raises(SpecError, match="seeds lists a seed twice"):
            load_spec(path)

    def test_duplicate_protocols_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("[experiment]\nprotocols = deec, DEEC\nseeds = 1\n")
        with pytest.raises(SpecError, match="protocols lists a protocol twice"):
            load_spec(path)

    def test_missing_file(self):
        with pytest.raises(SpecError, match="not found"):
            load_spec("no-such-spec.cfg")

    def test_bad_numeric_field_names_location(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text(
            "[network]\nnodes = many\n[experiment]\nbase_seed = 1\nseed_count = 1\n"
        )
        with pytest.raises(SpecError, match=r"\[network\] nodes"):
            load_spec(path)


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "results"
        spec = load_spec(write_tiny_spec(tmp_path, out))
        assert run_experiment(spec, echo=lambda *a, **k: None) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "alive_vs_round.svg",
            "packets_vs_round.svg",
            "series_deec.csv",
            "series_eddeec.csv",
            "summary.csv",
            "summary.txt",
        ]
        summary = (out / "summary.txt").read_text()
        assert "deec" in summary and "eddeec" in summary

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        spec_a = load_spec(write_tiny_spec(tmp_path, out_a))
        run_experiment(spec_a, echo=lambda *a, **k: None)
        (tmp_path / "tiny.cfg").unlink()
        spec_b = load_spec(write_tiny_spec(tmp_path, out_b))
        run_experiment(spec_b, echo=lambda *a, **k: None)
        for name in ("series_deec.csv", "series_eddeec.csv", "alive_vs_round.svg",
                     "packets_vs_round.svg", "summary.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_concurrency_does_not_change_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        spec = load_spec(write_tiny_spec(tmp_path, out_a))
        run_experiment(spec, echo=lambda *a, **k: None)
        (tmp_path / "tiny.cfg").unlink()
        spec4 = load_spec(write_tiny_spec(tmp_path, out_b, extra="jobs = 4\n"))
        run_experiment(spec4, echo=lambda *a, **k: None)
        for name in ("series_deec.csv", "series_eddeec.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_unwritable_output_dir_leaves_nothing(self, tmp_path):
        blocker = tmp_path / "results"
        blocker.write_text("a file where the directory should go")
        spec = load_spec(write_tiny_spec(tmp_path, blocker))
        assert run_experiment(spec, echo=lambda *a, **k: None) == EXIT_IO
        assert blocker.is_file()

    def test_summary_ordered_by_stability(self, tmp_path):
        out = tmp_path / "results"
        spec = load_spec(write_tiny_spec(tmp_path, out))
        run_experiment(spec, echo=lambda *a, **k: None)
        lines = (out / "summary.csv").read_text().splitlines()
        means = [float(line.split(",")[2]) for line in lines[1:]]
        assert means == sorted(means, reverse=True)


class TestMain:
    def test_run_tiny_spec(self, tmp_path, capsys):
        out = tmp_path / "results"
        path = write_tiny_spec(tmp_path, out)
        assert main(["run", str(path)]) == EXIT_OK
        assert (out / "summary.txt").exists()
        assert "artifacts written" in capsys.readouterr().out

    def test_missing_spec_is_validation_error(self, capsys):
        assert main(["run", "does-not-exist.cfg"]) == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    def test_bad_protocol_flag(self, tmp_path, capsys):
        path = write_tiny_spec(tmp_path, tmp_path / "r")
        assert main(["run", str(path), "--protocols", "leach"]) == EXIT_VALIDATION

    def test_duplicate_protocol_flag(self, tmp_path, capsys):
        out = tmp_path / "r"
        path = write_tiny_spec(tmp_path, out)
        assert main(["run", str(path), "--protocols", "deec,deec"]) == EXIT_VALIDATION
        assert "--protocols lists a protocol twice" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_seed_list(self, tmp_path, capsys):
        out = tmp_path / "r"
        path = write_tiny_spec(tmp_path, out)
        path.write_text(path.read_text().replace("base_seed = 7\nseed_count = 2\n",
                                                 "seeds = 1, 1\n"))
        assert main(["run", str(path), "--protocols", "deec"]) == EXIT_VALIDATION
        assert "seeds lists a seed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_two_seed_sources_exit_validation(self, tmp_path, capsys):
        out = tmp_path / "r"
        path = write_tiny_spec(tmp_path, out, extra="seeds = 7, 8\n")
        assert main(["run", str(path)]) == EXIT_VALIDATION
        assert "but base_seed and seed_count is also given" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_count_flag_needs_derived_seeds(self, tmp_path, capsys):
        out = tmp_path / "r"
        path = write_tiny_spec(tmp_path, out)
        path.write_text(path.read_text().replace("base_seed = 7\nseed_count = 2\n",
                                                 "seeds = 7, 8\n"))
        assert main(["run", str(path), "--seed-count", "3"]) == EXIT_VALIDATION
        assert "but --seed-count is also given" in capsys.readouterr().err
        assert not out.exists()

    def test_emit_subset(self, tmp_path):
        out = tmp_path / "results"
        path = write_tiny_spec(tmp_path, out)
        assert main(["run", str(path), "--emit", "csv"]) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == ["series_deec.csv", "series_eddeec.csv"]

    @pytest.mark.parametrize("spec_emit, flags, error", [
        ("csv,bogus", [], "emit: unknown kind(s) bogus"),
        ("csv,svg,summary", ["--emit", "csv,bogus"], "emit: unknown kind(s) bogus"),
        ("", [], "[experiment] emit must name at least one kind"),
        ("csv,svg,summary", ["--emit", ","], "--emit must name at least one kind"),
        ("csv,svg,CSV", [], "[experiment] emit lists a kind twice"),
    ], ids=["spec", "flag", "empty-spec", "empty-flag", "repeated-spec"])
    def test_unknown_emit_kind(self, tmp_path, capsys, spec_emit, flags, error):
        out = tmp_path / "r"
        path = write_tiny_spec(tmp_path, out)
        path.write_text(path.read_text().replace("emit = csv,svg,summary", f"emit = {spec_emit}"))
        assert main(["run", str(path), *flags]) == EXIT_VALIDATION
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_seed_count_override_prefix(self, tmp_path):
        out2, out3 = tmp_path / "r2", tmp_path / "r3"
        path = write_tiny_spec(tmp_path, out2)
        assert main(["run", str(path), "--seed-count", "2", "--emit", "csv"]) == EXIT_OK
        (tmp_path / "tiny.cfg").unlink()
        path = write_tiny_spec(tmp_path, out3)
        assert main(["run", str(path), "--seed-count", "3", "--emit", "csv"]) == EXIT_OK
        two = (out2 / "series_deec.csv").read_text().splitlines()
        three = (out3 / "series_deec.csv").read_text().splitlines()
        assert three[: len(two)] == two

    def test_profile_override(self, tmp_path):
        out_leach, out_verbatim = tmp_path / "leach", tmp_path / "verbatim"
        path = write_tiny_spec(tmp_path, out_leach)
        assert load_spec(path).template.radio.eps_fs == 10e-12
        assert main(["run", str(path), "--emit", "csv"]) == EXIT_OK
        assert main(
            ["run", str(path), "--profile", "table1-verbatim",
             "--output-dir", str(out_verbatim), "--emit", "csv"]
        ) == EXIT_OK
        # the verbatim profile's 1000x larger free-space constant drains the
        # field in far fewer rounds
        leach_rows = len((out_leach / "series_eddeec.csv").read_text().splitlines())
        verbatim_rows = len((out_verbatim / "series_eddeec.csv").read_text().splitlines())
        assert verbatim_rows < leach_rows / 2

    def test_profile_flag_keeps_per_key_radio_values(self, tmp_path, monkeypatch):
        # --profile acts as the spec's [radio] profile key; the spec's own
        # radio keys still apply on top of the named profile
        path = tmp_path / "spec.cfg"
        path.write_text(
            TINY_SPEC.replace("profile = leach-standard",
                              "profile = table1-verbatim\nmessage_bits = 2000")
        )
        resolved = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: resolved.append(spec) or EXIT_OK)
        assert main(["run", str(path), "--profile", "leach-standard"]) == EXIT_OK
        radio = resolved[0].template.radio
        assert radio.eps_fs == RADIO_PROFILES["leach-standard"].eps_fs
        assert radio.message_bits == 2000
        assert load_spec(path).template.radio.eps_fs == RADIO_PROFILES["table1-verbatim"].eps_fs

    def test_output_dir_override(self, tmp_path):
        override = tmp_path / "elsewhere"
        path = write_tiny_spec(tmp_path, tmp_path / "ignored")
        assert main(["run", str(path), "--output-dir", str(override), "--emit", "summary"]) == EXIT_OK
        assert (override / "summary.txt").exists()
        assert not (tmp_path / "ignored").exists()

    def test_usage_error_exits_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_VALIDATION


# Every flag with values it accepts; --output-dir takes a directory name
# under the case's temporary directory.
FLAG_VALUES = {
    "--output-dir": st.sampled_from(["out", "other", "a b"]),
    "--seed-count": st.integers(1, 3),
    "--protocols": st.lists(st.sampled_from(["deec", "DDEEC", "edeec", "EDDEEC"]),
                            min_size=1, max_size=4, unique_by=str.lower).map(",".join),
    "--emit": st.lists(st.sampled_from(EMIT_CHOICES), min_size=1, unique=True).map(",".join),
    "--jobs": st.integers(1, 3),
    "--profile": st.sampled_from(sorted(RADIO_PROFILES)),
}


def _artifacts(argv, out):
    """Exit code and ``{name: bytes}`` of one ``main`` call writing into ``out``."""
    code = main(argv)
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
    shutil.rmtree(out, ignore_errors=True)
    return code, files


def _keyed_and_flagged(tmp, section, key, value):
    """Two spec files in ``tmp``: a capped tiny spec (20 nodes, 40 rounds)
    writing into ``tmp/results``, and a copy with ``key = value`` set."""
    spec = TINY_SPEC.replace("max_rounds = 150", "max_rounds = 40")
    spec += f"output_dir = {tmp / 'results'}\n"
    flagged = tmp / "flagged.cfg"
    flagged.write_text(spec)
    keyed = tmp / "keyed.cfg"
    lines = [line for line in spec.splitlines() if not line.startswith(f"{key} =")]
    at = lines.index(f"[{section}]") + 1
    keyed.write_text("\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n")
    return keyed, flagged


# One value per flag that its spec key rejects.  --output-dir has none: any
# path is a valid key, and an unwritable one is an I/O failure (exit 2).
INVALID_FLAG_VALUES = {
    "--seed-count": "0",
    "--protocols": "leach",
    "--emit": "csv,bogus",
    "--jobs": "x",
    "--profile": "cooja",
}


class TestFlagsAreSpecKeys:
    """A flag set to v writes the same artifact bytes as its spec key set to v."""

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_flag_equals_key(self, flag, data):
        value = str(data.draw(FLAG_VALUES[flag]))
        section, key, _ = cli.FLAGS[flag]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            out = tmp / "results"
            if flag == "--output-dir":
                value = str(tmp / value)
                out = Path(value)
            keyed, flagged = _keyed_and_flagged(tmp, section, key, value)
            by_key = _artifacts(["run", str(keyed)], out)
            by_flag = _artifacts(["run", str(flagged), flag, value], out)
        assert by_key[0] == EXIT_OK
        assert by_key[1]
        assert by_flag == by_key

    @pytest.mark.parametrize("flag, value", sorted(INVALID_FLAG_VALUES.items()))
    def test_invalid_flag_fails_as_key(self, flag, value, tmp_path, capsys):
        # checked once, by load_spec: the key's exit code, no artifacts, and
        # the error names the flag
        section, key, _ = cli.FLAGS[flag]
        keyed, flagged = _keyed_and_flagged(tmp_path, section, key, value)
        out = tmp_path / "results"
        assert _artifacts(["run", str(keyed)], out) == (EXIT_VALIDATION, None)
        key_err = capsys.readouterr().err
        assert _artifacts(["run", str(flagged), flag, value], out) == (EXIT_VALIDATION, None)
        flag_err = capsys.readouterr().err
        assert flag_err.startswith(f"error: {flag}")
        assert f"[{section}] {key}" in key_err
