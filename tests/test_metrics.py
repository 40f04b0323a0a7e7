import re

import numpy as np
import pytest

from deecsim import (
    BatchSummary,
    SimResult,
    emit_plot_svg,
    emit_series_csv,
    run,
    summarize,
)
from deecsim.metrics import CSV_HEADER, seed_mean_series

from test_engine import tiny_config


def fake_result(alive, protocol="eddeec", seed=1, n=None, max_rounds=1000):
    alive = np.asarray(alive, dtype=np.int64)
    rounds = len(alive)
    n = n if n is not None else int(alive[0])
    packets = np.cumsum(np.maximum(alive, 1))
    return SimResult(
        protocol=protocol,
        seed=seed,
        n=n,
        alive=alive,
        packets_bs=packets,
        packets_ch=packets * 2,
        residual_j=np.linspace(100.0, 0.0, rounds),
        ch_count=np.ones(rounds, dtype=np.int64),
        charged_j=np.full(rounds, 0.5),
        overdraft_j=np.zeros(rounds),
        max_rounds=max_rounds,
    )


class TestSummarize:
    def test_no_deaths_reported_as_not_reached(self):
        summary = summarize(fake_result([100] * 40))
        assert summary.first_dead is None
        assert summary.half_dead is None
        assert summary.all_dead is None

    def test_first_dead_is_first_drop_index(self):
        summary = summarize(fake_result([100, 100, 99, 98, 98]))
        assert summary.first_dead == 2

    def test_half_and_all_dead(self):
        summary = summarize(fake_result([100, 60, 50, 10, 0, 0], max_rounds=6))
        assert summary.first_dead == 1
        assert summary.half_dead == 2  # alive <= n/2
        assert summary.all_dead == 4

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            summarize(fake_result([], n=10))

    def test_totals_taken_from_last_round(self):
        result = fake_result([10, 9, 0], n=10)
        summary = summarize(result)
        assert summary.total_packets_bs == int(result.packets_bs[-1])
        assert summary.rounds == 3


class TestBatchSummary:
    def test_aggregate_ordering_invariant(self):
        results = [
            fake_result([10, 9, 5, 0], n=10, seed=s) for s in range(5)
        ]
        batch = BatchSummary.from_results(results)
        for agg in (batch.first_dead, batch.half_dead, batch.all_dead, batch.total_packets):
            assert agg.minimum <= agg.mean <= agg.maximum

    def test_censors_unreached_at_series_length(self):
        batch = BatchSummary.from_results([fake_result([10] * 25, n=10)])
        assert batch.first_dead.mean == 25.0
        assert batch.all_dead.mean == 25.0

    def test_mixed_protocols_rejected(self):
        with pytest.raises(ValueError):
            BatchSummary.from_results(
                [fake_result([5, 0], n=5), fake_result([5, 0], n=5, protocol="deec")]
            )


class TestCsv:
    def test_empty_results_give_header_only(self, tmp_path):
        dest = tmp_path / "series.csv"
        emit_series_csv([], dest)
        assert dest.read_text() == CSV_HEADER + "\n"

    def test_rows_counted_and_sorted(self, tmp_path):
        results = [
            fake_result([5, 4, 0], n=5, seed=9),
            fake_result([5, 5, 1], n=5, seed=2),
        ]
        dest = tmp_path / "series.csv"
        emit_series_csv(results, dest)
        lines = dest.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        seeds = [int(line.split(",")[1]) for line in lines[1:]]
        rounds = [int(line.split(",")[2]) for line in lines[1:]]
        assert seeds == [2, 2, 2, 9, 9, 9]
        assert rounds == [0, 1, 2, 0, 1, 2]

    def test_rerun_byte_identical(self, tmp_path):
        results = [fake_result([5, 4, 0], n=5, seed=1)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_series_csv(results, a)
        emit_series_csv(results, b)
        assert a.read_bytes() == b.read_bytes()

    def test_mixed_protocols_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_series_csv(
                [fake_result([5, 0], n=5), fake_result([5, 0], n=5, protocol="deec")],
                tmp_path / "x.csv",
            )

    def test_float_field_has_at_most_9_significant_digits(self, tmp_path):
        result = fake_result([5, 4, 0], n=5)
        result.residual_j = np.array([1.2345678949, 2.0 / 3.0, 100.0])
        dest = tmp_path / "series.csv"
        emit_series_csv([result], dest)
        for line in dest.read_text().splitlines()[1:]:
            residual = line.split(",")[6]
            digits = re.sub(r"[^0-9]", "", residual.split("e")[0]).lstrip("0")
            assert len(digits) <= 9
            assert "," not in residual

    def test_exact_rows(self, tmp_path):
        # int64 counts print as integers; the residual carries %.9g, so
        # 0.1 + 0.2 = 0.30000000000000004 prints as 0.3
        result = fake_result([5, 4, 1, 0], n=5, seed=7)
        result.packets_bs = np.array([5, 9, 10, 2**40], dtype=np.int64)
        result.residual_j = np.array([0.0, 1e-10, 0.1 + 0.2, 2.0 / 3.0])
        dest = tmp_path / "series.csv"
        emit_series_csv([result], dest)
        assert dest.read_bytes().decode("ascii").split("\n") == [
            CSV_HEADER,
            "eddeec,7,0,5,5,10,0,1",
            "eddeec,7,1,4,9,18,1e-10,1",
            "eddeec,7,2,1,10,20,0.3,1",
            "eddeec,7,3,0,1099511627776,22,0.666666667,1",
            "",
        ]

    def test_roundtrip_summarize(self, tmp_path):
        # parsing the CSV back reproduces the series the summary was built on
        result = run(tiny_config(seed=8, max_rounds=200))
        dest = tmp_path / "series.csv"
        emit_series_csv([result], dest)
        lines = dest.read_text().splitlines()[1:]
        alive = np.array([int(l.split(",")[3]) for l in lines], dtype=np.int64)
        packets = np.array([int(l.split(",")[4]) for l in lines], dtype=np.int64)
        assert np.array_equal(alive, result.alive)
        assert np.array_equal(packets, result.packets_bs)
        parsed = fake_result(alive, n=result.n)
        parsed.packets_bs = packets
        assert summarize(parsed).first_dead == summarize(result).first_dead
        assert summarize(parsed).all_dead == summarize(result).all_dead


class TestSeedMeanSeries:
    def test_alive_pads_with_zero(self):
        results = [fake_result([4, 2, 0], n=4), fake_result([4, 4, 2, 2, 0], n=4)]
        mean = seed_mean_series(results, "alive_vs_round")
        assert len(mean) == 5
        assert mean[0] == 4.0
        assert mean[3] == 1.0  # (0 + 2) / 2

    def test_packets_pad_with_final_value(self):
        a = fake_result([4, 0], n=4)
        b = fake_result([4, 4, 4, 0], n=4)
        mean = seed_mean_series([a, b], "packets_vs_round")
        last_a = float(a.packets_bs[-1])
        assert mean[-1] == (last_a + float(b.packets_bs[-1])) / 2


class TestSvg:
    def test_single_result_polyline_matches_series_length(self, tmp_path):
        result = fake_result([10, 9, 8, 5, 0], n=10)
        dest = tmp_path / "alive.svg"
        emit_plot_svg([result], "alive_vs_round", dest)
        text = dest.read_text()
        polylines = re.findall(r'<polyline[^>]*points="([^"]*)"', text)
        assert len(polylines) == 1
        assert len(polylines[0].split()) == result.rounds

    def test_alive_polyline_non_increasing(self, tmp_path):
        result = run(tiny_config(seed=4, max_rounds=150))
        dest = tmp_path / "alive.svg"
        emit_plot_svg([result], "alive_vs_round", dest)
        points = re.findall(r'<polyline[^>]*points="([^"]*)"', dest.read_text())[0]
        ys = [float(pt.split(",")[1]) for pt in points.split()]
        # svg y grows downward, so alive values map to non-decreasing y
        assert all(y2 >= y1 - 1e-9 for y1, y2 in zip(ys, ys[1:]))

    def test_four_protocol_legend(self, tmp_path):
        results = [
            fake_result([5, 0], n=5, protocol=p)
            for p in ("deec", "ddeec", "edeec", "eddeec")
        ]
        dest = tmp_path / "packets.svg"
        emit_plot_svg(results, "packets_vs_round", dest)
        text = dest.read_text()
        for label in ("DEEC", "DDEEC", "EDEEC", "EDDEEC"):
            assert len(re.findall(f">{label}<", text)) == 1
        assert len(re.findall(r"<polyline", text)) == 4

    def test_rerun_byte_identical(self, tmp_path):
        results = [fake_result([6, 3, 0], n=6)]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot_svg(results, "alive_vs_round", a)
        emit_plot_svg(results, "alive_vs_round", b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_svg([fake_result([5, 0], n=5)], "energy_vs_round", tmp_path / "x.svg")

    def test_axis_labels_present(self, tmp_path):
        dest = tmp_path / "alive.svg"
        emit_plot_svg([fake_result([5, 0], n=5)], "alive_vs_round", dest)
        text = dest.read_text()
        assert ">round<" in text
        assert "alive nodes" in text
