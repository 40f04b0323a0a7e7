import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _golden import GOLDEN, digest, fast_runs
from _loop_kernels import (
    LOOP_KERNELS,
    _assign_loop,
    _charges,
    _elect_loop,
    _steady_loop,
    aggregation_energy,
    distance,
    round_charges,
    rx_energy,
    tx_energy,
)

from deecsim import _kernels, engine
from deecsim import (
    AVG_ENERGY_FLOOR_J,
    RADIO_PROFILES,
    FieldGeometry,
    HeterogeneityParams,
    NetworkConfig,
    Protocol,
    ProtocolConfig,
    Simulation,
    run,
    summarize,
)
from deecsim._kernels import _EPOCH_LIMIT
from deecsim.cli import load_spec
from deecsim.metrics import SimResult
from deecsim.protocols import election_constants

DATA = Path(__file__).parent / "data"
LEACH = RADIO_PROFILES["leach-standard"]


def tiny_config(seed=1, kind=Protocol.EDDEEC, n=20, e0=0.05, max_rounds=300,
                a=2.0, b=3.5, **proto_kw):
    """Small, fast network.  At seed 1 its last node dies in round 652, so
    the default cap of 300 rounds stops it with nodes alive."""
    return NetworkConfig(
        n=n,
        geometry=FieldGeometry(50.0),
        het=HeterogeneityParams(m=0.5, m0=0.5, a=a, b=b, e0=e0),
        radio=LEACH,
        protocol=ProtocolConfig(kind=kind, **proto_kw),
        seed=seed,
        max_rounds=max_rounds,
    )


class TestInitialize:
    def test_sec3_class_quotas(self, config_sec3):
        sim = Simulation(config_sec3())
        counts = np.bincount(sim.node_class, minlength=3)
        assert counts.tolist() == [20, 32, 48]

    def test_sec3_energies(self, config_sec3):
        sim = Simulation(config_sec3())
        # estimator uses the nominal 214 J total; the physical node sum is
        # 20*0.5 + 32*1.5 + 48*2.25 = 166 J
        assert sim.estimate.e_total == 214.0
        assert float(sim.initial_energy.sum()) == pytest.approx(166.0, rel=1e-12)
        by_class = {c: float(sim.initial_energy[sim.node_class == c][0]) for c in range(3)}
        assert by_class[0] == 0.5
        assert by_class[1] == pytest.approx(1.5, rel=1e-15)
        assert by_class[2] == pytest.approx(2.25, rel=1e-15)

    def test_same_seed_same_layout(self, config_sec3):
        a = Simulation(config_sec3(seed=9))
        b = Simulation(config_sec3(seed=9))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(a.node_class, b.node_class)

    def test_different_seed_different_layout(self, config_sec3):
        a = Simulation(config_sec3(seed=9))
        b = Simulation(config_sec3(seed=10))
        assert not np.array_equal(a.x, b.x)

    def test_positions_inside_field(self, config_sec3):
        sim = Simulation(config_sec3())
        assert (sim.x >= 0).all() and (sim.x <= 100.0).all()
        assert (sim.y >= 0).all() and (sim.y <= 100.0).all()

    @pytest.mark.parametrize("n", [100, 600])
    @pytest.mark.parametrize("bs", [None, (0.0, 0.0)], ids=["centre", "corner"])
    @pytest.mark.parametrize("profile", sorted(RADIO_PROFILES))
    def test_bs_costs_are_the_scalar_law(self, config_sec3, profile, bs, n):
        config = config_sec3(radio=profile)
        sim = Simulation(dataclasses.replace(config, n=n, geometry=FieldGeometry(100.0, bs)))
        radio, position = config.radio, sim.config.geometry.bs_position
        d = [distance((x, y), position) for x, y in zip(sim.x.tolist(), sim.y.tolist())]
        assert sim.tx_bs.tolist() == [tx_energy(radio.message_bits, di, radio) for di in d]
        if bs is not None:  # the corner: both branches of the law
            assert min(d) < radio.d0 <= max(d)

    def test_config_validation(self, het_sec3, geometry_100):
        with pytest.raises(ValueError):
            NetworkConfig(
                n=0,
                geometry=geometry_100,
                radio=LEACH,
                het=het_sec3,
                protocol=ProtocolConfig(kind=Protocol.DEEC),
                seed=1,
            )
        with pytest.raises(ValueError):
            NetworkConfig(
                n=10,
                geometry=geometry_100,
                radio=LEACH,
                het=het_sec3,
                protocol=ProtocolConfig(kind=Protocol.DEEC),
                seed=1,
                max_rounds=0,
            )
        # counts must be integers: 2.5 rounds would run 3, and a float n or
        # seed would fail later inside numpy; numpy integers are accepted
        good = tiny_config()
        for field, bad in [("n", 20.0), ("seed", 1.5), ("max_rounds", 2.5), ("n", "20")]:
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                dataclasses.replace(good, **{field: bad})
        assert dataclasses.replace(good, n=np.int64(20), seed=np.uint32(1)).n == 20

    @pytest.mark.parametrize("part, fields", [
        ("geometry", ("side_m",)),
        *[("radio", (f.name,)) for f in dataclasses.fields(LEACH)],
        ("het", ("a", "b")), ("het", ("b",)), ("het", ("e0",)), ("protocol", ("c",)),
        ("het", ("m",)), ("het", ("m0",)), ("protocol", ("p_opt",)), ("protocol", ("z",)),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "0.5"])
    def test_non_finite_part_rejected(self, part, fields, bad):
        good = getattr(tiny_config(), part)
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(good, **dict.fromkeys(fields, bad))

    @pytest.mark.parametrize("bs", [(10.0, math.nan), (math.inf, 10.0), (1.0,),
                                    (1.0, 2.0, 3.0), ("1", "2"), 10.0])
    def test_non_finite_bs_rejected(self, bs):
        with pytest.raises(ValueError, match="finite"):
            FieldGeometry(50.0, bs)

    def test_protocol_kind_coerced(self):
        assert ProtocolConfig(kind="eddeec").kind is Protocol.EDDEEC
        with pytest.raises(ValueError):
            ProtocolConfig(kind="leach")

    def test_negative_seed_rejected(self):
        assert tiny_config(seed=0).seed == 0
        with pytest.raises(ValueError, match="seed must not be negative"):
            tiny_config(seed=-1)


class TestElection:
    def test_all_dead_elects_nobody(self, config_sec3, kernels):
        sim = Simulation(config_sec3(), backend=kernels)
        sim.residual[:] = 0.0
        assert sim.elect_cluster_heads().size == 0

    def test_saturated_threshold_forces_election(self, kernels):
        # single node, classes collapsed: p = 0.5 exactly, and at an odd
        # round the threshold is 0.5/(1-0.5) = 1, so the draw always wins
        config = NetworkConfig(
            n=1,
            geometry=FieldGeometry(10.0),
            radio=LEACH,
            het=HeterogeneityParams(m=0.0, m0=0.0, a=0.0, b=0.0, e0=0.5),
            protocol=ProtocolConfig(kind=Protocol.EDEEC, p_opt=0.5, avg_energy_mode="true"),
            seed=3,
            max_rounds=10,
        )
        sim = Simulation(config, backend=kernels)
        sim.round = 1
        assert sim.elect_cluster_heads().tolist() == [0]

    def test_golden_first_round(self, config_sec3, kernels):
        golden = json.loads((DATA / "golden_ch_round0.json").read_text())
        sim = Simulation(config_sec3(seed=golden["seed"], c=0.1), backend=kernels)
        assert sim.elect_cluster_heads().tolist() == golden["ch_ids"]

    def test_estimated_average_is_the_estimate(self, config_sec3):
        sim = Simulation(config_sec3())
        lifetime = int(sim.estimate.r_lifetime)
        # the linear estimate, then its floor past the estimated lifetime
        for r in (0, 1, 777, lifetime, lifetime + 1, 10**6):
            sim.round = r
            assert sim.average_energy() == sim.estimate.avg_energy_at(r)

    def test_true_average_floors_with_no_node_alive(self, config_sec3):
        sim = Simulation(config_sec3(avg_energy_mode="true"))
        assert sim.average_energy() == sim.residual.sum() / 100
        sim.residual[:] = 0.0
        assert sim.average_energy() == AVG_ENERGY_FLOOR_J

    def test_elected_nodes_become_ineligible(self, config_sec3, kernels):
        sim = Simulation(config_sec3(), backend=kernels)
        ch = sim.elect_cluster_heads()
        assert ch.size > 0
        assert (sim.ineligible_until[ch] > 0).all()


class _ShapeRecordingRng:
    """Stands in for a run's generator and records the shape of each draw."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)


def _record_uniforms(sim):
    """The list that each of ``sim``'s elections appends its uniforms to."""
    drawn = []
    elect = sim.kernels.elect

    def recording_elect(residual, ineligible_until, u, *rest):
        drawn.append(u.copy())
        return elect(residual, ineligible_until, u, *rest)

    sim.kernels = dataclasses.replace(sim.kernels, elect=recording_elect)
    return drawn


class TestDrawBuffer:
    """Elections take their uniforms from chunks drawn ahead, which are the
    stream of one ``random(n)`` per election, bit for bit."""

    def test_rounds_draw_the_stream_across_a_chunk_boundary(self, config_sec3):
        config = config_sec3(seed=7, max_rounds=200)
        n = config.n
        rows = engine._DRAW_CHUNK_BYTES // (8 * n)
        sim = Simulation(config)
        drawn = _record_uniforms(sim)
        for _ in range(rows + 5):
            sim.step()
        assert len(drawn) == rows + 5
        # the build draws the positions and then shuffles the classes, whose
        # draws depend on n only; every election then draws n uniforms
        stream = np.random.default_rng(config.seed)
        positions = stream.random((n, 2)) * config.geometry.side_m
        assert np.array_equal(positions[:, 0], sim.x) and np.array_equal(positions[:, 1], sim.y)
        stream.shuffle(np.empty(n, dtype=np.int8))
        for u in drawn:
            assert np.array_equal(u, stream.random(n))

    def test_draw_follows_elections_not_the_round_counter(self, config_sec3):
        # a test may set the round by hand; each election still takes the
        # stream's next n uniforms
        config = config_sec3(seed=7)
        stepped = Simulation(config)
        expected = _record_uniforms(stepped)
        for _ in range(3):
            stepped.step()
        sim = Simulation(config)
        drawn = _record_uniforms(sim)
        for rnd in (5, 1, 500):
            sim.round = rnd
            sim.elect_cluster_heads()
        assert len(drawn) == len(expected) == 3
        for u, want in zip(drawn, expected):
            assert np.array_equal(u, want)

    @pytest.mark.parametrize("n, max_rounds, elections, shapes", [
        (100, 200, 82, [(81, 100), (81, 100)]),
        (100, 50, 50, [(81, 100)]),  # the round cap does not shorten a chunk
        (5000, 12, 2, [(1, 5000), (1, 5000)]),  # two rows would pass the byte cap
    ])
    def test_chunks_stay_within_the_byte_cap(self, config_sec3, n, max_rounds, elections,
                                             shapes):
        sim = Simulation(dataclasses.replace(config_sec3(max_rounds=max_rounds), n=n))
        sim.rng = _ShapeRecordingRng(sim.rng)
        for _ in range(elections):
            sim.elect_cluster_heads()
        assert sim.rng.shapes == shapes
        assert all(rows * cols * 8 <= engine._DRAW_CHUNK_BYTES for rows, cols in shapes)


class TestFormClusters:
    def test_single_head_takes_all(self, config_sec3, kernels):
        sim = Simulation(config_sec3(), backend=kernels)
        ch_ids, members, nearest = sim.form_clusters(np.array([7], dtype=np.int64))
        assert ch_ids.tolist() == [7] and 7 not in members
        assert len(members) == 99
        assert (nearest == 7).all()

    def test_tie_breaks_to_lower_id(self, kernels):
        x = np.array([0.0, 10.0, 0.0, 5.0])
        y = np.array([0.0, 0.0, 10.0, 20.0])
        residual = np.ones(4)
        # node 0 is equidistant (10 m) from heads 1 and 2; node 3 is nearer 2
        for d2 in (None, _kernels._squared_distances(x[:, None], y[:, None], x, y)):
            members, nearest = kernels.assign(x, y, residual, np.array([1, 2]), d2)
            assert members.tolist() == [0, 3] and nearest.tolist() == [1, 2]

    def test_positions_are_read_only(self, config_sec3):
        # the pair tables and tx_bs are computed from them once per run
        sim = Simulation(config_sec3())
        for coordinate in (sim.x, sim.y):
            with pytest.raises(ValueError, match="read-only"):
                coordinate[0] = 0.0

    def test_no_heads_means_direct(self, config_sec3, kernels):
        sim = Simulation(config_sec3(), backend=kernels)
        sim.residual[3] = 0.0
        clusters = sim.form_clusters(np.array([], dtype=np.int64))
        _, members, nearest = clusters
        assert 3 not in members
        assert np.array_equal(members, np.flatnonzero(sim.alive))
        assert nearest.size == 0
        # the round records every member as a packet to the BS, none to heads
        sim.steady_state(clusters)
        result = sim.result()
        assert result.packets_bs.tolist() == [members.size] == [99]
        assert result.packets_ch.tolist() == result.ch_count.tolist() == [0]


class TestPairTables:
    def test_memory_guard_at_the_cutoff(self, config_sec3):
        n = _kernels._PAIR_TABLE_MAX_NODES
        sim = Simulation(dataclasses.replace(config_sec3(), n=n))
        assert sim.pair_d2.shape == sim.pair_hop.shape == (n, n)
        assert sim.pair_d2.nbytes + sim.pair_hop.nbytes == 16 * n**2
        over = Simulation(dataclasses.replace(config_sec3(), n=n + 1))
        assert over.pair_d2 is None and over.pair_hop is None
        # the per-node tables are built on both sides of the cutoff
        for built, size in ((sim, n), (over, n + 1)):
            assert built.tx_bs.shape == built._head_table.shape == (size,)

    def test_tables_are_the_kernels_expressions(self, config_sec3):
        sim = Simulation(config_sec3(radio="table1-verbatim"))
        d2, hop = sim.pair_d2, sim.pair_hop
        # bit-symmetric, so d2[heads].T[members] is the members x heads block
        assert np.array_equal(d2, d2.T) and np.array_equal(hop, hop.T)
        rows, cols = np.arange(0, 100, 3), np.arange(1, 100, 7)
        assert np.array_equal(
            d2[np.ix_(rows, cols)],
            _kernels._squared_distances(sim.x[rows, None], sim.y[rows, None],
                                        sim.x[cols], sim.y[cols]),
        )
        # pointwise too, over every pair of that block
        rows, cols = (ids.ravel() for ids in np.meshgrid(rows, cols, indexing="ij"))
        assert np.array_equal(
            d2[rows, cols],
            _kernels._squared_distances(sim.x[rows], sim.y[rows], sim.x[cols], sim.y[cols]),
        )
        radio = sim.config.radio
        d = np.sqrt(d2)
        assert (d < radio.d0).any() and (d >= radio.d0).any()  # both branches of the law
        assert np.array_equal(hop, _kernels._transmit(d, radio))


def _random_layout(seed, n, heads, side=100.0, lattice=None, dead_frac=0.0):
    """Random positions, optional snapping to a coarse lattice, residuals
    with random deaths at 0.0, and ``heads`` alive heads in ascending id
    order."""
    rng = np.random.default_rng(seed)
    x = rng.random(n) * side
    y = rng.random(n) * side
    if lattice is not None:
        x = np.round(x / lattice) * lattice
        y = np.round(y / lattice) * lattice
    alive = rng.random(n) >= dead_frac
    alive_ids = np.flatnonzero(alive)
    ch_ids = np.sort(rng.choice(alive_ids, size=min(heads, alive_ids.size), replace=False))
    return x, y, np.where(alive, 0.5, 0.0), ch_ids.astype(np.int64)


def _pairs(residual, ch_ids):
    return (np.count_nonzero(residual) - ch_ids.size) * ch_ids.size


def _assert_matches_brute_force(x, y, residual, ch_ids):
    # the loop reference visits every head in id order
    expected_members, expected_nearest = _assign_loop(x, y, residual, ch_ids, None)
    # with the pair table too; it needs neither the dense nor the tiled search
    d2 = _kernels._squared_distances(x[:, None], y[:, None], x, y)
    for table in (None, d2):
        members, nearest = _kernels._assign_numpy(x, y, residual, ch_ids, table)
        assert np.array_equal(members, expected_members)
        assert np.array_equal(nearest, expected_nearest)


# the tiled path at layouts small enough for the pure-Python reference
_always_tiled = mock.patch.object(_kernels, "_TILE_MIN_PAIRS", 0)


class TestAssignExactness:
    """The numpy assignment equals a brute-force scan on both of its paths."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150),
           heads=st.integers(0, 25), dead_frac=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_below_crossover(self, seed, n, heads, dead_frac):
        x, y, residual, ch_ids = _random_layout(seed, n, heads, dead_frac=dead_frac)
        assert _pairs(residual, ch_ids) < _kernels._TILE_MIN_PAIRS
        _assert_matches_brute_force(x, y, residual, ch_ids)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(900, 1100),
           heads=st.integers(70, 100), lattice=st.sampled_from([None, 5.0]))
    @settings(max_examples=12, deadline=None)
    def test_above_crossover(self, seed, n, heads, lattice):
        x, y, residual, ch_ids = _random_layout(seed, n, heads, lattice=lattice, dead_frac=0.1)
        assert _pairs(residual, ch_ids) >= _kernels._TILE_MIN_PAIRS
        _assert_matches_brute_force(x, y, residual, ch_ids)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 300),
           heads=st.integers(32, 60), lattice=st.sampled_from([1.0, 2.0, 10.0]),
           side=st.sampled_from([10.0, 50.0]))
    @settings(max_examples=60, deadline=None)
    def test_lattice_ties_and_duplicates(self, seed, n, heads, lattice, side):
        # a coarse integer lattice makes equal distances and shared positions common
        x, y, residual, ch_ids = _random_layout(seed, n, heads, side=side, lattice=lattice)
        with _always_tiled:
            _assert_matches_brute_force(x, y, residual, ch_ids)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(80, 300),
           heads=st.integers(32, 80))
    @settings(max_examples=60, deadline=None)
    def test_heads_on_tile_edges(self, seed, n, heads):
        side = 64.0
        t = int(np.sqrt(heads // 8))
        x, y, residual, ch_ids = _random_layout(seed, n, heads, side=side, lattice=side / (2 * t))
        rng = np.random.default_rng(seed)
        x[ch_ids] = rng.integers(0, t + 1, ch_ids.size) * (side / t)
        y[ch_ids] = rng.integers(0, t + 1, ch_ids.size) * (side / t)
        # two members pin the bounding box to [0, side], so the edges are k * side / t
        x = np.append(x, [0.0, side])
        y = np.append(y, [0.0, side])
        residual = np.append(residual, [0.5, 0.5])
        with _always_tiled:
            _assert_matches_brute_force(x, y, residual, ch_ids)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(80, 300),
           heads=st.integers(33, 60))
    @settings(max_examples=40, deadline=None)
    def test_heads_in_one_corner_fall_back(self, seed, n, heads):
        x, y, residual, ch_ids = _random_layout(seed, n, heads)
        x[ch_ids] *= 0.05
        y[ch_ids] *= 0.05
        # a member in the far corner, whose tile has no head near it
        ch_ids = ch_ids[ch_ids != 0]
        x[0] = y[0] = 100.0
        spy = mock.patch.object(_kernels, "_nearest_dense", wraps=_kernels._nearest_dense)
        with _always_tiled, spy as dense:
            _assert_matches_brute_force(x, y, residual, ch_ids)
        # the last call is the fallback search over every head
        fallback_members, _, fallback_heads = dense.call_args.args[:3]
        assert 100.0 in fallback_members
        assert fallback_heads.size == ch_ids.size

    @pytest.mark.parametrize("transpose", [False, True])
    def test_head_just_outside_the_grown_box(self, transpose):
        # 32 heads over [0, 64]^2 give 2 x 2 tiles of side 32 and a 16 m
        # margin.  The member sits on the left edge of the right column; head
        # 0 lies 1 nm outside that tile's grown box, 1 nm nearer than head 1
        # inside it, so the member must not keep the in-box result.  1 nm is
        # under the 8 nm the 1e-9 slack takes off the radius, so an
        # acceptance radius grown by the slack instead would keep it.
        delta = 1e-9
        hx = [16.0 - delta, 48.0 + 2 * delta] + list(np.linspace(0.0, 64.0, 30))
        hy = [8.0, 8.0] + [64.0] * 30
        x = np.array(hx + [32.0, 0.0, 64.0])
        y = np.array(hy + [8.0, 0.0, 64.0])
        if transpose:
            x, y = y, x
        residual = np.ones(x.size)
        ch_ids = np.arange(32, dtype=np.int64)
        with _always_tiled:
            members, nearest = _kernels._assign_numpy(x, y, residual, ch_ids, None)
            _assert_matches_brute_force(x, y, residual, ch_ids)
        assert members[0] == 32 and nearest[0] == 0

    def test_head_heavy_round_lists_near_heads_per_tile(self):
        # past the estimate's lifetime about 99% of alive nodes are heads:
        # 200 members and 19800 heads take the tiled path with 49 tiles a
        # side, and no (tiles x heads) mask may be built for them
        x, y, residual, ch_ids = _random_layout(1, 20000, 19800)
        members = np.setdiff1d(residual.nonzero()[0], ch_ids)
        t = math.isqrt(ch_ids.size // _kernels._HEADS_PER_TILE)
        assert t == 49 and members.size * ch_ids.size >= _kernels._TILE_MIN_PAIRS
        args = (x[members], y[members], x[ch_ids], y[ch_ids], ch_ids)
        tracemalloc.start()
        try:
            nearest = _kernels._nearest_tiled(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(nearest, _kernels._nearest_dense(*args))
        assert peak < t * t * ch_ids.size / 8

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
           heads=st.integers(0, 40), dead_frac=st.sampled_from([0.0, 0.5, 0.95, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_dead_nodes_and_few_heads(self, seed, n, heads, dead_frac):
        x, y, residual, ch_ids = _random_layout(seed, n, heads, dead_frac=dead_frac)
        with _always_tiled:
            _assert_matches_brute_force(x, y, residual, ch_ids)
            _assert_matches_brute_force(x, y, residual, ch_ids[:1])

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
           heads=st.one_of(st.just(0), st.just(1), st.integers(2, 60)),
           lattice=st.sampled_from([None, 1.0, 10.0]), side=st.sampled_from([10.0, 200.0]),
           dead_frac=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_pair_table_equals_coordinates(self, seed, n, heads, lattice, side, dead_frac):
        # lattice ties, shared positions, dead nodes and rounds without heads
        x, y, residual, ch_ids = _random_layout(seed, n, heads, side=side, lattice=lattice,
                                             dead_frac=dead_frac)
        _, d2, _, _ = _kernels._run_tables(x, y, (0.0, 0.0), LEACH)
        searched = AssertionError("the table path searched")
        with (mock.patch.object(_kernels, "_nearest_dense", side_effect=searched),
              mock.patch.object(_kernels, "_nearest_tiled", side_effect=searched)):
            members, nearest = _kernels._assign_numpy(x, y, residual, ch_ids, d2)
        expected_members, expected_nearest = _kernels._assign_numpy(x, y, residual, ch_ids, None)
        assert np.array_equal(members, expected_members)
        assert np.array_equal(nearest, expected_nearest)

    @pytest.mark.parametrize("tiled", [False, True], ids=["dense", "tiled"])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
           heads=st.one_of(st.just(0), st.just(1), st.integers(32, 60)),
           dead_frac=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_clusters_partition_the_alive_nodes(self, tiled, seed, n, heads, dead_frac):
        # 32 or more heads give the tiled search at least 2 x 2 tiles
        x, y, residual, ch_ids = _random_layout(seed, n, heads, dead_frac=dead_frac)
        with _always_tiled if tiled else contextlib.nullcontext():
            members, nearest = _kernels._assign_numpy(x, y, residual, ch_ids, None)
        assert members.dtype == nearest.dtype == np.int64
        assert np.intersect1d(members, ch_ids).size == 0
        assert np.array_equal(np.union1d(members, ch_ids), np.flatnonzero(residual))
        assert (np.diff(members) > 0).all()
        assert np.isin(nearest, ch_ids).all()
        # one head per member, and none on rounds without heads
        assert nearest.size == (members.size if ch_ids.size else 0)

    def test_dense_5k_run_matches_dense_block(self, het_sec3, geometry_100):
        config = NetworkConfig(
            n=5000, geometry=geometry_100, radio=LEACH, het=het_sec3,
            protocol=ProtocolConfig(kind=Protocol.EDDEEC, c=0.1), seed=42, max_rounds=12,
        )
        sim = Simulation(config)
        for _ in range(12):
            ch_ids = sim.elect_cluster_heads()
            spy = mock.patch.object(_kernels, "_nearest_dense", wraps=_kernels._nearest_dense)
            with spy as dense:
                clusters = sim.form_clusters(ch_ids)
            _, members, nearest = clusters
            member = sim.alive.copy()
            member[ch_ids] = False
            mi = np.flatnonzero(member)
            # tiled: no distance block comes near the full members x heads one
            blocks = [call.args[0].size * call.args[2].size for call in dense.call_args_list]
            assert max(blocks) * 20 < mi.size * ch_ids.size
            expected = _kernels._nearest_dense(
                sim.x[mi], sim.y[mi], sim.x[ch_ids], sim.y[ch_ids], ch_ids
            )
            assert np.array_equal(members, mi), sim.round
            assert np.array_equal(nearest, expected), sim.round
            sim.steady_state(clusters)


@st.composite
def election_cases(draw):
    """Inputs of one election round, covering dead nodes (residual 0.0),
    ``e == t_low``, clamping at ``P_MAX``, epochs at ``_EPOCH_LIMIT`` and
    nodes that are not yet eligible."""
    n = draw(st.integers(1, 40))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    # 1e-300 J gives p near 1e-302: 1/p is far past _EPOCH_LIMIT yet finite
    energy = st.one_of(st.just(0.0), st.floats(1e-300, 1e-15), st.floats(1e-3, 5.0))
    residual = np.array(column(energy), dtype=np.float64)
    rnd = draw(st.integers(0, 10_000))
    return {
        "residual": residual,
        "ineligible_until": np.array(column(st.integers(0, 2 * rnd + 2)), dtype=np.int64),
        "u": np.array(column(st.floats(0.0, 1.0, exclude_max=True)), dtype=np.float64),
        "rnd": rnd,
        # with factor 1, 1e-3 pushes most p past P_MAX
        "avg": draw(st.sampled_from([1e-3, 0.214, 1.07, 5.0])),
        # p_opt * class weight for p_opt = 0.1 and weights 1, 1+a, 1+b
        "pw": np.array(column(st.sampled_from([0.1 * w for w in (1.0, 3.0, 4.5)])),
                       dtype=np.float64),
        # 1 and the paper population's 1 + m*(a + m0*b) = 1 + 0.8*(2 + 0.6*3.5)
        "factor": draw(st.sampled_from([1.0, 1.0 + 0.8 * (2.0 + 0.6 * 3.5)])),
        # the rule off, or its threshold exactly at one node's residual
        "t_low": draw(st.one_of(st.just(-1.0), st.sampled_from(residual.tolist()))),
        # p_opt * w_low for EDDEEC at c = 0.1 and for DDEEC
        "pw_low": draw(st.sampled_from([0.1 * (0.1 * 4.5), 0.1 * 3.0])),
    }


def _elect(kernel, case):
    case = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in case.items()}
    heads = kernel(**case)
    return heads, case["ineligible_until"]


class TestElectionKernels:
    @given(case=election_cases())
    @settings(max_examples=300, deadline=None)
    def test_numpy_equals_loop(self, case):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by a zero probability
            heads, ineligible = _elect(_kernels._elect_numpy, case)
        expected_heads, expected_ineligible = _elect(_elect_loop, case)
        assert heads.dtype == np.int64
        assert np.array_equal(heads, expected_heads)
        assert np.array_equal(ineligible, expected_ineligible)

    def test_covers_clamp_and_epoch_limit(self):
        # p = min(0.45 * 5 / 1e-3, P_MAX) draws with epoch 1; p near 1e-302
        # draws with the epoch capped at _EPOCH_LIMIT
        case = {
            "residual": np.array([5.0, 1e-300]), "ineligible_until": np.zeros(2, dtype=np.int64),
            "u": np.array([0.5, 0.0]),
            "rnd": 7, "avg": 1e-3, "pw": np.array([0.45, 0.45]), "factor": 1.0,
            "t_low": -1.0, "pw_low": 0.0,
        }
        heads, ineligible = _elect(_kernels._elect_numpy, case)
        assert heads.tolist() == [0, 1]
        assert ineligible.tolist() == [8, 7 + int(_EPOCH_LIMIT)]


class TestTileKeys:
    """Tile keys sort in the narrowest unsigned type that holds them."""

    # one head per tile: t*t = 225, 225, 256, 256, 289 tiles, so the largest
    # key crosses 255, where the key type widens from uint8 to uint16.  The
    # last three layouts are not tiled, and the dense search decides: 31
    # heads at 8 a tile give one tile a side (with the crossover at 0 pairs,
    # as its 17.6k pairs are below it), a field moved 1e5 m out fails the
    # coordinate guard, and 40 heads at 1 a tile give 6 tiles a side but
    # only 22.4k pairs, below the crossover.
    @pytest.mark.parametrize("heads, per_tile, offset, min_pairs, tiles", [
        *(pytest.param(heads, 1, 0.0, None, math.isqrt(heads) ** 2, id=str(heads))
          for heads in (225, 255, 256, 288, 289)),
        pytest.param(31, 8, 0.0, 0, None, id="31-one-tile"),
        pytest.param(289, 1, 1e5, None, None, id="289-far-out"),
        pytest.param(40, 1, 0.0, None, None, id="40-below-crossover"),
    ])
    def test_tiled_equals_dense_across_uint8(self, heads, per_tile, offset, min_pairs, tiles):
        x, y, residual, ch_ids = _random_layout(heads, 600, heads)
        x += offset
        member = residual.astype(bool)
        member[ch_ids] = False
        mi = np.flatnonzero(member)
        args = (x[mi], y[mi], x[ch_ids], y[ch_ids], ch_ids)
        if min_pairs is None:
            min_pairs = _kernels._TILE_MIN_PAIRS
            assert (mi.size * heads < min_pairs) == (heads == 40)
        spy = mock.patch.object(_kernels, "_tile_order", wraps=_kernels._tile_order)
        with (mock.patch.object(_kernels, "_HEADS_PER_TILE", per_tile),
              mock.patch.object(_kernels, "_TILE_MIN_PAIRS", min_pairs), spy as order):
            tiled = _kernels._nearest_tiled(*args)
        if tiles is None:
            assert not order.called
        else:
            assert order.call_args.args[1] == tiles
        assert np.array_equal(tiled, _kernels._nearest_dense(*args))

    @pytest.mark.parametrize("tiles", [2, 256, 257, 65536, 65537, 2**32, 2**32 + 1])
    def test_order_is_the_stable_int64_order(self, tiles):
        # keys from the whole range, many repeated, and both ends of it; only
        # the key array is built, never a layout with this many tiles
        rng = np.random.default_rng(tiles)
        tile = rng.integers(0, tiles, 300)
        tile[rng.integers(0, 300, 40)] = tiles - 1
        tile[rng.integers(0, 300, 40)] = 0
        assert np.array_equal(_kernels._tile_order(tile, tiles),
                              np.argsort(tile, kind="stable"))


@st.composite
def steady_cases(draw):
    """Inputs of one steady-state round: members of random alive heads, lone
    heads, direct nodes on rounds without heads and dead nodes (residual
    0.0), with each alive node's residual set below, at, just above or well
    above its charge, so that deaths, overdraft and exactly-zero remainders
    occur.  In some rounds every alive node's residual is above its charge,
    so that no node is overdrawn.
    Positions may sit on a coarse lattice, where nodes share positions and
    members sit on their heads.  The radio is either shipped profile."""
    n = draw(st.integers(1, 40))
    roles = draw(st.lists(st.sampled_from(["head", "member", "dead"]),
                          min_size=n, max_size=n))
    if draw(st.booleans()):  # a round without heads: the members uplink directly
        roles = ["member" if role == "head" else role for role in roles]
    heads = [i for i, role in enumerate(roles) if role == "head"]
    members = [i for i, role in enumerate(roles) if role == "member"]
    nearest = [draw(st.sampled_from(heads)) for _ in members] if heads else []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a 200 m field puts member links and BS links on both sides of d0 = 70 m
    x = rng.random(n) * 200.0
    y = rng.random(n) * 200.0
    lattice = draw(st.sampled_from([None, 10.0, 100.0]))
    if lattice is not None:
        x = np.round(x / lattice) * lattice
        y = np.round(y / lattice) * lattice
    radio = draw(st.sampled_from(list(RADIO_PROFILES.values())))
    tx_bs = _kernels._transmit(np.hypot(x - 100.0, y - 100.0), radio)
    case = {
        "x": x, "y": y, "tx_bs": tx_bs,
        "residual": np.zeros(n),
        "ch_ids": np.array(heads, dtype=np.int64), "members": np.array(members, dtype=np.int64),
        "nearest": np.array(nearest, dtype=np.int64), "radio": radio,
        "hop": None, "head": _kernels._head_charge(np.arange(n), radio),
    }
    # the charges of the round, from the scalar law; a dead node is charged nothing
    charge = _charges(x, y, tx_bs, case["ch_ids"], case["members"], case["nearest"], radio)
    scales = [1.0 + 2**-52, 3.0] if draw(st.booleans()) else [0.5, 1.0, 1.0 + 2**-52, 3.0]
    scale = np.array(draw(st.lists(st.sampled_from(scales), min_size=n, max_size=n)))
    case["residual"] = np.where([role != "dead" for role in roles], charge * scale, 0.0)
    return case


def _steady(kernel, case):
    case = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in case.items()}
    return kernel(**case), case["residual"]


class TestSteadyKernels:
    @given(case=steady_cases())
    @settings(max_examples=300, deadline=None)
    def test_numpy_equals_loop(self, case):
        (charge, overdraft), expected_residual = _steady(_steady_loop, case)
        overdrawn = (overdraft > 0.0).any()
        # charged from the coordinates and from the hop table alike
        _, _, hop, _ = _kernels._run_tables(case["x"], case["y"], (100.0, 100.0), case["radio"])
        for table in (None, hop):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                returned, residual = _steady(_kernels._steady_numpy, {**case, "hop": table})
            assert len(returned) == 2
            assert np.array_equal(returned[0], charge)
            # no overdraft array exactly on rounds without an overdrawn node,
            # where it is all zeros; an exact depletion dies at +0.0 without one
            assert (returned[1] is None) == (not overdrawn)
            got = np.zeros(case["x"].size) if returned[1] is None else returned[1]
            assert np.array_equal(got, overdraft) and not np.signbit(got).any()
            assert np.array_equal(residual, expected_residual)
            assert not np.signbit(residual).any()


class TestLoopFlavorParity:
    """The loop reference kernels reproduce the default kernels run for run."""

    @pytest.mark.parametrize("kind, extra", [
        (Protocol.DEEC, {}),
        (Protocol.DDEEC, {}),
        (Protocol.EDDEEC, {"c": 0.1}),
    ])
    def test_identical_runs(self, config_sec3, kind, extra):
        # the verbatim radio kills nodes within tens of rounds: deaths, dead
        # nodes and rounds without heads all occur before the cap
        config = config_sec3(kind=kind, seed=1, max_rounds=150, radio="table1-verbatim",
                             **extra)
        a = run(config)
        b = run(config, backend=LOOP_KERNELS)
        for field in dataclasses.fields(SimResult):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name
        assert a.alive[-1] < config.n // 10
        assert (a.ch_count == 0).any()
        assert (a.overdraft_j > 0).any()


class TestSteadyState:
    def test_lone_head_without_members(self, kernels):
        sim = Simulation(tiny_config(n=3, e0=0.5), backend=kernels)
        sim.residual[1:] = 0.0
        clusters = sim.form_clusters(np.array([0], dtype=np.int64))
        before = sim.residual.copy()
        sim.steady_state(clusters)
        result = sim.result()
        assert result.packets_bs.tolist() == [1] and result.packets_ch.tolist() == [0]
        radio = sim.config.radio
        d = distance((sim.x[0], sim.y[0]), sim.config.geometry.bs_position)
        expected = aggregation_energy(4000, 1, radio) + tx_energy(4000, d, radio)
        assert before[0] - sim.residual[0] == pytest.approx(expected, rel=1e-12)

    def test_head_with_two_members(self, kernels):
        sim = Simulation(tiny_config(n=3, e0=0.5), backend=kernels)
        clusters = sim.form_clusters(np.array([1], dtype=np.int64))
        before = sim.residual.copy()
        sim.steady_state(clusters)
        result = sim.result()
        assert result.packets_bs.tolist() == [1] and result.packets_ch.tolist() == [2]
        radio = sim.config.radio
        d = distance((sim.x[1], sim.y[1]), sim.config.geometry.bs_position)
        expected = (
            2 * rx_energy(4000, radio)
            + aggregation_energy(4000, 3, radio)
            + tx_energy(4000, d, radio)
        )
        assert before[1] - sim.residual[1] == pytest.approx(expected, rel=1e-12)

    def test_death_rule(self, kernels):
        # three direct nodes paying tx_bs = 0.25 J from residuals above, at
        # and below it, and one node dead at round start; dyadic values keep
        # every difference exact
        no_heads = np.array([], dtype=np.int64)
        residual = np.array([1.0, 0.25, 0.125, 0.0])
        charge, overdraft = kernels.steady(
            np.zeros(4), np.zeros(4), np.full(4, 0.25), residual,
            no_heads, np.array([0, 1, 2]), no_heads, LEACH, None, None,
        )  # a round without heads reads neither table
        assert charge.tolist() == [0.25, 0.25, 0.25, 0.0]
        # residual > charge: alive with the difference; residual == charge:
        # dead at +0.0, no overdraft; residual < charge: dead at +0.0,
        # overdraft = shortfall
        assert residual.tolist() == [0.75, 0.0, 0.0, 0.0]
        assert not np.signbit(residual).any()
        assert overdraft.tolist() == [0.0, 0.0, 0.125, 0.0]

    def test_round_without_a_death_records_positive_zero(self, config_sec3, kernels):
        # dead nodes at zero, and no alive node dies: the overdraft is +0.0
        sim = Simulation(config_sec3(), backend=kernels)
        sim.residual[:3] = 0.0
        sim.step()
        result = sim.result()
        assert result.alive.tolist() == [97]
        assert result.overdraft_j.tolist() == [0.0]
        assert math.copysign(1.0, result.overdraft_j[0]) == 1.0

    def test_ledger_closes_every_round(self, config_sec3):
        # independent oracle: recompute all charges through the scalar law
        # and compare with the residual decrease plus recorded overdraft; the
        # loop kernels charge through that same law, so they are not run here
        sim = Simulation(config_sec3(seed=5, c=0.1))
        totals, drops = [], []
        for _ in range(400):
            if sim.alive_count() == 0:
                break
            before = sim.residual.copy()
            ch = sim.elect_cluster_heads()
            clusters = sim.form_clusters(ch)
            totals.append(float(round_charges(sim, clusters).sum()))
            sim.steady_state(clusters)
            drops.append(float(before.sum() - sim.residual.sum()))
        result = sim.result()
        assert result.rounds == len(totals)
        for total, drop, charged, overdraft in zip(
            totals, drops, result.charged_j, result.overdraft_j
        ):
            assert abs(total - (drop + overdraft)) <= 1e-9 * total
            assert charged == pytest.approx(total, rel=1e-9)


class TestLiveness:
    """The residual is the only record of liveness: a node is alive while it
    is positive, and dead at exactly +0.0."""

    def test_alive_is_read_only(self, config_sec3):
        # a derived mask: a write to it could not kill a node, so none is allowed
        sim = Simulation(config_sec3())
        with pytest.raises(ValueError, match="read-only"):
            sim.alive[0] = False
        assert np.array_equal(sim.alive, sim.residual > 0.0)

    @pytest.mark.parametrize("mode", ["estimated", "true"])
    def test_dead_nodes_are_never_elected_listed_or_charged(self, config_sec3, kernels, mode):
        # the verbatim radio runs to the last death in about 150 rounds,
        # with overdrawn nodes and rounds without heads on the way
        config = config_sec3(seed=1, radio="table1-verbatim", avg_energy_mode=mode)
        sim = Simulation(config, backend=kernels)
        charges = []
        steady = sim.kernels.steady

        def recording_steady(*args):
            charge, overdraft = steady(*args)
            charges.append(charge)
            return charge, overdraft

        sim.kernels = dataclasses.replace(sim.kernels, steady=recording_steady)
        counts = []
        while sim.alive_count() and sim.round < config.max_rounds:
            dead = sim.residual == 0.0
            ch_ids = sim.elect_cluster_heads()
            clusters = sim.form_clusters(ch_ids)
            sim.steady_state(clusters)
            assert not dead[ch_ids].any() and not dead[clusters[1]].any(), sim.round
            assert not charges[-1][dead].any(), sim.round
            # no residual is negative or -0.0
            assert not np.signbit(sim.residual).any(), sim.round
            counts.append(np.count_nonzero(sim.residual))
        result = sim.result()
        assert result.alive.tolist() == counts and counts[-1] == 0
        assert (result.ch_count == 0).any() and (result.overdraft_j > 0.0).any()

    def test_exact_depletion_dies_without_overdraft(self, config_sec3, kernels):
        # on a round without heads node 7 pays its tx_bs, exactly its residual
        sim = Simulation(config_sec3(), backend=kernels)
        clusters = sim.form_clusters(np.array([], dtype=np.int64))
        sim.residual[7] = sim.tx_bs[7]
        residual = sim.residual.copy()
        _, overdraft = kernels.steady(sim.x, sim.y, sim.tx_bs, residual, *clusters,
                                      sim.config.radio, None, None)
        # nobody is overdrawn: the numpy kernel returns no array, the loop all zeros
        assert (overdraft is None) == (kernels.name == "numpy")
        assert overdraft is None or overdraft.tolist() == [0.0] * 100
        sim.steady_state(clusters)
        assert np.array_equal(sim.residual, residual) and sim.residual[7] == 0.0
        assert not np.signbit(sim.residual).any()
        result = sim.result()
        assert result.alive.tolist() == [99]
        assert result.overdraft_j.tolist() == [0.0]
        assert math.copysign(1.0, result.overdraft_j[0]) == 1.0


class TestRun:
    def test_degenerate_energy_dies_in_round_zero(self):
        result = run(tiny_config(e0=1e-9, max_rounds=50))
        summary = summarize(result)
        assert summary.first_dead == 0 and summary.all_dead == 0
        assert result.rounds == 1

    def test_determinism(self, config_sec3):
        a = run(config_sec3(seed=11, max_rounds=600))
        b = run(config_sec3(seed=11, max_rounds=600))
        for field in ("alive", "packets_bs", "packets_ch", "residual_j", "ch_count",
                      "charged_j", "overdraft_j"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_series_invariants(self, config_sec3):
        result = run(config_sec3(seed=2))
        alive = result.alive
        assert (np.diff(alive) <= 0).all()
        assert (np.diff(result.packets_bs) >= 1).all()
        assert result.packets_bs[0] >= 1
        assert (result.residual_j >= 0).all()
        assert (np.diff(result.residual_j) <= 1e-12).all()
        summary = summarize(result)
        assert summary.all_dead is not None
        assert result.rounds == summary.all_dead + 1
        assert summary.first_dead <= summary.half_dead <= summary.all_dead

    def test_round_cap(self, config_sec3):
        result = run(config_sec3(seed=2, max_rounds=50))
        assert result.rounds == 50
        assert summarize(result).all_dead is None

    def test_dead_nodes_never_reappear(self, config_sec3):
        sim = Simulation(config_sec3(seed=4))
        seen_dead = np.zeros(100, dtype=bool)
        for _ in range(3000):
            if sim.alive_count() == 0:
                break
            ch_ids = sim.elect_cluster_heads()
            clusters = sim.form_clusters(ch_ids)
            sim.steady_state(clusters)
            _, members, _ = clusters
            assert not np.any(seen_dead[members])
            assert not np.any(seen_dead[ch_ids])
            seen_dead |= ~sim.alive
        assert seen_dead.any()

    @pytest.mark.parametrize("max_rounds, dies", [(1000, True), (40, False)],
                             ids=["dies", "capped"])
    def test_stepped_result_matches_run(self, kernels, max_rounds, dies):
        config = tiny_config(max_rounds=max_rounds)
        sim = Simulation(config, backend=kernels)
        while sim.round < max_rounds and sim.alive_count():
            sim.step()
        stepped = sim.result()
        # the network dies before the cap, or the cap stops it with nodes alive
        assert (stepped.rounds < max_rounds, stepped.alive[-1] == 0) == (dies, dies)
        assert digest([stepped]) == digest([run(config, backend=kernels)])

    def test_collapsed_classes_make_protocols_identical(self):
        # with a = b = 0 every weight is 1, so all four protocols (any z,
        # c = 1) must produce identical runs under the same seed
        base = dict(n=30, e0=0.04, max_rounds=400, seed=17, a=0.0, b=0.0)
        results = [
            run(tiny_config(kind=kind, **base, **extra))
            for kind, extra in [
                (Protocol.DEEC, {}),
                (Protocol.EDEEC, {}),
                (Protocol.EDDEEC, {"z": 0.0}),
                (Protocol.EDDEEC, {"z": 0.7, "c": 1.0}),
                (Protocol.DDEEC, {"z": 0.7}),
            ]
        ]
        first = results[0]
        for other in results[1:]:
            assert np.array_equal(first.alive, other.alive)
            assert np.array_equal(first.residual_j, other.residual_j)
            assert np.array_equal(first.packets_bs, other.packets_bs)

    @pytest.mark.parametrize("base, twin", [(Protocol.DEEC, Protocol.DDEEC),
                                            (Protocol.EDEEC, Protocol.EDDEEC)],
                             ids=["deec-ddeec", "edeec-eddeec"])
    def test_twins_part_only_at_low_energy(self, base, twin):
        # DDEEC is DEEC, and EDDEEC is EDEEC, plus the low-energy rule, which
        # acts only at or below z*e0: every series agrees before the first
        # round that starts with an alive node there, and the twins part by
        # round 600 (at rounds 536/404/454 and 493/518/475)
        spec = load_spec("paper-sec3")
        for seed in spec.seeds[:3]:
            config, twin_config = (dataclasses.replace(spec.network_config(kind, seed),
                                                       max_rounds=600) for kind in (base, twin))
            t_low = election_constants(twin_config.protocol, twin_config.het)[2]
            sim = Simulation(config)
            first_low = None
            while sim.round < 600 and sim.alive_count():
                if first_low is None and (sim.residual[sim.alive] <= t_low).any():
                    first_low = sim.round  # 383/396/397 for DEEC, 384/394/403 for EDEEC
                sim.step()
            a, b = sim.result(), run(twin_config)
            series = [f.name for f in dataclasses.fields(SimResult)
                      if isinstance(getattr(a, f.name), np.ndarray)]
            assert first_low is not None and len(series) == 7
            for name in series:
                assert np.array_equal(getattr(a, name)[:first_low],
                                      getattr(b, name)[:first_low]), (seed, name)
            assert any(not np.array_equal(getattr(a, name), getattr(b, name))
                       for name in series), seed

    def test_true_average_mode_runs(self, config_sec3):
        estimated = run(config_sec3(seed=3, max_rounds=400))
        true_mode = run(config_sec3(seed=3, max_rounds=400, avg_energy_mode="true"))
        assert not np.array_equal(estimated.residual_j, true_mode.residual_j)


class TestGoldenDigests:
    """Every field of every run matches its digest in ``data/golden.json``."""

    def test_every_recorded_run_is_checked(self):
        assert set(fast_runs()) == set(GOLDEN["runs"])

    @pytest.mark.parametrize("name", list(GOLDEN["runs"]))
    def test_run(self, name):
        config = fast_runs()[name]
        tables = []

        def record_tables(*args):
            tables.append(_kernels._run_tables(*args))
            return tables[-1]

        # _tile_order runs only once the tiled search has built its tiles
        tiled_spy = mock.patch.object(_kernels, "_tile_order", wraps=_kernels._tile_order)
        tables_spy = mock.patch.object(engine, "_run_tables", side_effect=record_tables)
        with tiled_spy as tiled, tables_spy:
            result = run(config)
        assert digest([result]) == GOLDEN["runs"][name]
        (_, d2, hop, _), = tables
        # the n = 2000 run is in the set for the tiled search without pair
        # tables; the rest run on the tables and die uncapped
        if config.n > 100:
            assert config.n > _kernels._PAIR_TABLE_MAX_NODES
            assert d2 is None and hop is None
            assert tiled.called
        else:
            assert d2.shape == hop.shape == (config.n, config.n)
            assert not tiled.called
            assert result.alive[-1] == 0 and result.rounds < config.max_rounds


# Run in the child: the module named by argv[1] lists numpy's dispatch
# targets, and none may still be enabled; then pytest reruns argv[2].
_BASELINE_CHILD = """
import importlib, sys, pytest
umath = importlib.import_module(sys.argv[1])
enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
assert not enabled, f"dispatch targets still enabled: {enabled}"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[2]]))
"""


def test_golden_digests_at_baseline_dispatch():
    """The golden fast set holds with numpy's SIMD dispatch cut to its
    baseline loops, in a child process: the variable acts only there."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(umath.__cpu_dispatch__)}
    env.pop("NPY_ENABLE_CPU_FEATURES", None)  # numpy refuses both at once
    child = subprocess.run(
        [sys.executable, "-c", _BASELINE_CHILD, umath.__name__,
         f"{__file__}::{TestGoldenDigests.__name__}"],
        cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout + child.stderr
