import dataclasses
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _golden import GOLDEN, digest, fast_runs
from _loop_kernels import LOOP_KERNELS, _assign_loop, _elect_loop, _steady_loop

from deecsim import _kernels
from deecsim import (
    ASSIGN_CH,
    ASSIGN_DIRECT_BS,
    ASSIGN_NONE,
    RADIO_PROFILES,
    FieldGeometry,
    HeterogeneityParams,
    NetworkConfig,
    Protocol,
    ProtocolConfig,
    Simulation,
    aggregation_energy,
    distance,
    run,
    rx_energy,
    summarize,
    tx_energy,
)
from deecsim._kernels import _EPOCH_LIMIT
from deecsim.metrics import SimResult
from deecsim.protocols import P_MAX

DATA = Path(__file__).parent / "data"
LEACH = RADIO_PROFILES["leach-standard"]


def tiny_config(seed=1, kind=Protocol.EDDEEC, n=20, e0=0.05, max_rounds=300,
                a=2.0, b=3.5, **proto_kw):
    """Small, fast network that still dies within the round cap."""
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


class TestElection:
    def test_all_dead_elects_nobody(self, config_sec3, kernels):
        sim = Simulation(config_sec3(), backend=kernels)
        sim.alive[:] = False
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

    def test_elected_nodes_become_ineligible(self, config_sec3, kernels):
        sim = Simulation(config_sec3(), backend=kernels)
        ch = sim.elect_cluster_heads()
        assert ch.size > 0
        assert (sim.ineligible_until[ch] > 0).all()


class TestFormClusters:
    def test_single_head_takes_all(self, config_sec3, kernels):
        sim = Simulation(config_sec3(), backend=kernels)
        codes = sim.form_clusters(np.array([7], dtype=np.int64))
        assert codes[7] == ASSIGN_CH
        members = np.flatnonzero(codes >= 0)
        assert len(members) == 99
        assert (codes[members] == 7).all()

    def test_tie_breaks_to_lower_id(self, kernels):
        sim = Simulation(tiny_config(n=4, e0=0.5), backend=kernels)
        sim.x[:] = [0.0, 10.0, 10.0, 5.0]
        sim.y[:] = [0.0, 0.0, 10.0, 20.0]
        # node 0 is equidistant (10 m) from heads 1 and 2
        codes = sim.form_clusters(np.array([1, 2], dtype=np.int64))
        assert codes[0] == 1

    def test_no_heads_means_direct(self, config_sec3, kernels):
        sim = Simulation(config_sec3(), backend=kernels)
        sim.alive[3] = False
        codes = sim.form_clusters(np.array([], dtype=np.int64))
        assert codes[3] == ASSIGN_NONE
        alive = np.flatnonzero(sim.alive)
        assert (codes[alive] == ASSIGN_DIRECT_BS).all()


def _random_layout(seed, n, heads, side=100.0, lattice=None, dead_frac=0.0):
    """Random positions, optional snapping to a coarse lattice, random deaths
    and ``heads`` alive heads in ascending id order."""
    rng = np.random.default_rng(seed)
    x = rng.random(n) * side
    y = rng.random(n) * side
    if lattice is not None:
        x = np.round(x / lattice) * lattice
        y = np.round(y / lattice) * lattice
    alive = rng.random(n) >= dead_frac
    alive_ids = np.flatnonzero(alive)
    ch_ids = np.sort(rng.choice(alive_ids, size=min(heads, alive_ids.size), replace=False))
    return x, y, alive, ch_ids.astype(np.int64)


def _pairs(alive, ch_ids):
    return (int(alive.sum()) - ch_ids.size) * ch_ids.size


def _assert_matches_brute_force(x, y, alive, ch_ids):
    # the loop reference visits every head in id order
    expected = _assign_loop(x, y, alive, ch_ids)
    assert np.array_equal(_kernels._assign_numpy(x, y, alive, ch_ids), expected)


# the tiled path at layouts small enough for the pure-Python reference
_always_tiled = mock.patch.object(_kernels, "_TILE_MIN_PAIRS", 0)


class TestAssignExactness:
    """The numpy assignment equals a brute-force scan on both of its paths."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150),
           heads=st.integers(0, 25), dead_frac=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_below_crossover(self, seed, n, heads, dead_frac):
        x, y, alive, ch_ids = _random_layout(seed, n, heads, dead_frac=dead_frac)
        assert _pairs(alive, ch_ids) < _kernels._TILE_MIN_PAIRS
        _assert_matches_brute_force(x, y, alive, ch_ids)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(900, 1100),
           heads=st.integers(70, 100), lattice=st.sampled_from([None, 5.0]))
    @settings(max_examples=12, deadline=None)
    def test_above_crossover(self, seed, n, heads, lattice):
        x, y, alive, ch_ids = _random_layout(seed, n, heads, lattice=lattice, dead_frac=0.1)
        assert _pairs(alive, ch_ids) >= _kernels._TILE_MIN_PAIRS
        _assert_matches_brute_force(x, y, alive, ch_ids)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 300),
           heads=st.integers(32, 60), lattice=st.sampled_from([1.0, 2.0, 10.0]),
           side=st.sampled_from([10.0, 50.0]))
    @settings(max_examples=60, deadline=None)
    def test_lattice_ties_and_duplicates(self, seed, n, heads, lattice, side):
        # a coarse integer lattice makes equal distances and shared positions common
        x, y, alive, ch_ids = _random_layout(seed, n, heads, side=side, lattice=lattice)
        with _always_tiled:
            _assert_matches_brute_force(x, y, alive, ch_ids)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(80, 300),
           heads=st.integers(32, 80))
    @settings(max_examples=60, deadline=None)
    def test_heads_on_tile_edges(self, seed, n, heads):
        side = 64.0
        t = int(np.sqrt(heads // 8))
        x, y, alive, ch_ids = _random_layout(seed, n, heads, side=side, lattice=side / (2 * t))
        rng = np.random.default_rng(seed)
        x[ch_ids] = rng.integers(0, t + 1, ch_ids.size) * (side / t)
        y[ch_ids] = rng.integers(0, t + 1, ch_ids.size) * (side / t)
        # two members pin the bounding box to [0, side], so the edges are k * side / t
        x = np.append(x, [0.0, side])
        y = np.append(y, [0.0, side])
        alive = np.append(alive, [True, True])
        with _always_tiled:
            _assert_matches_brute_force(x, y, alive, ch_ids)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(80, 300),
           heads=st.integers(33, 60))
    @settings(max_examples=40, deadline=None)
    def test_heads_in_one_corner_fall_back(self, seed, n, heads):
        x, y, alive, ch_ids = _random_layout(seed, n, heads)
        x[ch_ids] *= 0.05
        y[ch_ids] *= 0.05
        # a member in the far corner, whose tile has no head near it
        ch_ids = ch_ids[ch_ids != 0]
        x[0] = y[0] = 100.0
        spy = mock.patch.object(_kernels, "_nearest_dense", wraps=_kernels._nearest_dense)
        with _always_tiled, spy as dense:
            _assert_matches_brute_force(x, y, alive, ch_ids)
        # the last call is the fallback search over every head
        fallback_members, _, fallback_heads = dense.call_args.args[:3]
        assert 100.0 in fallback_members
        assert fallback_heads.size == ch_ids.size

    @pytest.mark.parametrize("transpose", [False, True])
    def test_head_just_outside_the_grown_box(self, transpose):
        # 32 heads over [0, 64]^2 give 2 x 2 tiles of side 32 and a 16 m
        # margin.  The member sits on the left edge of the right column; head
        # 0 lies just outside that tile's grown box, 1 mm nearer than head 1
        # inside it, so the member must not keep the in-box result.
        delta = 1e-3
        hx = [16.0 - delta, 48.0 + 2 * delta] + list(np.linspace(0.0, 64.0, 30))
        hy = [8.0, 8.0] + [64.0] * 30
        x = np.array(hx + [32.0, 0.0, 64.0])
        y = np.array(hy + [8.0, 0.0, 64.0])
        if transpose:
            x, y = y, x
        alive = np.ones(x.size, dtype=bool)
        ch_ids = np.arange(32, dtype=np.int64)
        with _always_tiled:
            codes = _kernels._assign_numpy(x, y, alive, ch_ids)
            _assert_matches_brute_force(x, y, alive, ch_ids)
        assert codes[32] == 0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
           heads=st.integers(0, 40), dead_frac=st.sampled_from([0.0, 0.5, 0.95, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_dead_nodes_and_few_heads(self, seed, n, heads, dead_frac):
        x, y, alive, ch_ids = _random_layout(seed, n, heads, dead_frac=dead_frac)
        with _always_tiled:
            _assert_matches_brute_force(x, y, alive, ch_ids)
            _assert_matches_brute_force(x, y, alive, ch_ids[:1])

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
                codes = sim.form_clusters(ch_ids)
            member = sim.alive.copy()
            member[ch_ids] = False
            mi = np.flatnonzero(member)
            # tiled: no distance block comes near the full members x heads one
            blocks = [call.args[0].size * call.args[2].size for call in dense.call_args_list]
            assert max(blocks) * 20 < mi.size * ch_ids.size
            expected = np.full(config.n, ASSIGN_NONE, dtype=np.int64)
            expected[ch_ids] = ASSIGN_CH
            expected[mi] = _kernels._nearest_dense(
                sim.x[mi], sim.y[mi], sim.x[ch_ids], sim.y[ch_ids], ch_ids
            )
            assert np.array_equal(codes, expected), sim.round
            sim.steady_state(codes)


@st.composite
def election_cases(draw):
    """Inputs of one election round, covering dead and zero-energy nodes,
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
        "alive": np.array(column(st.booleans()), dtype=np.bool_),
        "ineligible_until": np.array(column(st.integers(0, 2 * rnd + 2)), dtype=np.int64),
        "u": np.array(column(st.floats(0.0, 1.0, exclude_max=True)), dtype=np.float64),
        "rnd": rnd,
        # p_opt * class weight for p_opt = 0.1 and weights 1, 1+a, 1+b
        "pw": np.array(column(st.sampled_from([0.1 * w for w in (1.0, 3.0, 4.5)])),
                       dtype=np.float64),
        # 1e-3 pushes most p past P_MAX
        "denom": draw(st.sampled_from([1e-3, 0.214, 1.07, 5.0])),
        # the rule off, or its threshold exactly at one node's residual
        "t_low": draw(st.one_of(st.just(-1.0), st.sampled_from(residual.tolist()))),
        # p_opt * w_low for EDDEEC at c = 0.1 and for DDEEC
        "pw_low": draw(st.sampled_from([0.1 * (0.1 * 4.5), 0.1 * 3.0])),
        "p_max": P_MAX,
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
            "residual": np.array([5.0, 1e-300]), "alive": np.ones(2, dtype=np.bool_),
            "ineligible_until": np.zeros(2, dtype=np.int64), "u": np.array([0.5, 0.0]),
            "rnd": 7, "pw": np.array([0.45, 0.45]), "denom": 1e-3, "t_low": -1.0,
            "pw_low": 0.0, "p_max": P_MAX,
        }
        heads, ineligible = _elect(_kernels._elect_numpy, case)
        assert heads.tolist() == [0, 1]
        assert ineligible.tolist() == [8, 7 + int(_EPOCH_LIMIT)]


class TestTileKeys:
    """Tile keys sort in the narrowest unsigned type that holds them."""

    # one head per tile below: t*t = 225, 225, 256, 256, 289 tiles, so the
    # largest key crosses 255, where the key type widens from uint8 to uint16
    @pytest.mark.parametrize("heads", [225, 255, 256, 288, 289])
    def test_tiled_equals_dense_across_uint8(self, heads):
        x, y, alive, ch_ids = _random_layout(heads, 600, heads)
        member = alive.copy()
        member[ch_ids] = False
        mi = np.flatnonzero(member)
        args = (x[mi], y[mi], x[ch_ids], y[ch_ids], ch_ids)
        spy = mock.patch.object(_kernels, "_tile_order", wraps=_kernels._tile_order)
        with mock.patch.object(_kernels, "_HEADS_PER_TILE", 1), spy as order:
            tiled = _kernels._nearest_tiled(*args)
        assert order.call_args.args[1] == math.isqrt(heads) ** 2
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
    heads, direct nodes and dead nodes, with each alive node's residual set
    below, at, just above or well above its charge, so that deaths,
    overdraft and exactly-zero remainders occur."""
    n = draw(st.integers(1, 40))
    roles = draw(st.lists(st.sampled_from(["head", "member", "direct", "dead"]),
                          min_size=n, max_size=n))
    heads = [i for i, role in enumerate(roles) if role == "head"]
    codes = np.full(n, ASSIGN_NONE, dtype=np.int64)
    for i, role in enumerate(roles):
        if role == "head":
            codes[i] = ASSIGN_CH
        elif role == "member" and heads:
            codes[i] = draw(st.sampled_from(heads))
        elif role != "dead":
            codes[i] = ASSIGN_DIRECT_BS
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a 200 m field puts member links and BS links on both sides of d0 = 70 m
    x = rng.random(n) * 200.0
    y = rng.random(n) * 200.0
    bits = float(LEACH.message_bits)
    tx_bs = _kernels._transmit(np.hypot(x - 100.0, y - 100.0), bits, LEACH.e_elec,
                               LEACH.eps_fs, LEACH.eps_mp, LEACH.d0)
    case = {
        "x": x, "y": y, "tx_bs": tx_bs,
        "residual": np.zeros(n), "alive": codes != ASSIGN_NONE, "codes": codes,
        "bits": bits, "e_elec": LEACH.e_elec, "eps_fs": LEACH.eps_fs,
        "eps_mp": LEACH.eps_mp, "e_da": LEACH.e_da, "d0": LEACH.d0,
    }
    (charge, *_), _, _ = _steady(_steady_loop, case)
    scale = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 1.0 + 2**-52, 3.0]),
                                   min_size=n, max_size=n)))
    case["residual"] = np.where(case["alive"], charge * scale, 0.0)
    return case


def _steady(kernel, case):
    case = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in case.items()}
    returned = kernel(**case)
    return returned, case["residual"], case["alive"]


class TestSteadyKernels:
    @given(case=steady_cases())
    @settings(max_examples=300, deadline=None)
    def test_numpy_equals_loop(self, case):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            returned, residual, alive = _steady(_kernels._steady_numpy, case)
        expected, expected_residual, expected_alive = _steady(_steady_loop, case)
        assert len(returned) == len(expected) == 5
        for got, want in zip(returned, expected):
            assert np.array_equal(got, want)
        assert returned[4].dtype == np.int64
        assert np.array_equal(residual, expected_residual)
        assert np.array_equal(alive, expected_alive)


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
    def _charges_oracle(self, sim, codes):
        """Recompute every node's round charge from the public scalar model."""
        radio = sim.config.radio
        bits = radio.message_bits
        bs = sim.config.geometry.bs_position
        n = sim.config.n
        charges = np.zeros(n)
        members = {}
        for i in range(n):
            code = int(codes[i])
            if code >= 0:
                d = distance((sim.x[i], sim.y[i]), (sim.x[code], sim.y[code]))
                charges[i] = tx_energy(bits, d, radio)
                members[code] = members.get(code, 0) + 1
            elif code == ASSIGN_DIRECT_BS:
                d = distance((sim.x[i], sim.y[i]), bs)
                charges[i] = tx_energy(bits, d, radio)
        for i in range(n):
            if int(codes[i]) == ASSIGN_CH:
                k = members.get(i, 0)
                d = distance((sim.x[i], sim.y[i]), bs)
                charges[i] = (
                    k * rx_energy(bits, radio)
                    + aggregation_energy(bits, k + 1, radio)
                    + tx_energy(bits, d, radio)
                )
        return charges

    def test_lone_head_without_members(self, kernels):
        sim = Simulation(tiny_config(n=3, e0=0.5), backend=kernels)
        sim.alive[:] = [True, False, False]
        codes = sim.form_clusters(np.array([0], dtype=np.int64))
        before = sim.residual.copy()
        out = sim.steady_state(codes)
        assert out.packets_to_bs == 1 and out.packets_to_ch == 0
        radio = sim.config.radio
        d = distance((sim.x[0], sim.y[0]), sim.config.geometry.bs_position)
        expected = aggregation_energy(4000, 1, radio) + tx_energy(4000, d, radio)
        assert before[0] - sim.residual[0] == pytest.approx(expected, rel=1e-12)

    def test_head_with_two_members(self, kernels):
        sim = Simulation(tiny_config(n=3, e0=0.5), backend=kernels)
        codes = sim.form_clusters(np.array([1], dtype=np.int64))
        before = sim.residual.copy()
        out = sim.steady_state(codes)
        assert out.packets_to_bs == 1 and out.packets_to_ch == 2
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
        codes = np.array([ASSIGN_DIRECT_BS] * 3 + [ASSIGN_NONE], dtype=np.int64)
        residual = np.array([1.0, 0.25, 0.125, 0.0])
        alive = codes != ASSIGN_NONE
        charge, overdraft, to_bs, to_ch, heads = kernels.steady(
            np.zeros(4), np.zeros(4), np.full(4, 0.25), residual, alive, codes,
            4000.0, LEACH.e_elec, LEACH.eps_fs, LEACH.eps_mp, LEACH.e_da, LEACH.d0,
        )
        assert charge.tolist() == [0.25, 0.25, 0.25, 0.0]
        # residual > charge: alive with the difference; residual == charge:
        # dead, no overdraft; residual < charge: dead, overdraft = shortfall
        assert residual.tolist() == [0.75, 0.0, 0.0, 0.0]
        assert alive.tolist() == [True, False, False, False]
        assert overdraft.tolist() == [0.0, 0.0, 0.125, 0.0]
        assert (to_bs, to_ch, heads.size) == (3, 0, 0)

    def test_ledger_closes_every_round(self, config_sec3, kernels):
        # independent oracle: recompute all charges through the scalar model
        # and compare with the residual decrease plus recorded overdraft
        sim = Simulation(config_sec3(seed=5, c=0.1), backend=kernels)
        for _ in range(400):
            if sim.alive_count() == 0:
                break
            before = sim.residual.copy()
            ch = sim.elect_cluster_heads()
            codes = sim.form_clusters(ch)
            expected = self._charges_oracle(sim, codes)
            out = sim.steady_state(codes)
            drop = float(before.sum() - sim.residual.sum())
            total = float(expected.sum())
            assert abs(total - (drop + out.overdraft_j)) <= 1e-9 * total
            assert out.charged_j == pytest.approx(total, rel=1e-9)


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
            out = sim.step()
            codes = out.assignment_codes
            assert (codes[seen_dead] == ASSIGN_NONE).all()
            assert not np.any(seen_dead[out.ch_ids])
            seen_dead |= ~sim.alive
        assert seen_dead.any()

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
        spy = mock.patch.object(_kernels, "_nearest_tiled", wraps=_kernels._nearest_tiled)
        with spy as tiled:
            result = run(config)
        assert digest([result]) == GOLDEN["runs"][name]
        # the n = 2000 run is in the set for the tiled search; the rest die uncapped
        if config.n > 100:
            assert tiled.called
        else:
            assert result.alive[-1] == 0 and result.rounds < config.max_rounds
