import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deecsim import (
    AVG_ENERGY_FLOOR_J,
    P_MAX,
    RADIO_PROFILES,
    EnergyEstimate,
    FieldGeometry,
    HeterogeneityParams,
    NodeClass,
    Protocol,
    ProtocolConfig,
    expected_distances,
    make_energy_estimate,
)
from deecsim._kernels import _EPOCH_LIMIT, _probability, _rotation
from deecsim.protocols import election_constants

LEACH = RADIO_PROFILES["leach-standard"]
TABLE1 = RADIO_PROFILES["table1-verbatim"]


def probability(residual, avg, het, cfg, node_class=NodeClass.NORMAL):
    """The election kernel's probability for one node of ``node_class``."""
    pw_by_class, *rest = election_constants(cfg, het)
    return float(_probability(np.array([residual]), avg, pw_by_class[[node_class]], *rest)[0])


def threshold(p, r):
    """The rotating threshold of probability ``p`` at round ``r``."""
    return float(_rotation(np.array([p]), r)[1][0])


def epoch_length(p):
    return int(_rotation(np.array([p]), 0)[0][0])


class TestHeterogeneityParams:
    def test_sec3_class_counts(self, het_sec3):
        assert het_sec3.class_counts(100) == (20, 32, 48)

    def test_sec3_total_energy_exact(self, het_sec3):
        assert het_sec3.total_energy(100) == 214.0

    def test_total_energy_matches_factor(self, het_sec3):
        factor = het_sec3.total_energy_factor
        assert factor == pytest.approx(4.28, rel=1e-12)
        assert het_sec3.total_energy(100) == 100 * 0.5 * factor
        assert het_sec3.total_energy(100) / 100 == 0.5 * factor

    @given(
        n=st.integers(min_value=1, max_value=100_000),
        m=st.floats(min_value=0.0, max_value=1.0),
        m0=st.floats(min_value=0.0, max_value=1.0),
        a=st.floats(min_value=0.0, max_value=10.0),
        extra=st.floats(min_value=0.0, max_value=10.0),
        e0=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_total_energy_is_the_factor_form(self, n, m, m0, a, extra, e0):
        # the estimate's E_total and the election's factor: one float form
        het = HeterogeneityParams(m=m, m0=m0, a=a, b=a + extra, e0=e0)
        assert het.total_energy(n) == n * e0 * het.total_energy_factor

    def test_initial_energies(self, het_sec3):
        assert het_sec3.initial_energy(NodeClass.NORMAL) == 0.5
        assert het_sec3.initial_energy(NodeClass.ADVANCED) == pytest.approx(1.5, rel=1e-15)
        assert het_sec3.initial_energy(NodeClass.SUPER) == pytest.approx(2.25, rel=1e-15)
        for not_a_class in (3, -1):
            with pytest.raises(ValueError):
                het_sec3.initial_energy(not_a_class)

    @given(
        n=st.integers(min_value=1, max_value=500),
        m=st.floats(min_value=0.0, max_value=1.0),
        m0=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quotas_partition_population(self, n, m, m0):
        het = HeterogeneityParams(m=m, m0=m0, a=1.0, b=2.0, e0=0.5)
        counts = het.class_counts(n)
        assert sum(counts) == n
        assert all(c >= 0 for c in counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneityParams(m=1.2, m0=0.5, a=1.0, b=2.0, e0=0.5)
        with pytest.raises(ValueError):
            HeterogeneityParams(m=0.5, m0=0.5, a=3.0, b=2.0, e0=0.5)
        with pytest.raises(ValueError):
            HeterogeneityParams(m=0.5, m0=0.5, a=1.0, b=2.0, e0=0.0)
        with pytest.raises(ValueError, match="m0 must lie in"):
            HeterogeneityParams(m=0.5, m0=1.2, a=1.0, b=2.0, e0=0.5)
        with pytest.raises(ValueError, match="negative quota for n=-1"):
            HeterogeneityParams(m=0.5, m0=0.5, a=1.0, b=2.0, e0=0.5).class_counts(-1)


class TestProtocolConfig:
    def test_defaults(self):
        cfg = ProtocolConfig(kind=Protocol.EDDEEC)
        assert cfg.p_opt == 0.1 and cfg.z == 0.7 and cfg.c == 1.0
        assert cfg.avg_energy_mode == "estimated"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_opt": 0.0},
            {"p_opt": 1.0},
            {"z": 1.0},
            {"z": -0.1},
            {"c": 0.0},
            {"avg_energy_mode": "live"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolConfig(kind=Protocol.EDDEEC, **kwargs)


# E_total = 214 J for the benchmark population; E_round = 0.0428 J gives
# R = 5000 rounds exactly
ESTIMATE = EnergyEstimate(100, 214.0, 0.0428)
HET_SEC3 = HeterogeneityParams(m=0.8, m0=0.6, a=2.0, b=3.5, e0=0.5)


class TestEstimators:
    @pytest.mark.parametrize("call, error", [
        (lambda: EnergyEstimate(0, 214.0, 0.0428), "n must be"),
        (lambda: EnergyEstimate(100, 214.0, 0.0), "e_total and e_round must be"),
        (lambda: EnergyEstimate(100, math.inf, 0.0428), "e_total and e_round must be"),
        (lambda: ESTIMATE.avg_energy_at(-1), "round index"),
        (lambda: expected_distances(0.0, 1), "side_m must be"),
        (lambda: expected_distances(100.0, 0), "k must be"),
        (lambda: make_energy_estimate(0, FieldGeometry(100.0), TABLE1, HET_SEC3), "n must be"),
        (lambda: make_energy_estimate(-1, FieldGeometry(100.0), TABLE1, HET_SEC3), "n must be"),
    ])
    def test_validation(self, call, error):
        with pytest.raises(ValueError, match=error):
            call()

    def test_lifetime_is_derived(self):
        assert ESTIMATE.r_lifetime == 5000.0
        with pytest.raises(TypeError):
            EnergyEstimate(100, 214.0, 0.0428, r_lifetime=1.0)

    def test_average_energy_round_zero(self):
        # at r=0 the estimate is the plain per-node share
        assert ESTIMATE.avg_energy_at(0) == 2.14

    def test_average_energy_floors_at_lifetime(self):
        assert ESTIMATE.avg_energy_at(5000) == AVG_ENERGY_FLOOR_J
        assert ESTIMATE.avg_energy_at(9999) == AVG_ENERGY_FLOOR_J

    def test_average_energy_linear(self):
        full = ESTIMATE.avg_energy_at(0)
        half = ESTIMATE.avg_energy_at(2500)
        assert half == pytest.approx(full / 2, rel=1e-12)

    def test_expected_distances_bs_exact(self):
        _, d_bs = expected_distances(100.0, 1)
        assert d_bs == 38.25

    def test_expected_distances_ch(self):
        d_ch, _ = expected_distances(100.0, 1)
        assert d_ch == pytest.approx(100.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_expected_distance_inverse_sqrt_scaling(self):
        d1, _ = expected_distances(100.0, 4)
        d2, _ = expected_distances(100.0, 16)
        assert d2 == pytest.approx(d1 / 2, rel=1e-12)

    @pytest.mark.parametrize("n, side, radio, k", [
        (100, 100.0, LEACH, 24),
        (400, 100.0, LEACH, 48),
        (100, 100.0, dataclasses.replace(LEACH, eps_fs=LEACH.eps_fs * 7,
                                         eps_mp=LEACH.eps_mp * 7), 24),
        (100, 100.0, dataclasses.replace(LEACH, message_bits=8000), 24),
        (100, 100.0, TABLE1, 756),
        (100, 10000.0, LEACH, 1),
    ], ids=["paper-sec3", "n400", "eps-ratio", "bits8000", "table1-verbatim", "k-floor"])
    def test_make_energy_estimate_oracle(self, het_sec3, n, side, radio, k):
        # the closed forms, term by term; k +- 1 moves e_round by 1e-7 relative
        # or more in every case, so rel=1e-12 pins the rounded count
        d_bs = 0.765 * side / 2.0
        k_real = (math.sqrt(n / (2.0 * math.pi)) * math.sqrt(radio.eps_fs / radio.eps_mp)
                  * side / d_bs**2)
        assert max(1, round(k_real)) == k
        d_ch = side / math.sqrt(2.0 * math.pi * k)
        electronics = 2.0 * n * radio.e_elec
        aggregation = n * radio.e_da
        to_bs = k * radio.eps_mp * d_bs**4
        to_ch = n * radio.eps_fs * d_ch**2
        expected = radio.message_bits * (electronics + aggregation + to_bs + to_ch)
        est = make_energy_estimate(n, FieldGeometry(side), radio, het_sec3)
        assert est.e_round == pytest.approx(expected, rel=1e-12)
        assert est.e_total == het_sec3.total_energy(n)

    def test_make_energy_estimate_identity(self, het_sec3, geometry_100):
        est = make_energy_estimate(100, geometry_100, LEACH, het_sec3)
        assert est.e_total == 214.0
        assert est.r_lifetime == est.e_total / est.e_round
        assert est.r_lifetime == pytest.approx(5031.458475492437, rel=1e-12)
        assert est.avg_energy_at(0) == 2.14
        # the round dissipation is linear in the packet size
        double_bits = dataclasses.replace(LEACH, message_bits=8000)
        doubled = make_energy_estimate(100, geometry_100, double_bits, het_sec3)
        assert doubled.e_round == pytest.approx(2 * est.e_round, rel=1e-12)


class TestClassWeights:
    def test_weights(self, het_sec3):
        weights = {
            Protocol.DEEC: (1.0, 3.0, 3.0),
            Protocol.DDEEC: (1.0, 3.0, 3.0),
            Protocol.EDEEC: (1.0, 3.0, 4.5),
            Protocol.EDDEEC: (1.0, 3.0, 4.5),
        }
        for kind, w in weights.items():
            pw_by_class = election_constants(ProtocolConfig(kind=kind), het_sec3)[0]
            # p_opt * w at the default p_opt = 0.1
            assert pw_by_class.tolist() == [0.1 * x for x in w]

    def test_low_energy_rules(self, het_sec3):
        def rule(kind):
            cfg = ProtocolConfig(kind=kind, z=0.7, c=1.0)
            return election_constants(cfg, het_sec3)[2:]

        assert rule(Protocol.EDDEEC) == (0.35, 0.1 * 4.5)
        assert rule(Protocol.DDEEC) == (0.35, 0.1 * 3.0)
        t_low, _ = rule(Protocol.DEEC)
        assert t_low < 0
        t_low, _ = rule(Protocol.EDEEC)
        assert t_low < 0


class TestChProbability:
    def test_edeec_normal_at_average(self, het_sec3):
        # oracle: 0.1 / 4.28 with E == avg_energy and weight 1
        cfg = ProtocolConfig(kind=Protocol.EDEEC)
        p = probability(1.0, 1.0, het_sec3, cfg)
        assert p == pytest.approx(0.02336448598130841, rel=1e-14)

    def test_eddeec_sub_threshold_class_blind(self, het_sec3):
        cfg = ProtocolConfig(kind=Protocol.EDDEEC, z=0.7, c=1.0)
        values = {cls: probability(0.3, 1.7, het_sec3, cfg, cls) for cls in NodeClass}
        assert values[NodeClass.NORMAL] == values[NodeClass.ADVANCED] == values[NodeClass.SUPER]

    def test_eddeec_z_zero_is_edeec(self, het_sec3):
        eddeec = ProtocolConfig(kind=Protocol.EDDEEC, z=0.0, c=1.0)
        edeec = ProtocolConfig(kind=Protocol.EDEEC)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            e = float(rng.uniform(1e-6, 2.25))
            avg = float(rng.uniform(1e-4, 2.5))
            cls = NodeClass(int(rng.integers(0, 3)))
            assert probability(e, avg, het_sec3, eddeec, cls) == probability(
                e, avg, het_sec3, edeec, cls
            )

    def test_class_ordering_above_threshold(self, het_sec3):
        for kind in (Protocol.EDEEC, Protocol.EDDEEC):
            cfg = ProtocolConfig(kind=kind)
            e = 1.0  # above 0.35
            p_n = probability(e, 1.5, het_sec3, cfg, NodeClass.NORMAL)
            p_a = probability(e, 1.5, het_sec3, cfg, NodeClass.ADVANCED)
            p_s = probability(e, 1.5, het_sec3, cfg, NodeClass.SUPER)
            assert p_n < p_a < p_s

    def test_deec_super_uses_advanced_weight(self, het_sec3):
        cfg = ProtocolConfig(kind=Protocol.DEEC)
        p_a = probability(1.0, 1.5, het_sec3, cfg, NodeClass.ADVANCED)
        p_s = probability(1.0, 1.5, het_sec3, cfg, NodeClass.SUPER)
        assert p_a == p_s

    @given(
        e=st.floats(min_value=1e-6, max_value=2.25),
        t=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=200)
    def test_homogeneity_within_branch(self, e, t):
        het = HeterogeneityParams(m=0.8, m0=0.6, a=2.0, b=3.5, e0=0.5)
        # scaling E scales p linearly while the branch and clamp stay inactive
        cfg = ProtocolConfig(kind=Protocol.EDEEC)
        avg = 10.0  # large enough that the clamp never fires
        p1 = probability(e, avg, het, cfg, NodeClass.ADVANCED)
        p2 = probability(e * t, avg, het, cfg, NodeClass.ADVANCED)
        assert p2 == pytest.approx(p1 * t, rel=1e-9)

    def test_clamped_at_p_max(self, het_sec3):
        cfg = ProtocolConfig(kind=Protocol.EDEEC)
        p = probability(2.25, 1e-6, het_sec3, cfg, NodeClass.SUPER)
        assert p == P_MAX


class TestElectionThreshold:
    def test_epoch_start_equals_p(self):
        for r in (0, 10, 20, 1000):
            assert threshold(0.1, r) == 0.1
            # p = 0 is defined, with no division by zero: it never wins a draw
            assert threshold(0.0, r) == 0.0

    def test_epoch_end_saturates(self):
        # unclamped: at an epoch's last round every draw u < 1 wins
        assert threshold(0.1, 9) >= 1.0
        assert threshold(0.1, 19) >= 1.0

    def test_half_probability(self):
        assert threshold(0.5, 1) >= 1.0
        assert threshold(0.5, 0) == 0.5

    @given(
        p=st.floats(min_value=1e-6, max_value=0.99),
        r=st.integers(min_value=0, max_value=100000),
    )
    @settings(max_examples=300)
    def test_bounds_and_epoch_start_equality(self, p, r):
        # the threshold is finite (1 - p * (r mod epoch) stays positive) and
        # at least p; it exceeds 1 only where round(1/p) rounded 1/p up
        t = threshold(p, r)
        assert p <= t < math.inf
        if r % epoch_length(p) == 0:
            assert t == p
        else:
            assert t > p


class TestEpochLength:
    def test_values(self):
        assert epoch_length(0.1) == 10
        assert epoch_length(0.99) == 1
        assert epoch_length(0.105) == 10
        # round-half-even at 1/0.4 = 2.5
        assert epoch_length(0.4) == 2
        assert epoch_length(0.0) == _EPOCH_LIMIT

    def test_rotation_rate(self):
        # standalone rotation oracle: static p, per-node eligibility windows;
        # each node should serve about once per 1/p rounds
        p = 0.1
        rng = np.random.default_rng(123)
        n, rounds = 100, 1000
        ineligible_until = np.zeros(n, dtype=int)
        elections = 0
        for r in range(rounds):
            u = rng.random(n)
            epoch, t = _rotation(np.array([p]), r)
            for i in range(n):
                if ineligible_until[i] > r:
                    continue
                if u[i] < t[0]:
                    elections += 1
                    ineligible_until[i] = r + epoch[0]
        rate = elections / (n * rounds)
        assert 0.09 <= rate <= 0.11
