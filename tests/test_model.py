import math

import pytest
from _loop_kernels import aggregation_energy, distance, rx_energy, tx_energy

from deecsim import RADIO_PROFILES, FieldGeometry, RadioParams

TABLE1 = RADIO_PROFILES["table1-verbatim"]
LEACH = RADIO_PROFILES["leach-standard"]


class TestDistance:
    def test_coincident(self):
        assert distance((0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_3_4_5(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_axis_aligned(self):
        assert distance((50.0, 50.0), (50.0, 120.0)) == 70.0

    def test_symmetric(self):
        p, q = (1.5, 2.25), (-3.0, 7.0)
        assert distance(p, q) == distance(q, p)


class TestTxEnergy:
    def test_zero_distance_only_electronics(self):
        assert tx_energy(4000, 0.0, TABLE1) == pytest.approx(2.0e-4, rel=1e-12)

    def test_free_space_branch(self):
        # oracle: 4000*50e-9 + 4000*10e-9*900, computed by hand
        assert tx_energy(4000, 30.0, TABLE1) == pytest.approx(0.0362, rel=1e-12)

    def test_multipath_branch(self):
        # oracle: 4000*50e-9 + 4000*0.0013e-12*1e8
        assert tx_energy(4000, 100.0, TABLE1) == pytest.approx(7.2e-4, rel=1e-12)

    def test_branch_rule_exact_at_d0(self):
        # at d == d0 the multipath branch applies, and with either shipped
        # profile the two branches disagree there: the law is discontinuous
        for radio in (TABLE1, LEACH):
            at_d0 = tx_energy(4000, radio.d0, radio)
            mp = 4000 * radio.e_elec + 4000 * radio.eps_mp * radio.d0**4
            fs = 4000 * radio.e_elec + 4000 * radio.eps_fs * radio.d0**2
            assert at_d0 == pytest.approx(mp, rel=1e-12)
            assert abs(fs - mp) / mp > 0.1

    def test_monotone_in_distance_within_branch(self):
        below = [tx_energy(4000, d, LEACH) for d in (0.0, 10.0, 35.0, 69.9)]
        assert below == sorted(below)
        above = [tx_energy(4000, d, LEACH) for d in (70.0, 90.0, 120.0)]
        assert above == sorted(above)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            tx_energy(0, 10.0, LEACH)
        with pytest.raises(ValueError):
            tx_energy(4000, -1.0, LEACH)


class TestRxEnergy:
    def test_message(self):
        assert rx_energy(4000, TABLE1) == pytest.approx(2.0e-4, rel=1e-12)

    def test_unit(self):
        assert rx_energy(1, TABLE1) == TABLE1.e_elec
        with pytest.raises(ValueError):
            rx_energy(0, TABLE1)

    def test_linearity(self):
        assert rx_energy(8000, TABLE1) == pytest.approx(2 * rx_energy(4000, TABLE1), rel=1e-15)


class TestAggregationEnergy:
    def test_single_signal(self):
        assert aggregation_energy(4000, 1, TABLE1) == pytest.approx(2.0e-5, rel=1e-12)

    def test_linear_in_signals(self):
        one = aggregation_energy(4000, 1, TABLE1)
        assert aggregation_energy(4000, 10, TABLE1) == pytest.approx(10 * one, rel=1e-12)

    def test_zero_signals_rejected(self):
        with pytest.raises(ValueError):
            aggregation_energy(4000, 0, TABLE1)

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError, match="bits must be strictly positive"):
            aggregation_energy(0, 1, TABLE1)


class TestRadioParams:
    def test_profiles_share_everything_but_eps_fs(self):
        assert TABLE1.d0 == 70.0 and LEACH.d0 == 70.0
        assert TABLE1.e_elec == LEACH.e_elec == 50e-9
        assert TABLE1.eps_fs / LEACH.eps_fs == pytest.approx(1000.0, rel=1e-12)
        assert TABLE1.message_bits == LEACH.message_bits == 4000

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RadioParams(e_elec=0.0, eps_fs=1e-12, eps_mp=1e-15, e_da=5e-9, d0=70.0, message_bits=4000)
        with pytest.raises(ValueError):
            RadioParams(e_elec=50e-9, eps_fs=1e-12, eps_mp=1e-15, e_da=5e-9, d0=70.0, message_bits=0)
        with pytest.raises(ValueError, match="message_bits must be an integer"):
            RadioParams(e_elec=50e-9, eps_fs=1e-12, eps_mp=1e-15, e_da=5e-9, d0=70.0,
                        message_bits=4000.5)
        with pytest.raises(ValueError, match="message_bits must be an integer"):
            RadioParams(e_elec=50e-9, eps_fs=1e-12, eps_mp=1e-15, e_da=5e-9, d0=70.0,
                        message_bits=4000.0)


class TestFieldGeometry:
    def test_bs_defaults_to_center(self):
        assert FieldGeometry(100.0).bs_position == (50.0, 50.0)

    def test_explicit_bs_kept(self):
        assert FieldGeometry(100.0, (10.0, 90.0)).bs_position == (10.0, 90.0)

    def test_rejects_non_positive_side(self):
        with pytest.raises(ValueError):
            FieldGeometry(0.0)

    def test_distance_to_center_extremes(self):
        geo = FieldGeometry(100.0)
        assert distance((0.0, 0.0), geo.bs_position) == pytest.approx(math.sqrt(5000.0))
