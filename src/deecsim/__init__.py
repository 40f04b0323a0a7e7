"""Deterministic round-based simulator for DEEC-family cluster-head
election protocols (DEEC, DDEEC, EDEEC, EDDEEC) in heterogeneous wireless
sensor networks."""

from ._kernels import ASSIGN_CH, ASSIGN_DIRECT_BS, ASSIGN_NONE, get_backend
from .engine import NetworkConfig, RoundOutcome, Simulation, run
from .metrics import (
    BatchSummary,
    LifetimeSummary,
    SimResult,
    emit_plot_svg,
    emit_series_csv,
    summarize,
)
from .model import (
    RADIO_PROFILES,
    FieldGeometry,
    NodeClass,
    RadioParams,
    aggregation_energy,
    distance,
    rx_energy,
    tx_energy,
)
from .protocols import (
    AVG_ENERGY_FLOOR_J,
    P_MAX,
    EnergyEstimate,
    HeterogeneityParams,
    Protocol,
    ProtocolConfig,
    absolute_threshold,
    energy_per_round,
    estimate_average_energy,
    expected_distances,
    make_energy_estimate,
    optimal_cluster_count,
)

__version__ = "0.1.0"

__all__ = [
    "ASSIGN_CH",
    "ASSIGN_DIRECT_BS",
    "ASSIGN_NONE",
    "AVG_ENERGY_FLOOR_J",
    "BatchSummary",
    "EnergyEstimate",
    "FieldGeometry",
    "HeterogeneityParams",
    "LifetimeSummary",
    "NetworkConfig",
    "NodeClass",
    "P_MAX",
    "Protocol",
    "ProtocolConfig",
    "RADIO_PROFILES",
    "RadioParams",
    "RoundOutcome",
    "SimResult",
    "Simulation",
    "absolute_threshold",
    "aggregation_energy",
    "distance",
    "emit_plot_svg",
    "emit_series_csv",
    "energy_per_round",
    "estimate_average_energy",
    "expected_distances",
    "get_backend",
    "make_energy_estimate",
    "optimal_cluster_count",
    "run",
    "rx_energy",
    "summarize",
    "tx_energy",
]
