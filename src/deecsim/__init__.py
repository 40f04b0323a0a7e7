"""Deterministic round-based simulator for DEEC-family cluster-head
election protocols (DEEC, DDEEC, EDEEC, EDDEEC) in heterogeneous wireless
sensor networks."""

from ._kernels import P_MAX, get_backend
from .engine import NetworkConfig, Simulation, run
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
)
from .protocols import (
    AVG_ENERGY_FLOOR_J,
    EnergyEstimate,
    HeterogeneityParams,
    Protocol,
    ProtocolConfig,
    expected_distances,
    make_energy_estimate,
)

__version__ = "0.1.0"

__all__ = [
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
    "SimResult",
    "Simulation",
    "emit_plot_svg",
    "emit_series_csv",
    "expected_distances",
    "get_backend",
    "make_energy_estimate",
    "run",
    "summarize",
]
