"""Physical model shared by every protocol: node classes, field geometry,
and the first-order radio energy costs.

Transmission costs ``bits * e_elec`` for the electronics plus an amplifier
term that is quadratic in distance below the crossover ``d0`` (free-space)
and quartic at or above it (multipath).  Reception and aggregation cost the
electronics / aggregation constants only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum


class NodeClass(IntEnum):
    """Energy tier of a sensor node."""

    NORMAL = 0
    ADVANCED = 1
    SUPER = 2


@dataclass(frozen=True)
class RadioParams:
    """First-order radio energy constants.

    ``d0`` is a configured constant and is deliberately never recomputed
    from ``sqrt(eps_fs / eps_mp)``: the shipped profiles quote amplifier
    constants whose ratio does not land on the conventional 70 m crossover,
    so the crossover is carried independently.
    """

    e_elec: float  # J/bit, transmit/receive electronics
    eps_fs: float  # J/bit/m^2, free-space amplifier (d < d0)
    eps_mp: float  # J/bit/m^4, multipath amplifier (d >= d0)
    e_da: float  # J/bit/signal, aggregation cost at a cluster head
    d0: float  # m, amplifier crossover distance
    message_bits: int  # bits per data packet

    def __post_init__(self) -> None:
        for name in ("e_elec", "eps_fs", "eps_mp", "e_da", "d0", "message_bits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"RadioParams.{name} must be strictly positive")


# The two shipped radio profiles differ only in the free-space amplifier
# constant.  "table1-verbatim" keeps eps_fs at 10 nJ/bit/m^2 exactly as
# printed in the classic parameter table; that value drains a 100 m field in
# tens of rounds.  "leach-standard" uses the 10 pJ/bit/m^2 convention of the
# LEACH lineage, which yields multi-thousand-round lifetimes, and is the
# reproduction default.
RADIO_PROFILES: dict[str, RadioParams] = {
    "table1-verbatim": RadioParams(
        e_elec=50e-9,
        eps_fs=10e-9,
        eps_mp=0.0013e-12,
        e_da=5e-9,
        d0=70.0,
        message_bits=4000,
    ),
    "leach-standard": RadioParams(
        e_elec=50e-9,
        eps_fs=10e-12,
        eps_mp=0.0013e-12,
        e_da=5e-9,
        d0=70.0,
        message_bits=4000,
    ),
}


@dataclass(frozen=True)
class FieldGeometry:
    """Square deployment field with a base station, default at the center."""

    side_m: float
    bs_position: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.side_m <= 0:
            raise ValueError("FieldGeometry.side_m must be strictly positive")
        if self.bs_position is None:
            center = (self.side_m / 2.0, self.side_m / 2.0)
            object.__setattr__(self, "bs_position", center)


def distance(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Euclidean distance between two points, in meters."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


def tx_energy(bits: int, d: float, radio: RadioParams) -> float:
    """Energy in joules to transmit ``bits`` over ``d`` meters.

    Uses the free-space amplifier below ``radio.d0`` and the multipath
    amplifier at or above it.  The branch rule is exact: profiles whose
    constants do not satisfy ``eps_fs * d0**2 == eps_mp * d0**4`` are
    discontinuous at ``d0`` by design.
    """
    if bits <= 0:
        raise ValueError("bits must be strictly positive")
    if d < 0:
        raise ValueError("distance must be non-negative")
    if d < radio.d0:
        return bits * radio.e_elec + bits * radio.eps_fs * (d * d)
    return bits * radio.e_elec + bits * radio.eps_mp * ((d * d) * (d * d))


def rx_energy(bits: int, radio: RadioParams) -> float:
    """Energy in joules to receive ``bits``: the electronics term only."""
    if bits <= 0:
        raise ValueError("bits must be strictly positive")
    return bits * radio.e_elec


def aggregation_energy(bits: int, signals: int, radio: RadioParams) -> float:
    """Energy in joules for a cluster head to fuse ``signals`` packets.

    A cluster head always aggregates at least its own signal.
    """
    if bits <= 0:
        raise ValueError("bits must be strictly positive")
    if signals < 1:
        raise ValueError("a cluster head aggregates at least its own signal")
    return bits * radio.e_da * signals
