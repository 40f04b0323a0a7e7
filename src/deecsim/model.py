"""Physical model shared by every protocol: node classes, field geometry,
and the constants of the first-order radio.

Under that radio, transmission costs ``bits * e_elec`` for the electronics
plus an amplifier term that is quadratic in distance below the crossover
``d0`` (free-space) and quartic at or above it (multipath).  Reception and
aggregation cost the electronics / aggregation constants only.  The engine
charges every node through ``_kernels._transmit`` and
``_kernels._head_charge``, which apply this law to ``RadioParams``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from enum import IntEnum


def _finite(value) -> bool:
    """Whether ``value`` is a real number (not a string) and finite."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


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
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise ValueError(f"RadioParams.{name} must be finite and strictly positive")
        if not isinstance(self.message_bits, numbers.Integral):
            raise ValueError("RadioParams.message_bits must be an integer")


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
        if not (_finite(self.side_m) and self.side_m > 0):
            raise ValueError("FieldGeometry.side_m must be finite and strictly positive")
        bs = self.bs_position
        if bs is None:
            bs = (self.side_m / 2.0, self.side_m / 2.0)
        bs = tuple(bs) if isinstance(bs, Iterable) else ()
        if not (len(bs) == 2 and all(map(_finite, bs))):
            raise ValueError("FieldGeometry.bs_position must be finite, as exactly two numbers")
        object.__setattr__(self, "bs_position", tuple(map(float, bs)))
