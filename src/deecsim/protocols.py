"""DEEC-family protocol parameters and a-priori network estimates.

Covers the heterogeneous population, the per-protocol election constants
(:func:`election_constants`), and the a-priori lifetime estimate
(:func:`make_energy_estimate`, over :func:`expected_distances`).

The four protocols share one election law: an alive node's probability is
``p_opt * w * E / ((1 + m*(a + m0*b)) * avg_energy)``, clamped to
``_kernels.P_MAX``, where ``E`` is its residual energy and ``w`` a
class-dependent weight; it draws against the rotating threshold
``p / (1 - p * (r mod round(1/p)))``.  The law itself is written once, in
``_kernels._probability`` and ``_kernels._rotation``; this module supplies
the weights, the factor and the low-energy rule it is evaluated with.

============  =====================  =============================================
protocol      weights (nml/adv/sup)  low-energy rule
============  =====================  =============================================
DEEC          1 / 1+a / 1+a          none
DDEEC         1 / 1+a / 1+a          at or below z*e0 every class weighs 1+a
EDEEC         1 / 1+a / 1+b          none
EDDEEC        1 / 1+a / 1+b          at or below z*e0 every class weighs c*(1+b)
============  =====================  =============================================

DEEC and DDEEC here are three-tier comparator variants (super nodes carry
the advanced weight); EDEEC and EDDEEC are the protocols proper.  With
``z = 0`` EDDEEC degenerates to EDEEC exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import FieldGeometry, NodeClass, RadioParams, _finite

# The linear average-energy estimate reaches zero at the estimated lifetime
# and would go negative past it; it is floored here so probabilities stay
# defined for networks that outlive the estimate.
AVG_ENERGY_FLOOR_J = 1e-6


class Protocol(str, Enum):
    DEEC = "deec"
    DDEEC = "ddeec"
    EDEEC = "edeec"
    EDDEEC = "eddeec"


@dataclass(frozen=True)
class HeterogeneityParams:
    """Three-tier energy population.

    A fraction ``m`` of the nodes carry extra energy; of those, a fraction
    ``m0`` are super nodes.  Advanced nodes start with ``e0*(1+a)`` joules
    and super nodes with ``e0*(1+b)``.
    """

    m: float
    m0: float
    a: float
    b: float
    e0: float

    def __post_init__(self) -> None:
        if not all(map(_finite, (self.m, self.m0, self.a, self.b, self.e0))):
            raise ValueError("m, m0, a, b and e0 must be finite numbers")
        if not 0.0 <= self.m <= 1.0:
            raise ValueError("m must lie in [0, 1]")
        if not 0.0 <= self.m0 <= 1.0:
            raise ValueError("m0 must lie in [0, 1]")
        if not 0.0 <= self.a <= self.b:
            raise ValueError("multipliers must satisfy 0 <= a <= b")
        if self.e0 <= 0:
            raise ValueError("e0 must be strictly positive")

    @property
    def total_energy_factor(self) -> float:
        """Ratio of network total energy to ``n * e0``: 1 + m*(a + m0*b)."""
        return 1.0 + self.m * (self.a + self.m0 * self.b)

    def initial_energy(self, node_class: NodeClass) -> float:
        """Starting energy of the class; ``ValueError`` if not a NodeClass."""
        return (self.e0, self.e0 * (1.0 + self.a), self.e0 * (1.0 + self.b))[NodeClass(node_class)]

    def class_counts(self, n: int) -> tuple[int, int, int]:
        """Deterministic (normal, advanced, super) quotas for ``n`` nodes.

        Fractions that do not divide ``n`` exactly are rounded half-even.
        """
        n_rich = round(n * self.m)
        n_super = round(n * self.m * self.m0)
        n_advanced = n_rich - n_super
        n_normal = n - n_rich
        if min(n_normal, n_advanced, n_super) < 0:
            raise ValueError(f"population fractions give negative quota for n={n}")
        return n_normal, n_advanced, n_super

    def total_energy(self, n: int) -> float:
        """Nominal network energy ``n * e0 * (1 + m*(a + m0*b))`` in joules.

        This is the denominator convention the election probabilities are
        normalized with.  Note it is NOT the sum of the per-class initial
        energies: the convention books the ``b`` bonus on top of ``a`` for
        super nodes, while actual super nodes start at ``e0*(1+b)``.
        """
        base = n * self.e0
        rich = base * self.m
        return base + rich * self.a + rich * self.m0 * self.b


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol selector plus its election parameters.

    ``z`` scales the low-residual threshold ``z * e0`` used by EDDEEC and
    DDEEC (ignored by DEEC/EDEEC); ``c`` scales the shared sub-threshold
    probability in EDDEEC.  ``avg_energy_mode`` selects the a-priori linear
    estimate (default) or the live mean over alive nodes as the
    average-energy reference.
    """

    kind: Protocol
    p_opt: float = 0.1
    z: float = 0.7
    c: float = 1.0
    avg_energy_mode: str = "estimated"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", Protocol(self.kind))
        if not all(map(_finite, (self.p_opt, self.z, self.c))):
            raise ValueError("p_opt, z and c must be finite numbers")
        if not 0.0 < self.p_opt < 1.0:
            raise ValueError("p_opt must lie in (0, 1)")
        if not 0.0 <= self.z < 1.0:
            raise ValueError("z must lie in [0, 1)")
        if not self.c > 0.0:
            raise ValueError("c must be strictly positive")
        if self.avg_energy_mode not in ("estimated", "true"):
            raise ValueError("avg_energy_mode must be 'estimated' or 'true'")


@dataclass(frozen=True)
class EnergyEstimate:
    """A-priori energy budget of ``n`` nodes: total energy and per-round
    dissipation in joules, checked once, and the lifetime estimate
    ``r_lifetime = e_total / e_round`` derived from them."""

    n: int
    e_total: float
    e_round: float
    r_lifetime: float = field(init=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.n, numbers.Integral) and self.n > 0):
            raise ValueError("n must be a positive integer")
        if not all(_finite(e) and e > 0 for e in (self.e_total, self.e_round)):
            raise ValueError("e_total and e_round must be finite and strictly positive")
        object.__setattr__(self, "r_lifetime", self.e_total / self.e_round)

    def avg_energy_at(self, r: int) -> float:
        """Linear per-node average-energy estimate ``(e_total/n)*(1 - r/R)``
        at round ``r``, floored at ``AVG_ENERGY_FLOOR_J`` once it reaches zero."""
        if r < 0:
            raise ValueError("round index must be non-negative")
        return max((self.e_total / self.n) * (1.0 - r / self.r_lifetime), AVG_ENERGY_FLOOR_J)


def expected_distances(side_m: float, k: int) -> tuple[float, float]:
    """Expected member-to-head and head-to-base-station distances.

    For ``k`` clusters on a square field of side ``M``: ``d_to_ch =
    M / sqrt(2*pi*k)`` and ``d_to_bs = 0.765 * M / 2``.
    """
    if side_m <= 0:
        raise ValueError("side_m must be strictly positive")
    if k < 1:
        raise ValueError("k must be at least 1")
    d_to_ch = side_m / math.sqrt(2.0 * math.pi * k)
    d_to_bs = 0.765 * side_m / 2.0
    return d_to_ch, d_to_bs


def make_energy_estimate(
    n: int, geometry: FieldGeometry, radio: RadioParams, het: HeterogeneityParams
) -> EnergyEstimate:
    """The a-priori estimate for ``n`` nodes: total energy, and one round's
    first-order dissipation ``L*(2n*E_elec + n*E_da + k*eps_mp*d_bs^4 +
    n*eps_fs*d_ch^2)`` at ``expected_distances(M, k)`` for the optimal
    cluster count ``k = max(1, round(sqrt(n)/sqrt(2*pi) * sqrt(eps_fs/eps_mp)
    * M/d_bs^2))``.  ``EnergyEstimate`` raises ``ValueError`` for ``n < 1``
    (the root is of ``max(n, 0)`` so that ``n < 0`` reaches it) and derives R."""
    _, d_to_bs = expected_distances(geometry.side_m, 1)
    k = max(1, round((math.sqrt(max(n, 0)) / math.sqrt(2.0 * math.pi))
                     * math.sqrt(radio.eps_fs / radio.eps_mp)
                     * (geometry.side_m / (d_to_bs * d_to_bs))))
    d_to_ch, d_to_bs = expected_distances(geometry.side_m, k)
    e_round = radio.message_bits * (
        2.0 * n * radio.e_elec
        + n * radio.e_da
        + k * radio.eps_mp * d_to_bs**4
        + n * radio.eps_fs * d_to_ch**2
    )
    return EnergyEstimate(n=n, e_total=het.total_energy(n), e_round=e_round)


def election_constants(
    cfg: ProtocolConfig, het: HeterogeneityParams
) -> tuple[np.ndarray, float, float, float]:
    """Per-run constants of the election law in ``_kernels._probability``.

    Returns ``(pw_by_class, factor, t_low, pw_low)``: ``p_opt * w`` for the
    normal, advanced and super class, the population's
    ``total_energy_factor`` that scales the average energy, and the
    low-energy rule's threshold ``z * e0`` and ``p_opt * w_low``.  A
    negative ``t_low`` disables the rule.
    """
    # the module table's rows: super nodes' bonus, low-energy weight or None
    bonus, w_low = {
        Protocol.DEEC: (het.a, None),
        Protocol.DDEEC: (het.a, 1.0 + het.a),
        Protocol.EDEEC: (het.b, None),
        Protocol.EDDEEC: (het.b, cfg.c * (1.0 + het.b)),
    }[cfg.kind]
    pw_by_class = np.array([cfg.p_opt * w for w in (1.0, 1.0 + het.a, 1.0 + bonus)])
    low = (-1.0, 0.0) if w_low is None else (cfg.z * het.e0, cfg.p_opt * w_low)
    return pw_by_class, het.total_energy_factor, *low
