"""DEEC-family protocol parameters and a-priori network estimates.

Covers the heterogeneous population, the per-protocol election constants
(:func:`election_constants`), and the a-priori lifetime estimators (total
energy, per-round dissipation, expected distances, optimal cluster count).

The four protocols share one election law: an alive node's probability is
``p_opt * w * E / ((1 + m*(a + m0*b)) * avg_energy)``, clamped to
``P_MAX``, where ``E`` is its residual energy and ``w`` a class-dependent
weight; it draws against the rotating threshold
``p / (1 - p * (r mod round(1/p)))``.  The law itself is written once, in
``_kernels._probability`` and ``_kernels._rotation``; this module supplies
the weights and the low-energy rule it is evaluated with.

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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import FieldGeometry, NodeClass, RadioParams

# The linear average-energy estimate reaches zero at the estimated lifetime
# and would go negative past it; it is floored here so probabilities stay
# defined for networks that outlive the estimate.
AVG_ENERGY_FLOOR_J = 1e-6

# Election probabilities feed the rotating threshold, which requires p < 1.
P_MAX = 0.99


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
        if node_class == NodeClass.NORMAL:
            return self.e0
        if node_class == NodeClass.ADVANCED:
            return self.e0 * (1.0 + self.a)
        return self.e0 * (1.0 + self.b)

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
        if not 0.0 < self.p_opt < 1.0:
            raise ValueError("p_opt must lie in (0, 1)")
        if not 0.0 <= self.z < 1.0:
            raise ValueError("z must lie in [0, 1)")
        if self.c <= 0.0:
            raise ValueError("c must be strictly positive")
        if self.avg_energy_mode not in ("estimated", "true"):
            raise ValueError("avg_energy_mode must be 'estimated' or 'true'")


@dataclass(frozen=True)
class EnergyEstimate:
    """A-priori energy budget of a network: total energy, per-round
    dissipation, and the lifetime estimate ``r_lifetime = e_total/e_round``."""

    n: int
    e_total: float
    e_round: float
    r_lifetime: float

    def avg_energy_at(self, r: int) -> float:
        """Estimated per-node average residual energy at round ``r``."""
        return estimate_average_energy(r, self.n, self.e_total, self.r_lifetime)


def estimate_average_energy(r: int, n: int, e_total: float, r_lifetime: float) -> float:
    """Linear per-node average-energy estimate ``(e_total/n)*(1 - r/R)``.

    Floored at ``AVG_ENERGY_FLOOR_J`` once the estimate reaches zero.
    """
    if n <= 0:
        raise ValueError("n must be strictly positive")
    if r_lifetime <= 0:
        raise ValueError("r_lifetime must be strictly positive")
    if r < 0:
        raise ValueError("round index must be non-negative")
    estimate = (e_total / n) * (1.0 - r / r_lifetime)
    return max(estimate, AVG_ENERGY_FLOOR_J)


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


def energy_per_round(n: int, k: int, geometry: FieldGeometry, radio: RadioParams) -> float:
    """Estimated network-wide energy dissipated in one round, in joules.

    ``L * (2*n*E_elec + n*E_da + k*eps_mp*d_bs^4 + n*eps_fs*d_ch^2)`` with
    the expected distances for ``k`` clusters.
    """
    if n <= 0:
        raise ValueError("n must be strictly positive")
    d_to_ch, d_to_bs = expected_distances(geometry.side_m, k)
    bits = radio.message_bits
    return bits * (
        2.0 * n * radio.e_elec
        + n * radio.e_da
        + k * radio.eps_mp * d_to_bs**4
        + n * radio.eps_fs * d_to_ch**2
    )


def optimal_cluster_count(n: int, side_m: float, radio: RadioParams, d_to_bs: float) -> float:
    """Cluster count minimizing per-round dissipation, as a real diagnostic.

    ``sqrt(n)/sqrt(2*pi) * sqrt(eps_fs/eps_mp) * M/d_to_bs^2``.  Callers
    needing an integer cluster count round it themselves.
    """
    if n <= 0:
        raise ValueError("n must be strictly positive")
    if d_to_bs <= 0:
        raise ValueError("d_to_bs must be strictly positive")
    return (
        (math.sqrt(n) / math.sqrt(2.0 * math.pi))
        * math.sqrt(radio.eps_fs / radio.eps_mp)
        * (side_m / (d_to_bs * d_to_bs))
    )


def make_energy_estimate(
    n: int, geometry: FieldGeometry, radio: RadioParams, het: HeterogeneityParams
) -> EnergyEstimate:
    """Build the a-priori estimate for a network, using the optimal cluster
    count (rounded, at least 1) in the per-round dissipation."""
    _, d_to_bs = expected_distances(geometry.side_m, 1)
    k = max(1, round(optimal_cluster_count(n, geometry.side_m, radio, d_to_bs)))
    e_total = het.total_energy(n)
    e_round = energy_per_round(n, k, geometry, radio)
    return EnergyEstimate(n=n, e_total=e_total, e_round=e_round, r_lifetime=e_total / e_round)


def absolute_threshold(z: float, e0: float) -> float:
    """Residual-energy level ``z * e0`` below which EDDEEC equalizes the
    election probability across classes.  ``z = 0`` disables the rule."""
    if not 0.0 <= z < 1.0:
        raise ValueError("z must lie in [0, 1)")
    if e0 <= 0:
        raise ValueError("e0 must be strictly positive")
    return z * e0


def election_constants(
    cfg: ProtocolConfig, het: HeterogeneityParams
) -> tuple[np.ndarray, float, float]:
    """Per-run constants of the election law in ``_kernels._probability``.

    Returns ``(pw_by_class, t_low, pw_low)``: ``p_opt * w`` for the normal,
    advanced and super class, and the low-energy rule's threshold and
    ``p_opt * w_low``.  A negative ``t_low`` disables the rule.
    """
    if cfg.kind in (Protocol.DEEC, Protocol.DDEEC):
        weights = (1.0, 1.0 + het.a, 1.0 + het.a)
    else:
        weights = (1.0, 1.0 + het.a, 1.0 + het.b)
    if cfg.kind == Protocol.EDDEEC:
        t_low, w_low = absolute_threshold(cfg.z, het.e0), cfg.c * (1.0 + het.b)
    elif cfg.kind == Protocol.DDEEC:
        t_low, w_low = absolute_threshold(cfg.z, het.e0), 1.0 + het.a
    else:
        t_low, w_low = -1.0, 0.0
    pw_by_class = np.array([cfg.p_opt * w for w in weights], dtype=np.float64)
    return pw_by_class, t_low, cfg.p_opt * w_low
