"""Round loop: threshold-draw head election, proximity clustering, and
steady-state data transfer with per-node energy accounting.

A run is strictly deterministic: node placement, class assignment and all
election draws come from one ``numpy`` PCG64 stream seeded from the config.
Each round consumes exactly ``n`` uniforms, one per node id in ascending
order (draws of dead or ineligible nodes are discarded), so the stream
position is independent of simulation state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import protocols as proto
from ._kernels import Backend, _transmit, get_backend
from .metrics import SimResult
from .model import FieldGeometry, NodeClass, RadioParams
from .protocols import (
    AVG_ENERGY_FLOOR_J,
    P_MAX,
    EnergyEstimate,
    HeterogeneityParams,
    ProtocolConfig,
)


@dataclass(frozen=True)
class NetworkConfig:
    """Everything that defines one reproducible simulation run."""

    n: int
    geometry: FieldGeometry
    radio: RadioParams
    het: HeterogeneityParams
    protocol: ProtocolConfig
    seed: int
    max_rounds: int = 10000

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        # surfaces quota problems (e.g. negative advanced count) at config time
        self.het.class_counts(self.n)


@dataclass
class RoundOutcome:
    """Observables of one simulated round.

    ``assignment_codes`` holds one entry per node id: a head id for cluster
    members, ``ASSIGN_CH`` for heads, ``ASSIGN_DIRECT_BS`` for nodes that
    uplinked straight to the BS, ``ASSIGN_NONE`` for nodes dead at round
    start.
    """

    round: int
    ch_ids: np.ndarray
    assignment_codes: np.ndarray
    packets_to_bs: int
    packets_to_ch: int
    alive_after: int
    total_residual_after: float
    charged_j: float
    overdraft_j: float


class Simulation:
    """Single deterministic run over flat per-node arrays.

    ``step()`` advances one round (elect, form clusters, transfer data);
    the three phases are also callable individually.  ``backend`` swaps in
    other round kernels with the same contract as ``get_backend()``'s.
    """

    def __init__(self, config: NetworkConfig, backend: Backend | None = None):
        self.config = config
        self.kernels = get_backend() if backend is None else backend
        self.rng = np.random.default_rng(config.seed)

        n = config.n
        side = config.geometry.side_m
        positions = self.rng.random((n, 2)) * side
        self.x = np.ascontiguousarray(positions[:, 0])
        self.y = np.ascontiguousarray(positions[:, 1])

        counts = config.het.class_counts(n)
        node_class = np.repeat(np.arange(3, dtype=np.int8), counts)
        self.rng.shuffle(node_class)
        self.node_class = node_class

        per_class = np.array(
            [config.het.initial_energy(NodeClass(c)) for c in range(3)], dtype=np.float64
        )
        self.initial_energy = per_class[node_class]
        self.residual = self.initial_energy.copy()
        self.alive = np.ones(n, dtype=np.bool_)
        self.ineligible_until = np.zeros(n, dtype=np.int64)

        bx, by = config.geometry.bs_position
        dx = self.x - bx
        dy = self.y - by
        self.dist_to_bs = np.sqrt(dx * dx + dy * dy)

        self.estimate: EnergyEstimate = proto.make_energy_estimate(
            n, config.geometry, config.radio, config.het
        )
        self._estimated = config.protocol.avg_energy_mode == "estimated"

        # Run constants: the kernels see only what changes from round to round.
        pw_by_class, self._t_low, self._pw_low = proto.election_constants(
            config.protocol, config.het
        )
        self._pw = pw_by_class[node_class]
        self._energy_factor = config.het.total_energy_factor
        radio = config.radio
        bits = float(radio.message_bits)
        self.tx_bs = _transmit(
            self.dist_to_bs, bits, radio.e_elec, radio.eps_fs, radio.eps_mp, radio.d0
        )
        self._radio_args = (bits, radio.e_elec, radio.eps_fs, radio.eps_mp, radio.e_da, radio.d0)
        self.round = 0

    def alive_count(self) -> int:
        return int(np.count_nonzero(self.alive))

    def average_energy(self) -> float:
        """Average-energy reference for the current round, per config mode."""
        if self._estimated:
            return self.estimate.avg_energy_at(self.round)
        count = self.alive_count()
        if count == 0:
            return AVG_ENERGY_FLOOR_J
        return max(float(self.residual[self.alive].sum()) / count, AVG_ENERGY_FLOOR_J)

    def elect_cluster_heads(self) -> np.ndarray:
        """Run the election draws for the current round; returns head ids."""
        u = self.rng.random(self.config.n)
        denom = self._energy_factor * self.average_energy()
        return self.kernels.elect(
            self.residual,
            self.alive,
            self.ineligible_until,
            u,
            self.round,
            self._pw,
            denom,
            self._t_low,
            self._pw_low,
            P_MAX,
        )

    def form_clusters(self, ch_ids: np.ndarray) -> np.ndarray:
        """Assign every alive non-head node to its nearest head (ties to the
        lower head id); with no heads, mark every alive node direct-to-BS."""
        return self.kernels.assign(self.x, self.y, self.alive, ch_ids)

    def steady_state(self, assignment_codes: np.ndarray) -> RoundOutcome:
        """Charge the round's transfers, apply deaths, and advance the round."""
        alive_before = self.alive_count()
        charge, overdraft, packets_to_bs, packets_to_ch, ch_ids = self.kernels.steady(
            self.x, self.y, self.tx_bs, self.residual, self.alive, assignment_codes,
            *self._radio_args,
        )
        alive_after = self.alive_count()
        outcome = RoundOutcome(
            round=self.round,
            ch_ids=ch_ids,
            assignment_codes=assignment_codes,
            packets_to_bs=int(packets_to_bs),
            packets_to_ch=int(packets_to_ch),
            alive_after=alive_after,
            total_residual_after=float(self.residual.sum()),
            charged_j=float(charge.sum()),
            # only nodes that die this round overdraw
            overdraft_j=float(overdraft.sum()) if alive_after < alive_before else 0.0,
        )
        self.round += 1
        return outcome

    def step(self) -> RoundOutcome:
        ch_ids = self.elect_cluster_heads()
        codes = self.form_clusters(ch_ids)
        return self.steady_state(codes)


def run(config: NetworkConfig, backend: Backend | None = None) -> SimResult:
    """Simulate until every node is dead or the round cap is reached."""
    sim = Simulation(config, backend)
    alive = []
    packets_bs = []
    packets_ch = []
    residual = []
    ch_count = []
    charged = []
    overdraft = []
    total_bs = 0
    total_ch = 0
    alive_now = sim.alive_count()
    while sim.round < config.max_rounds and alive_now > 0:
        out = sim.step()
        alive_now = out.alive_after
        total_bs += out.packets_to_bs
        total_ch += out.packets_to_ch
        alive.append(alive_now)
        packets_bs.append(total_bs)
        packets_ch.append(total_ch)
        residual.append(out.total_residual_after)
        ch_count.append(len(out.ch_ids))
        charged.append(out.charged_j)
        overdraft.append(out.overdraft_j)
    return SimResult(
        protocol=config.protocol.kind.value,
        seed=config.seed,
        n=config.n,
        alive=np.array(alive, dtype=np.int64),
        packets_bs=np.array(packets_bs, dtype=np.int64),
        packets_ch=np.array(packets_ch, dtype=np.int64),
        residual_j=np.array(residual, dtype=np.float64),
        ch_count=np.array(ch_count, dtype=np.int64),
        charged_j=np.array(charged, dtype=np.float64),
        overdraft_j=np.array(overdraft, dtype=np.float64),
        max_rounds=config.max_rounds,
    )
