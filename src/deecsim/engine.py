"""Round loop: threshold-draw head election, proximity clustering, and
steady-state data transfer with per-node energy accounting.

A run is strictly deterministic: node placement, class assignment and all
election draws come from one ``numpy`` PCG64 stream seeded from the config.
Each round consumes exactly ``n`` uniforms, one per node id in ascending
order (draws of dead or ineligible nodes are discarded), so the stream
position is independent of simulation state.  They are drawn ahead in
chunks ``rng.random((k, n))``, the same bits as ``k`` draws of ``n``, with
``k`` the rows that fit in ``_DRAW_CHUNK_BYTES`` (at least one); each
election takes the next row, whatever the round.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import protocols as proto
from ._kernels import (Backend, _head_charge, _pair_tables, _squared_distances, _transmit,
                       get_backend)
from .metrics import SimResult
from .model import FieldGeometry, NodeClass, RadioParams
from .protocols import (
    AVG_ENERGY_FLOOR_J,
    EnergyEstimate,
    HeterogeneityParams,
    ProtocolConfig,
)

_DRAW_CHUNK_BYTES = 64 * 1024  # uniforms drawn ahead, at least one row: 81 rows at n = 100


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
        for name in ("n", "seed", "max_rounds"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must not be negative")


class Simulation:
    """Single deterministic run over flat per-node arrays.

    ``step()`` advances one round (elect, form clusters, transfer data);
    the three phases are also callable individually, each taking what the
    one before returns: the head ids, then the clusters ``(ch_ids, members,
    nearest)``.  ``steady_state`` takes every count and sum of a round
    into one row, and ``result()`` returns the series of the rounds run so
    far.  ``backend`` swaps in other round kernels with the same contract
    as ``get_backend()``'s.

    Node positions ``x`` and ``y`` are fixed for the run and read-only.
    The constructor takes the run's pair tables ``pair_d2`` (squared
    distances) and ``pair_hop`` (member-to-head transmit costs) from
    ``_kernels._pair_tables``, which decides the node-count cutoff: up to
    it they hold 16 * n**2 bytes in all and the round kernels read
    distances and hop costs from them; above it both are ``None`` and the
    kernels compute from the coordinates.  Either way a run's numbers are
    the same bits (see ``_kernels``).
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
        # the pair tables and tx_bs are computed from these once
        self.x.flags.writeable = self.y.flags.writeable = False

        counts = config.het.class_counts(n)
        node_class = np.repeat(np.arange(3, dtype=np.int8), counts)
        self.rng.shuffle(node_class)
        self.node_class = node_class

        per_class = np.array(
            [config.het.initial_energy(c) for c in NodeClass], dtype=np.float64
        )
        self.initial_energy = per_class[node_class]
        self.residual = self.initial_energy.copy()  # positive while alive, +0.0 when dead
        self.ineligible_until = np.zeros(n, dtype=np.int64)

        self.estimate: EnergyEstimate = proto.make_energy_estimate(
            n, config.geometry, config.radio, config.het
        )
        self._estimated = config.protocol.avg_energy_mode == "estimated"

        # Run constants: the kernels see only what changes from round to round.
        # The election law's are per-node p_opt*w, then factor, t_low and pw_low.
        pw_by_class, *rest = proto.election_constants(config.protocol, config.het)
        self._law = (pw_by_class[node_class], *rest)
        bx, by = config.geometry.bs_position
        dist_to_bs = np.sqrt(_squared_distances(self.x, self.y, bx, by))
        self.tx_bs = _transmit(dist_to_bs, config.radio)
        self.pair_d2, self.pair_hop = _pair_tables(self.x, self.y, config.radio)
        self._head_table = _head_charge(np.arange(n), config.radio)
        self._uniforms = iter(())  # the rows of the last chunk not yet taken
        self.round = 0
        # one row per round: (alive, packets to BS, packets to heads, heads)
        # and (residual, charged, overdraft) in joules
        self._counts: list[tuple] = []
        self._energy: list[tuple] = []

    @property
    def alive(self) -> np.ndarray:
        """Read-only mask of the alive nodes, derived from the residual."""
        alive = self.residual.astype(bool)
        alive.flags.writeable = False
        return alive

    def alive_count(self) -> int:
        return int(np.count_nonzero(self.residual))

    def average_energy(self) -> float:
        """Average-energy reference for the current round, per config mode."""
        if self._estimated:
            return self.estimate.avg_energy_at(self.round)
        alive = self.residual[self.alive]
        if alive.size == 0:
            return AVG_ENERGY_FLOOR_J
        return max(float(alive.sum()) / alive.size, AVG_ENERGY_FLOOR_J)

    def elect_cluster_heads(self) -> np.ndarray:
        """Run the election draws for the current round; returns head ids."""
        u = next(self._uniforms, None)
        if u is None:
            n = self.config.n
            rows = max(1, _DRAW_CHUNK_BYTES // (8 * n))
            self._uniforms = iter(self.rng.random((rows, n)))
            u = next(self._uniforms)
        return self.kernels.elect(self.residual, self.ineligible_until, u, self.round,
                                  self.average_energy(), *self._law)

    def form_clusters(self, ch_ids: np.ndarray) -> tuple:
        """The round's clusters ``(ch_ids, members, nearest)``: the heads,
        the ascending ids of the other alive nodes, and each member's
        nearest head id (ties to the lower id).  With no heads every alive
        node is a member that uplinks directly, and ``nearest`` is empty."""
        return (ch_ids, *self.kernels.assign(self.x, self.y, self.residual, ch_ids, self.pair_d2))

    def steady_state(self, clusters: tuple) -> None:
        """Charge the transfers of ``form_clusters``' clusters, apply
        deaths, record the round's row and advance the round.  Packets come
        from the clusters: to the BS one per head (per member if none), to
        heads one per ``nearest`` entry.  The overdraft is +0.0 on rounds
        where no node is overdrawn, an exact depletion's included."""
        ch_ids, members, nearest = clusters
        charge, overdraft = self.kernels.steady(
            self.x, self.y, self.tx_bs, self.residual, *clusters,
            self.config.radio, self.pair_hop, self._head_table,
        )
        to_bs = ch_ids.size or members.size
        self._counts.append((self.alive_count(), to_bs, nearest.size, ch_ids.size))
        add = np.add.reduce  # ndarray.sum's pairwise sum, without its wrapper
        self._energy.append((add(self.residual), add(charge),
                             0.0 if overdraft is None else add(overdraft)))
        self.round += 1

    def step(self) -> None:
        self.steady_state(self.form_clusters(self.elect_cluster_heads()))

    def result(self) -> SimResult:
        """The series of the rounds run so far; packet counts cumulative."""
        counts = np.array(self._counts, dtype=np.int64).reshape(-1, 4)
        energy = np.array(self._energy, dtype=np.float64).reshape(-1, 3)
        # transposed copies, so that each series is one contiguous row
        alive, to_bs, to_ch, heads = counts.T.copy()
        residual, charged, overdraft = energy.T.copy()
        config = self.config
        return SimResult(
            protocol=config.protocol.kind.value,
            seed=config.seed,
            n=config.n,
            alive=alive,
            packets_bs=np.cumsum(to_bs),
            packets_ch=np.cumsum(to_ch),
            residual_j=residual,
            ch_count=heads,
            charged_j=charged,
            overdraft_j=overdraft,
            max_rounds=config.max_rounds,
        )


def run(config: NetworkConfig, backend: Backend | None = None) -> SimResult:
    """Simulate until every node is dead or the round cap is reached."""
    sim = Simulation(config, backend)
    alive = config.n
    while alive and sim.round < config.max_rounds:
        sim.step()
        alive = sim._counts[-1][0]  # the count steady_state recorded
    return sim.result()
