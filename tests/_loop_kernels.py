"""Reference round kernels: the numpy kernels' arithmetic, one node at a time,
and the scalar first-order radio law they charge through.

Each kernel takes the arguments of its counterpart in
``deecsim._kernels`` and returns the same values, so a run on
``LOOP_KERNELS`` is bit-identical to a run on the default kernels.  A node
is alive while its residual is positive; no kernel takes another record
of it.  The assignment and steady loops test ``residual[i] > 0.0`` per
node and evaluate the same floating-point expressions in the same order.
The steady loop kills a node by its own rule, a remainder at or below
0.0, which it sets to 0.0, and always returns its overdraft array, all
zeros on a round without an overdrawn node, where ``_steady_numpy``
returns ``None``.  The election loop computes the same probability, but
takes the epoch and threshold in its own forms: it skips ``p <= 0``
(every dead node), takes the epoch as ``rint(min(1/p, _EPOCH_LIMIT))``
and clamps ``t`` at 1, where ``_elect_numpy`` takes
``rint(1/max(p, 1/_EPOCH_LIMIT))`` for every node and compares ``u`` with
an unclamped ``t``.  The decisions agree: for ``p > 0`` the two epochs are
equal (``1/(1/_EPOCH_LIMIT)`` is exactly ``_EPOCH_LIMIT``, and past it
both give the limit), ``p = 0`` gives ``t = 0``, which no draw is below,
and ``u < 1``, so ``u < t`` decides as ``u < min(t, 1)``.  The tables
that ``_assign_numpy`` and ``_steady_numpy`` read (pair distances, hop
costs and head charges) are accepted and ignored: the loops recompute
every distance and charge from the coordinates and the radio, so the
parity tests hold the tables to the scalar law.  The tests use them as
the oracle for the vectorized kernels; they are far too slow to run
experiments with.

The scalar law (:func:`distance`, :func:`tx_energy`, :func:`rx_energy`,
:func:`aggregation_energy`) is the tests' independent reference for
``_kernels._transmit`` and ``_kernels._head_charge``.  :func:`_charges`
charges one round through it; the loop steady kernel, the ledger test and
acceptance criterion C6 all call it, the last two by way of
:func:`round_charges`.
"""

import math

import numpy as np

from deecsim import RadioParams
from deecsim._kernels import _EPOCH_LIMIT, P_MAX, Backend


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


def _charges(x, y, bs_cost, ch_ids, members, nearest, radio):
    """Every node's charge for one round, from the scalar law.

    A member pays ``tx_energy`` over its hop to its head ``nearest``; a
    head with ``k`` members pays ``k * rx_energy`` plus
    ``aggregation_energy`` of ``k + 1`` signals plus its ``bs_cost``.  On
    rounds without heads every member pays its own ``bs_cost``.
    """
    n = x.shape[0]
    bits = radio.message_bits
    charge = np.zeros(n, dtype=np.float64)
    member_count = np.zeros(n, dtype=np.int64)

    if ch_ids.size == 0:
        for i in members:
            charge[i] = bs_cost[i]

    for i, c in zip(members, nearest):
        charge[i] = tx_energy(bits, distance((x[i], y[i]), (x[c], y[c])), radio)
        member_count[c] += 1

    for i in ch_ids:
        k = int(member_count[i])
        charge[i] = (k * rx_energy(bits, radio)
                     + aggregation_energy(bits, k + 1, radio) + bs_cost[i])
    return charge


def round_charges(sim, clusters):
    """:func:`_charges` of a round that ``sim`` formed as ``clusters``.

    Every base-station hop is recomputed from ``geometry.bs_position``,
    not read from ``sim.tx_bs``.
    """
    radio = sim.config.radio
    bs = sim.config.geometry.bs_position
    bs_cost = np.array([tx_energy(radio.message_bits, distance(p, bs), radio)
                        for p in zip(sim.x.tolist(), sim.y.tolist())])
    return _charges(sim.x, sim.y, bs_cost, *clusters, radio)


def _elect_loop(residual, ineligible_until, u, rnd, avg, pw, factor, t_low, pw_low):
    n = residual.shape[0]
    heads = np.empty(n, dtype=np.int64)
    k = 0
    scale = factor * avg
    for i in range(n):
        if ineligible_until[i] > rnd:
            continue
        e = residual[i]
        w = pw[i]
        if t_low >= 0.0 and e <= t_low:
            w = pw_low
        p = w * e / scale
        if p > P_MAX:
            p = P_MAX
        if p <= 0.0:
            continue
        inv = 1.0 / p
        if inv > _EPOCH_LIMIT:
            inv = _EPOCH_LIMIT
        epoch = np.int64(np.rint(inv))
        rmod = rnd % epoch
        t = p / (1.0 - p * rmod)
        if t > 1.0:
            t = 1.0
        if u[i] < t:
            heads[k] = i
            k += 1
            ineligible_until[i] = rnd + epoch
    return heads[:k]


def _assign_loop(x, y, residual, ch_ids, d2):
    n = x.shape[0]
    is_head = np.zeros(n, dtype=np.bool_)
    for j in range(ch_ids.size):
        is_head[ch_ids[j]] = True
    members = np.empty(n, dtype=np.int64)
    nearest = np.empty(n, dtype=np.int64)
    k = 0
    for i in range(n):
        if not residual[i] > 0.0 or is_head[i]:
            continue
        members[k] = i
        best = -1
        best_d2 = np.inf
        for j in range(ch_ids.size):
            c = ch_ids[j]
            dx = x[i] - x[c]
            dy = y[i] - y[c]
            dist2 = dx * dx + dy * dy
            if dist2 < best_d2:
                best_d2 = dist2
                best = c
        nearest[k] = best
        k += 1
    return members[:k], nearest[:k if ch_ids.size else 0]


def _steady_loop(x, y, tx_bs, residual, ch_ids, members, nearest, radio, hop, head):
    n = x.shape[0]
    charge = _charges(x, y, tx_bs, ch_ids, members, nearest, radio)
    overdraft = np.zeros(n, dtype=np.float64)

    for i in range(n):
        if not residual[i] > 0.0:
            continue
        remaining = residual[i] - charge[i]
        if remaining <= 0.0:
            overdraft[i] = charge[i] - residual[i]
            residual[i] = 0.0
        else:
            residual[i] = remaining

    return charge, overdraft


LOOP_KERNELS = Backend("loop", _elect_loop, _assign_loop, _steady_loop)
