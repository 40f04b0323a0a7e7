"""Per-round simulation kernels: election draws, nearest-head assignment
and steady-state charging, vectorized with numpy.

This module writes the vector form of each per-node law and constant once:
the election probability with its low-energy rule and its clamp ``P_MAX``
(:func:`_probability`), the epoch and rotating threshold
(:func:`_rotation`), the squared distance ``dx*dx + dy*dy``
(:func:`_squared_distances`), the first-order transmit cost
(:func:`_transmit`) and a cluster head's round cost (:func:`_head_charge`).
The engine runs them through the round kernels, and the paper's acceptance
gates (C4, C5, C8, C9) test these same functions;
``protocols.election_constants`` supplies their per-run constants.
The package writes the radio law only here; the test suite writes its
scalar form once, beside its loop reference kernels, as the independent
reference.  Every kernel that applies the radio law (:func:`_transmit`,
:func:`_head_charge`, :func:`_run_tables` and the steady kernel) takes the
run's ``RadioParams`` as one argument and reads its fields by name, so
this module imports nothing from the package.

The engine builds every table a run precomputes with one call of
:func:`_run_tables`, which describes them and alone decides the node count
above which the pair tables are ``None``.

The round kernels hand each other ids, not per-node codes: the election
returns the head ids ``ch_ids``, the assignment the ``(members, nearest)``
of those heads, and the steady kernel the per-node charges from the
three; the engine takes every count and sum of the round, packets too.

A :class:`Backend` bundles the three; :func:`get_backend` returns the only
set, named ``"numpy"``.  ``Simulation`` accepts another ``Backend`` with the
same signatures and return values; the test suite passes one-node-at-a-time
reference kernels that way and requires bit-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Epoch lengths round(1/p) beyond this have no exact integer form in a
# float64; the threshold correction term is negligible there (p < 1.2e-16).
_EPOCH_LIMIT = 2.0**53
# Election probabilities feed the rotating threshold, which requires p < 1.
P_MAX = 0.99


def _probability(e, avg, pw, factor, t_low, pw_low):
    """Election probability ``min(pw * e / (factor * avg), P_MAX)`` of residuals ``e``.

    ``avg`` is the round's average energy; the rest are the run's constants
    from ``protocols.election_constants``.  ``pw`` is each node's
    ``p_opt * w_class``, ``factor`` the population's ``1 + m*a + m*m0*b``,
    and ``pw_low`` the ``p_opt * w_low`` that replaces ``pw`` at or below
    ``t_low``; a negative ``t_low`` disables the low-energy rule.  ``e``,
    ``avg`` and ``pw`` are scalars or arrays that broadcast to one shape;
    the result is a new array.
    """
    if t_low >= 0.0 and np.count_nonzero(low := e <= t_low):
        pw = np.where(low, pw_low, pw)
    p = pw * e
    p /= factor * avg
    np.minimum(p, P_MAX, out=p)
    return p


def _rotation(p, rnd):
    """Epoch lengths and rotating thresholds of probabilities ``p`` in [0, P_MAX].

    The epoch is ``round(1/p)``, capped at ``_EPOCH_LIMIT`` (taken of
    ``max(p, 1/_EPOCH_LIMIT)``, so ``p = 0`` divides by no zero); the
    threshold at round ``rnd`` is ``p / (1 - p * (rnd mod epoch))``.  It
    equals ``p`` at an epoch's first round, 0 at ``p = 0``, and is not
    clamped to 1.
    """
    epoch = np.rint(1.0 / np.maximum(p, 1.0 / _EPOCH_LIMIT)).astype(np.int64)
    return epoch, p / (1.0 - p * (rnd % epoch))


def _elect_numpy(residual, ineligible_until, u, rnd, avg, pw, factor, t_low, pw_low):
    """Threshold-draw election for one round; returns the elected ids.

    The round's state and average energy ``avg`` come first, the run's
    ``_probability`` constants last.  Every node id owns one entry of
    ``u``, and every node gets its ``_probability`` and ``_rotation``; the
    eligible nodes drawing below their threshold win, which no dead node
    (``p = 0``) does.  Elected nodes leave the eligible set for one epoch.
    """
    p = _probability(residual, avg, pw, factor, t_low, pw_low)
    epoch, t = _rotation(p, rnd)
    # u < 1, so u < t decides as u < min(t, 1) would
    heads = ((u < t) & (ineligible_until <= rnd)).nonzero()[0]
    ineligible_until[heads] = rnd + epoch[heads]
    return heads


def _transmit(d, radio):
    """First-order cost of sending ``bits = radio.message_bits`` over ``d``.

    ``bits*e_elec + bits*eps_fs*d**2`` below ``d0`` and
    ``bits*e_elec + bits*eps_mp*d**4`` at or above it.
    """
    bits = radio.message_bits
    d2 = d * d
    return bits * radio.e_elec + np.where(
        d < radio.d0, bits * radio.eps_fs * d2, bits * radio.eps_mp * (d2 * d2))


def _head_charge(members, radio):
    """Round cost before the uplink of heads with ``members`` members each, under ``radio``.

    Reception per member, ``bits*e_elec`` each, and aggregation over
    ``members + 1`` signals, ``bits*e_da`` each.
    """
    bits = radio.message_bits
    return members * (bits * radio.e_elec) + bits * radio.e_da * (members + 1.0)


def _squared_distances(ax, ay, bx, by):
    """``dx*dx + dy*dy`` from points ``a`` to points ``b``, broadcast and
    built in two buffers; ``ax[:, None], ay[:, None]`` give the (a, b) block."""
    d2 = ax - bx
    d2 *= d2
    dy2 = ay - by
    dy2 *= dy2
    d2 += dy2
    return d2


def _nearest_dense(mx, my, hx, hy, ids):
    """Id of every member's nearest head, over the full members x heads block.

    ``argmin`` keeps the first head in ``ids`` order on ties, which is the
    lowest id because callers pass heads in ascending id order.
    """
    return ids[_squared_distances(mx[:, None], my[:, None], hx, hy).argmin(axis=1)]


# Largest n whose runs get pair tables.  They hold 16 * n**2 bytes (160 kB
# at n = 100, 4.2 MB at 512) and take 0.14 ms to build at n = 100 and 8 ms
# at 512.  Engine rounds at n = 100 (2-core x86-64, numpy 2.4; paper-sec3
# population, 4 protocols x 3 seeds x 500 rounds, 20 alternated repetitions,
# run twice) took a median 30.5-32.8 us with both tables, 35.0-36.3 us
# with d2 only, 33.9-34.0 us with hop only and 39.2-39.3 us with neither, all
# bit-identical; so both tables stay, and memory and build time set the cutoff.
_PAIR_TABLE_MAX_NODES = 512


def _run_tables(x, y, bs, radio):
    """The tables ``(tx_bs, d2, hop, head)`` that a run of nodes at ``(x, y)``
    reads every round, for its base station ``bs = (bx, by)`` and ``radio``.

    Nodes never move, so they hold for the whole run.  ``tx_bs[i]`` is node
    i's ``_transmit`` cost to the base station; ``d2[i, j]`` and
    ``hop[i, j]`` are every pair's ``_squared_distances`` entry and
    ``_transmit`` cost, both ``None`` above ``_PAIR_TABLE_MAX_NODES`` nodes;
    ``head[k]`` is ``_head_charge(k, radio)`` for ``k < n``.  Each entry is
    the expression the kernels evaluate without a table, and IEEE
    subtraction is exactly antisymmetric, so ``d2`` is bit-symmetric and a
    run reads the same bits either way.
    """
    bx, by = bs
    tx_bs = _transmit(np.sqrt(_squared_distances(x, y, bx, by)), radio)
    d2 = hop = None
    if x.size <= _PAIR_TABLE_MAX_NODES:
        d2 = _squared_distances(x[:, None], y[:, None], x, y)
        hop = _transmit(np.sqrt(d2), radio)
    return tx_bs, d2, hop, _head_charge(np.arange(x.size), radio)


# Members x heads pairs below which the dense block decides every member.
# Timed on uniform random layouts on the paper's 100 m field (2-core x86-64,
# numpy 2.4): the dense block is 1.6-2.7x faster at 9.6k-24k pairs, and the
# tiled search 1.1-1.4x faster from 28.8k pairs with 32 heads, but at 32k
# pairs with 48-64 heads the dense block still wins by 1.4-1.6x.  So the
# crossover depends on the shape; the cutoff stays at 40k until a workload
# with rounds in that range (n = 600) settles it.  On the same host, at
# n = 5000 (about 300 heads, 1.4M pairs a round) assignment takes about 2 ms
# a round instead of 30 ms, and the dense block's two members x heads
# buffers of up to 14 MB each give way to per-tile blocks of a few tens of
# kB; at n = 20000 (about 1400 heads) it takes about 8 ms.
_TILE_MIN_PAIRS = 40_000
# Tiles per side are floor(sqrt(heads / _HEADS_PER_TILE)).
_HEADS_PER_TILE = 8
# Relative slack on the acceptance radius; covers float rounding of the box.
_ACCEPT_SLACK = 1e-9
# The slack holds only while coordinates are at most this many margins large.
_MAX_COORD_PER_MARGIN = 1e4


def _tile_order(tile, tiles):
    """``np.argsort(tile, kind="stable")`` for integer keys in ``[0, tiles)``.

    The keys are cast to the narrowest unsigned type that holds them, so up to
    65536 tiles take numpy's radix sort; a stable sort's permutation does not
    depend on the key type.
    """
    return np.argsort(tile.astype(np.min_scalar_type(tiles - 1)), kind="stable")


def _nearest_tiled(mx, my, hx, hy, ids):
    """Exactly ``_nearest_dense(mx, my, hx, hy, ids)``, searching near heads.

    Members fall into T x T square tiles over the bounding box of members
    and heads, T = floor(sqrt(heads / 8)); on each axis a member's tile is
    ``min(int((m - x0) / side), T - 1)``.  A tile's members are matched
    against the heads inside the tile grown by a half-tile ``margin``, and a
    result is kept only if its squared distance is below
    ``margin**2 * (1 - 1e-9)``.  Every head outside the grown box is at
    least ``margin`` from each member of the tile, up to rounding: the
    division can leave a member a few ulps of ``T * side`` (under 2e4
    margins by the coordinate guard) outside its tile, a few 1e-12 of a
    margin.  The 1e-9 slack absorbs 5e-10 of a margin, which covers this,
    the box bounds and ``dx*dx + dy*dy``, so such a head can neither win
    nor tie.  The kept result is therefore the dense one, ties included:
    the subset keeps the heads' order and the expression is the same.  All
    other members fall back to the dense search over every head.  A tile's
    near heads are listed as the loop visits it, from one (T, heads) mask
    per axis, so the masks hold 2 * T * heads booleans.  Below
    ``_TILE_MIN_PAIRS`` members x heads, under 2 tiles a side, or past the
    coordinate guard, the dense search decides for all members.
    """
    t = math.isqrt(ids.size // _HEADS_PER_TILE)
    if t < 2 or mx.size * ids.size < _TILE_MIN_PAIRS:
        return _nearest_dense(mx, my, hx, hy, ids)
    x0, x1 = min(mx.min(), hx.min()), max(mx.max(), hx.max())
    y0, y1 = min(my.min(), hy.min()), max(my.max(), hy.max())
    side = max(x1 - x0, y1 - y0) / t
    margin = 0.5 * side
    # relative rounding of coordinates this far out stays far below the slack
    if not margin * _MAX_COORD_PER_MARGIN > max(-x0, x1, -y0, y1):
        return _nearest_dense(mx, my, hx, hy, ids)
    accept = margin * margin * (1.0 - _ACCEPT_SLACK)

    # tile (i, j) spans x0 + edges[i:i+2] by y0 + edges[j:j+2]; its members
    # lie in it up to the rounding the slack absorbs
    tile = (np.minimum(((my - y0) / side).astype(np.intp), t - 1) * t
            + np.minimum(((mx - x0) / side).astype(np.intp), t - 1))
    order = _tile_order(tile, t * t)
    ends = np.bincount(tile, minlength=t * t).cumsum().tolist()
    edges = side * np.arange(t + 1)
    near_col = (hx >= x0 + edges[:-1, None] - margin) & (hx <= x0 + edges[1:, None] + margin)
    near_row = (hy >= y0 + edges[:-1, None] - margin) & (hy <= y0 + edges[1:, None] + margin)

    sx, sy = mx[order], my[order]
    pos = np.full(order.size, -1)  # nearest head near the tile, as an index into ids
    b0 = 0
    for k, b1 in enumerate(ends):
        # tile k's members, and the heads near it as ascending indices into ids
        if b0 < b1 and (near := (near_row[k // t] & near_col[k % t]).nonzero()[0]).size:
            pos[b0:b1] = _nearest_dense(sx[b0:b1], sy[b0:b1], hx[near], hy[near], near)
        b0 = b1

    # pos = -1 reads the last head, which is outside the grown box, so it fails
    d2 = _squared_distances(sx, sy, hx[pos], hy[pos])
    rest = (~(d2 < accept)).nonzero()[0]
    nearest = ids[pos]
    nearest[rest] = _nearest_dense(sx[rest], sy[rest], hx, hy, ids)
    out = np.empty_like(nearest)
    out[order] = nearest
    return out


def _assign_numpy(x, y, residual, ch_ids, d2):
    """Nearest-head cluster assignment, ties to the lower head id.

    Returns ``(members, nearest)``: the ascending ids of the alive nodes
    (residual positive) that are not heads, and each member's nearest head
    id.  With no heads, ``members`` is every alive node, each uplinking
    straight to the BS, and ``nearest`` is empty.

    Given ``_run_tables``' ``d2``, the members x heads block is read from
    it (the heads' rows, transposed, at the members) and no distance is
    computed.  Without it, ``_nearest_tiled`` searches the coordinates; it
    picks the dense block itself where tiles do not pay or cannot be built.
    Both evaluate the same ``_squared_distances`` and keep the lowest head
    id on ties, so they return identical heads.
    """
    member = residual.astype(bool)
    member[ch_ids] = False
    members = member.nonzero()[0]
    if ch_ids.size == 0 or members.size == 0:
        return members, ch_ids[:0]
    if d2 is not None:
        return members, ch_ids[d2.take(ch_ids, axis=0).T[members].argmin(axis=1)]
    return members, _nearest_tiled(x[members], y[members], x[ch_ids], y[ch_ids], ch_ids)


def _steady_numpy(x, y, tx_bs, residual, ch_ids, members, nearest, radio, hop, head):
    """Steady-state data transfer: charge every alive node once.

    ``ch_ids``, ``members`` and ``nearest`` are the round's heads and
    ``_assign_numpy``'s result, ``radio`` the run's ``RadioParams``.  Each
    member transmits to its nearest head over the actual distance (read from
    ``_run_tables``' ``hop`` unless it is ``None``) and a head with ``k``
    members pays its ``tx_bs`` plus ``head[k]``, the run's head table; on
    rounds without heads each member uplinks directly and pays ``tx_bs``.
    A node dies at +0.0, which an exact depletion leaves (``x - x`` is
    +0.0); a node overdrawn below it is clamped there, and its shortfall is
    the overdraft.  Dead nodes carry no charge.  Returns ``(charge,
    overdraft)`` per node, the overdraft ``None`` (all zeros) when no node
    is overdrawn.
    """
    n = x.shape[0]
    charge = np.zeros(n, dtype=np.float64)
    if ch_ids.size:
        if hop is not None:
            charge[members] = hop[members, nearest]
        else:
            d = _squared_distances(x[members], y[members], x[nearest], y[nearest])
            charge[members] = _transmit(np.sqrt(d, out=d), radio)
        charge[ch_ids] = head[np.bincount(nearest, minlength=n)[ch_ids]] + tx_bs[ch_ids]
    else:
        charge[members] = tx_bs[members]
    residual -= charge
    if not np.count_nonzero(residual < 0.0):
        return charge, None
    # 0.0 - (residual - charge) is charge - residual bit for bit, +0.0 included
    overdraft = np.maximum(np.subtract(0.0, residual), 0.0)
    np.maximum(residual, 0.0, out=residual)
    return charge, overdraft


@dataclass(frozen=True)
class Backend:
    """The three round kernels ``Simulation`` calls, under a reported name.

    A node is alive while its residual is positive.  ``steady`` returns the
    per-node ``(charge, overdraft)``, the overdraft ``None`` (all zeros) if
    no node is overdrawn.  Every call gets the run's ``_run_tables`` last,
    ``d2`` to ``assign`` and ``hop`` and ``head`` to ``steady``; a kernel
    set may ignore them, as they hold only what the coordinates and radio
    give.
    """

    name: str
    elect: Callable
    assign: Callable
    steady: Callable


_NUMPY_BACKEND = Backend("numpy", _elect_numpy, _assign_numpy, _steady_numpy)


def get_backend() -> Backend:
    """The round kernels every ``Simulation`` uses unless given others."""
    return _NUMPY_BACKEND
