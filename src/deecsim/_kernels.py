"""Per-round simulation kernels: election draws, nearest-head assignment
and steady-state charging, vectorized with numpy.

This module is the only place the per-node laws are written: the election
probability with its low-energy rule (:func:`_probability`), the epoch and
rotating threshold (:func:`_rotation`), the first-order transmit cost
(:func:`_transmit`) and a cluster head's round cost (:func:`_head_charge`).  The engine runs them through the round kernels, and
the paper's acceptance gates (C4, C5, C8, C9) test these same functions;
``protocols.election_constants`` supplies their per-run constants.

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

# Assignment codes (per node, per round).
ASSIGN_NONE = -3  # dead this round
ASSIGN_CH = -2  # node is a cluster head
ASSIGN_DIRECT_BS = -1  # no head elected; node uplinks straight to the BS

# Epoch lengths round(1/p) beyond this have no exact integer form in a
# float64; the threshold correction term is negligible there (p < 1.2e-16).
_EPOCH_LIMIT = 2.0**53


def _probability(e, pw, denom, t_low, pw_low, p_max):
    """Election probability ``min(pw * e / denom, p_max)`` of residuals ``e``.

    ``pw`` is each node's ``p_opt * w_class`` and ``pw_low`` the
    ``p_opt * w_low`` that replaces it at or below ``t_low``; a negative
    ``t_low`` disables the low-energy rule.  ``denom`` is
    ``(1 + m*(a + m0*b)) * avg_energy``.  ``e`` and ``pw`` are arrays of one
    shape (or broadcast to one); the result is a new array.
    """
    if t_low >= 0.0:
        pw = np.where(e <= t_low, pw_low, pw)
    p = pw * e
    p /= denom
    np.minimum(p, p_max, out=p)
    return p


def _rotation(p, rnd):
    """Epoch lengths and rotating thresholds of probabilities ``p`` (> 0).

    The epoch is ``round(1/p)``, capped at ``_EPOCH_LIMIT``; the threshold
    at round ``rnd`` is ``p / (1 - p * (rnd mod epoch))``.  It equals ``p``
    at an epoch's first round and is not clamped to 1.
    """
    epoch = np.rint(np.minimum(1.0 / p, _EPOCH_LIMIT)).astype(np.int64)
    return epoch, p / (1.0 - p * (rnd % epoch))


def _elect_numpy(residual, alive, ineligible_until, u, rnd,
                 pw, denom, t_low, pw_low, p_max):
    """Threshold-draw election for one round; returns the elected ids.

    Every node id owns one entry of ``u``; only alive, eligible nodes with
    ``_probability(...) > 0`` draw, against ``_rotation``'s threshold.
    Elected nodes leave the eligible set for one epoch.
    """
    cand = (alive & (ineligible_until <= rnd)).nonzero()[0]
    p = _probability(residual[cand], pw[cand], denom, t_low, pw_low, p_max)
    if np.count_nonzero(p) < p.size:
        drawn = p > 0.0
        cand, p = cand[drawn], p[drawn]
    epoch, t = _rotation(p, rnd)
    # u < 1, so u < t decides as u < min(t, 1) would
    won = u[cand] < t
    heads = cand[won]
    ineligible_until[heads] = rnd + epoch[won]
    return heads


def _transmit(d, bits, e_elec, eps_fs, eps_mp, d0):
    """First-order radio cost of sending ``bits`` over distances ``d``.

    ``bits*e_elec + bits*eps_fs*d**2`` below ``d0`` and
    ``bits*e_elec + bits*eps_mp*d**4`` at or above it.
    """
    d2 = d * d
    return bits * e_elec + np.where(d < d0, bits * eps_fs * d2, bits * eps_mp * (d2 * d2))


def _head_charge(members, tx_bs, bits, e_elec, e_da):
    """Round cost of heads with ``members`` members each.

    Reception per member, ``bits*e_elec`` each; aggregation over
    ``members + 1`` signals, ``bits*e_da`` each; and the uplink ``tx_bs``.
    """
    return members * (bits * e_elec) + bits * e_da * (members + 1.0) + tx_bs


def _nearest_dense(mx, my, hx, hy, ids):
    """Id of every member's nearest head, over the full members x heads block.

    ``argmin`` keeps the first head in ``ids`` order on ties, which is the
    lowest id because callers pass heads in ascending id order.
    """
    d2 = np.subtract.outer(mx, hx)
    d2 *= d2
    dy2 = np.subtract.outer(my, hy)
    dy2 *= dy2
    d2 += dy2
    return ids[d2.argmin(axis=1)]


# Members x heads work below which one dense block beats the tiled search
# (measured; see _assign_numpy).
_TILE_MIN_PAIRS = 40_000
# Tiles per side are floor(sqrt(heads / _HEADS_PER_TILE)).
_HEADS_PER_TILE = 8
# Relative slack on the acceptance radius; covers float rounding of the box.
_ACCEPT_SLACK = 1e-9
# The slack holds only while coordinates are at most this many margins large.
_MAX_COORD_PER_MARGIN = 1e4


def _tile_edges(lo, hi, t, side):
    """``t + 1`` ascending tile edges from ``lo``; the last covers ``hi``."""
    edges = lo + side * np.arange(t + 1)
    edges[-1] = max(edges[-1], hi)
    return edges


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
    and heads, T = floor(sqrt(heads / 8)).  A tile's members are matched
    against the heads inside the tile grown by a half-tile ``margin``, and a
    result is kept only if its squared distance is below
    ``margin**2 * (1 - 1e-9)``.  Every head outside the grown box is at
    least ``margin`` from each member of the tile; the 1e-9 slack absorbs
    the rounding of the box bounds and of ``dx*dx + dy*dy``, so such a head
    can neither win nor tie.  The kept result is therefore the dense one,
    ties included: the subset keeps the heads' order and the expression is
    the same.  All other members fall back to the dense search over every
    head.  Returns ``None`` when the layout is too small or too narrow to
    tile; the caller then runs the dense search.
    """
    t = math.isqrt(ids.size // _HEADS_PER_TILE)
    if t < 2:
        return None
    x0, x1 = min(mx.min(), hx.min()), max(mx.max(), hx.max())
    y0, y1 = min(my.min(), hy.min()), max(my.max(), hy.max())
    side = max(x1 - x0, y1 - y0) / t
    margin = 0.5 * side
    # relative rounding of coordinates this far out stays far below the slack
    if not margin * _MAX_COORD_PER_MARGIN > max(-x0, x1, -y0, y1):
        return None
    accept = margin * margin * (1.0 - _ACCEPT_SLACK)

    ex = _tile_edges(x0, x1, t, side)
    ey = _tile_edges(y0, y1, t, side)
    # a member of tile (i, j) lies in [ex[i], ex[i+1]] x [ey[j], ey[j+1]]
    tile = (np.searchsorted(ey[1:-1], my, side="right") * t
            + np.searchsorted(ex[1:-1], mx, side="right"))
    order = _tile_order(tile, t * t)
    ends = np.bincount(tile, minlength=t * t).cumsum().tolist()
    near_col = (hx >= ex[:-1, None] - margin) & (hx <= ex[1:, None] + margin)
    near_row = (hy >= ey[:-1, None] - margin) & (hy <= ey[1:, None] + margin)
    # row j * t + i: the heads near tile (i, j), as ascending indices into ids;
    # (t * t) x heads booleans, about heads**2 / 8 bytes
    near = (near_row[:, None, :] & near_col[None, :, :]).reshape(t * t, -1)
    near_ends = np.count_nonzero(near, axis=1).cumsum().tolist()
    near = near.nonzero()[1]
    near_x, near_y = hx[near], hy[near]

    sx, sy = mx[order], my[order]
    pos = np.full(order.size, -1)  # nearest head near the tile, as an index into ids
    b0 = h0 = 0
    for b1, h1 in zip(ends, near_ends):
        if b0 < b1 and h0 < h1:
            pos[b0:b1] = _nearest_dense(sx[b0:b1], sy[b0:b1],
                                        near_x[h0:h1], near_y[h0:h1], near[h0:h1])
        b0, h0 = b1, h1

    # pos = -1 reads the last head, which is outside the grown box, so it fails
    d2 = sx - hx[pos]
    d2 *= d2
    dy2 = sy - hy[pos]
    dy2 *= dy2
    d2 += dy2
    rest = (~(d2 < accept)).nonzero()[0]
    nearest = ids[pos]
    if rest.size:
        nearest[rest] = _nearest_dense(sx[rest], sy[rest], hx, hy, ids)
    out = np.empty_like(nearest)
    out[order] = nearest
    return out


def _assign_numpy(x, y, alive, ch_ids):
    """Nearest-head cluster assignment, ties to the lower head id.

    With no heads, every alive node is marked direct-to-BS.

    Below ``_TILE_MIN_PAIRS`` members x heads one dense block of squared
    distances decides.  Above it the members are bucketed into T x T square
    tiles, T = floor(sqrt(heads / 8)), and each tile searches only the heads
    within a half-tile margin of it; members whose nearest head may lie
    farther out fall back to all heads (``_nearest_tiled`` gives the
    exactness argument).  Both paths evaluate the same ``dx*dx + dy*dy``
    and keep the lowest head id on ties, so they return identical codes.

    The 40k-pair crossover was measured on engine rounds at n = 300..1000
    on the paper's 100 m field (2-core x86-64, numpy 2.4): between about
    15k and 60k pairs the faster path changes from round to round, and the
    tiled path wins on most rounds above 60k.  On the same host, at
    n = 5000 (about 300 heads, 1.4M pairs a round) assignment takes about
    2 ms a round instead of 30 ms, and the dense block's two members x
    heads buffers of up to 14 MB each give way to per-tile blocks of a few
    tens of kB; at n = 20000 (about 1400 heads) it takes about 8 ms.
    """
    n = x.shape[0]
    codes = np.full(n, ASSIGN_NONE, dtype=np.int64)
    if ch_ids.size == 0:
        codes[alive] = ASSIGN_DIRECT_BS
        return codes
    codes[ch_ids] = ASSIGN_CH
    member = alive.copy()
    member[ch_ids] = False
    mi = member.nonzero()[0]
    if mi.size:
        mx, my, hx, hy = x[mi], y[mi], x[ch_ids], y[ch_ids]
        if mi.size * ch_ids.size < _TILE_MIN_PAIRS:
            codes[mi] = _nearest_dense(mx, my, hx, hy, ch_ids)
        else:
            nearest = _nearest_tiled(mx, my, hx, hy, ch_ids)
            if nearest is None:
                nearest = _nearest_dense(mx, my, hx, hy, ch_ids)
            codes[mi] = nearest
    return codes


def _steady_numpy(x, y, tx_bs, residual, alive, codes,
                  bits, e_elec, eps_fs, eps_mp, e_da, d0):
    """Steady-state data transfer: charge every alive node once.

    Members transmit to their head over the actual distance; each head pays
    ``_head_charge`` and each direct node its uplink, ``tx_bs``.
    Nodes complete the round's action even when it kills them (clamped at
    zero; the shortfall is reported as overdraft).  Returns per-node charge
    and overdraft, the packet counts, and the head ids in ascending order.
    """
    n = x.shape[0]
    direct = codes == ASSIGN_DIRECT_BS
    charge = np.where(direct, tx_bs, 0.0)
    packets_to_bs = np.count_nonzero(direct)
    packets_to_ch = 0
    ch = (codes == ASSIGN_CH).nonzero()[0]
    if ch.size:  # members point at heads, so without heads there are none
        mi = (codes >= 0).nonzero()[0]
        head = codes[mi]
        d = x[mi] - x[head]
        d *= d
        dy2 = y[mi] - y[head]
        dy2 *= dy2
        d += dy2
        charge[mi] = _transmit(np.sqrt(d, out=d), bits, e_elec, eps_fs, eps_mp, d0)
        members = np.bincount(head, minlength=n)[ch]
        charge[ch] = _head_charge(members, tx_bs[ch], bits, e_elec, e_da)
        packets_to_ch = mi.size
        packets_to_bs += ch.size

    remaining = residual - charge
    overdraft = np.zeros(n, dtype=np.float64)
    dying = (alive & (remaining <= 0.0)).nonzero()[0]
    if dying.size:
        overdraft[dying] = charge[dying] - residual[dying]
        remaining[dying] = 0.0
    np.copyto(residual, remaining, where=alive)
    alive[dying] = False
    return charge, overdraft, packets_to_bs, packets_to_ch, ch


@dataclass(frozen=True)
class Backend:
    """The three round kernels ``Simulation`` calls, under a reported name."""

    name: str
    elect: Callable
    assign: Callable
    steady: Callable


_NUMPY_BACKEND = Backend("numpy", _elect_numpy, _assign_numpy, _steady_numpy)


def get_backend() -> Backend:
    """The round kernels every ``Simulation`` uses unless given others."""
    return _NUMPY_BACKEND
