"""Per-round simulation kernels in two interchangeable flavors.

The numba flavor compiles the per-node loops with ``@njit``; the numpy
flavor vectorizes the same arithmetic.  Both evaluate identical
floating-point expressions in identical order, so a simulation run is
bit-for-bit reproducible across backends.

Backend selection: the ``DEECSIM_BACKEND`` environment variable ("numba" or
"numpy"), overridable per call via :func:`get_backend`.  The default is
numba when importable, else the numpy fallback.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .protocols import _EPOCH_LIMIT

# Assignment codes (per node, per round).
ASSIGN_NONE = -3  # dead this round
ASSIGN_CH = -2  # node is a cluster head
ASSIGN_DIRECT_BS = -1  # no head elected; node uplinks straight to the BS

ENV_VAR = "DEECSIM_BACKEND"

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# numpy flavor


def _elect_numpy(residual, alive, ineligible_until, u, rnd,
                 pw, denom, t_low, pw_low, p_max):
    """Threshold-draw election for one round; returns the elected ids.

    ``pw`` is each node's ``p_opt * w_class`` and ``pw_low`` the
    ``p_opt * w_low`` that replaces it at or below ``t_low`` (a negative
    ``t_low`` disables the rule), so ``p = min(pw * e / denom, p_max)``.
    Every node id owns one entry of ``u``; only alive, eligible nodes with
    ``p > 0`` draw.  Elected nodes leave the eligible set for
    ``round(1/p)`` rounds.
    """
    e = residual
    if t_low >= 0.0:
        pw = np.where(e <= t_low, pw_low, pw)
    p = np.minimum(pw * e / denom, p_max)
    cand = (alive & (ineligible_until <= rnd) & (p > 0.0)).nonzero()[0]
    p = p[cand]
    epoch = np.rint(np.minimum(1.0 / p, _EPOCH_LIMIT)).astype(np.int64)
    t = np.minimum(p / (1.0 - p * (rnd % epoch)), 1.0)
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


def _nearest_dense(mx, my, hx, hy, ids):
    """Id of every member's nearest head, over the full members x heads block.

    ``argmin`` keeps the first head in ``ids`` order on ties, which is the
    lowest id because callers pass heads in ascending id order.
    """
    dx = mx[:, None] - hx[None, :]
    dy = my[:, None] - hy[None, :]
    d2 = dx * dx + dy * dy
    return ids[np.argmin(d2, axis=1)]


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
    order = np.argsort(tile, kind="stable")
    bounds = np.searchsorted(tile[order], np.arange(t * t + 1)).tolist()
    near_col = (hx >= ex[:-1, None] - margin) & (hx <= ex[1:, None] + margin)
    near_row = (hy >= ey[:-1, None] - margin) & (hy <= ey[1:, None] + margin)

    sx, sy = mx[order], my[order]
    pos = np.full(order.size, -1)  # nearest head near the tile, as an index into ids
    for k in range(t * t):
        b0, b1 = bounds[k], bounds[k + 1]
        if b0 == b1:
            continue
        near = np.flatnonzero(near_row[k // t] & near_col[k % t])
        if near.size:
            pos[b0:b1] = _nearest_dense(sx[b0:b1], sy[b0:b1], hx[near], hy[near], near)

    # pos = -1 reads the last head, which is outside the grown box, so it fails
    dx = sx - hx[pos]
    dy = sy - hy[pos]
    rest = np.flatnonzero(~(dx * dx + dy * dy < accept))
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
    3 ms a round instead of 30 ms, and the three members x heads
    temporaries of up to 14 MB each give way to per-tile blocks of a few
    tens of kB; at n = 20000 (about 1400 heads) it takes about 15 ms.
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

    Members transmit to their head over the actual distance; each head is
    charged reception per member, aggregation over members + 1 signals, and
    its transmission to the BS, ``tx_bs``; direct nodes pay ``tx_bs``.
    Nodes complete the round's action even when it kills them (clamped at
    zero; the shortfall is reported as overdraft).
    """
    n = x.shape[0]
    charge = np.zeros(n, dtype=np.float64)

    mi = (codes >= 0).nonzero()[0]
    if mi.size:
        head = codes[mi]
        dx = x[mi] - x[head]
        dy = y[mi] - y[head]
        charge[mi] = _transmit(np.sqrt(dx * dx + dy * dy), bits, e_elec, eps_fs, eps_mp, d0)

    di = (codes == ASSIGN_DIRECT_BS).nonzero()[0]
    if di.size:
        charge[di] = tx_bs[di]

    ch = (codes == ASSIGN_CH).nonzero()[0]
    if ch.size:
        counts = np.bincount(head, minlength=n)[ch].astype(np.float64) if mi.size \
            else np.zeros(ch.size, dtype=np.float64)
        electronics = bits * e_elec
        charge[ch] = counts * electronics + bits * e_da * (counts + 1.0) + tx_bs[ch]

    remaining = residual - charge
    overdraft = np.zeros(n, dtype=np.float64)
    dying = (alive & (remaining <= 0.0)).nonzero()[0]
    if dying.size:
        overdraft[dying] = charge[dying] - residual[dying]
        remaining[dying] = np.maximum(remaining[dying], 0.0)
    np.copyto(residual, remaining, where=alive)
    alive[dying] = False

    packets_to_ch = int(mi.size)
    packets_to_bs = int(ch.size + di.size)
    return charge, overdraft, packets_to_bs, packets_to_ch


# ---------------------------------------------------------------------------
# numba flavor: same arithmetic, loop form


def _elect_loop(residual, alive, ineligible_until, u, rnd,
                pw, denom, t_low, pw_low, p_max):
    n = residual.shape[0]
    heads = np.empty(n, dtype=np.int64)
    k = 0
    for i in range(n):
        if not alive[i] or ineligible_until[i] > rnd:
            continue
        e = residual[i]
        w = pw[i]
        if t_low >= 0.0 and e <= t_low:
            w = pw_low
        p = w * e / denom
        if p > p_max:
            p = p_max
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


def _assign_loop(x, y, alive, ch_ids):
    n = x.shape[0]
    codes = np.full(n, ASSIGN_NONE, dtype=np.int64)
    if ch_ids.size == 0:
        for i in range(n):
            if alive[i]:
                codes[i] = ASSIGN_DIRECT_BS
        return codes
    for j in range(ch_ids.size):
        codes[ch_ids[j]] = ASSIGN_CH
    for i in range(n):
        if not alive[i] or codes[i] == ASSIGN_CH:
            continue
        best = -1
        best_d2 = np.inf
        for j in range(ch_ids.size):
            c = ch_ids[j]
            dx = x[i] - x[c]
            dy = y[i] - y[c]
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best_d2 = d2
                best = c
        codes[i] = best
    return codes


def _steady_loop(x, y, tx_bs, residual, alive, codes,
                 bits, e_elec, eps_fs, eps_mp, e_da, d0):
    n = x.shape[0]
    charge = np.zeros(n, dtype=np.float64)
    overdraft = np.zeros(n, dtype=np.float64)
    member_count = np.zeros(n, dtype=np.int64)
    electronics = bits * e_elec
    packets_to_ch = 0
    packets_to_bs = 0

    for i in range(n):
        code = codes[i]
        if code >= 0:
            dx = x[i] - x[code]
            dy = y[i] - y[code]
            d = math.sqrt(dx * dx + dy * dy)
            d2 = d * d
            if d < d0:
                charge[i] = electronics + bits * eps_fs * d2
            else:
                charge[i] = electronics + bits * eps_mp * (d2 * d2)
            member_count[code] += 1
            packets_to_ch += 1
        elif code == ASSIGN_DIRECT_BS:
            charge[i] = tx_bs[i]
            packets_to_bs += 1

    for i in range(n):
        if codes[i] == ASSIGN_CH:
            counts = np.float64(member_count[i])
            charge[i] = counts * electronics + bits * e_da * (counts + 1.0) + tx_bs[i]
            packets_to_bs += 1

    for i in range(n):
        if not alive[i]:
            continue
        remaining = residual[i] - charge[i]
        if remaining <= 0.0:
            overdraft[i] = charge[i] - residual[i]
            residual[i] = 0.0
            alive[i] = False
        else:
            residual[i] = remaining

    return charge, overdraft, packets_to_bs, packets_to_ch


if HAVE_NUMBA:
    _jit = numba.njit(cache=True, nogil=True)
    _elect_numba = _jit(_elect_loop)
    _assign_numba = _jit(_assign_loop)
    _steady_numba = _jit(_steady_loop)


@dataclass(frozen=True)
class Backend:
    name: str
    elect: Callable
    assign: Callable
    steady: Callable


_NUMPY_BACKEND = Backend("numpy", _elect_numpy, _assign_numpy, _steady_numpy)
if HAVE_NUMBA:
    _NUMBA_BACKEND = Backend("numba", _elect_numba, _assign_numba, _steady_numba)


def get_backend(name: str | None = None) -> Backend:
    """Resolve a kernel backend by name, the environment, or availability."""
    if name is None:
        name = os.environ.get(ENV_VAR, "").strip().lower() or None
    if name is None:
        return _NUMBA_BACKEND if HAVE_NUMBA else _NUMPY_BACKEND
    if name == "numpy":
        return _NUMPY_BACKEND
    if name == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba backend requested but numba is not importable")
        return _NUMBA_BACKEND
    raise ValueError(f"unknown backend {name!r}; expected 'numba' or 'numpy'")


if not HAVE_NUMBA and os.environ.get(ENV_VAR, "").strip().lower() not in ("", "numpy"):
    warnings.warn("numba unavailable; falling back to the numpy backend", RuntimeWarning)
