"""Reference round kernels: the numpy kernels' arithmetic, one node at a time.

Each function takes the arguments of its counterpart in
``deecsim._kernels`` and returns the same values, evaluating the same
floating-point expressions in the same order, so a run on ``LOOP_KERNELS``
is bit-identical to a run on the default kernels.  The pair tables that
``_assign_numpy`` and ``_steady_numpy`` read are accepted and ignored:
the loops recompute every distance and hop cost from the coordinates, so
the parity tests hold the tables to the scalar law.  The tests use them as
the oracle for the vectorized kernels; they are far too slow to run
experiments with.
"""

import math

import numpy as np

from deecsim._kernels import _EPOCH_LIMIT, P_MAX, Backend


def _elect_loop(residual, alive, ineligible_until, u, rnd,
                pw, denom, t_low, pw_low):
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


def _assign_loop(x, y, alive, ch_ids, d2=None):
    n = x.shape[0]
    is_head = np.zeros(n, dtype=np.bool_)
    for j in range(ch_ids.size):
        is_head[ch_ids[j]] = True
    members = np.empty(n, dtype=np.int64)
    nearest = np.empty(n, dtype=np.int64)
    k = 0
    for i in range(n):
        if not alive[i] or is_head[i]:
            continue
        members[k] = i
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
        nearest[k] = best
        k += 1
    return members[:k], nearest[:k if ch_ids.size else 0]


def _steady_loop(x, y, tx_bs, residual, alive, ch_ids, members, nearest, radio, hop=None):
    n = x.shape[0]
    bits = radio.message_bits
    charge = np.zeros(n, dtype=np.float64)
    overdraft = np.zeros(n, dtype=np.float64)
    member_count = np.zeros(n, dtype=np.int64)
    electronics = bits * radio.e_elec

    if ch_ids.size == 0:
        for i in members:
            charge[i] = tx_bs[i]

    for k in range(nearest.size):
        i = members[k]
        c = nearest[k]
        dx = x[i] - x[c]
        dy = y[i] - y[c]
        d = math.sqrt(dx * dx + dy * dy)
        d2 = d * d
        if d < radio.d0:
            charge[i] = electronics + bits * radio.eps_fs * d2
        else:
            charge[i] = electronics + bits * radio.eps_mp * (d2 * d2)
        member_count[c] += 1

    for j in range(ch_ids.size):
        i = ch_ids[j]
        counts = np.float64(member_count[i])
        charge[i] = counts * electronics + bits * radio.e_da * (counts + 1.0) + tx_bs[i]

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

    return charge, overdraft


LOOP_KERNELS = Backend("loop", _elect_loop, _assign_loop, _steady_loop)
