"""Reference round kernels: the numpy kernels' arithmetic, one node at a time.

Each function takes the arguments of its counterpart in
``deecsim._kernels`` and returns the same values, evaluating the same
floating-point expressions in the same order, so a run on ``LOOP_KERNELS``
is bit-identical to a run on the default kernels.  The tests use them as
the oracle for the vectorized kernels; they are far too slow to run
experiments with.
"""

import math

import numpy as np

from deecsim._kernels import _EPOCH_LIMIT, ASSIGN_CH, ASSIGN_DIRECT_BS, ASSIGN_NONE, Backend


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
    heads = np.empty(n, dtype=np.int64)
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

    k = 0
    for i in range(n):
        if codes[i] == ASSIGN_CH:
            counts = np.float64(member_count[i])
            charge[i] = counts * electronics + bits * e_da * (counts + 1.0) + tx_bs[i]
            packets_to_bs += 1
            heads[k] = i
            k += 1

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

    return charge, overdraft, packets_to_bs, packets_to_ch, heads[:k]


LOOP_KERNELS = Backend("loop", _elect_loop, _assign_loop, _steady_loop)
