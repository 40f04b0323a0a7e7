"""Decision margins: how far each decision of a run is from flipping.

Every count a run records is set by three kinds of comparison: an election
draw ``u`` against its threshold ``t``, a member's nearest head against its
second nearest, and a node's residual against its charge.  A change of
rounding far below the smallest relative margin cannot flip any of them.
"""

from dataclasses import replace

import numpy as np

from deecsim import get_backend
from deecsim._kernels import _probability, _rotation, _squared_distances


class DecisionMargins:
    """The default round kernels, recording every decision they make.

    Pass :attr:`backend` to ``run``; each run adds to one record.
    :attr:`low` holds the smallest relative margin of each kind seen so far
    and :attr:`exact` the count of margins exactly zero:

    - ``election``: ``|u - t| / min(t, 1)`` over eligible nodes with
      ``t > 0``;
    - ``nearest``: ``(second - best) / best`` in squared distance, over the
      members of rounds with two or more heads;
    - ``death``: ``|residual - charge| / charge`` over charged nodes.
    """

    def __init__(self):
        kernels = get_backend()
        self.low = dict.fromkeys(("election", "nearest", "death"), np.inf)
        self.exact = dict.fromkeys(self.low, 0)

        def elect(residual, ineligible_until, u, rnd, avg, pw, *law):
            _, t = _rotation(_probability(residual, avg, pw, *law), rnd)
            drawn = (ineligible_until <= rnd) & (t > 0.0)
            self._record("election", np.abs(u[drawn] - t[drawn]) / np.minimum(t[drawn], 1.0))
            return kernels.elect(residual, ineligible_until, u, rnd, avg, pw, *law)

        def assign(x, y, residual, ch_ids, d2):
            members, nearest = kernels.assign(x, y, residual, ch_ids, d2)
            if ch_ids.size >= 2 and members.size:
                block = _squared_distances(x[members, None], y[members, None],
                                           x[ch_ids], y[ch_ids])
                best, second = np.partition(block, 1, axis=1)[:, :2].T
                self._record("nearest", (second - best) / best)
            return members, nearest

        def steady(x, y, tx_bs, residual, *rest):
            before = residual.copy()
            charge, overdraft = kernels.steady(x, y, tx_bs, residual, *rest)
            charged = charge > 0.0
            self._record("death", np.abs(before[charged] - charge[charged]) / charge[charged])
            return charge, overdraft

        self.backend = replace(kernels, elect=elect, assign=assign, steady=steady)

    def _record(self, name, margins):
        if margins.size:
            self.low[name] = min(self.low[name], float(margins.min()))
            self.exact[name] += int(np.count_nonzero(margins == 0.0))

    def __str__(self):
        low, exact = self.low, self.exact
        return (f"election {low['election']:.3g}, nearest head {low['nearest']:.3g}, "
                f"death {low['death']:.3g}; exact ties {exact['election'] + exact['nearest']}, "
                f"exact depletions {exact['death']}")
