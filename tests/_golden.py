"""Golden digests: SHA-256 over every field of a set of ``SimResult`` runs.

``data/golden.json`` holds two sets, recorded once and never regenerated by
the suite: ``paper-sec3``, one digest per protocol over the acceptance batch
(all 20 seeds, full length), and ``runs``, one digest per run of
:func:`fast_runs`.  A kernel change that alters any number of any run
changes a digest.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from deecsim import (
    RADIO_PROFILES,
    FieldGeometry,
    HeterogeneityParams,
    NetworkConfig,
    Protocol,
    ProtocolConfig,
)
from deecsim.metrics import SimResult

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


def digest(results) -> str:
    """SHA-256 over every field of every result, in order."""
    h = hashlib.sha256()
    for result in results:
        for field in dataclasses.fields(SimResult):
            value = getattr(result, field.name)
            if isinstance(value, np.ndarray):
                h.update(f"{field.name}:{value.dtype.str}:{value.shape}".encode())
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(f"{field.name}={value!r}".encode())
    return h.hexdigest()


def fast_runs() -> dict[str, NetworkConfig]:
    """The ``runs`` set, by name.

    Every protocol on ``table1-verbatim`` at seeds 1 and 2 in both average
    energy modes, capped at 1500 rounds (each run dies well before), plus
    20 rounds at n = 2000, where nearest-head assignment takes the tiled
    path.
    """
    het = HeterogeneityParams(m=0.8, m0=0.6, a=2.0, b=3.5, e0=0.5)

    def config(kind, seed, max_rounds, radio, n=100, **proto_kw):
        return NetworkConfig(
            n=n,
            geometry=FieldGeometry(side_m=100.0),
            radio=RADIO_PROFILES[radio],
            het=het,
            protocol=ProtocolConfig(kind=kind, **proto_kw),
            seed=seed,
            max_rounds=max_rounds,
        )

    runs = {
        f"{kind.value}/seed{seed}/{mode}": config(
            kind, seed, 1500, "table1-verbatim", avg_energy_mode=mode
        )
        for kind in Protocol
        for seed in (1, 2)
        for mode in ("estimated", "true")
    }
    runs["eddeec/n2000/seed42"] = config(
        Protocol.EDDEEC, 42, 20, "leach-standard", n=2000, c=0.1
    )
    return runs
