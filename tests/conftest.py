import pytest
from _loop_kernels import LOOP_KERNELS

from deecsim import (
    RADIO_PROFILES,
    FieldGeometry,
    HeterogeneityParams,
    NetworkConfig,
    Protocol,
    ProtocolConfig,
    get_backend,
)


@pytest.fixture
def het_sec3():
    """The 20/32/48 three-tier population: m=0.8, m0=0.6, a=2, b=3.5, e0=0.5."""
    return HeterogeneityParams(m=0.8, m0=0.6, a=2.0, b=3.5, e0=0.5)


@pytest.fixture
def geometry_100():
    return FieldGeometry(side_m=100.0)


@pytest.fixture
def config_sec3(het_sec3, geometry_100):
    """Factory for benchmark-scenario configs on the leach-standard profile."""

    def make(kind=Protocol.EDDEEC, seed=1, max_rounds=10000, radio="leach-standard", **proto_kw):
        return NetworkConfig(
            n=100,
            geometry=geometry_100,
            radio=RADIO_PROFILES[radio],
            het=het_sec3,
            protocol=ProtocolConfig(kind=kind, **proto_kw),
            seed=seed,
            max_rounds=max_rounds,
        )

    return make


@pytest.fixture(params=[get_backend(), LOOP_KERNELS], ids=lambda kernels: kernels.name)
def kernels(request):
    """Run each hand-worked kernel case on the default kernels and on the
    loop reference, so the oracle of the parity tests is pinned as well."""
    return request.param
