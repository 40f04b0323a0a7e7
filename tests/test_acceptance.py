"""Acceptance suite for the bundled benchmark scenario.

Runs the full four-protocol, 20-seed experiment once and checks the
published comparison targets plus the closed-form and property gates.
Each criterion prints one `ACCEPTANCE Cn PASS|FAIL` line (visible with
`pytest -s` or in captured output).

Known outcome: C1 and C2 fail at their stated margins.  Under the
first-order radio model the electronics constant dominates every hop, which
caps the cross-protocol spread of death rounds near 10%, far below the
published 30%+ separations.  The failures are deliberate and documented in
the README ("Reproduction notes"); the criteria are asserted exactly as
stated rather than loosened to pass.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from _golden import GOLDEN, digest

from deecsim import (
    P_MAX,
    RADIO_PROFILES,
    Protocol,
    ProtocolConfig,
    Simulation,
    absolute_threshold,
    aggregation_energy,
    distance,
    expected_distances,
    run,
    rx_energy,
    summarize,
    tx_energy,
)
from deecsim._kernels import _elect_numpy, _probability, _rotation
from deecsim.cli import load_spec, run_experiment
from deecsim.protocols import election_constants


def report(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C{number} {status} - {description} ({detail})")
    if not ok:
        pytest.fail(f"criterion {number}: {description}: {detail}")


@pytest.fixture(scope="module")
def spec():
    return load_spec("paper-sec3")


@pytest.fixture(scope="module")
def batch(spec):
    """All (protocol, seed) runs of the bundled scenario, with wall time."""
    results = {}
    start = time.perf_counter()
    for protocol in spec.protocols:
        results[protocol.value] = [
            run(spec.network_config(protocol, seed)) for seed in spec.seeds
        ]
    elapsed = time.perf_counter() - start
    return results, elapsed


def mean_of(results, field):
    values = []
    for result in results:
        summary = summarize(result)
        value = getattr(summary, field)
        values.append(float(value if value is not None else summary.rounds))
    return float(np.mean(values))


def test_criterion_1_stability_ordering(batch):
    results, elapsed = batch
    first = {p: mean_of(results[p], "first_dead") for p in results}
    ordering_ok = first["eddeec"] > first["edeec"] > first["ddeec"] > first["deec"]
    margin_ok = first["eddeec"] >= 1.3 * first["deec"]
    runtime_ok = elapsed < 120.0
    detail = (
        f"mean first-dead: eddeec={first['eddeec']:.1f}, edeec={first['edeec']:.1f}, "
        f"ddeec={first['ddeec']:.1f}, deec={first['deec']:.1f}; "
        f"eddeec/deec={first['eddeec'] / first['deec']:.3f} (need >=1.3); "
        f"batch ran in {elapsed:.1f}s (budget 120s)"
    )
    report(1, "stability-period ordering over 20 seeds", ordering_ok and margin_ok and runtime_ok, detail)


def test_criterion_2_lifetime_margins(batch, spec):
    results, _ = batch
    all_dead = {p: mean_of(results[p], "all_dead") for p in results}
    close = abs(all_dead["edeec"] - all_dead["eddeec"]) <= 0.05 * min(
        all_dead["edeec"], all_dead["eddeec"]
    )
    margins = (
        all_dead["edeec"] >= 1.3 * all_dead["deec"]
        and all_dead["eddeec"] >= 1.3 * all_dead["deec"]
    )
    # reproduction-profile record: the verbatim table constants cannot reach
    # the published lifetime magnitudes, the pJ convention can
    assert spec.template.radio.eps_fs == 10e-12, "bundled scenario must use leach-standard"
    verbatim = [
        summarize(run(replace(spec.network_config(Protocol.EDDEEC, seed),
                              radio=RADIO_PROFILES["table1-verbatim"])))
        for seed in spec.seeds[:4]
    ]
    verbatim_all_dead = float(np.mean([s.all_dead for s in verbatim]))
    profile_ok = verbatim_all_dead < 0.5 * 5536 and all_dead["eddeec"] >= 0.5 * 5536
    detail = (
        f"mean all-dead: edeec={all_dead['edeec']:.1f}, eddeec={all_dead['eddeec']:.1f} "
        f"(gap {abs(all_dead['edeec'] - all_dead['eddeec']) / min(all_dead['edeec'], all_dead['eddeec']):.1%}, need <=5%); "
        f"deec={all_dead['deec']:.1f}, edeec/deec={all_dead['edeec'] / all_dead['deec']:.3f}, "
        f"eddeec/deec={all_dead['eddeec'] / all_dead['deec']:.3f} (need >=1.3); "
        f"table1-verbatim all-dead={verbatim_all_dead:.0f} vs leach-standard {all_dead['eddeec']:.0f} "
        f"(published magnitudes 5536-8638: only leach-standard within 50%)"
    )
    report(2, "lifetime margins and reproduction profile", close and margins and profile_ok, detail)


def test_batch_matches_golden_digests(batch):
    results, _ = batch
    assert {p: digest(runs) for p, runs in results.items()} == GOLDEN["paper-sec3"]


def test_criterion_3_packet_dominance(batch):
    results, _ = batch
    packets = {
        p: float(np.mean([summarize(r).total_packets_bs for r in results[p]]))
        for p in results
    }
    ok = packets["eddeec"] >= packets["edeec"] >= packets["deec"]
    detail = (
        f"mean packets at death: eddeec={packets['eddeec']:.0f}, "
        f"edeec={packets['edeec']:.0f}, deec={packets['deec']:.0f}"
    )
    report(3, "packets-to-BS dominance", ok, detail)


def probabilities(e, pw, avg, het, cfg):
    """The engine's election probability of residuals ``e`` at class
    weights ``pw`` (``p_opt * w``) and average energies ``avg``."""
    _, t_low, pw_low = election_constants(cfg, het)
    return _probability(e, pw, het.total_energy_factor * avg, t_low, pw_low, P_MAX)


def test_criterion_4_reduction_identity(spec):
    rng = np.random.default_rng(20130228)
    het = spec.template.het
    eddeec = replace(spec.template.protocol, kind=Protocol.EDDEEC, z=0.0)
    edeec = ProtocolConfig(kind=Protocol.EDEEC, p_opt=spec.template.protocol.p_opt)
    node_class, e, avg = np.zeros(1000, dtype=np.int64), np.zeros(1000), np.zeros(1000)
    for i in range(1000):
        node_class[i] = rng.integers(0, 3)
        e[i] = rng.uniform(1e-9, 2.25)
        avg[i] = rng.uniform(1e-6, 3.0)
    p = {
        cfg.kind: probabilities(e, election_constants(cfg, het)[0][node_class],
                                avg, het, cfg)
        for cfg in (eddeec, edeec)
    }
    mismatches = int(np.count_nonzero(p[Protocol.EDDEEC] != p[Protocol.EDEEC]))
    report(4, "z=0 reduces the four-branch rule to the three-branch rule",
           mismatches == 0, f"{mismatches}/1000 mismatches (tolerance 0)")


def test_criterion_5_sub_threshold_equality(spec):
    rng = np.random.default_rng(5)
    het = spec.template.het
    cfg = replace(spec.template.protocol, kind=Protocol.EDDEEC)
    threshold = absolute_threshold(cfg.z, het.e0)
    assert threshold == 0.35
    e, avg = np.zeros((1000, 1)), np.zeros((1000, 1))
    for i in range(1000):
        e[i] = rng.uniform(1e-9, threshold)
        avg[i] = rng.uniform(1e-6, 3.0)
    # one column per class: normal, advanced, super
    pw_by_class = election_constants(cfg, het)[0]
    p = probabilities(np.repeat(e, 3, axis=1), pw_by_class, avg, het, cfg)
    mismatches = int(np.count_nonzero((p != p[:, :1]).any(axis=1)))
    report(5, "sub-threshold election probability is class-blind",
           mismatches == 0, f"{mismatches}/1000 mismatches (tolerance 0)")


def test_criterion_6_energy_ledger(spec):
    config = spec.network_config(Protocol.EDDEEC, spec.seeds[0])

    # full-run identity on the engine's own accounting
    result = run(config)
    initial_total = float(Simulation(config).residual.sum())
    before = np.concatenate([[initial_total], result.residual_j[:-1]])
    drop = before - result.residual_j
    error = np.abs(result.charged_j - (drop + result.overdraft_j))
    worst = float((error / result.charged_j).max())

    # independent oracle on a stepped prefix: recompute every node's charge
    # through the scalar model functions
    sim = Simulation(config)
    oracle_worst = 0.0
    bs = config.geometry.bs_position
    bits = config.radio.message_bits
    for _ in range(300):
        res_before = sim.residual.copy()
        ch_ids = sim.elect_cluster_heads()
        codes = sim.form_clusters(ch_ids)
        members = {}
        charges = np.zeros(config.n)
        for i in range(config.n):
            code = int(codes[i])
            if code >= 0:
                d = distance((sim.x[i], sim.y[i]), (sim.x[code], sim.y[code]))
                charges[i] = tx_energy(bits, d, config.radio)
                members[code] = members.get(code, 0) + 1
            elif code == -1:
                charges[i] = tx_energy(bits, float(sim.dist_to_bs[i]), config.radio)
        for c in ch_ids:
            k = members.get(int(c), 0)
            charges[c] = (
                k * rx_energy(bits, config.radio)
                + aggregation_energy(bits, k + 1, config.radio)
                + tx_energy(bits, float(sim.dist_to_bs[c]), config.radio)
            )
        out = sim.steady_state(codes)
        total = float(charges.sum())
        observed = float(res_before.sum() - sim.residual.sum()) + out.overdraft_j
        oracle_worst = max(oracle_worst, abs(total - observed) / total)

    ok = worst <= 1e-9 and oracle_worst <= 1e-9
    report(6, "per-round energy ledger closes", ok,
           f"worst relative error {worst:.2e} over {result.rounds} rounds; "
           f"independent-oracle worst {oracle_worst:.2e} over 300 rounds (tolerance 1e-9)")


def test_criterion_7_artifact_determinism(spec, tmp_path):
    small = replace(
        spec,
        seeds=spec.seeds[:5],
        output_dir=tmp_path / "a",
        emit=("csv", "svg", "summary"),
    )
    assert run_experiment(small, echo=lambda *a, **k: None) == 0
    again = replace(small, output_dir=tmp_path / "b")
    assert run_experiment(again, echo=lambda *a, **k: None) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    differing = [
        name
        for name in names
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    report(7, "repeated experiment writes byte-identical artifacts",
           not differing, f"{len(names)} artifacts compared, differing: {differing or 'none'}")


def test_criterion_8_closed_forms():
    checks = {
        "absolute threshold 0.7*0.5": absolute_threshold(0.7, 0.5) == 0.35,
        "expected BS distance": expected_distances(100.0, 1)[1] == 38.25,
        "nominal total energy": load_spec("paper-sec3").template.het.total_energy(100) == 214.0,
        "saturated threshold": abs(_rotation(np.array([0.1]), 9)[1][0] - 1.0) <= 1e-12,
    }
    failed = [name for name, ok in checks.items() if not ok]
    report(8, "closed-form unit checks", not failed, f"failed: {failed or 'none'}")


def test_criterion_9_epoch_rotation_rate():
    # the engine's election kernel with p = 0.1 for every node: unit
    # residuals, p_opt * w = 0.1, denom = 1 and the low-energy rule off
    n, rounds = 100, 1000  # 1e5 node-rounds
    rng = np.random.default_rng(902)
    residual = np.ones(n)
    alive = np.ones(n, dtype=np.bool_)
    pw = np.full(n, 0.1)
    ineligible_until = np.zeros(n, dtype=np.int64)
    elections = 0
    for r in range(rounds):
        u = rng.random(n)
        heads = _elect_numpy(residual, alive, ineligible_until, u, r,
                             pw, 1.0, -1.0, 0.0, P_MAX)
        elections += heads.size
    rate = elections / (n * rounds)
    report(9, "static-probability rotation elects each node ~once per 10 rounds",
           0.09 <= rate <= 0.11, f"rate {rate:.4f} per node-round (target 0.1 +-10%)")
