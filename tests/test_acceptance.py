"""Acceptance suite: every release criterion with its tolerance pinned.

Each test prints one `[acceptance] ... PASS/FAIL` line (run with `-s` to see
them live). The heavyweight desk-scale campaign is shared across criteria via
a module fixture; its per-repetition worlds are reproducible from the seed, so
invariant checks can rebuild the exact channel realization of any repetition.
"""
import math
import time

import numpy as np
import pytest
from oracles import enumerate_widest

from iabsim.channel import (
    ChannelParams,
    RadioConfig,
    link_table,
    noise_power_dbm,
    shannon_rate,
)
from iabsim.cli import main
from iabsim.config import WBF_PRESETS
from iabsim.geometry import Deployment, Region
from iabsim.policy import PolicyKind, WbfConfig, WbfKind, wbf_exp, wbf_poly
from iabsim.simulate import (
    PolicySpec,
    SimConfig,
    aggregate,
    repetition_rng,
    run_campaign,
    sample_world,
    widest_path_oracle,
)

DESK_SEED = 20180607
HUGE_GAP = WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=1.0, gamma_gap_db=1e6, gamma_h_db=2.0)

DESK_CONFIG = SimConfig(
    lambda_g=30.0,
    p_w=0.3,
    lambda_ue=100.0,
    region=Region(1000.0, 1000.0),
    radio=RadioConfig(array_elements=64),
    policies=(
        PolicySpec(PolicyKind.WF),
        PolicySpec(PolicyKind.PA),
        PolicySpec(PolicyKind.HQF),
        PolicySpec(PolicyKind.MLR),
        PolicySpec(PolicyKind.HQF, WBF_PRESETS["aggressive_poly"], "HQF_aggressive_poly"),
        PolicySpec(PolicyKind.HQF, WBF_PRESETS["aggressive_exp"], "HQF_aggressive_exp"),
        PolicySpec(PolicyKind.HQF, HUGE_GAP, "HQF_huge_gap"),
    ),
    repetitions=2000,
    master_seed=DESK_SEED,
    max_hops=30,
    oracle_enabled=True,
)


def report(tag, ok, detail):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def desk():
    start = time.perf_counter()
    result = run_campaign(DESK_CONFIG, workers=1, keep_paths=True)
    elapsed = time.perf_counter() - start
    return result, aggregate(DESK_CONFIG, result), elapsed


def test_c01_bias_function_exactness():
    conservative_poly = WBF_PRESETS["conservative_poly"]
    conservative_exp = WBF_PRESETS["conservative_exp"]
    poly_factor = (wbf_poly(1, conservative_poly) - conservative_poly.gamma_h_db) / conservative_poly.gamma_gap_db
    exp_factor = (wbf_exp(1, conservative_exp) - conservative_exp.gamma_h_db) / conservative_exp.gamma_gap_db
    ok = round(poly_factor, 4) == 0.1667 and round(exp_factor, 4) == 1.0699
    presets_ok = (
        WBF_PRESETS["aggressive_poly"] == WbfConfig(WbfKind.POLYNOMIAL, 1, 3.0, 1.5, 15.0, 2.0)
        and WBF_PRESETS["conservative_poly"] == WbfConfig(WbfKind.POLYNOMIAL, 6, 1.0, 1.5, 5.0, 2.0)
        and WBF_PRESETS["aggressive_exp"] == WbfConfig(WbfKind.EXPONENTIAL, 1, 1.0, 3.0, 15.0, 2.0)
        and WBF_PRESETS["conservative_exp"] == WbfConfig(WbfKind.EXPONENTIAL, 6, 1.0, 1.5, 5.0, 2.0)
    )
    report(
        "C1 bias-function exactness",
        ok and presets_ok,
        f"(1/6)^1={poly_factor:.4f}, 1.5^(1/6)={exp_factor:.4f}, presets exact={presets_ok}",
    )


def test_c02_rate_anchor():
    rate = shannon_rate(400e6, 5.0, 1)
    rel = abs(rate - 830e6) / 830e6
    ok = rel < 0.02 and abs(rate - 822949283.442718) < 1.0
    report("C2 rate anchor", ok, f"rate={rate/1e6:.1f} Mbit/s, {rel*100:.2f}% from 830")


def test_c03_array_gain_anchor():
    # the per-endpoint gain link_table applies, and the SNR shift it puts on one drawn link
    pair = Deployment(Region(100, 100), [(0.0, 0.0), (10.0, 0.0)], [False, True], 0)
    t64, t256 = (
        link_table(pair, RadioConfig(array_elements=m), ChannelParams(), np.random.default_rng(3))
        for m in (64, 256)
    )
    g64, g256 = t64.gain_dbi, t256.gain_dbi
    shift = float(t256.pair_snr_db[0] - t64.pair_snr_db[0])
    ok = (
        abs(g64 - 18.0618) < 1e-4
        and abs(g256 - 24.0824) < 1e-4
        and abs(shift - 2 * (g256 - g64)) < 1e-9
    )
    report(
        "C3 array-gain anchor",
        ok,
        f"M=64 -> {g64:.5f} dBi, M=256 -> {g256:.5f} dBi, link SNR shift {shift:.5f} dB",
    )


def test_c04_policy_ordering_at_desk_scale(desk):
    _, summary, elapsed = desk
    wf, pa, hqf = summary.policies["WF"], summary.policies["PA"], summary.policies["HQF"]
    ordering = wf.hop_median <= pa.hop_median <= hqf.hop_median
    snr_margin = hqf.snr_mean_db - wf.snr_mean_db
    p_one_hop = wf.hops_cdf.evaluate(1)
    ok = ordering and snr_margin >= 1.0 and 0.55 <= p_one_hop <= 0.90 and elapsed < 60.0
    report(
        "C4 policy ordering",
        ok,
        f"median hops WF/PA/HQF={wf.hop_median:.0f}/{pa.hop_median:.0f}/{hqf.hop_median:.0f}, "
        f"HQF-WF mean bottleneck={snr_margin:.2f} dB, P(1 hop|WF)={p_one_hop:.3f}, "
        f"campaign {elapsed:.1f}s",
    )


def test_c05_wired_bias_trend(desk):
    _, summary, _ = desk
    hqf = summary.policies["HQF"]
    aggressive_poly = summary.policies["HQF_aggressive_poly"]
    aggressive_exp = summary.policies["HQF_aggressive_exp"]
    tail_plain = 1.0 - hqf.hops_cdf.evaluate(3)
    tail_biased = 1.0 - aggressive_poly.hops_cdf.evaluate(3)
    reduction = tail_plain - tail_biased
    median_drift = abs(aggressive_poly.snr_median_db - hqf.snr_median_db)
    exp_vs_poly = abs(aggressive_exp.snr_mean_db - aggressive_poly.snr_mean_db)
    ok = reduction >= 0.05 and median_drift <= 1.5 and exp_vs_poly <= 1.5
    report(
        "C5 wired-bias trend",
        ok,
        f"P(hops>3) {tail_plain:.3f} -> {tail_biased:.3f} (-{reduction:.3f}), "
        f"median SNR drift {median_drift:.2f} dB, exp-vs-poly mean {exp_vs_poly:.2f} dB",
    )


def test_c06_densification_and_array_trends():
    cells = {}
    for m in (64, 256):
        for lam in (30.0, 60.0):
            cfg = SimConfig(
                lambda_g=lam,
                radio=RadioConfig(array_elements=m),
                policies=(PolicySpec(PolicyKind.WF),),
                repetitions=500,
                master_seed=99,
            )
            cells[(m, lam)] = aggregate(cfg, run_campaign(cfg)).policies["WF"]
    p1 = {key: cell.hops_cdf.evaluate(1) for key, cell in cells.items()}
    p1_monotone = (
        p1[(64, 30.0)] < p1[(256, 30.0)]
        and p1[(64, 60.0)] < p1[(256, 60.0)]
        and p1[(64, 30.0)] < p1[(64, 60.0)]
        and p1[(256, 30.0)] < p1[(256, 60.0)]
    )
    shift_ok = all(
        cells[(256, lam)].snr_cdf.quantile(q) > cells[(64, lam)].snr_cdf.quantile(q)
        for lam in (30.0, 60.0)
        for q in (0.1, 0.5, 0.9)
    )
    report(
        "C6 densification/array trends",
        p1_monotone and shift_ok,
        "P(1 hop) " + ", ".join(f"M{m}/λ{lam:.0f}={p1[(m, lam)]:.3f}" for (m, lam) in sorted(p1))
        + f"; SNR percentiles right-shifted={shift_ok}",
    )


def test_c07_oracle_correctness(desk):
    rng = np.random.default_rng(424242)
    exact = 0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        coords = rng.uniform(0, 1000, (n, 2))
        wired = [False] + [bool(b) for b in rng.random(n - 1) < 0.4]
        if not any(wired):
            wired[1] = True
        mat = np.full((n, n), -np.inf)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    mat[i, j] = mat[j, i] = float(rng.uniform(-10, 40))
        dep = Deployment(Region(1000, 1000), coords, wired, 0)
        res = widest_path_oracle(dep, mat, 0, 5.0)
        best = enumerate_widest(mat, wired, 0, 5.0)
        if best is None:
            assert res.outcome.value == "no_candidate"
        else:
            assert res.outcome.value == "success"
            assert res.bottleneck_snr_db == best[0]
            assert res.hops == best[2]
        exact += 1

    result, _, _ = desk
    dominated = 0
    for label in result.labels:
        ok = result.success_mask(label)
        assert (result.oracle_outcome[ok] == 0).all(), "policy success must imply oracle success"
        assert (result.oracle_bottleneck_db[ok] >= result.bottleneck_db[label][ok] - 1e-9).all()
        dominated += int(ok.sum())
    report(
        "C7 oracle correctness",
        True,
        f"{exact}/1000 graphs exact vs enumeration; dominance on {dominated} successful "
        f"paths over {result.repetitions} repetitions",
    )


def test_c08_path_invariant_suite(desk):
    result, _, _ = desk
    cfg = DESK_CONFIG
    checked = 0
    for rep in range(cfg.repetitions):
        deployment, links = sample_world(cfg, repetition_rng(cfg.master_seed, rep))
        for label in result.labels:
            path = result.paths[label][rep]
            nodes = (path.origin_id,) + path.hops
            assert len(set(nodes)) == len(nodes), "no node may repeat"
            assert path.hop_count <= min(cfg.max_hops, deployment.n_gnbs)
            link_snrs = [links.snr[a, b] for a, b in zip(nodes, nodes[1:])]
            for snr in link_snrs:
                assert snr >= cfg.radio.snr_threshold_db
            if path.hops:
                assert path.bottleneck_snr_db == min(link_snrs)
                assert path.success == deployment.wired[nodes[-1]]
            else:
                assert not path.success
            checked += 1
        # an overwhelming wired bias must reproduce every WF decision
        assert result.paths["HQF_huge_gap"][rep].hops == result.paths["WF"][rep].hops
        assert result.paths["HQF_huge_gap"][rep].outcome == result.paths["WF"][rep].outcome
    report(
        "C8 path invariants",
        checked >= 10_000,
        f"{checked} path executions checked, WF-equivalence exact on all "
        f"{cfg.repetitions} repetitions",
    )


def test_c09_worker_determinism(tmp_path):
    args = ["--reps", "240", "--seed", "13", "--policies", "HQF,WF,PA,MLR", "--oracle"]
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "8", "--out", str(out8)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names8 = sorted(p.name for p in out8.iterdir())
    assert names1 == names8
    identical = all((out1 / name).read_bytes() == (out8 / name).read_bytes() for name in names1)
    report("C9 worker determinism", identical, f"{len(names1)} files byte-identical for 1 vs 8 workers")


def test_c10_channel_closure():
    # 1415 nodes -> 1,000,405 pairs; outage disabled so every link is finite
    rng = np.random.default_rng(77)
    n = 1415
    coords = rng.uniform(0, 500, (n, 2))
    deployment = Deployment(Region(500, 500), coords, np.arange(n) % 2 == 0, 1)
    radio = RadioConfig()
    no_outage = ChannelParams(outage_slope_per_m=0.0)
    table = link_table(deployment, radio, no_outage, rng)
    noise = noise_power_dbm(radio.bandwidth_hz, radio.noise_figure_db)
    residual = np.abs(
        table.pair_snr_db
        + table.pathloss_db
        + table.shadowing_db
        + noise
        - radio.tx_power_dbm
        - 2 * table.gain_dbi
    )
    n_links = table.pair_snr_db.size
    closure_ok = n_links >= 1_000_000 and float(residual.max()) < 1e-9

    # with the default outage model, outage pairs must carry -inf SNR
    small = Deployment(Region(2000, 2000), rng.uniform(0, 2000, (60, 2)), np.arange(60) % 3 == 0, 1)
    wide = link_table(small, radio, ChannelParams(), rng)
    from iabsim.channel import LosState

    outage_pairs = wide.los == LosState.OUTAGE
    outage_ok = outage_pairs.any() and (wide.pair_snr_db[outage_pairs] == -np.inf).all()

    # three-state frequencies vs the closed-form law, 1e6 draws per distance
    from iabsim.channel import _visibility

    freq_ok = True
    details = []
    n_draws = 1_000_000
    for d in (20.0, 100.0, 200.0):
        p_out = max(0.0, 1.0 - math.exp(-d / 30.0 + 5.2))
        p_los = (1.0 - p_out) * math.exp(-d / 67.1)
        p_nlos = 1.0 - p_out - p_los
        live, los = _visibility(np.full(n_draws, d), rng.random(n_draws), ChannelParams())
        counts = {
            LosState.LOS: int(los.sum()),
            LosState.NLOS: int(live.size - los.sum()),
            LosState.OUTAGE: n_draws - live.size,
        }
        for state, p in ((LosState.LOS, p_los), (LosState.NLOS, p_nlos), (LosState.OUTAGE, p_out)):
            freq = counts[state] / n_draws
            sigma = math.sqrt(p * (1.0 - p) / n_draws)
            freq_ok &= abs(freq - p) <= 3.0 * sigma + 1e-12
        details.append(f"d={d:.0f}m ok")
    report(
        "C10 channel closure",
        closure_ok and outage_ok and freq_ok,
        f"max residual {float(residual.max()):.2e} dB on {n_links} links; "
        f"outage -inf ok={outage_ok}; state frequencies 3-sigma: {', '.join(details)}",
    )
