"""Seeded differential tests.

On small worlds with forced ties, integer-valued SNRs, integer grid positions
and small integer loads make equal metrics common, so the tie-breaking rules of
every greedy policy and of the widest-path oracle are exercised against the
loop references in ``oracles``, one walk at a time and many walks of worlds
of different sizes stepped together. On sampled campaign worlds, the walks and the
oracle that read rows of the lazy link table are checked against the same
walks on the dense reference matrix, and campaigns run in blocks of
repetitions are checked against each repetition run on its own.
"""
from functools import lru_cache

import numpy as np
import pytest
from oracles import dense_associate_min_pathloss, dense_link_table, enumerate_widest, reference_greedy_trace

from iabsim import channel, simulate
from iabsim.channel import ChannelParams
from iabsim.geometry import Deployment, Region
from iabsim.policy import PolicyKind, WalkBlock, WbfConfig, WbfKind, build_path
from iabsim.simulate import PolicySpec, SimConfig, run_campaign, run_repetition, widest_path_oracle

WORLDS = 10_000
BLOCK_WORLDS = 2000
CAMPAIGN_WORLDS = 200
THRESHOLD = 5.0
BIASES = (
    WbfConfig(),
    WbfConfig(WbfKind.POLYNOMIAL, n_ht=2, k=1.0, gamma_gap_db=2.0, gamma_h_db=1.0),
    WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=2.0, gamma_gap_db=1.0, gamma_h_db=2.0),
)


def tied_world(rng):
    """A world of 3..8 gNBs on grid points (some shared), SNRs drawn from a few integers.

    Points on one grid cell put a node on its nearest wired donor now and then,
    where PA has no forward direction.
    """
    n = int(rng.integers(3, 9))
    cells = rng.integers(0, 16, n)
    wired = rng.random(n) < 0.4
    wired[0] = False
    if not wired.any():
        wired[int(rng.integers(1, n))] = True
    positions = np.column_stack((cells % 4, cells // 4))
    attached = rng.integers(0, 3, n)
    values = rng.integers(3, 10, (n, n)).astype(float)
    values[rng.random((n, n)) < 0.3] = -np.inf
    mat = np.triu(values, 1)
    mat = np.where(np.tri(n, dtype=bool), mat.T, mat)
    np.fill_diagonal(mat, -np.inf)
    return Deployment(Region(5.0, 5.0), positions, wired, 0, attached=attached), mat, wired.tolist()


def test_policies_and_oracle_match_references_under_ties():
    rng = np.random.default_rng(2024)
    oracle_successes = 0
    for world in range(WORLDS):
        dep, mat, wired = tied_world(rng)
        max_hops = int(rng.integers(1, dep.n_gnbs + 1))
        wbf = BIASES[world % len(BIASES)]
        for kind in PolicyKind:
            got = build_path(0, kind, wbf, dep, mat, THRESHOLD, max_hops=max_hops)
            hops, bottleneck, ok = reference_greedy_trace(kind, dep, mat, THRESHOLD, wbf, max_hops)
            assert got.hops == hops, (world, kind)
            assert got.success == ok, (world, kind)
            if hops:
                assert got.bottleneck_snr_db == bottleneck, (world, kind)
        res = widest_path_oracle(dep, mat, 0, THRESHOLD)
        best = enumerate_widest(mat, wired, 0, THRESHOLD)
        if best is None:
            assert not res.success, world
        else:
            oracle_successes += 1
            assert res.success, world
            assert (res.bottleneck_snr_db, res.hop_count, res.hops) == best, world
    assert WORLDS // 4 < oracle_successes < WORLDS


@pytest.mark.parametrize("threshold", [THRESHOLD, -np.inf], ids=["threshold5", "no_threshold"])
@pytest.mark.parametrize("max_hops", [2, 8])
def test_one_walk_block_steps_many_tied_worlds(max_hops, threshold):
    """Every policy under every bias from the origin of each of many tied worlds
    of 3..8 gNBs, stepped as one WalkBlock: each walk equals the reference trace.

    Rows of smaller worlds are padded to the widest one; with no threshold every
    padded column would clear it, so a walk that took one would show.
    """
    rng = np.random.default_rng(99)
    worlds = [tied_world(rng) for _ in range(BLOCK_WORLDS)]
    policies = [(kind, wbf) for kind in PolicyKind for wbf in BIASES]
    count = len(policies)
    walks = WalkBlock(
        [dep for dep, _, _ in worlds],
        policies,
        np.repeat(np.arange(BLOCK_WORLDS), count),
        np.zeros(BLOCK_WORLDS * count, dtype=int),
        np.tile(np.arange(count), BLOCK_WORLDS),
        threshold,
        max_hops,
    )
    tables = [mat for _, mat, _ in worlds]
    while walks.going:
        walks.step(tables)
    results = walks.results()
    assert {dep.n_gnbs for dep, _, _ in worlds} == set(range(3, 9))
    for world, (dep, mat, _) in enumerate(worlds):
        for p, (kind, wbf) in enumerate(policies):
            got = results[world * count + p]
            assert all(hop < dep.n_gnbs for hop in got.hops), (world, kind, wbf)
            hops, bottleneck, ok = reference_greedy_trace(kind, dep, mat, threshold, wbf, max_hops)
            assert (got.hops, got.success, got.policy, got.wbf) == (hops, ok, kind, wbf), (world, kind, wbf)
            if hops:
                assert got.bottleneck_snr_db == bottleneck, (world, kind, wbf)


@pytest.mark.parametrize("lambda_g", [30.0, 480.0])
def test_campaign_on_lazy_rows_matches_dense_reference(lambda_g, monkeypatch):
    """Walks and the oracle of a campaign, which read rows of the lazy link table,
    equal the same walks and oracle run on the dense reference world: the
    reference matrix and the reference MLR loads, drawn from the same keys."""
    # 20 UEs give MLR loads of 0-2 at lambda_g = 30 and keep the association cheap at 480
    cfg = SimConfig(
        lambda_g=lambda_g, lambda_ue=20.0, repetitions=CAMPAIGN_WORLDS, master_seed=11, oracle_enabled=True
    )
    result = run_campaign(cfg, keep_paths=True)
    monkeypatch.setattr(simulate, "link_table", dense_link_table)
    monkeypatch.setattr(simulate, "associate_min_pathloss", dense_associate_min_pathloss)
    for rep in range(cfg.repetitions):
        dep, ref = simulate.sample_world(cfg, simulate.repetition_rng(cfg.master_seed, rep))
        expected = {
            spec.label: build_path(
                dep.origin_id, spec.kind, spec.wbf, dep, ref.snr, cfg.radio.snr_threshold_db,
                max_hops=cfg.max_hops, bandwidth_hz=cfg.radio.bandwidth_hz,
            )
            for spec in cfg.policies
        }
        expected["oracle"] = widest_path_oracle(dep, ref.snr, dep.origin_id, cfg.radio.snr_threshold_db)
        for label, want in expected.items():
            got = result.paths[label][rep]
            assert (got.hops, got.outcome) == (want.hops, want.outcome), (rep, label)
            assert np.array_equal(got.bottleneck_snr_db, want.bottleneck_snr_db, equal_nan=True), (rep, label)


def block_config(case: int) -> SimConfig:
    """Case 0-5: lambda_g 10, 30 or 120; fading 0 or 3 dB; the oracle on in cases 0, 1, 4 and 5.

    Every policy kind runs unbiased, and MLR and PA also under the polynomial
    and the exponential bias. Case 3 stops walks at two hops.
    """
    rng = np.random.default_rng(case)
    policies = tuple(PolicySpec(kind) for kind in PolicyKind) + tuple(
        PolicySpec(kind, wbf, f"{kind.value}_{wbf.kind.value}")
        for kind in (PolicyKind.MLR, PolicyKind.PA)
        for wbf in BIASES[1:]
    )
    return SimConfig(
        lambda_g=(10.0, 30.0, 120.0)[case % 3],
        lambda_ue=20.0,
        channel=ChannelParams(fading_sigma_db=3.0 * (case % 2)),
        policies=policies,
        repetitions=int(rng.integers(7, 12)),
        master_seed=int(rng.integers(0, 2**31)),
        max_hops=2 if case == 3 else 30,
        oracle_enabled=case in (0, 1, 4, 5),
    )


@lru_cache(maxsize=None)
def reference_paths(case: int) -> list[dict]:
    """Per repetition, each walk and the oracle on the whole SNR matrix of the repetition's world."""
    cfg = block_config(case)
    expected = []
    for rep in range(cfg.repetitions):
        dep, links = simulate.sample_world(cfg, simulate.repetition_rng(cfg.master_seed, rep))
        snr, threshold = links.snr, cfg.radio.snr_threshold_db
        paths = {
            spec.label: build_path(
                dep.origin_id, spec.kind, spec.wbf, dep, snr, threshold,
                max_hops=cfg.max_hops, bandwidth_hz=cfg.radio.bandwidth_hz,
            )
            for spec in cfg.policies
        }
        if cfg.oracle_enabled:
            paths["oracle"] = widest_path_oracle(dep, snr, dep.origin_id, threshold)
        expected.append(paths)
    return expected


def assert_same_path(got, want, where):
    assert (got.hops, got.outcome, got.policy, got.wbf) == (want.hops, want.outcome, want.policy, want.wbf), where
    assert np.array_equal(got.bottleneck_snr_db, want.bottleneck_snr_db, equal_nan=True), where


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("bound", [1, 3, None], ids=["bounds1", "bounds3", "default"])
@pytest.mark.parametrize("case", range(6))
def test_campaign_in_blocks_matches_each_repetition_alone(case, bound, workers, monkeypatch):
    """Blocks of 1, 3 or the default number of repetitions, passes of 1, 3 or the
    default number of pairs, and 1-3 workers, whose chunk edges fall inside blocks."""
    if bound is not None:
        monkeypatch.setattr(simulate, "BLOCK_REPETITIONS", bound)
        monkeypatch.setattr(channel, "PASS_PAIRS", bound)
    cfg = block_config(case)
    result = run_campaign(cfg, workers=workers, keep_paths=True)
    expected = reference_paths(case)
    assert set(result.paths) == set(expected[0])
    for rep, want in enumerate(expected):
        alone = run_repetition(cfg, rep) if workers == 1 else want
        assert list(alone) == list(want)
        for label, path in want.items():
            assert_same_path(result.paths[label][rep], path, (rep, label))
            assert_same_path(alone[label], path, (rep, label, "alone"))
            if label != "oracle":
                assert result.hop_count[label][rep] == path.hop_count
