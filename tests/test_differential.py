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
from oracles import enumerate_widest, reference_greedy_trace, reference_world, splitmix64

from iabsim import channel, simulate
from iabsim.channel import ChannelParams, RadioConfig, RowStore
from iabsim.geometry import Deployment, Region
from iabsim.policy import PathOutcome, PolicyKind, WalkBlock, WbfConfig, WbfKind, build_path
from iabsim.simulate import OracleBlock, PolicySpec, SimConfig, run_campaign, run_repetition, widest_path_oracle

WORLDS = 10_000
BLOCK_WORLDS = 2000
CAMPAIGN_WORLDS = 200
THRESHOLD = 5.0
BANDWIDTH_HZ = RadioConfig().bandwidth_hz
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
            got = build_path(0, kind, wbf, dep, mat, THRESHOLD, max_hops=max_hops, bandwidth_hz=BANDWIDTH_HZ)
            hops, bottleneck, ok = reference_greedy_trace(kind, dep, mat, THRESHOLD, wbf, max_hops)
            assert got.hops == hops, (world, kind)
            assert got.success == ok, (world, kind)
            if hops:
                assert got.bottleneck_snr_db == bottleneck, (world, kind)
        for threshold in (THRESHOLD, -np.inf):
            res = widest_path_oracle(dep, mat, 0, threshold)
            best = enumerate_widest(mat, wired, 0, threshold)
            if best is None:
                assert not res.success, (world, threshold)
            else:
                oracle_successes += threshold == THRESHOLD
                assert res.success, (world, threshold)
                assert (res.bottleneck_snr_db, res.hop_count, res.hops) == best, (world, threshold)
    assert WORLDS // 4 < oracle_successes < WORLDS


@pytest.mark.parametrize("threshold", [THRESHOLD, -np.inf], ids=["threshold5", "no_threshold"])
@pytest.mark.parametrize("max_hops", [2, 8])
def test_one_walk_block_steps_many_tied_worlds(max_hops, threshold):
    """Every policy under every bias from the origin of each of many tied worlds
    of 3..8 gNBs, stepped as one WalkBlock in lockstep with the OracleBlock of
    the same worlds, on one read of the store per round: each walk equals the
    reference trace, and each oracle value the exhaustive widest path.

    Rows of smaller worlds are padded to the widest one; with no threshold every
    padded column would clear it, so a walk or an oracle that took one would
    show. With no threshold an outage link is admissible, and -inf is then a
    bottleneck the oracle must report as a success.
    """
    rng = np.random.default_rng(99)
    worlds = [tied_world(rng) for _ in range(BLOCK_WORLDS)]
    policies = [(kind, wbf) for kind in PolicyKind for wbf in BIASES]
    count = len(policies)
    store = RowStore.held([dep for dep, _, _ in worlds], [mat for _, mat, _ in worlds])
    walks = WalkBlock(
        store,
        policies,
        np.repeat(np.arange(BLOCK_WORLDS), count),
        np.zeros(BLOCK_WORLDS * count, dtype=int),
        np.tile(np.arange(count), BLOCK_WORLDS),
        threshold,
        max_hops,
        BANDWIDTH_HZ,
    )
    oracle = OracleBlock(store, np.zeros(BLOCK_WORLDS, dtype=int), threshold)
    reads, read = [], store.read
    store.read = lambda world, node: reads.append(world.size) or read(world, node)
    simulate._lockstep([walks, oracle])
    # one read per round, over every walk and oracle still going: all of them in the first
    assert reads[0] == BLOCK_WORLDS * (count + 1) and len(reads) >= walks.hop and reads == sorted(reads)[::-1]
    results = walks.results()
    assert {dep.n_gnbs for dep, _, _ in worlds} == set(range(3, 9))
    outcomes = list(PathOutcome)
    successes = 0
    for world, (_, mat, wired) in enumerate(worlds):
        best = enumerate_widest(mat, wired, 0, threshold)
        outcome = outcomes[oracle.outcome[world]]
        if best is None:
            assert outcome == PathOutcome.NO_CANDIDATE and np.isnan(oracle.bottleneck[world]), world
        else:
            successes += 1
            assert outcome == PathOutcome.SUCCESS and oracle.bottleneck[world] == best[0], world
    if threshold == -np.inf:
        # every link is admissible, and some worlds reach a wired node only over an outage link
        assert successes == BLOCK_WORLDS and np.isneginf(oracle.bottleneck).any()
    else:
        assert 0 < successes < BLOCK_WORLDS
    for world, (dep, mat, _) in enumerate(worlds):
        for p, (kind, wbf) in enumerate(policies):
            got = results[world * count + p]
            assert all(hop < dep.n_gnbs for hop in got.hops), (world, kind, wbf)
            hops, bottleneck, ok = reference_greedy_trace(kind, dep, mat, threshold, wbf, max_hops)
            assert (got.hops, got.success, got.policy, got.wbf) == (hops, ok, kind, wbf), (world, kind, wbf)
            if hops:
                assert got.bottleneck_snr_db == bottleneck, (world, kind, wbf)


@pytest.mark.parametrize("lambda_g", [30.0, 480.0])
def test_campaign_on_lazy_rows_matches_dense_reference(lambda_g):
    """Walks and the oracle of a campaign, which read rows of the lazy link table,
    equal the same walks and oracle run on the reference world: the dense
    reference matrix and the reference MLR loads, drawn from the same streams."""
    # 20 UEs give MLR loads of 0-2 at lambda_g = 30 and keep the association cheap at 480
    cfg = SimConfig(
        lambda_g=lambda_g, lambda_ue=20.0, repetitions=CAMPAIGN_WORLDS, master_seed=11, oracle_enabled=True
    )
    result = run_campaign(cfg, keep_paths=True)
    for rep in range(cfg.repetitions):
        dep, ref = reference_world(cfg, simulate.repetition_rng(cfg.master_seed, rep))
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


NO_MLR = tuple(PolicySpec(kind) for kind in (PolicyKind.HQF, PolicyKind.WF, PolicyKind.PA))
# Per case: config overrides, repetitions (one block), and the association pass bound (None: the
# default). lambda_g = 1.5 redraws more than half the gNB drops; p_w = 0.03 and 0.97 over about
# five gNBs redraw most role draws; 600 pairs and 120 x 136 pairs put worlds on both sides of a pass.
SAMPLER_CASES = {
    "ppp_redraws": (dict(lambda_g=1.5, lambda_ue=20.0), 60, None),
    "few_wired": (dict(lambda_g=5.0, p_w=0.03, lambda_ue=20.0), 50, None),
    "few_wireless": (dict(lambda_g=5.0, p_w=0.97, lambda_ue=20.0), 50, None),
    "no_ues": (dict(lambda_ue=0.0), 40, None),
    "fading": (dict(lambda_ue=60.0, channel=ChannelParams(fading_sigma_db=3.0)), 40, None),
    "no_mlr": (dict(lambda_ue=60.0, policies=NO_MLR), 40, None),
    "mixed_passes": (dict(lambda_ue=20.0, channel=ChannelParams(fading_sigma_db=3.0)), 50, 600),
    "wide_and_narrow": (dict(lambda_g=120.0, lambda_ue=136.0), 16, None),
}


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_block_sampler_matches_reference_worlds(case, monkeypatch):
    """A block's store holds, bit for bit, each repetition's reference world: positions, wired
    flags, origin, loads and link slot keys; and ``sample_world``, a block of one, gives it too."""
    overrides, reps, pass_pairs = SAMPLER_CASES[case]
    if overrides.get("lambda_g", 30.0) < 3.0:
        with pytest.warns(UserWarning, match="expected gNB count"):
            cfg = SimConfig(repetitions=reps, master_seed=31, **overrides)
    else:
        cfg = SimConfig(repetitions=reps, master_seed=31, **overrides)
    if pass_pairs is not None:
        monkeypatch.setattr(channel, "ASSOC_PASS_PAIRS", pass_pairs)
    store = simulate._sample_block(cfg, range(reps))
    slots = np.arange(1, 6 if cfg.channel.fading_sigma_db > 0 else 4)
    redraws, pairs = np.zeros(2, dtype=int), []
    for rep in range(reps):
        world, table = reference_world(cfg, simulate.repetition_rng(cfg.master_seed, rep))
        start, n = int(store.offset[rep]), int(store.sizes[rep])
        assert n == world.n_gnbs, rep
        assert store.positions[start : start + n].tobytes() == world.positions.tobytes(), rep
        assert store.wired[start : start + n].tolist() == world.wired.tolist(), rep
        assert store.origin[rep] == world.origin_id, rep
        assert store.attached[start : start + n].tolist() == world.attached.tolist(), rep
        assert store.keys[:, rep].tolist() == splitmix64(table.word, slots).tolist(), rep
        redraws += world.redraws
        pairs.append(len(world.ue_positions) * n)
        if rep < 5:
            dep, links = simulate.sample_world(cfg, simulate.repetition_rng(cfg.master_seed, rep))
            for name in ("positions", "wired", "attached", "ue_positions"):
                assert getattr(dep, name).tobytes() == getattr(world, name).tobytes(), (rep, name)
            assert dep.origin_id == world.origin_id and links.store.keys[:, 0].tolist() == store.keys[:, rep].tolist()
    bound = channel.ASSOC_PASS_PAIRS
    if case == "ppp_redraws":
        assert redraws[0] > 0
    if case.startswith("few_"):
        assert redraws[1] > 0
    if pass_pairs is not None or case == "wide_and_narrow":
        assert min(pairs) <= bound < max(pairs)


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
@pytest.mark.parametrize("bound", [1, 3, None, "whole"], ids=["bounds1", "bounds3", "default", "one_block"])
@pytest.mark.parametrize("case", range(6))
def test_campaign_in_blocks_matches_each_repetition_alone(case, bound, workers, monkeypatch):
    """Blocks of at most 1 or 3 worlds with passes of 1 or 3 pairs, blocks and passes at the
    default bounds, and one block for the whole campaign; 1-3 workers, whose ranges split blocks."""
    cfg = block_config(case)
    if bound is not None:
        worlds = cfg.repetitions if bound == "whole" else bound
        monkeypatch.setattr(simulate, "BLOCK_BYTES", worlds * simulate._world_bytes(cfg))
        assert simulate._block_size(cfg) == worlds
    if isinstance(bound, int):
        monkeypatch.setattr(channel, "PASS_PAIRS", bound)
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
