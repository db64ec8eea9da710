import math
from functools import lru_cache

import numpy as np
import pytest
from oracles import enumerate_widest

from iabsim.channel import ChannelParams, RadioConfig
from iabsim import simulate
from iabsim.errors import ConfigError
from iabsim.geometry import Deployment, Region
from iabsim.policy import PathOutcome, PolicyKind
from iabsim.simulate import (
    EmpiricalCdf,
    PolicySpec,
    SimConfig,
    aggregate,
    repetition_rng,
    run_campaign,
    run_repetition,
    sample_world,
    widest_path_oracle,
)

SMALL = SimConfig(repetitions=30, master_seed=123, oracle_enabled=True)


def make_graph(coords, wired_flags, snr, origin_id=0):
    n = len(coords)
    mat = np.full((n, n), -np.inf)
    for (i, j), v in snr.items():
        mat[i, j] = v
        mat[j, i] = v
    return Deployment(Region(1000, 1000), coords, wired_flags, origin_id), mat


class TestSimConfig:
    def test_defaults_are_valid(self):
        cfg = SimConfig()
        assert cfg.lambda_g == 30.0
        assert cfg.p_w == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"repetitions": 0},
            {"lambda_g": 0.0},
            {"lambda_ue": -1.0},
            {"p_w": 0.0},
            {"p_w": 1.0},
            {"max_hops": 0},
            {"policies": ()},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["lambda_g", "lambda_ue"])
    def test_non_finite_density_names_the_key(self, key, bad):
        with pytest.raises(ConfigError, match=f"deployment.{key}"):
            SimConfig(**{key: bad})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(policies=(PolicySpec(PolicyKind.HQF), PolicySpec(PolicyKind.HQF)))

    def test_sparse_deployment_warns(self):
        with pytest.warns(UserWarning):
            SimConfig(lambda_g=30.0, region=Region(100, 100))


class TestRepetitionStreams:
    def test_same_key_same_stream(self):
        a = repetition_rng(7, 3).random(5)
        b = repetition_rng(7, 3).random(5)
        assert np.array_equal(a, b)

    def test_different_indices_differ(self):
        a = repetition_rng(7, 0).random(5)
        b = repetition_rng(7, 1).random(5)
        assert not np.array_equal(a, b)

    def test_repetition_is_bit_identical(self):
        r1 = run_repetition(SMALL, 4)
        r2 = run_repetition(SMALL, 4)
        assert r1 == r2

    def test_repetitions_are_distinct(self):
        r0 = run_repetition(SMALL, 0)
        r1 = run_repetition(SMALL, 1)
        assert r0 != r1

    def test_policies_share_the_realization(self):
        # when the origin's strongest admissible neighbor is wired, HQF and WF
        # must walk the same single hop on the shared channel draw
        found = 0
        for rep in range(40):
            rng = repetition_rng(SMALL.master_seed, rep)
            dep, links = sample_world(SMALL, rng)
            row = links.snr[dep.origin_id]
            best = int(np.argmax(row))
            if row[best] >= SMALL.radio.snr_threshold_db and dep.wired[best]:
                results = run_repetition(SMALL, rep)
                hqf, wf = results["HQF"], results["WF"]
                assert hqf.hops == wf.hops == (best,)
                assert hqf.bottleneck_snr_db == wf.bottleneck_snr_db
                found += 1
        assert found > 0

    def test_world_respects_roles_and_ues(self):
        rng = repetition_rng(5, 0)
        dep, links = sample_world(SimConfig(lambda_ue=50.0), rng)
        assert dep.wired.any()
        assert not dep.wired.all()
        assert links.snr.shape == (dep.n_gnbs, dep.n_gnbs)
        assert dep.attached.sum() <= len(dep.ue_positions)


NO_MLR = (PolicySpec(PolicyKind.HQF), PolicySpec(PolicyKind.WF), PolicySpec(PolicyKind.PA))
WITH_MLR = NO_MLR + (PolicySpec(PolicyKind.MLR),)


NO_MLR_CAMPAIGN = SimConfig(lambda_g=120.0, lambda_ue=100.0, policies=NO_MLR, repetitions=70, master_seed=4242)


@lru_cache(maxsize=None)
def each_repetition_alone() -> dict:
    """Per label of ``NO_MLR_CAMPAIGN``, the outcomes, hop counts and bottlenecks of each repetition run alone."""
    runs = [run_repetition(NO_MLR_CAMPAIGN, rep) for rep in range(NO_MLR_CAMPAIGN.repetitions)]
    return {
        spec.label: (
            [r[spec.label].outcome for r in runs],
            [r[spec.label].hop_count for r in runs],
            np.array([r[spec.label].bottleneck_snr_db for r in runs]),
        )
        for spec in NO_MLR
    }


class TestAssociationSkip:
    """Without an MLR policy no load is computed, yet the realization stays paired."""

    def test_policy_arrays_equal_with_and_without_mlr(self):
        base = dict(lambda_g=60.0, repetitions=25, master_seed=9, oracle_enabled=True)
        without = run_campaign(SimConfig(policies=NO_MLR, **base))
        with_mlr = run_campaign(SimConfig(policies=WITH_MLR, **base))
        for label in without.labels:
            for field in ("outcome", "hop_count", "bottleneck_db"):
                assert np.array_equal(getattr(without, field)[label], getattr(with_mlr, field)[label])
        assert np.array_equal(without.oracle_bottleneck_db, with_mlr.oracle_bottleneck_db, equal_nan=True)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"channel": ChannelParams(fading_sigma_db=3.0)}, {"lambda_ue": 1e-3}, {"lambda_ue": 4000.0}],
        ids=["plain", "fading", "no_ues", "many_ues"],
    )
    def test_stream_and_links_equal_with_and_without_mlr(self, overrides):
        for rep in range(5):
            worlds, states = [], []
            for policies in (NO_MLR, WITH_MLR):
                rng = repetition_rng(3, rep)
                worlds.append(sample_world(SimConfig(policies=policies, **overrides), rng))
                states.append(rng.bit_generator.state)
            (dep_a, links_a), (dep_b, links_b) = worlds
            assert states[0] == states[1]
            assert np.array_equal(links_a.snr, links_b.snr)
            assert np.array_equal(dep_a.positions, dep_b.positions)
            assert np.array_equal(dep_a.wired, dep_b.wired) and dep_a.origin_id == dep_b.origin_id
            assert len(dep_a.ue_positions) == 0
            assert not dep_a.attached.any()

    def test_block_size_counts_ues_only_with_mlr(self):
        def size(policies, lambda_ue):
            return simulate._block_size(SimConfig(lambda_g=480.0, lambda_ue=lambda_ue, policies=policies))

        assert size(NO_MLR, 0.0) == size(NO_MLR, 100.0) == size(NO_MLR, 1e5) == size(WITH_MLR, 0.0) == 8192 // 480
        assert size(WITH_MLR, 100.0) == 8192 // 580

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bound", [1, 3, None], ids=["bounds1", "bounds3", "default"])
    def test_campaign_without_mlr_equal_at_any_block_bound(self, bound, workers, monkeypatch):
        """UEs no longer count toward the block size without MLR, so default blocks grow;
        the arrays do not depend on it."""
        assert simulate._block_size(NO_MLR_CAMPAIGN) == simulate.BLOCK_REPETITIONS < NO_MLR_CAMPAIGN.repetitions
        if bound is not None:
            monkeypatch.setattr(simulate, "BLOCK_REPETITIONS", bound)
        result = run_campaign(NO_MLR_CAMPAIGN, workers=workers)
        for lab, (outcome, hops, bottleneck) in each_repetition_alone().items():
            assert [list(PathOutcome)[code] for code in result.outcome[lab]] == outcome
            assert result.hop_count[lab].tolist() == hops
            assert np.array_equal(result.bottleneck_db[lab], bottleneck, equal_nan=True)

    def test_loads_filled_only_for_mlr(self):
        dep, _ = sample_world(SimConfig(policies=WITH_MLR), repetition_rng(3, 0))
        assert 0 < dep.attached.sum() <= len(dep.ue_positions)


class TestRedrawBound:
    def test_sparse_drop_stops_with_named_key(self):
        with pytest.warns(UserWarning):
            cfg = SimConfig(lambda_g=1e-4, repetitions=1)
        with pytest.raises(ConfigError, match="deployment.lambda_g"):
            sample_world(cfg, repetition_rng(1, 0))


class TestWidestPathOracle:
    def test_two_hop_beats_weak_direct(self):
        coords = [(0, 0), (100, 0), (50, 50)]
        dep, mat = make_graph(coords, [False, True, False], {(0, 1): 6.0, (0, 2): 20.0, (2, 1): 18.0})
        res = widest_path_oracle(dep, mat, 0, 5.0)
        assert res.outcome == PathOutcome.SUCCESS
        assert res.hops == (2, 1)
        assert res.bottleneck_snr_db == 18.0

    def test_unreachable_reports_no_candidate(self):
        coords = [(0, 0), (100, 0), (50, 50)]
        dep, mat = make_graph(coords, [False, True, False], {(0, 2): 20.0})
        res = widest_path_oracle(dep, mat, 0, 5.0)
        assert res.outcome == PathOutcome.NO_CANDIDATE
        assert res.hops == ()
        # feasibility is shared: every greedy policy fails on the same instance
        from iabsim.policy import WbfConfig, build_path

        for kind in PolicyKind:
            assert not build_path(0, kind, WbfConfig(), dep, mat, 5.0).success

    def test_prefers_fewer_hops_on_equal_bottleneck(self):
        coords = [(0, 0), (100, 0), (50, 50), (50, -50)]
        snr = {(0, 1): 10.0, (0, 2): 10.0, (2, 3): 10.0, (3, 1): 10.0}
        dep, mat = make_graph(coords, [False, True, False, False], snr)
        res = widest_path_oracle(dep, mat, 0, 5.0)
        assert res.hops == (1,)

    def test_prefers_lexicographic_on_full_tie(self):
        coords = [(0, 0), (100, 0), (100, 50), (50, 50)]
        # two 2-hop routes with identical bottleneck through nodes 2 and 3
        snr = {(0, 2): 10.0, (0, 3): 10.0, (2, 1): 10.0, (3, 1): 10.0}
        dep, mat = make_graph(coords, [False, True, False, False], snr)
        res = widest_path_oracle(dep, mat, 0, 5.0)
        assert res.hops == (2, 1)

    def test_wired_origin_is_refused(self):
        dep, mat = make_graph([(0, 0), (100, 0), (50, 50)], [False, True, False], {(0, 1): 10.0})
        with pytest.raises(ValueError):
            widest_path_oracle(dep, mat, 1, 5.0)

    @pytest.mark.parametrize("origin", [-1, -2, 4])
    def test_origin_outside_the_deployment_is_refused(self, origin):
        """Negative ids would index from the end: -1 names the wired node 3, and -2 node 2."""
        coords = [(0, 0), (100, 0), (200, 0), (300, 0)]
        dep, mat = make_graph(coords, [False, False, False, True], {(0, 1): 10.0, (1, 2): 10.0, (2, 3): 10.0})
        with pytest.raises(IndexError):
            widest_path_oracle(dep, mat, origin, 5.0)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(3, 9))
            coords = rng.uniform(0, 1000, (n, 2)).tolist()
            wired = [False] + [bool(b) for b in rng.random(n - 1) < 0.4]
            if not any(wired):
                wired[1] = True
            snr = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        snr[(i, j)] = float(rng.uniform(-10, 40))
            dep, mat = make_graph(coords, wired, snr)
            res = widest_path_oracle(dep, mat, 0, 5.0)
            best = enumerate_widest(mat, wired, 0, 5.0)
            if best is None:
                assert res.outcome == PathOutcome.NO_CANDIDATE
            else:
                assert res.outcome == PathOutcome.SUCCESS
                assert res.bottleneck_snr_db == pytest.approx(best[0], abs=1e-12)
                assert res.hops == best[2]


class TestEmpiricalCdf:
    def test_counting_definition(self):
        cdf = EmpiricalCdf([1, 1, 2, 3])
        assert cdf.evaluate(1) == 0.5
        assert cdf.evaluate(2) == 0.75
        assert cdf.evaluate(3) == 1.0

    def test_bounds(self):
        cdf = EmpiricalCdf([1, 1, 2, 3])
        assert cdf.evaluate(0.999) == 0.0
        assert cdf.evaluate(3.0001) == 1.0

    def test_right_continuity_and_monotonicity(self):
        rng = np.random.default_rng(12)
        values = rng.normal(0, 5, 500)
        cdf = EmpiricalCdf(values)
        xs = np.linspace(values.min() - 1, values.max() + 1, 1000)
        fx = cdf.evaluate(xs)
        assert (np.diff(fx) >= 0).all()
        for v in values[:50]:
            assert cdf.evaluate(v) == cdf.evaluate(v + 1e-12)  # jump is at v, F right-continuous
            assert cdf.evaluate(v - 1e-9) < cdf.evaluate(v) + 1e-12

    def test_quantiles(self):
        cdf = EmpiricalCdf([10, 20, 30, 40])
        assert cdf.quantile(0.5) == 20
        assert cdf.quantile(0.25) == 10
        assert cdf.quantile(1.0) == 40
        assert cdf.quantile(0.0) == 10

    def test_quantile_is_smallest_order_statistic_reaching_level(self):
        # ceil(q*n) in floating point overshoots by one on 22 of these pairs,
        # e.g. q = 0.28, n = 25 where F(7th) = 7/25 = 0.28 already
        overshot = 0
        for n in range(1, 200):
            cdf = EmpiricalCdf(np.arange(1.0, n + 1))
            for i in range(1, 101):
                q = i / 100
                k = int(cdf.quantile(q))
                assert k / n >= q and (k == 1 or (k - 1) / n < q), (q, n)
                assert cdf.evaluate(float(k)) >= q
                overshot += k != min(n, math.ceil(q * n))
        assert overshot == 22
        assert EmpiricalCdf(np.arange(1.0, 26)).quantile(0.28) == 7.0

    def test_quantile_levels_in_summaries_unchanged(self):
        for n in range(1, 5001):
            cdf = EmpiricalCdf(np.arange(1.0, n + 1))
            for q in (0.5, 0.95):
                assert cdf.quantile(q) == min(n, math.ceil(q * n))

    def test_steps_end_at_one(self):
        cdf = EmpiricalCdf([2, 2, 7])
        values, probs = cdf.steps()
        assert values.tolist() == [2, 7]
        assert probs.tolist() == [2 / 3, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            EmpiricalCdf([])


class TestCampaignAggregation:
    def test_failure_accounting(self):
        res = run_campaign(SMALL)
        summary = aggregate(SMALL, res)
        for lab in res.labels:
            successes = int(res.success_mask(lab).sum())
            s = summary.policies[lab]
            assert s.successes == successes
            assert s.failure_probability == pytest.approx(1 - successes / SMALL.repetitions)
            assert s.successes + round(s.failure_probability * s.repetitions) == SMALL.repetitions

    def test_all_failures_flagged_empty(self):
        # an SNR threshold nothing can meet forces universal failure
        cfg = SimConfig(
            repetitions=5,
            radio=RadioConfig(snr_threshold_db=1e9),
            policies=(PolicySpec(PolicyKind.HQF),),
        )
        summary = aggregate(cfg, run_campaign(cfg))
        s = summary.policies["HQF"]
        assert s.failure_probability == 1.0
        assert s.hops_cdf is None and s.snr_cdf is None
        assert s.hop_mean is None and s.snr_mean_db is None

    def test_singleton_success_steps(self):
        cfg = SimConfig(repetitions=1, master_seed=2, policies=(PolicySpec(PolicyKind.WF),))
        res = run_campaign(cfg)
        if not res.success_mask("WF")[0]:
            pytest.skip("seed gives a failing instance; covered elsewhere")
        summary = aggregate(cfg, res)
        s = summary.policies["WF"]
        hops = res.hop_count["WF"][0]
        bott = res.bottleneck_db["WF"][0]
        assert s.hops_cdf.steps()[0].tolist() == [hops]
        assert s.hops_cdf.steps()[1].tolist() == [1.0]
        assert s.snr_cdf.steps()[0].tolist() == [bott]

    def test_oracle_dominates_every_policy(self):
        res = run_campaign(SMALL, keep_paths=True)
        for lab in res.labels:
            ok = res.success_mask(lab)
            assert (res.oracle_outcome[ok] == 0).all()  # policy success => oracle success
            assert (
                res.oracle_bottleneck_db[ok] >= res.bottleneck_db[lab][ok] - 1e-9
            ).all()
        summary = aggregate(SMALL, res)
        for lab in res.labels:
            gap = summary.policies[lab].mean_oracle_gap_db
            if gap is not None:
                assert gap >= -1e-12

    def test_oracle_path_search_runs_only_for_kept_paths(self, monkeypatch):
        """A campaign keeps the oracle's outcome and bottleneck; phase 2, which finds
        the path, runs only when paths are kept, and agrees with both."""
        kept = run_campaign(SMALL, keep_paths=True)
        found = kept.paths["oracle"]
        assert [res.outcome for res in found] == [list(PathOutcome)[code] for code in kept.oracle_outcome]
        bottlenecks = [res.bottleneck_snr_db for res in found]
        assert np.array_equal(bottlenecks, kept.oracle_bottleneck_db, equal_nan=True)

        def refuse(*args):
            raise AssertionError("phase 2 ran in a campaign that keeps no paths")

        monkeypatch.setattr(simulate, "_fewest_hops", refuse)
        result = run_campaign(SMALL)
        assert np.array_equal(result.oracle_outcome, kept.oracle_outcome)
        assert np.array_equal(result.oracle_bottleneck_db, kept.oracle_bottleneck_db, equal_nan=True)
        with pytest.raises(AssertionError, match="phase 2 ran"):
            run_campaign(SMALL, keep_paths=True)

    def test_worker_count_invariance(self):
        r1 = run_campaign(SMALL, workers=1)
        r3 = run_campaign(SMALL, workers=3)
        for lab in r1.labels:
            assert np.array_equal(r1.outcome[lab], r3.outcome[lab])
            assert np.array_equal(r1.hop_count[lab], r3.hop_count[lab])
            assert np.array_equal(r1.bottleneck_db[lab], r3.bottleneck_db[lab], equal_nan=True)
        assert np.array_equal(r1.oracle_outcome, r3.oracle_outcome)
        assert np.array_equal(r1.oracle_bottleneck_db, r3.oracle_bottleneck_db, equal_nan=True)

    @pytest.mark.parametrize("workers", [2.5, 0, -1, math.nan, math.inf])
    def test_bad_worker_count_names_the_key(self, workers):
        # a fractional count once reached np.linspace and raised a bare TypeError
        with pytest.raises(ConfigError, match="workers must be"):
            run_campaign(SimConfig(repetitions=4), workers=workers)

    def test_integral_float_worker_count_runs(self):
        cfg = SimConfig(repetitions=4, master_seed=9)
        serial, pooled = run_campaign(cfg), run_campaign(cfg, workers=2.0)
        assert np.array_equal(pooled.hop_count["HQF"], serial.hop_count["HQF"])

    def test_pool_starts_one_worker_per_chunk(self, monkeypatch):
        started = []

        class Recording(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", Recording)
        cfg = SimConfig(repetitions=2, master_seed=5)
        pooled = run_campaign(cfg, workers=4)
        assert started == [2]
        assert np.array_equal(pooled.hop_count["HQF"], run_campaign(cfg).hop_count["HQF"])

    def test_keep_paths_records_every_repetition(self):
        res = run_campaign(SMALL, keep_paths=True)
        assert set(res.paths) == set(res.labels) | {"oracle"}
        for lab in res.labels:
            assert len(res.paths[lab]) == SMALL.repetitions
            for rep, path in enumerate(res.paths[lab]):
                assert path.hop_count == res.hop_count[lab][rep]
