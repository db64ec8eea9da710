import concurrent.futures
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from oracles import enumerate_widest

from iabsim.channel import ROWS_KEPT, ChannelParams, RadioConfig, RowStore, link_table
from iabsim.config import config_document, parse_config
from iabsim import channel, cli, simulate
from iabsim.errors import ConfigError
from iabsim.geometry import Deployment, Region
from iabsim.policy import WBF_PRESETS, PathOutcome, PolicyKind, WalkBlock, WbfConfig, build_path
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
# the host's CPU count and the work cap, taken before conftest's fixture lifts both caps for each test
USABLE_CPUS, WORK_CAP = simulate._usable_cpus, simulate._work_cap
ROOT = Path(__file__).resolve().parents[1]
# the run's hop limit and the radio bandwidth, at their configured defaults
RUN = {"max_hops": SimConfig().max_hops, "bandwidth_hz": RadioConfig().bandwidth_hz}


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

    def test_a_policy_list_is_held_as_a_tuple(self):
        """A list stayed a list: the config was unhashable and did not equal its own echo."""
        specs = [PolicySpec(PolicyKind.HQF), PolicySpec(PolicyKind.WF)]
        cfg = SimConfig(policies=specs)
        assert cfg.policies == tuple(specs) and cfg == SimConfig(policies=tuple(specs))
        assert hash(cfg) == hash(SimConfig(policies=tuple(specs)))
        assert parse_config(config_document(cfg)) == cfg

    @pytest.mark.parametrize(
        "policies",
        [iter([PolicySpec(PolicyKind.HQF)]), (spec for spec in [PolicySpec(PolicyKind.HQF)]), "HQF", PolicySpec(PolicyKind.HQF)],
    )
    def test_policies_that_are_no_list_or_tuple_are_refused(self, policies):
        """An iterator was consumed by validation and the campaign failed on its length; a string
        was read letter by letter."""
        with pytest.raises(ConfigError, match="'policies' must be a list or tuple"):
            SimConfig(policies=policies)

    @pytest.mark.parametrize("policies", [(), []])
    def test_no_policy_names_the_key(self, policies):
        """The refusal named no key, while ``parse_config``'s names 'policies'."""
        with pytest.raises(ConfigError, match="'policies'"):
            SimConfig(policies=policies)

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

    def test_stream_is_numpys_own(self):
        """A repetition's generator holds numpy's SeedSequence, so it spawns and reports its state."""
        ss = repetition_rng(7, 3).bit_generator.seed_seq
        assert isinstance(ss, np.random.SeedSequence)
        assert (ss.entropy, ss.spawn_key) == (7, (3,))
        assert len(repetition_rng(7, 3).spawn(2)) == 2

    def test_repetition_is_bit_identical(self):
        r1 = run_repetition(SMALL, 4)
        r2 = run_repetition(SMALL, 4)
        assert r1 == r2

    @pytest.mark.parametrize("rep_index", [True, 1.5, -1, "1"])
    def test_a_repetition_index_that_is_no_integer_at_least_0_is_refused(self, rep_index):
        """``True`` would run repetition 1, and -1 fail inside the stream module naming no key."""
        with pytest.raises(ConfigError, match="rep_index"):
            run_repetition(SMALL, rep_index)

    def test_an_integral_float_repetition_index_runs_as_its_integer(self):
        assert run_repetition(SMALL, 2.0) == run_repetition(SMALL, 2)

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

    def test_block_size_counts_ues_only_with_mlr(self, monkeypatch):
        def estimate(policies=NO_MLR, lambda_ue=100.0, **overrides):
            overrides.setdefault("lambda_g", 480.0)
            return simulate._world_bytes(SimConfig(lambda_ue=lambda_ue, policies=policies, **overrides))

        ues = 100.0 * Region().area_km2
        assert estimate(NO_MLR, 0.0) == estimate(NO_MLR, 100.0) == estimate(NO_MLR, 1e5)
        assert estimate(WITH_MLR, 100.0) - estimate(WITH_MLR, 0.0) == 16 * ues
        # the padded width, the walks and the oracle each raise the estimate
        assert estimate(lambda_g=120.0) < estimate() < estimate(lambda_g=1000.0)
        assert estimate(NO_MLR, 0.0) < estimate(WITH_MLR, 0.0)
        assert estimate() < estimate(oracle_enabled=True)
        cfg = SimConfig(lambda_g=480.0, policies=WITH_MLR)
        assert simulate._block_size(cfg) == simulate.BLOCK_BYTES // estimate(WITH_MLR) > 1
        for bound in (estimate(WITH_MLR) - 1, 1):  # a world larger than the bound gets a block of its own
            monkeypatch.setattr(simulate, "BLOCK_BYTES", bound)
            assert simulate._block_size(cfg) == 1

    def test_world_bytes_count_store_rows_and_kernel_masks(self):
        """Per column of the padded width, a world holds 8 B for each of the ``ROWS_KEPT`` rows its
        store makes room for and for the row a round's read gathers, 2 B per walk (its open and
        admissible columns; no float row per walk) and 10 B for the oracle (its settled and
        admissible columns and its tentative bottlenecks; no open mask and no copy while it settles)."""
        width = 120.0 + 3.0 * math.sqrt(120.0)
        cfg = SimConfig(lambda_g=120.0, policies=NO_MLR)
        rows = 8 * (ROWS_KEPT + 1)
        assert simulate._world_bytes(cfg) == int(width * (rows + 2 * 3))
        assert simulate._world_bytes(replace(cfg, oracle_enabled=True)) == int(width * (rows + 2 * 3 + 10))
        ues = 16 * 100.0 * Region().area_km2
        assert simulate._world_bytes(replace(cfg, policies=WITH_MLR)) == int(width * (rows + 2 * 4) + ues)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bound", [1, 3, None, "whole"], ids=["bounds1", "bounds3", "default", "one_block"])
    def test_campaign_without_mlr_equal_at_any_block_bound(self, bound, workers, monkeypatch):
        """UEs do not count toward the block size without MLR, so default blocks are larger
        than with it; the arrays do not depend on it."""
        world = simulate._world_bytes(NO_MLR_CAMPAIGN)
        assert world == simulate._world_bytes(replace(NO_MLR_CAMPAIGN, lambda_ue=0.0))
        if bound is not None:
            worlds = NO_MLR_CAMPAIGN.repetitions if bound == "whole" else bound
            monkeypatch.setattr(simulate, "BLOCK_BYTES", worlds * world)
            assert simulate._block_size(NO_MLR_CAMPAIGN) == worlds
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
        for kind in PolicyKind:
            assert not build_path(0, kind, WbfConfig(), dep, mat, 5.0, **RUN).success

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

    @pytest.mark.parametrize("origin", [True, 0.5, np.float64(2.5)])
    def test_an_origin_that_is_no_integer_is_refused(self, origin):
        dep, mat = make_graph([(0, 0), (100, 0), (50, 50)], [False, True, False], {(0, 1): 10.0})
        with pytest.raises(ConfigError, match="origin_id"):
            widest_path_oracle(dep, mat, origin, 5.0)

    @pytest.mark.parametrize("threshold", [math.nan, "5", None, True])
    def test_a_threshold_that_is_nan_or_no_number_is_refused(self, threshold):
        dep, mat = make_graph([(0, 0), (100, 0), (50, 50)], [False, True, False], {(0, 1): 10.0})
        with pytest.raises(ConfigError, match="snr_threshold_db"):
            widest_path_oracle(dep, mat, 0, threshold)

    @pytest.mark.parametrize("threshold, hops", [(-math.inf, (1,)), (math.inf, ())])
    def test_an_infinite_threshold_admits_every_link_or_none(self, threshold, hops):
        dep, mat = make_graph([(0, 0), (100, 0), (50, 50)], [False, True, False], {(0, 1): 10.0})
        assert widest_path_oracle(dep, mat, 0, threshold).hops == hops

    def test_an_integral_float_origin_searches_as_its_integer(self):
        dep, mat = make_graph([(0, 0), (100, 0), (50, 50)], [False, True, False], {(2, 1): 10.0, (0, 2): 8.0})
        got = widest_path_oracle(dep, mat, 2.0, 5.0)
        assert got == widest_path_oracle(dep, mat, 2, 5.0) and type(got.origin_id) is int and got.hops == (1,)

    def test_a_block_at_no_threshold_tells_an_outage_bottleneck_from_no_path(self):
        """An ``OracleBlock`` at a threshold of -inf, where -inf is a real bottleneck. World 0 has
        only NaN links to its wired node 2, which clear no threshold: NO_CANDIDATE with NaN, though
        its padded column 3 holds -inf and is block node 3, world 1's wired node 0. World 1 reaches
        that node only over outage links: SUCCESS with bottleneck -inf."""
        links = {(0, 1): 7.0, (0, 2): math.nan, (1, 2): math.nan}
        none, none_mat = make_graph([(0, 0), (100, 0), (50, 50)], [False, False, True], links)
        coords = [(0, 0), (100, 0), (200, 0), (300, 0)]
        outage, outage_mat = make_graph(coords, [True, False, False, False], {(1, 2): 10.0, (2, 3): 12.0}, origin_id=1)
        oracle = simulate.OracleBlock(RowStore.held([none, outage], [none_mat, outage_mat]), [0, 1], -math.inf)
        simulate._lockstep([oracle])
        assert [list(PathOutcome)[c] for c in oracle.outcome] == [PathOutcome.NO_CANDIDATE, PathOutcome.SUCCESS]
        assert math.isnan(oracle.bottleneck[0]) and oracle.bottleneck[1] == -math.inf and oracle.at.size == 0
        alone = widest_path_oracle(outage, outage_mat, 1, -math.inf)
        assert (alone.outcome, alone.bottleneck_snr_db, alone.hops) == (PathOutcome.SUCCESS, -math.inf, (0,))

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


class TestMisshapedTables:
    """Both one-world wrappers refuse a link table that is not (n, n) for the world's n
    gNBs, naming both shapes, before any walk or oracle step."""

    WRAPPERS = {
        "build_path": lambda dep, table: build_path(0, PolicyKind.HQF, WbfConfig(), dep, table, 5.0, **RUN),
        "widest_path_oracle": lambda dep, table: widest_path_oracle(dep, table, 0, 5.0),
    }

    # shapes of array tables that a 3-gNB world refuses
    SHAPES = [(2, 2), (3, 5)]

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    @pytest.mark.parametrize("case", range(len(SHAPES)))
    def test_refused_naming_both_shapes(self, wrapper, case):
        dep, _ = make_graph([(0, 0), (100, 0), (50, 50)], [False, True, False], {(0, 1): 20.0})
        shape = self.SHAPES[case]
        with pytest.raises(ValueError, match=re.escape(f"(3, 3) link table, got one of shape {shape}")):
            self.WRAPPERS[wrapper](dep, np.full(shape, 20.0))


class TestTableOfAnotherWorld:
    """A link table is read only with the deployment it was built on, while that deployment holds
    the arrays the table's store reads: a table of any other world, even a twin at the same
    positions, or of a deployment whose arrays were rebound since, is refused before any step."""

    COORDS = [(0, 0), (100, 0), (50, 50), (0, 90), (90, 90)]
    WIRED = [False, True, False, True, False]
    REFUSED = "a link table is read with the deployment it was built on"

    @pytest.mark.parametrize("wrapper", sorted(TestMisshapedTables.WRAPPERS))
    def test_refused_by_both_wrappers(self, wrapper, monkeypatch):
        call = TestMisshapedTables.WRAPPERS[wrapper]
        dep, _ = make_graph(self.COORDS, self.WIRED, {})
        other, _ = make_graph([(x + 1.0, y) for x, y in self.COORDS], self.WIRED, {})
        twin, _ = make_graph(self.COORDS, self.WIRED, {})
        own = link_table(dep, RadioConfig(), ChannelParams(), np.random.default_rng(0))
        passes = []
        monkeypatch.setattr(RowStore, "_pass", lambda store, at: passes.append(at))
        for world in (other, twin):
            with pytest.raises(ValueError, match=self.REFUSED):
                call(world, own)
        dep.attached = dep.attached.copy()  # equal loads, but not the array the store reads
        with pytest.raises(ValueError, match=self.REFUSED):
            call(dep, own)
        assert passes == []


class TestOneReadPerRound:
    """``_lockstep`` reads each round's rows for every kernel at once: on a desk-like block, six walks
    per world and the oracle make one ``RowStore.read`` per round over the block node ``at`` of every
    walk and world still going, and each row is hashed once, also when several kernels stand on it,
    as every kernel of a world stands on its origin in the first round."""

    BIASED = tuple(PolicySpec(PolicyKind.HQF, WBF_PRESETS[name]) for name in ("aggressive_poly", "aggressive_exp"))
    DESK = replace(SMALL, repetitions=40, policies=WITH_MLR + BIASED)

    def test_desk_block(self, monkeypatch):
        events, hashed = [], []
        read, one_pass = RowStore.read, RowStore._pass

        def record_read(store, at):
            events.append(("read", at.tolist()))
            return read(store, at)

        def record_pass(store, at):
            hashed.append(at.tolist())
            one_pass(store, at)

        def record_step(kind, step):
            def recorded(block, rows, index):
                events.append((kind, block.at.tolist()))
                step(block, rows, index)

            return recorded

        monkeypatch.setattr(RowStore, "read", record_read)
        monkeypatch.setattr(RowStore, "_pass", record_pass)
        monkeypatch.setattr(WalkBlock, "step", record_step("walks", WalkBlock.step))
        monkeypatch.setattr(simulate.OracleBlock, "step", record_step("oracle", simulate.OracleBlock.step))
        cfg = self.DESK
        codes, hops, _, _, oracle_bottleneck, _, _ = simulate._run_block(cfg, range(cfg.repetitions), False)
        rounds = [[events[0]]]
        for event in events[1:]:
            if event[0] == "read":
                rounds.append([])
            rounds[-1].append(event)
        assert len(rounds) >= max(hops) > 4  # a round for each hop of the longest walk
        for k, ((kind, entries), *steps) in enumerate(rounds):
            assert kind == "read" and steps and [s[0] for s in steps] in (["walks", "oracle"], ["walks"], ["oracle"]), k
            assert entries == [entry for _, standing in steps for entry in standing], k  # every kernel still going
        walks, oracle = rounds[0][1][1], rounds[0][2][1]
        store = simulate._sample_block(cfg, range(cfg.repetitions))
        origin = (store.offset + store.origin).tolist()
        assert walks == [entry for entry in origin for _ in cfg.policies] and oracle == origin
        assert hashed[0] == origin  # all seven kernels of a world stand on its origin: one row each
        rows = [row for rows in hashed for row in rows]
        assert len(rows) == len(set(rows))  # no row is hashed twice
        alone = run_campaign(cfg)
        for p, label in enumerate(alone.labels):
            assert codes[p :: len(cfg.policies)].tolist() == alone.outcome[label].tolist()
        assert np.array_equal(oracle_bottleneck, alone.oracle_bottleneck_db, equal_nan=True)


class TestOneWorldCallsShareRows:
    """``build_path`` and ``widest_path_oracle`` on one ``LinkTable`` read through the row store the
    table keeps: four policies and the oracle evaluate each row they stand on once, and give what
    they give on the table's dense matrix."""

    def test_one_pass_per_distinct_row(self, monkeypatch):
        cfg = replace(SMALL, lambda_g=60.0, oracle_enabled=True)
        threshold = cfg.radio.snr_threshold_db
        passes, real = [], RowStore._pass

        def record(store, at):
            passes.append(at.tolist())
            real(store, at)

        for rep in range(4):
            dep, links = sample_world(cfg, repetition_rng(cfg.master_seed, rep))

            def calls(table):
                walks = [
                    build_path(
                        dep.origin_id, spec.kind, spec.wbf, dep, table, threshold,
                        max_hops=cfg.max_hops, bandwidth_hz=cfg.radio.bandwidth_hz,
                    )
                    for spec in cfg.policies
                ]
                return walks + [widest_path_oracle(dep, table, dep.origin_id, threshold)]

            with monkeypatch.context() as patch:
                patch.setattr(RowStore, "_pass", record)
                passes.clear()
                got = calls(links)
            rows = [row for rows in passes for row in rows]
            assert len(rows) == len(set(rows)) == links.store.count and len(passes) == len(rows), rep
            assert got == calls(links.snr), rep

    def test_sample_world_reads_through_the_store_its_block_sampled(self, monkeypatch):
        """The table of ``sample_world`` wraps the block's own store, so its slot keys are derived
        once, and each distinct row it reads takes one pass."""
        cfg = replace(SMALL, lambda_g=60.0)
        keyed, passes = [], []
        slot_keys, real_pass = channel._slot_keys, RowStore._pass
        monkeypatch.setattr(channel, "_slot_keys", lambda *a: keyed.append(a) or slot_keys(*a))
        monkeypatch.setattr(RowStore, "_pass", lambda store, at: passes.append(at.tolist()) or real_pass(store, at))
        for rep in range(4):
            keyed.clear()
            dep, links = sample_world(cfg, repetition_rng(cfg.master_seed, rep))
            assert len(keyed) == 1 and links.store.keys.shape == (3, 1), rep
            store = links.store
            assert store.positions is dep.positions and store.wired is dep.wired and store.attached is dep.attached
            passes.clear()
            nodes = [dep.origin_id, 0, dep.origin_id, dep.n_gnbs - 1, 0]
            rows = [links[i] for i in nodes]
            assert passes == [[i] for i in dict.fromkeys(nodes)] and store.count == len(set(nodes)), rep
            assert len(keyed) == 1 and "_whole" not in vars(links), rep
            assert all(row.tobytes() == links.snr[i].tobytes() for i, row in zip(nodes, rows)), rep


class TestPathResultTypes:
    """Kept paths hold Python numbers, as their digests and JSON outputs assume: an int origin and
    int hops, and a float bottleneck, from one repetition and from a campaign, with and without
    the oracle."""

    @pytest.mark.parametrize("oracle", [False, True], ids=["no_oracle", "oracle"])
    def test_origin_hops_and_bottleneck_are_python_numbers(self, oracle):
        cfg = replace(SMALL, repetitions=6, oracle_enabled=oracle)
        campaign = run_campaign(cfg, keep_paths=True).paths
        results = [res for rep in range(3) for res in run_repetition(cfg, rep).values()]
        results += [res for paths in campaign.values() for res in paths]
        assert ("oracle" in campaign) == oracle and len(results) == (3 + 6) * (len(cfg.policies) + oracle)
        assert any(res.hops for res in results)
        for res in results:
            assert type(res.origin_id) is int and type(res.bottleneck_snr_db) is float, res
            assert all(type(hop) is int for hop in res.hops), res


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

    @pytest.mark.parametrize("values", [[1.0, math.nan, 2.0], [math.nan], [-math.inf, math.nan]])
    def test_nan_rejected(self, values):
        with pytest.raises(ValueError, match="NaN"):
            EmpiricalCdf(values)


# The script of ``test_pool_workers_import_nothing``. The serial campaigns run last, on the share
# unwrapped, since they load ``streams`` in the parent themselves.
POOL_IMPORTS_NOTHING = """
import sys
from iabsim import channel, simulate
from iabsim.policy import PolicyKind
from iabsim.simulate import PolicySpec, SimConfig, run_campaign

share = simulate._run_range


def importing_nothing(*args):
    before = set(sys.modules)
    blocks = share(*args)
    if set(sys.modules) != before:
        raise AssertionError(f"a worker's share imported {sorted(set(sys.modules) - before)}")
    return blocks


def records(result):
    arrays = [*result.outcome.values(), *result.hop_count.values(), *result.bottleneck_db.values()]
    return [None if a is None else a.tobytes() for a in [*arrays, result.oracle_outcome, result.oracle_bottleneck_db]]


campaigns = [
    SimConfig(repetitions=6, master_seed=3, oracle_enabled=True),
    SimConfig(lambda_g=120.0, policies=(PolicySpec(PolicyKind.HQF), PolicySpec(PolicyKind.PA)), repetitions=5),
]
simulate._usable_cpus = lambda: 2
simulate._work_cap = lambda cfg: 2  # these small campaigns would run in process
simulate._run_range = importing_nothing
pooled = [records(run_campaign(cfg, workers=2)) for cfg in campaigns]
simulate._run_range = share
assert pooled == [records(run_campaign(cfg)) for cfg in campaigns]
"""


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

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)  # imported when a pool starts
        cfg = SimConfig(repetitions=2, master_seed=5)
        pooled = run_campaign(cfg, workers=4)
        assert started == [2]
        assert np.array_equal(pooled.hop_count["HQF"], run_campaign(cfg).hop_count["HQF"])

    @pytest.mark.parametrize(
        "workers, reps, cpus, workload, started",
        [
            (5000, 40, 2, None, [2]),
            (3, 2, 8, None, [2]),
            (4, 40, 8, None, [4]),
            (8, 40, 1, None, []),
            (2, 300, 2, "nomlr120", []),
            (2, 2400, 2, "nomlr120", [2]),
            (2, 120, 2, "dense480", [2]),
        ],
        ids=["cpus", "repetitions", "workers", "one_cpu", "work_nomlr120_300", "work_nomlr120_2400",
             "work_dense480_120"],
    )
    def test_pool_capped_by_workers_repetitions_and_cpus(self, workers, reps, cpus, workload, started, monkeypatch):
        """At most min(workers, repetitions, usable CPUs, work cap) processes, and none for one. A
        benchmark workload runs under the work cap; the small campaign of the other cases runs with
        it lifted. The stub pool records its size and runs each task in this process, so no process
        starts."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        if workload is None:
            cfg = SimConfig(lambda_g=10.0, lambda_ue=0.0, policies=NO_MLR, repetitions=reps, master_seed=5)
        else:
            monkeypatch.setattr(simulate, "_work_cap", WORK_CAP)
            doc = json.loads((ROOT / "bench" / "workloads" / f"{workload}.json").read_text())
            cfg = replace(parse_config(doc), repetitions=reps)
        pooled = run_campaign(cfg, workers=workers)
        assert sizes == started
        serial = run_campaign(cfg)
        for lab in cfg.policies:
            assert np.array_equal(pooled.bottleneck_db[lab.label], serial.bottleneck_db[lab.label], equal_nan=True)
            assert np.array_equal(pooled.hop_count[lab.label], serial.hop_count[lab.label])

    def test_work_estimate_reads_only_the_config(self):
        """The estimate is a deterministic function of the config: it grows with the gNB density, the
        policy count and the oracle, and with the UE density only when MLR keeps the UEs."""
        base = SimConfig(lambda_g=120.0, lambda_ue=100.0, policies=NO_MLR)
        cost = simulate._rep_cost_us
        assert cost(base) == cost(replace(base, master_seed=7, repetitions=3)) == cost(SimConfig(**vars(base)))
        assert cost(replace(base, lambda_g=240.0)) > cost(base)
        assert cost(replace(base, policies=NO_MLR[:2])) < cost(base)
        assert cost(replace(base, oracle_enabled=True)) > cost(base)
        assert cost(replace(base, lambda_ue=400.0)) == cost(base) == cost(replace(base, lambda_ue=0.0))
        mlr = replace(base, policies=WITH_MLR)
        assert cost(replace(mlr, lambda_ue=400.0)) > cost(mlr) > cost(replace(mlr, lambda_ue=0.0))
        assert WORK_CAP(replace(base, repetitions=1)) == 1
        assert WORK_CAP(replace(base, repetitions=10**6)) > WORK_CAP(replace(base, repetitions=10**4)) > 1

    def test_ci_pool_step_crosses_the_work_cap(self):
        """Each CLI run that CI gives 2 workers is a campaign large enough to start 2 processes, so the
        step runs the pool under ``-W error``."""
        workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
        commands = [line.split("-m iabsim", 1)[1].split() for line in workflow.splitlines() if "--workers" in line]
        assert len(commands) == 1  # the tier-1 job, which runs it on every entry of its matrix
        for argv in commands:
            argv = argv[: argv.index("--out")]
            args = cli._build_parser().parse_args(argv)
            cfg = cli._apply_overrides(parse_config(ROOT / args.config), args)
            assert args.workers == 2 and WORK_CAP(cfg) >= 2, argv

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        assert USABLE_CPUS() == len(simulate.os.sched_getaffinity(0))
        monkeypatch.delattr(simulate.os, "sched_getaffinity")
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        assert USABLE_CPUS() == 3
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
        assert USABLE_CPUS() == 1

    @pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork", reason="only forked workers inherit modules")
    def test_pool_workers_import_nothing(self):
        """Workers forked from ``run_campaign`` find ``streams`` and ``numpy.random`` loaded: a share
        that imports a module fails. The campaigns run in a fresh interpreter, since this one has
        loaded both long since, and on two CPUs whatever the host has."""
        src = str(Path(simulate.__file__).resolve().parents[1])  # the directory this test imported the package from
        out = subprocess.run(
            [sys.executable, "-c", POOL_IMPORTS_NOTHING],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr

    def test_keep_paths_records_every_repetition(self):
        res = run_campaign(SMALL, keep_paths=True)
        assert set(res.paths) == set(res.labels) | {"oracle"}
        for lab in res.labels:
            assert len(res.paths[lab]) == SMALL.repetitions
            for rep, path in enumerate(res.paths[lab]):
                assert path.hop_count == res.hop_count[lab][rep]
