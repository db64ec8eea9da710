import math

import numpy as np
import pytest
from oracles import reference_greedy_trace

from iabsim.errors import ConfigError
from iabsim.geometry import Deployment, Region, half_plane_filter, nearest_wired
from iabsim.policy import (
    Candidate,
    PathOutcome,
    PolicyKind,
    WbfConfig,
    WbfKind,
    biased_metric,
    build_path,
    candidate_set,
    select_hqf,
    select_mlr,
    select_pa,
    select_wf,
    wbf_exp,
    wbf_poly,
    wired_bias_db,
)

CONSERVATIVE_POLY = WbfConfig(WbfKind.POLYNOMIAL, n_ht=6, k=1.0, gamma_gap_db=5.0, gamma_h_db=2.0)
AGGRESSIVE_POLY = WbfConfig(WbfKind.POLYNOMIAL, n_ht=1, k=3.0, gamma_gap_db=15.0, gamma_h_db=2.0)
CONSERVATIVE_EXP = WbfConfig(WbfKind.EXPONENTIAL, n_ht=6, gamma=1.5, gamma_gap_db=5.0, gamma_h_db=2.0)
AGGRESSIVE_EXP = WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=3.0, gamma_gap_db=15.0, gamma_h_db=2.0)
NO_BIAS = WbfConfig()


def cand(node_id, snr, wired=False, attached=1):
    return Candidate(node_id, snr, wired, attached)


def make_world(coords, wired_flags, snr, origin_id=0):
    """Deployment plus a symmetric SNR matrix; None entries become -inf."""
    n = len(coords)
    mat = np.full((n, n), -np.inf)
    for (i, j), v in snr.items():
        mat[i, j] = v
        mat[j, i] = v
    return Deployment(Region(1000, 1000), coords, wired_flags, origin_id), mat


class TestBiasFunctions:
    def test_polynomial_worked_example(self):
        # one hop traveled, threshold 6, degree 1: factor 1/6, bias 5/6 + 2
        assert (1 / 6) ** 1 == pytest.approx(0.1667, abs=5e-5)
        assert wbf_poly(1, CONSERVATIVE_POLY) == pytest.approx(5 / 6 + 2, abs=1e-12)
        assert wbf_poly(1, CONSERVATIVE_POLY) == pytest.approx(2.8333, abs=5e-5)

    def test_polynomial_reaches_full_gap_at_threshold(self):
        assert wbf_poly(6, CONSERVATIVE_POLY) == pytest.approx(5.0 + 2.0)

    def test_polynomial_zero_hops_is_hysteresis_only(self):
        assert wbf_poly(0, CONSERVATIVE_POLY) == pytest.approx(2.0)
        assert wbf_poly(0, AGGRESSIVE_POLY) == pytest.approx(2.0)

    def test_exponential_worked_example(self):
        assert 1.5 ** (1 / 6) == pytest.approx(1.0699, abs=5e-5)
        assert wbf_exp(1, CONSERVATIVE_EXP) == pytest.approx(1.5 ** (1 / 6) * 5 + 2, abs=1e-12)

    def test_exponential_zero_hops_keeps_full_gap(self):
        assert wbf_exp(0, CONSERVATIVE_EXP) == pytest.approx(5.0 + 2.0)

    def test_exponential_aggressive_two_hops(self):
        assert wbf_exp(2, AGGRESSIVE_EXP) == pytest.approx(3**2 * 15 + 2)  # 137 dB

    def test_nondecreasing_in_hops(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cfg = WbfConfig(
                kind=WbfKind.POLYNOMIAL if rng.random() < 0.5 else WbfKind.EXPONENTIAL,
                n_ht=int(rng.integers(1, 10)),
                k=float(rng.uniform(0.2, 4.0)),
                gamma=float(rng.uniform(1.0, 4.0)),
                gamma_gap_db=float(rng.uniform(0.0, 20.0)),
                gamma_h_db=float(rng.uniform(0.0, 5.0)),
            )
            values = [wired_bias_db(n, cfg) for n in range(31)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_exponential_dominates_polynomial_when_matched(self):
        for n in range(31):
            assert wbf_exp(n, AGGRESSIVE_EXP) >= wbf_poly(n, AGGRESSIVE_POLY) - 1e-12
            assert wbf_exp(n, CONSERVATIVE_EXP) >= wbf_poly(n, CONSERVATIVE_POLY) - 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.5},
            {"n_ht": 0},
            {"k": 0.0},
            {"gamma_gap_db": -1.0},
            {"gamma_h_db": -0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WbfConfig(kind=WbfKind.EXPONENTIAL, **kwargs)

    def test_none_kind_contributes_nothing(self):
        assert wired_bias_db(5, NO_BIAS) == 0.0


class TestBiasedMetric:
    def test_wired_gets_bias(self):
        c = cand(1, 6.0, wired=True)
        assert biased_metric(c, 1, CONSERVATIVE_POLY) == pytest.approx(6.0 + 5 / 6 + 2)

    def test_wireless_unchanged(self):
        c = cand(1, 6.0, wired=False)
        assert biased_metric(c, 1, AGGRESSIVE_EXP) == 6.0

    def test_disabled_bias(self):
        c = cand(1, 6.0, wired=True)
        assert biased_metric(c, 3, NO_BIAS) == 6.0


class TestCandidateSet:
    def make(self):
        coords = [(0, 0), (100, 0), (0, 100), (100, 100)]
        wired = [False, True, False, False]
        snr = {(0, 1): 4.9, (0, 2): 5.0, (0, 3): 20.0}
        return make_world(coords, wired, snr)

    def test_threshold_is_inclusive(self):
        dep, mat = self.make()
        ids = [c.node_id for c in candidate_set(0, dep, mat, {0}, 5.0)]
        assert ids == [2, 3]  # 4.9 dB excluded, 5.0 dB kept

    def test_visited_excluded(self):
        dep, mat = self.make()
        ids = [c.node_id for c in candidate_set(0, dep, mat, {0, 2}, 5.0)]
        assert ids == [3]

    def test_all_outage_empty(self):
        coords = [(0, 0), (100, 0)]
        dep, mat = make_world(coords, [False, True], {})
        assert candidate_set(0, dep, mat, {0}, 5.0) == []

    def test_carries_node_attributes(self):
        dep, mat = self.make()
        dep.node(3).attached_count = 4
        by_id = {c.node_id: c for c in candidate_set(0, dep, mat, {0}, 5.0)}
        assert by_id[3].attached_count == 4
        assert not by_id[3].is_wired
        assert by_id[3].raw_snr_db == 20.0


class TestSelectHqf:
    def test_plain_argmax(self):
        cands = [cand(0, 7.0), cand(1, 10.0), cand(2, 6.0)]
        assert select_hqf(cands, 0, NO_BIAS) == 1

    def test_bias_flips_choice_to_wired(self):
        cands = [cand(0, 10.0, wired=False), cand(1, 6.0, wired=True)]
        strong = WbfConfig(WbfKind.POLYNOMIAL, n_ht=1, k=1.0, gamma_gap_db=5.0, gamma_h_db=0.0)
        assert select_hqf(cands, 0, NO_BIAS) == 0
        assert select_hqf(cands, 1, strong) == 1  # 6 + 5 = 11 > 10

    def test_tie_prefers_wired(self):
        cands = [cand(0, 10.0, wired=False), cand(1, 10.0, wired=True)]
        assert select_hqf(cands, 0, NO_BIAS) == 1

    def test_tie_then_lowest_id(self):
        cands = [cand(3, 10.0), cand(1, 10.0), cand(2, 10.0)]
        assert select_hqf(cands, 0, NO_BIAS) == 1

    def test_shift_invariance_without_bias(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            snrs = rng.uniform(-5, 40, n)
            wired = rng.random(n) < 0.4
            cands = [cand(i, float(snrs[i]), bool(wired[i])) for i in range(n)]
            shifted = [cand(i, float(snrs[i]) + 17.25, bool(wired[i])) for i in range(n)]
            assert select_hqf(cands, 0, NO_BIAS) == select_hqf(shifted, 0, NO_BIAS)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_hqf([], 0, NO_BIAS)


class TestSelectWf:
    def test_wired_beats_stronger_wireless(self):
        cands = [cand(0, 12.0, wired=False), cand(1, 6.0, wired=True)]
        assert select_wf(cands, 0, NO_BIAS) == 1

    def test_best_raw_snr_among_wired(self):
        cands = [cand(0, 6.0, wired=True), cand(1, 9.0, wired=True), cand(2, 30.0)]
        assert select_wf(cands, 0, NO_BIAS) == 1

    def test_falls_back_to_hqf(self):
        cands = [cand(0, 7.0), cand(1, 10.0)]
        assert select_wf(cands, 0, NO_BIAS) == select_hqf(cands, 0, NO_BIAS) == 1

    def test_wired_tie_lowest_id(self):
        cands = [cand(4, 6.0, wired=True), cand(2, 6.0, wired=True)]
        assert select_wf(cands, 0, NO_BIAS) == 2


class TestSelectPa:
    def make(self):
        # origin at center; wired donor to the east; candidates east and west
        coords = [(500, 500), (800, 500), (650, 520), (200, 480)]
        wired = [False, True, False, False]
        snr = {(0, 1): 5.5, (0, 2): 6.0, (0, 3): 20.0, (2, 1): 8.0, (3, 1): 7.0}
        return make_world(coords, wired, snr)

    def test_forward_half_plane_wins_over_stronger_behind(self):
        dep, mat = self.make()
        cands = candidate_set(0, dep, mat, {0}, 5.0)
        # node 3 has 20 dB but lies behind the divide; node 2 forward at 6 dB
        assert select_pa(0, cands, dep, 0, NO_BIAS) in (1, 2)
        chosen = select_pa(0, cands, dep, 0, NO_BIAS)
        assert chosen == 2 or mat[0, chosen] >= 6.0

    def test_fallback_when_nothing_forward(self):
        coords = [(500, 500), (800, 500), (200, 480)]
        wired = [False, True, False]
        snr = {(0, 2): 20.0, (2, 1): 7.0}  # wired out of reach of origin
        dep, mat = make_world(coords, wired, snr)
        cands = candidate_set(0, dep, mat, {0}, 5.0)
        assert [c.node_id for c in cands] == [2]
        assert select_pa(0, cands, dep, 0, NO_BIAS) == 2

    def test_wired_target_in_reach_is_chosen(self):
        coords = [(500, 500), (600, 500)]
        wired = [False, True]
        dep, mat = make_world(coords, wired, {(0, 1): 9.0})
        cands = candidate_set(0, dep, mat, {0}, 5.0)
        assert select_pa(0, cands, dep, 0, NO_BIAS) == 1

    def test_forward_progress_when_filter_nonempty(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = 8
            coords = rng.uniform(0, 1000, (n, 2))
            wired = [False] + [bool(b) for b in rng.random(n - 1) < 0.4]
            if not any(wired):
                wired[1] = True
            snr = {(0, j): float(rng.uniform(5, 30)) for j in range(1, n)}
            dep, mat = make_world(coords.tolist(), wired, snr)
            cands = candidate_set(0, dep, mat, {0}, 5.0)
            if not cands:
                continue
            chosen = select_pa(0, cands, dep, 0, NO_BIAS)
            pos = dep.positions
            ids = [c.node_id for c in cands]
            if any(half_plane_filter(pos[0], pos[nearest_wired(0, dep)], pos[ids])):
                target = dep.node(nearest_wired(0, dep)).position
                cur = dep.node(0).position
                chosen_pos = dep.node(chosen).position
                proj = (chosen_pos.x - cur.x) * (target.x - cur.x) + (chosen_pos.y - cur.y) * (target.y - cur.y)
                assert proj > 0

    def test_donor_at_same_position_falls_back_to_hqf(self):
        # node 0 shares its spot with donor 1, which is out of reach: no
        # direction is forward, so PA ranks the full set as HQF does
        coords = [(1, 1), (1, 1), (5, 1), (-5, 1)]
        snr = {(0, 2): 6.0, (0, 3): 9.0, (2, 1): 7.0, (3, 1): 8.0}
        dep, mat = make_world(coords, [False, True, False, False], snr)
        cands = candidate_set(0, dep, mat, {0}, 5.0)
        assert select_pa(0, cands, dep, 0, NO_BIAS) == select_hqf(cands, 0, NO_BIAS) == 3
        res = build_path(0, PolicyKind.PA, NO_BIAS, dep, mat, 5.0)
        assert res.hops == reference_greedy_trace(PolicyKind.PA, dep, mat, 5.0, NO_BIAS, 30)[0] == (3, 1)


class TestSelectMlr:
    def test_rate_beats_snr_under_load(self):
        # 10 dB with 4 attached loses to 7 dB with 1 attached:
        # log2(11)/4 = 0.865 per Hz vs log2(1+10^0.7) = 2.588 per Hz
        cands = [cand(0, 10.0, attached=4), cand(1, 7.0, attached=1)]
        assert select_mlr(cands, 400e6, 0, NO_BIAS) == 1

    def test_equal_snr_lower_load_wins(self):
        cands = [cand(0, 9.0, attached=1), cand(1, 9.0, attached=2)]
        assert select_mlr(cands, 400e6, 0, NO_BIAS) == 0

    def test_singleton(self):
        assert select_mlr([cand(5, 6.0)], 400e6, 0, NO_BIAS) == 5

    def test_bias_applied_before_rate(self):
        cands = [cand(0, 12.0, wired=False, attached=1), cand(1, 6.0, wired=True, attached=1)]
        strong = WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=1.0, gamma_gap_db=10.0, gamma_h_db=0.0)
        assert select_mlr(cands, 400e6, 0, NO_BIAS) == 0
        assert select_mlr(cands, 400e6, 1, strong) == 1


class TestBuildPath:
    def test_single_hop_success(self):
        coords = [(500, 500), (600, 500)]
        dep, mat = make_world(coords, [False, True], {(0, 1): 20.0})
        res = build_path(0, PolicyKind.WF, NO_BIAS, dep, mat, 5.0)
        assert res.outcome == PathOutcome.SUCCESS
        assert res.hops == (1,)
        assert res.hop_count == 1
        assert res.bottleneck_snr_db == 20.0

    def test_dead_end_reports_no_candidate(self):
        # origin -> relay works, but the relay sees nothing new
        coords = [(500, 500), (600, 500), (900, 900)]
        dep, mat = make_world(coords, [False, False, True], {(0, 1): 8.0})
        res = build_path(0, PolicyKind.HQF, NO_BIAS, dep, mat, 5.0)
        assert res.outcome == PathOutcome.NO_CANDIDATE
        assert res.hops == (1,)
        assert res.bottleneck_snr_db == 8.0

    def test_immediate_failure_has_nan_bottleneck(self):
        coords = [(500, 500), (900, 900)]
        dep, mat = make_world(coords, [False, True], {})
        res = build_path(0, PolicyKind.WF, NO_BIAS, dep, mat, 5.0)
        assert res.outcome == PathOutcome.NO_CANDIDATE
        assert res.hops == ()
        assert math.isnan(res.bottleneck_snr_db)

    def test_max_hops_cutoff(self):
        # a long wireless chain before the only wired node
        n = 6
        coords = [(100 * i, 0) for i in range(n)]
        wired = [False] * (n - 1) + [True]
        snr = {(i, i + 1): 10.0 for i in range(n - 1)}
        dep, mat = make_world(coords, wired, snr)
        res = build_path(0, PolicyKind.HQF, NO_BIAS, dep, mat, 5.0, max_hops=3)
        assert res.outcome == PathOutcome.MAX_HOPS
        assert res.hop_count == 3

    def test_origin_must_be_wireless(self):
        coords = [(0, 0), (10, 10)]
        dep, mat = make_world(coords, [False, True], {(0, 1): 10.0}, origin_id=0)
        with pytest.raises(ValueError):
            build_path(1, PolicyKind.HQF, NO_BIAS, dep, mat, 5.0)

    def test_star_topology_matches_enumerated_trace(self):
        # five nodes, all links enumerated; trace each policy by hand-rolled greedy
        coords = [(500, 500), (650, 500), (500, 650), (350, 500), (500, 350)]
        wired = [False, False, False, True, True]
        snr = {
            (0, 1): 18.0, (0, 2): 12.0, (0, 3): 6.0, (0, 4): 5.5,
            (1, 2): 9.0, (1, 3): 4.0, (1, 4): 7.0,
            (2, 3): 11.0, (2, 4): 3.0,
            (3, 4): 30.0,
        }
        dep, mat = make_world(coords, wired, snr)
        # HQF by hand: 0 -> 1 (18 dB), then 2 (9 dB beats wired 4 at 7 dB, and 3
        # sits below threshold at 4 dB), then 3 (11 dB, wired); bottleneck 9
        got = build_path(0, PolicyKind.HQF, NO_BIAS, dep, mat, 5.0)
        assert got.hops == (1, 2, 3)
        assert got.bottleneck_snr_db == 9.0
        # WF grabs the strongest wired donor immediately: 0 -> 3 (6 dB)
        got = build_path(0, PolicyKind.WF, NO_BIAS, dep, mat, 5.0)
        assert got.hops == (3,)
        assert got.bottleneck_snr_db == 6.0
        for kind in PolicyKind:
            got = build_path(0, kind, NO_BIAS, dep, mat, 5.0)
            want_hops, want_bottleneck, want_success = reference_greedy_trace(
                kind, dep, mat, 5.0, NO_BIAS, 30
            )
            assert got.hops == want_hops, kind
            assert got.bottleneck_snr_db == pytest.approx(want_bottleneck, abs=1e-12)
            assert got.success == want_success

    def test_random_instances_match_enumerated_trace(self):
        rng = np.random.default_rng(3)
        for trial in range(300):
            n = int(rng.integers(3, 9))
            coords = rng.uniform(0, 1000, (n, 2)).tolist()
            wired = [False] + [bool(b) for b in rng.random(n - 1) < 0.4]
            if not any(wired):
                wired[int(rng.integers(1, n))] = True
            snr = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        snr[(i, j)] = float(rng.uniform(-5, 35))
            dep, mat = make_world(coords, wired, snr)
            for g in dep.gnbs:
                g.attached_count = int(rng.integers(0, 5))
            wbf = [NO_BIAS, CONSERVATIVE_POLY, AGGRESSIVE_EXP][trial % 3]
            for kind in PolicyKind:
                got = build_path(0, kind, wbf, dep, mat, 5.0)
                want_hops, want_bottleneck, want_success = reference_greedy_trace(
                    kind, dep, mat, 5.0, wbf, 30
                )
                assert got.hops == want_hops, (trial, kind)
                if got.hops:
                    assert got.bottleneck_snr_db == pytest.approx(want_bottleneck, abs=1e-12)
                assert got.success == want_success


class TestPathInvariants:
    def test_random_paths_satisfy_contracts(self):
        rng = np.random.default_rng(4)
        huge_gap = WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=1.0, gamma_gap_db=1e6, gamma_h_db=2.0)
        for trial in range(400):
            n = int(rng.integers(3, 12))
            coords = rng.uniform(0, 1000, (n, 2)).tolist()
            wired = [False] + [bool(b) for b in rng.random(n - 1) < 0.35]
            if not any(wired):
                wired[1] = True
            snr = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        snr[(i, j)] = float(rng.uniform(-5, 35))
            dep, mat = make_world(coords, wired, snr)
            max_hops = int(rng.integers(1, 8))
            for kind in PolicyKind:
                res = build_path(0, kind, NO_BIAS, dep, mat, 5.0, max_hops=max_hops)
                nodes = (0,) + res.hops
                assert len(set(nodes)) == len(nodes)  # no repeats
                assert res.hop_count <= min(max_hops, n)
                for a, b in zip(nodes, nodes[1:]):
                    assert mat[a, b] >= 5.0  # feasibility on raw SNR
                if res.hops:
                    links = [mat[a, b] for a, b in zip(nodes, nodes[1:])]
                    assert res.bottleneck_snr_db == min(links)
                assert res.success == dep.node(nodes[-1]).is_wired if res.hops else not res.success

            # WF equivalence: an overwhelming wired bias reproduces WF step for step
            wf = build_path(0, PolicyKind.WF, NO_BIAS, dep, mat, 5.0, max_hops=max_hops)
            hq = build_path(0, PolicyKind.HQF, huge_gap, dep, mat, 5.0, max_hops=max_hops)
            assert wf.hops == hq.hops
            assert wf.outcome == hq.outcome
