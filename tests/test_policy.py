import math

import numpy as np
import pytest
from oracles import half_plane_filter, nearest_wired, reference_greedy_trace

from iabsim.channel import shannon_rate
from iabsim.errors import ConfigError
from iabsim.geometry import Deployment, Region
from iabsim.policy import (
    RERANK_FLOOR,
    RERANK_MARGIN,
    PathOutcome,
    PolicyKind,
    WbfConfig,
    WbfKind,
    build_path,
    vector_rates,
    wbf_exp,
    wbf_poly,
    wired_bias_db,
)

CONSERVATIVE_POLY = WbfConfig(WbfKind.POLYNOMIAL, n_ht=6, k=1.0, gamma_gap_db=5.0, gamma_h_db=2.0)
AGGRESSIVE_POLY = WbfConfig(WbfKind.POLYNOMIAL, n_ht=1, k=3.0, gamma_gap_db=15.0, gamma_h_db=2.0)
CONSERVATIVE_EXP = WbfConfig(WbfKind.EXPONENTIAL, n_ht=6, gamma=1.5, gamma_gap_db=5.0, gamma_h_db=2.0)
AGGRESSIVE_EXP = WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=3.0, gamma_gap_db=15.0, gamma_h_db=2.0)
NO_BIAS = WbfConfig()


def make_world(coords, wired_flags, snr, origin_id=0):
    """Deployment plus a symmetric SNR matrix; None entries become -inf."""
    n = len(coords)
    mat = np.full((n, n), -np.inf)
    for (i, j), v in snr.items():
        mat[i, j] = v
        mat[j, i] = v
    return Deployment(Region(1000, 1000), coords, wired_flags, origin_id), mat


def choose(policy, links, wired=(), wbf=NO_BIAS, loads=None, relays=0, threshold=5.0):
    """The parent ``build_path`` picks at one hop of a hand-built world.

    ``links`` maps candidate id -> raw SNR from the deciding node; ``wired``
    and ``loads`` (id -> attached count) describe the candidates. The decider
    is the origin 0, or the end of a chain 0 -> 1 -> ... -> ``relays`` of
    30 dB wireless links, so the bias sees ``relays`` traveled hops. One more
    wired node, out of everyone's reach, makes the deployment valid.
    """
    n = max(links) + 2
    snr = {(i, i + 1): 30.0 for i in range(relays)}
    snr.update({(relays, j): v for j, v in links.items()})
    flags = [i in wired for i in range(n - 1)] + [True]
    dep, mat = make_world([(100.0 * i, 0.0) for i in range(n)], flags, snr)
    for i, load in (loads or {}).items():
        dep.attached[i] = load
    hops = build_path(0, policy, wbf, dep, mat, threshold).hops
    assert hops[:relays] == tuple(range(1, relays + 1))
    return hops[relays]


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
    # the ranking metric is the raw SNR plus, for wired nodes only, the bias;
    # a wireless node one ulp above a metric beats the wired node, one equal to it loses the tie

    def test_wired_gets_bias(self):
        metric = 6.0 + wired_bias_db(1, CONSERVATIVE_POLY)
        assert metric == pytest.approx(6.0 + 5 / 6 + 2)
        links = {2: 6.0, 3: metric}
        assert choose(PolicyKind.HQF, links, wired={2}, wbf=CONSERVATIVE_POLY, relays=1) == 2
        links[3] = math.nextafter(metric, math.inf)
        assert choose(PolicyKind.HQF, links, wired={2}, wbf=CONSERVATIVE_POLY, relays=1) == 3

    def test_wireless_unchanged(self):
        # a 47 dB bias lifts the wired node from -41 dB exactly to 6 dB; the
        # wireless node keeps its raw 6 dB and so loses the tie
        assert wired_bias_db(1, AGGRESSIVE_EXP) == 47.0
        links = {2: -41.0, 3: 6.0}
        kw = dict(wired={2}, wbf=AGGRESSIVE_EXP, relays=1, threshold=-50.0)
        assert choose(PolicyKind.HQF, links, **kw) == 2
        links[3] = math.nextafter(6.0, math.inf)
        assert choose(PolicyKind.HQF, links, **kw) == 3

    def test_disabled_bias(self):
        links = {4: 6.0, 5: 6.0}
        assert choose(PolicyKind.HQF, links, wired={4}, relays=3) == 4
        links[5] = math.nextafter(6.0, math.inf)
        assert choose(PolicyKind.HQF, links, wired={4}, relays=3) == 5


class TestCandidateSet:
    def test_threshold_is_inclusive(self):
        # WF takes a wired node whenever one is admissible: at 4.9 dB it is not, at 5.0 dB it is
        assert choose(PolicyKind.WF, {1: 4.9, 2: 5.0}, wired={1}) == 2
        assert choose(PolicyKind.WF, {1: 5.0, 2: 20.0}, wired={1}) == 1

    def test_visited_excluded(self):
        # the relay's strongest links go back to the origin and to itself; neither is taken
        coords = [(0, 0), (100, 0), (200, 0)]
        dep, mat = make_world(coords, [False, False, True], {(0, 1): 30.0, (1, 2): 6.0})
        mat[1, 1] = mat[0, 0] = 50.0
        for kind in PolicyKind:
            assert build_path(0, kind, NO_BIAS, dep, mat, 5.0).hops == (1, 2), kind

    def test_all_outage_empty(self):
        coords = [(0, 0), (100, 0), (200, 0)]
        for snr in ({}, {(0, 1): 4.9, (0, 2): -3.0}):
            dep, mat = make_world(coords, [False, True, False], snr)
            for kind in PolicyKind:
                res = build_path(0, kind, NO_BIAS, dep, mat, 5.0)
                assert res.outcome == PathOutcome.NO_CANDIDATE
                assert res.hops == ()

    def test_carries_node_attributes(self):
        # the kernel reads each candidate's load (MLR), wired flag (WF) and raw SNR (bottleneck)
        links = {2: 5.0, 3: 20.0}
        assert choose(PolicyKind.MLR, links) == 3
        assert choose(PolicyKind.MLR, links, loads={3: 4}) == 2  # log2(101)/4 < log2(1 + 10^0.5)
        assert choose(PolicyKind.WF, links, wired={2}) == 2
        coords = [(0, 0), (100, 0), (200, 0), (300, 0)]
        dep, mat = make_world(coords, [False, True, False, False], {(0, 1): 4.9, (0, 2): 5.0, (0, 3): 20.0})
        res = build_path(0, PolicyKind.HQF, NO_BIAS, dep, mat, 5.0)
        assert res.hops == (3,)
        assert res.bottleneck_snr_db == 20.0


class TestSelectHqf:
    def test_plain_argmax(self):
        assert choose(PolicyKind.HQF, {1: 7.0, 2: 10.0, 3: 6.0}) == 2

    def test_bias_flips_choice_to_wired(self):
        links = {2: 10.0, 3: 6.0}
        strong = WbfConfig(WbfKind.POLYNOMIAL, n_ht=1, k=1.0, gamma_gap_db=5.0, gamma_h_db=0.0)
        assert choose(PolicyKind.HQF, links, wired={3}, relays=1) == 2
        assert choose(PolicyKind.HQF, links, wired={3}, wbf=strong) == 2  # no bias before the first hop
        assert choose(PolicyKind.HQF, links, wired={3}, wbf=strong, relays=1) == 3  # 6 + 5 = 11 > 10

    def test_tie_prefers_wired(self):
        assert choose(PolicyKind.HQF, {1: 10.0, 2: 10.0}, wired={2}) == 2

    def test_tie_then_lowest_id(self):
        assert choose(PolicyKind.HQF, {1: 10.0, 2: 10.0, 3: 10.0}) == 1
        assert choose(PolicyKind.HQF, {2: 10.0, 3: 10.0, 4: 10.0}, wired={3, 4}) == 3

    def test_shift_invariance_without_bias(self):
        # shifting every SNR and the threshold together changes no walk
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            coords = rng.uniform(0, 1000, (n, 2)).tolist()
            wired = [False] + [bool(b) for b in rng.random(n - 1) < 0.4]
            wired[-1] = True
            snr = {(i, j): float(rng.uniform(-5, 40)) for i in range(n) for j in range(i + 1, n)}
            dep, mat = make_world(coords, wired, snr)
            for kind in (PolicyKind.HQF, PolicyKind.WF, PolicyKind.PA):
                base = build_path(0, kind, NO_BIAS, dep, mat, 5.0)
                shifted = build_path(0, kind, NO_BIAS, dep, mat + 17.25, 5.0 + 17.25)
                assert shifted.hops == base.hops, kind

    def test_empty_rejected(self):
        # an empty admissible set is never ranked: every policy stops with NO_CANDIDATE
        coords = [(500, 500), (600, 500), (900, 900)]
        dep, mat = make_world(coords, [False, False, True], {(0, 1): 8.0, (1, 2): 4.0})
        for kind in PolicyKind:
            res = build_path(0, kind, CONSERVATIVE_POLY, dep, mat, 5.0)
            assert res.outcome == PathOutcome.NO_CANDIDATE
            assert res.hops == (1,)


class TestSelectWf:
    def test_wired_beats_stronger_wireless(self):
        assert choose(PolicyKind.WF, {1: 12.0, 2: 6.0}, wired={2}) == 2

    def test_best_raw_snr_among_wired(self):
        links = {1: 6.0, 2: 9.0, 3: 30.0}
        assert choose(PolicyKind.WF, links, wired={1, 2}) == 2
        assert choose(PolicyKind.WF, links, wired={1, 2}, wbf=AGGRESSIVE_EXP) == 2

    def test_falls_back_to_hqf(self):
        links = {2: 7.0, 3: 10.0}
        for wbf in (NO_BIAS, CONSERVATIVE_POLY):
            assert choose(PolicyKind.WF, links, wbf=wbf, relays=1) == 3
            assert choose(PolicyKind.HQF, links, wbf=wbf, relays=1) == 3

    def test_wired_tie_lowest_id(self):
        assert choose(PolicyKind.WF, {2: 6.0, 4: 6.0, 5: 9.0}, wired={2, 4}) == 2


class TestSelectPa:
    def make(self):
        # origin at center; wired donor to the east; candidates east and west
        coords = [(500, 500), (800, 500), (650, 520), (200, 480)]
        wired = [False, True, False, False]
        snr = {(0, 1): 5.5, (0, 2): 6.0, (0, 3): 20.0, (2, 1): 8.0, (3, 1): 7.0}
        return make_world(coords, wired, snr)

    def test_forward_half_plane_wins_over_stronger_behind(self):
        dep, mat = self.make()
        # node 3 has 20 dB but lies behind the divide; the forward pool is
        # {1: 5.5 dB wired, 2: 6.0 dB}, so with no bias node 2 wins
        assert build_path(0, PolicyKind.PA, NO_BIAS, dep, mat, 5.0).hops == (2, 1)
        assert build_path(0, PolicyKind.HQF, NO_BIAS, dep, mat, 5.0).hops[0] == 3

    def test_fallback_when_nothing_forward(self):
        coords = [(500, 500), (800, 500), (200, 480)]
        wired = [False, True, False]
        snr = {(0, 2): 20.0, (2, 1): 7.0}  # wired out of reach of origin
        dep, mat = make_world(coords, wired, snr)
        assert build_path(0, PolicyKind.PA, NO_BIAS, dep, mat, 5.0).hops == (2, 1)

    def test_wired_target_in_reach_is_chosen(self):
        coords = [(500, 500), (600, 500)]
        wired = [False, True]
        dep, mat = make_world(coords, wired, {(0, 1): 9.0})
        assert build_path(0, PolicyKind.PA, NO_BIAS, dep, mat, 5.0).hops == (1,)

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
            hops = build_path(0, PolicyKind.PA, NO_BIAS, dep, mat, 5.0).hops
            ids = [j for j in range(1, n) if mat[0, j] >= 5.0]
            assert bool(hops) == bool(ids)
            if not hops:
                continue
            pos = dep.positions
            target = pos[nearest_wired(0, dep)]
            if any(half_plane_filter(pos[0], target, pos[ids])):
                assert half_plane_filter(pos[0], target, [pos[hops[0]]]) == [True]

    def test_donor_at_same_position_falls_back_to_hqf(self):
        # node 0 shares its spot with donor 1, which is out of reach: no
        # direction is forward, so PA ranks the full set as HQF does
        coords = [(1, 1), (1, 1), (5, 1), (-5, 1)]
        snr = {(0, 2): 6.0, (0, 3): 9.0, (2, 1): 7.0, (3, 1): 8.0}
        dep, mat = make_world(coords, [False, True, False, False], snr)
        res = build_path(0, PolicyKind.PA, NO_BIAS, dep, mat, 5.0)
        assert res.hops == build_path(0, PolicyKind.HQF, NO_BIAS, dep, mat, 5.0).hops
        assert res.hops == reference_greedy_trace(PolicyKind.PA, dep, mat, 5.0, NO_BIAS, 30)[0] == (3, 1)


class TestSelectMlr:
    def test_rate_beats_snr_under_load(self):
        # 10 dB with 4 attached loses to 7 dB with 1 attached:
        # log2(11)/4 = 0.865 per Hz vs log2(1+10^0.7) = 2.588 per Hz
        assert choose(PolicyKind.MLR, {1: 10.0, 2: 7.0}, loads={1: 4, 2: 1}) == 2
        assert choose(PolicyKind.HQF, {1: 10.0, 2: 7.0}, loads={1: 4, 2: 1}) == 1

    def test_equal_snr_lower_load_wins(self):
        assert choose(PolicyKind.MLR, {1: 9.0, 2: 9.0}, loads={1: 2, 2: 1}) == 2
        assert choose(PolicyKind.MLR, {1: 9.0, 2: 9.0}, loads={1: 1, 2: 2}) == 1
        # an unloaded node counts as one terminal, so loads 0 and 1 tie on rate
        assert choose(PolicyKind.MLR, {1: 9.0, 2: 9.0}, wired={2}, loads={1: 0, 2: 1}) == 2

    def test_singleton(self):
        assert choose(PolicyKind.MLR, {5: 6.0}) == 5

    def test_bias_applied_before_rate(self):
        # a 10 dB bias lifts the wired node to a 16 dB rate; shared by four
        # terminals that rate (log2(1 + 10^1.6)/4 = 1.34) loses to 12 dB alone (4.07)
        links = {1: 12.0, 2: 6.0}
        strong = WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=1.0, gamma_gap_db=10.0, gamma_h_db=0.0)
        assert choose(PolicyKind.MLR, links, wired={2}) == 1
        assert choose(PolicyKind.MLR, links, wired={2}, wbf=strong) == 2
        assert choose(PolicyKind.MLR, links, wired={2}, wbf=strong, loads={2: 4}) == 1


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

    @pytest.mark.parametrize("origin", [-1, -2, 2])
    def test_origin_outside_the_deployment_is_refused(self, origin):
        dep, mat = make_world([(0, 0), (10, 10)], [False, True], {(0, 1): 10.0}, origin_id=0)
        with pytest.raises(IndexError):
            build_path(origin, PolicyKind.HQF, NO_BIAS, dep, mat, 5.0)

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
            dep.attached[:] = [int(rng.integers(0, 5)) for _ in range(n)]
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
                assert res.success == dep.wired[nodes[-1]] if res.hops else not res.success

            # WF equivalence: an overwhelming wired bias reproduces WF step for step
            wf = build_path(0, PolicyKind.WF, NO_BIAS, dep, mat, 5.0, max_hops=max_hops)
            hq = build_path(0, PolicyKind.HQF, huge_gap, dep, mat, 5.0, max_hops=max_hops)
            assert wf.hops == hq.hops
            assert wf.outcome == hq.outcome


class TestRerankMargins:
    """MLR's rate and PA's donor distance are ranked on vectors first; the vector
    values must sit far inside the re-rank margin of the Python floats they stand
    for, and near-ties must still resolve as the Python ranking does."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bandwidth_hz", [5e-324, 1e-300, 1.0, 400e6, 1e300])
    def test_vector_rate_within_margin(self, bandwidth_hz):
        rng = np.random.default_rng(5)
        snr = np.concatenate(
            [
                rng.uniform(-400.0, 3000.0, 4000),
                rng.uniform(-160.0, -140.0, 2000),  # where 1 + 10 ** (snr / 10) rounds coarsely
                rng.uniform(-5.0, 60.0, 2000) + rng.choice([0.0, 15.0, 137.0, 1e3, 2.9e3], 2000),
                [-np.inf, -0.0, 0.0, 3000.0],
                # past 10 ** (snr / 10) = the largest float, at about 3082.5 dB, and on to where the rate overflows
                rng.uniform(3070.0, 3100.0, 2000),
                10.0 ** rng.uniform(3.5, 299.0, 2000),
                [3082.0, 3083.0, 1e299],
            ]
        )
        loads = rng.integers(0, 10**6, snr.size)
        loads[::2] = rng.integers(0, 3, loads[::2].size)
        share = bandwidth_hz / np.maximum(loads, 1)
        got = vector_rates(share, snr)
        want = np.array([shannon_rate(bandwidth_hz, v, n) for v, n in zip(snr.tolist(), loads.tolist())])
        finite = np.isfinite(want)
        assert np.array_equal(np.isinf(got), ~finite)
        got, want, share = got[finite], want[finite], share[finite]
        assert np.all(np.abs(got - want) <= 1e-2 * (RERANK_MARGIN * (want + share) + RERANK_FLOOR))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-310, 1e-160, 1.0, 1e3, 1e150, 1e300])
    def test_vector_donor_distance_within_margin(self, scale):
        rng = np.random.default_rng(6)
        x, y = rng.uniform(0.0, scale, (2, 20000))
        x[:100] = x[100:200]  # some donors straight above or below
        cx, cy = rng.uniform(0.0, scale, 2)
        got = np.hypot(x - cx, y - cy)
        want = np.array([math.hypot(a, b) for a, b in zip((cx - x).tolist(), (cy - y).tolist())])
        assert np.all(np.abs(got - want) <= 1e-2 * (RERANK_MARGIN * want + RERANK_FLOOR))

    def test_near_tied_rates_pick_as_python_floats(self):
        """Candidates whose rates tie, or differ in the last bits, at different loads and biases."""
        rng = np.random.default_rng(7)
        for trial in range(300):
            snr = float(rng.uniform(5.0, 40.0))
            p = 10.0 ** (snr / 10.0)
            # load 2 halves the share, so this SNR about squares 1 + p: the rates nearly tie
            doubled = 10.0 * math.log10((1.0 + p) ** 2 - 1.0)
            relays = int(rng.integers(0, 3))
            near = [snr, doubled, math.nextafter(snr, math.inf), math.nextafter(doubled, -math.inf)]
            links = {relays + 1 + k: v for k, v in enumerate(near)}
            loads = {relays + 1 + k: 1 + k % 2 for k in range(4)}
            wired = set(rng.choice(list(links), int(rng.integers(0, 3)), replace=False).tolist())
            wbf = (NO_BIAS, CONSERVATIVE_POLY, AGGRESSIVE_EXP)[trial % 3]
            got = choose(PolicyKind.MLR, links, wired=wired, wbf=wbf, loads=loads, relays=relays)
            n = relays + 6
            dep, mat = make_world(
                [(100.0 * i, 0.0) for i in range(n)],
                [i in wired for i in range(n - 1)] + [True],
                {**{(i, i + 1): 30.0 for i in range(relays)}, **{(relays, j): v for j, v in links.items()}},
            )
            for i, load in loads.items():
                dep.attached[i] = load
            assert got == reference_greedy_trace(PolicyKind.MLR, dep, mat, 5.0, wbf, 30)[0][relays], trial

    @pytest.mark.parametrize("gamma_h_db", [2900.0, 3040.0, 3100.0, 4000.0, 1e306])
    def test_mlr_near_the_rate_overflow_picks_as_python_floats(self, gamma_h_db):
        """Biased SNRs near and past the float range of 10 ** (snr / 10); at 1e306 dB
        every wired rate is infinite, and such a walk's whole pool goes to the Python
        ranking."""
        wbf = WbfConfig(WbfKind.POLYNOMIAL, n_ht=1, k=1.0, gamma_gap_db=0.0, gamma_h_db=gamma_h_db)
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = int(rng.integers(3, 9))
            coords = rng.uniform(0, 1000, (n, 2)).tolist()
            wired = [False] + [bool(b) for b in rng.random(n - 1) < 0.5]
            wired[-1] = True
            snr = {(i, j): float(rng.uniform(5, 35)) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7}
            dep, mat = make_world(coords, wired, snr)
            dep.attached[:] = rng.integers(0, 4, n)
            got = build_path(0, PolicyKind.MLR, wbf, dep, mat, 5.0)
            assert got.hops == reference_greedy_trace(PolicyKind.MLR, dep, mat, 5.0, wbf, 30)[0], trial

    def test_near_tied_donors_pick_as_python_floats(self):
        """PA walks whose node has two wired nodes at distances equal, or a few ulps apart."""
        rng = np.random.default_rng(9)
        for trial in range(300):
            cx, cy = rng.uniform(0.0, 1000.0, 2)
            a, b = rng.uniform(-300.0, 300.0, 2)
            # two donors a quarter turn apart around the origin, so at about the same distance
            coords = [(cx, cy), (cx + a, cy + b), (cx - b, cy + a)] + rng.uniform(0.0, 1000.0, (4, 2)).tolist()
            wired = [False, True, True, False, False, False, bool(rng.random() < 0.5)]
            snr = {(i, j): float(rng.integers(5, 9)) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.6}
            dep, mat = make_world(coords, wired, snr)
            for wbf in (NO_BIAS, CONSERVATIVE_POLY):
                got = build_path(0, PolicyKind.PA, wbf, dep, mat, 5.0)
                assert got.hops == reference_greedy_trace(PolicyKind.PA, dep, mat, 5.0, wbf, 30)[0], trial

    @pytest.mark.parametrize("low", [37.58560605934042, 8.284580370165717])
    def test_rate_rounded_apart_by_numpy_still_ties(self, low):
        """Python rates the two SNRs equally, so the lower id wins; numpy's
        log2/power (on the builds this was written on) rounds the second higher."""
        high = math.nextafter(low, math.inf)
        assert shannon_rate(400e6, low, 1) == shannon_rate(400e6, high, 1)
        assert choose(PolicyKind.MLR, {1: low, 2: high}, loads={1: 1, 2: 1}) == 1

    def test_donor_distance_rounded_apart_by_numpy_still_ties(self):
        """Python puts both wired nodes at the same distance, so the lower id is the
        donor and relay 3, ahead toward it, is taken over relay 4, ahead toward the
        other; np.hypot (on the builds this was written on) rounds node 2 nearer."""
        here = (333.732439660985, 318.73983277151183)
        donor, other = (509.7387322910754, 209.87960765747314), (442.59266477502365, 494.7461254016022)
        assert math.hypot(here[0] - donor[0], here[1] - donor[1]) == math.hypot(here[0] - other[0], here[1] - other[1])
        # halfway toward one donor, a little away from the other
        ahead = [
            np.add(here, 0.5 * np.subtract(p, here)) - 0.1 * np.subtract(q, here)
            for p, q in ((donor, other), (other, donor))
        ]
        coords = [here, donor, other, *map(tuple, ahead)]
        links = {(0, 3): 20.0, (0, 4): 25.0, (3, 1): 10.0, (4, 2): 10.0}
        dep, mat = make_world(coords, [False, True, True, False, False], links)
        assert build_path(0, PolicyKind.PA, NO_BIAS, dep, mat, 5.0).hops == (3, 1)

    def test_rate_past_the_float_range_ranks_by_the_finite_rate(self):
        """A biased SNR past 10 ** 308 still has a finite rate, about snr / 10 * log2(10)
        per Hz; the hop completes and ranks the candidates by that rate and their load."""
        wbf = WbfConfig(WbfKind.POLYNOMIAL, n_ht=1, k=1.0, gamma_gap_db=0.0, gamma_h_db=4000.0)
        dep, mat = make_world([(0, 0), (100, 0), (200, 0)], [False, False, True], {(0, 1): 30.0, (0, 2): 6.0})
        path = build_path(0, PolicyKind.MLR, wbf, dep, mat, 5.0)
        assert path.hops == (2,) and path.outcome == PathOutcome.SUCCESS
        rates = {(snr, load): shannon_rate(400e6, snr + 4000.0, load) for snr in (6.0, 9.0) for load in (1, 2)}
        assert all(math.isfinite(r) for r in rates.values())
        assert rates[9.0, 2] < rates[6.0, 1] < rates[9.0, 1]
        links = {1: 30.0, 2: 6.0, 3: 9.0}
        assert choose(PolicyKind.MLR, links, wired={2, 3}, wbf=wbf, loads={2: 1, 3: 1}) == 3
        assert choose(PolicyKind.MLR, links, wired={2, 3}, wbf=wbf, loads={2: 1, 3: 2}) == 2
