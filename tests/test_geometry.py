import math

import numpy as np
import pytest

from iabsim.errors import ConfigError
from iabsim.geometry import MAX_REDRAWS, Deployment, Region, assign_roles, sample_ppp
from oracles import closest_wireless, half_plane_filter, nearest_wired

TWO_PI = 2.0 * math.pi


def make_deployment(coords, wired_flags, origin_id, region=None):
    return Deployment(region or Region(1000.0, 1000.0), coords, wired_flags, origin_id)


class TestRegion:
    def test_area(self):
        assert Region(1000.0, 1000.0).area_km2 == pytest.approx(1.0)
        assert Region(500.0, 2000.0).area_km2 == pytest.approx(1.0)

    @pytest.mark.parametrize("w,h", [(0.0, 100.0), (100.0, 0.0), (-5.0, 100.0)])
    def test_degenerate_rejected(self, w, h):
        with pytest.raises(ConfigError):
            Region(w, h)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["region_width_m", "region_height_m"])
    def test_non_finite_side_names_the_key(self, key, bad):
        sides = {"width_m": 10.0, "height_m": 10.0}
        sides[key.removeprefix("region_")] = bad
        with pytest.raises(ConfigError, match=f"deployment.{key}"):
            Region(**sides)


class TestSamplePpp:
    def test_mean_count_basic(self):
        # lambda * area = 30 for the reference density on 1 km^2
        rng = np.random.default_rng(0)
        counts = [len(sample_ppp(30.0, Region(1000, 1000), rng)) for _ in range(3000)]
        assert np.mean(counts) == pytest.approx(30.0, abs=3 * math.sqrt(30 / 3000))

    def test_dense_configuration_mean(self):
        rng = np.random.default_rng(1)
        counts = [len(sample_ppp(60.0, Region(1000, 1000), rng)) for _ in range(3000)]
        assert np.mean(counts) == pytest.approx(60.0, abs=3 * math.sqrt(60 / 3000))

    def test_small_region_mean_monte_carlo(self):
        # 30 per km^2 on 0.1 km x 0.1 km -> mean 0.3; 1e5 draws, 3 sigma band
        rng = np.random.default_rng(2)
        n = 100_000
        counts = np.array([len(sample_ppp(30.0, Region(100, 100), rng)) for _ in range(n)])
        band = 3 * math.sqrt(0.3 / n)
        assert abs(counts.mean() - 0.3) < band

    def test_count_law_mean_and_variance(self):
        # Poisson(lambda*A): empirical mean and variance within 3 standard errors
        rng = np.random.default_rng(3)
        n = 100_000
        lam = 3.0
        counts = np.array(
            [len(sample_ppp(30.0, Region(316.2277660168379, 316.2277660168379), rng)) for _ in range(n)],
            dtype=float,
        )
        se_mean = math.sqrt(lam / n)
        assert abs(counts.mean() - lam) < 3 * se_mean
        s2 = counts.var(ddof=1)
        m4 = np.mean((counts - counts.mean()) ** 4)
        se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / n)
        assert abs(s2 - lam) < 3 * se_var

    def test_positions_uniform(self):
        rng = np.random.default_rng(4)
        region = Region(2000, 500)
        batches = []
        while sum(map(len, batches)) < 20000:
            batches.append(sample_ppp(50.0, region, rng))
        pts = np.concatenate(batches)
        xs, ys = pts.T
        assert xs.min() >= 0 and xs.max() <= 2000
        assert ys.min() >= 0 and ys.max() <= 500
        assert xs.mean() == pytest.approx(1000, abs=3 * 2000 / math.sqrt(12 * len(pts)))
        assert ys.mean() == pytest.approx(250, abs=3 * 500 / math.sqrt(12 * len(pts)))

    def test_invalid_density(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            sample_ppp(0.0, Region(1000, 1000), rng)


class TestAssignRoles:
    def test_truncated_binomial_mean(self):
        # Redrawing until 1..9 wired out of 10 conditions the Binomial(10, 0.3);
        # the exact conditional mean/variance come from the binomial law.
        n_nodes, p_w = 10, 0.3
        probs = [math.comb(n_nodes, k) * p_w**k * (1 - p_w) ** (n_nodes - k) for k in range(n_nodes + 1)]
        z = sum(probs[1:n_nodes])
        mean_t = sum(k * probs[k] for k in range(1, n_nodes)) / z
        var_t = sum(k * k * probs[k] for k in range(1, n_nodes)) / z - mean_t**2

        rng = np.random.default_rng(5)
        region = Region(1000, 1000)
        positions = rng.uniform(0, 1000, (n_nodes, 2))
        trials = 100_000
        wired_counts = np.empty(trials)
        for t in range(trials):
            dep = assign_roles(positions, p_w, region, rng)
            wired_counts[t] = dep.wired.sum()
        band = 3 * math.sqrt(var_t / trials)
        assert abs(wired_counts.mean() - mean_t) < band

    def test_low_wired_fraction_mean(self):
        rng = np.random.default_rng(6)
        region = Region(1000, 1000)
        positions = rng.uniform(0, 1000, (40, 2))
        trials = 5000
        counts = np.array([assign_roles(positions, 0.1, region, rng).wired.sum() for _ in range(trials)])
        # truncation is negligible at n=40: compare against n*p directly
        assert counts.mean() == pytest.approx(4.0, abs=3 * math.sqrt(40 * 0.1 * 0.9 / trials))

    def test_two_nodes_always_split(self):
        rng = np.random.default_rng(7)
        region = Region(1000, 1000)
        positions = [(100, 100), (900, 900)]
        for _ in range(50):
            dep = assign_roles(positions, 0.5, region, rng)
            flags = sorted(dep.wired.tolist())
            assert flags == [False, True]

    def test_empty_and_singleton_rejected(self):
        rng = np.random.default_rng(8)
        region = Region(1000, 1000)
        with pytest.raises(ConfigError):
            assign_roles(np.empty((0, 2)), 0.3, region, rng)
        with pytest.raises(ConfigError):
            assign_roles([(1, 1)], 0.3, region, rng)

    @pytest.mark.parametrize("p_w", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_fraction_rejected(self, p_w):
        rng = np.random.default_rng(9)
        with pytest.raises(ConfigError):
            assign_roles([(1, 1), (2, 2)], p_w, Region(1000, 1000), rng)

    def test_origin_is_wireless_and_nearest_center(self):
        rng = np.random.default_rng(10)
        region = Region(1000, 1000)
        positions = rng.uniform(0, 1000, (25, 2))
        for _ in range(30):
            dep = assign_roles(positions, 0.3, region, rng)
            assert not dep.wired[dep.origin_id]
            cx, cy = region.width_m / 2.0, region.height_m / 2.0
            d = [math.hypot(x - cx, y - cy) for x, y in dep.positions.tolist()]
            for i in np.flatnonzero(~dep.wired):
                assert d[dep.origin_id] <= d[i] + 1e-12

    @pytest.mark.parametrize("n, p_w", [(2, 0.5), (2, 0.05), (30, 0.3), (200, 0.9)])
    def test_stream_ends_after_role_and_sector_uniforms(self, n, p_w):
        """The generator moves as it did when the sector rotations were kept:
        n uniforms per role draw, then n uniforms in [0, 2 pi)."""
        for seed in range(20):
            positions = np.random.default_rng(seed).uniform(0, 1000, (n, 2))
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assign_roles(positions, p_w, Region(1000, 1000), rng, sectors=3)
            while not 0 < int((ref.random(n) < p_w).sum()) < n:
                pass
            ref.uniform(0.0, TWO_PI, n)
            assert rng.bit_generator.state == ref.bit_generator.state


def _assert_origin_matches_reference(positions, region, trials, seed, p_w=0.5):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        dep = assign_roles(positions, p_w, region, rng)
        assert dep.origin_id == closest_wireless(dep.positions, dep.wired, region)


class TestOriginPick:
    """The origin, picked by a vector distance with a re-ranked near-tie band, against
    the plain ``math.hypot`` rule over every wireless id."""

    def test_random_drops(self):
        rng = np.random.default_rng(40)
        region = Region(1000, 1000)
        for _ in range(300):
            positions = rng.uniform(0, 1000, (int(rng.integers(2, 60)), 2))
            _assert_origin_matches_reference(positions, region, 5, int(rng.integers(2**31)), p_w=0.3)

    def test_mirror_image_ties_around_the_center(self):
        rng = np.random.default_rng(41)
        region = Region(1000, 1000)
        for _ in range(200):
            offsets = rng.integers(-4, 5, (int(rng.integers(1, 6)), 2)) * 37.5
            images = np.concatenate([offsets * sign for sign in ((1, 1), (-1, -1), (-1, 1), (1, -1))])
            positions = 500.0 + rng.permutation(np.concatenate([images, images[:, ::-1]]))
            _assert_origin_matches_reference(positions, region, 5, int(rng.integers(2**31)))

    def test_last_bit_near_ties(self):
        rng = np.random.default_rng(42)
        region = Region(1000, 1000)
        for _ in range(300):
            base = rng.uniform(0, 1000, 2)
            ulps = rng.integers(-3, 4, (int(rng.integers(2, 12)), 2))
            positions = base + ulps * np.spacing(base)
            # mirror some of them through the center, which ties them in distance but not in rounding
            mirror = rng.random(len(positions)) < 0.5
            positions[mirror] = 1000.0 - positions[mirror]
            _assert_origin_matches_reference(positions, region, 5, int(rng.integers(2**31)))

    def test_node_exactly_at_the_center(self):
        rng = np.random.default_rng(43)
        region = Region(1000, 1000)
        for _ in range(200):
            positions = rng.uniform(0, 1000, (int(rng.integers(2, 12)), 2))
            positions[rng.random(len(positions)) < 0.4] = 500.0
            positions[rng.random(len(positions)) < 0.2] = 500.0 + np.array([0.0, np.spacing(500.0)])
            _assert_origin_matches_reference(positions, region, 5, int(rng.integers(2**31)))
        tiny = Region(1e-310, 1e-310)  # subnormal distances, below the re-rank floor
        for _ in range(100):
            positions = rng.integers(0, 3, (int(rng.integers(2, 8)), 2)) * 5e-311
            _assert_origin_matches_reference(positions, tiny, 5, int(rng.integers(2**31)))

    def test_region_beyond_the_squared_distance_range(self):
        rng = np.random.default_rng(44)
        region = Region(1e300, 1e300)
        assert math.isinf(1e300 * 1e300)
        for _ in range(200):
            half = rng.uniform(0, 1e300, (int(rng.integers(1, 10)), 2))
            positions = rng.permutation(np.concatenate([half, 1e300 - half]))  # mirror images tie or nearly tie
            _assert_origin_matches_reference(positions, region, 5, int(rng.integers(2**31)))


class TestNearestWired:
    def test_strict_ordering(self):
        dep = make_deployment([(0, 0), (100, 0), (200, 0)], [False, True, True], 0)
        assert nearest_wired(0, dep) == 1

    def test_tie_breaks_to_lowest_id(self):
        dep = make_deployment([(0, 0), (100, 0), (-100, 0)], [False, True, True], 0)
        assert nearest_wired(0, dep) == 1

    def test_singleton_wired(self):
        dep = make_deployment([(0, 0), (950, 950)], [False, True], 0)
        assert nearest_wired(0, dep) == 1

    def test_permutation_invariant(self):
        # relabeling the nodes relabels the answer
        rng = np.random.default_rng(13)
        for _ in range(50):
            coords = rng.uniform(0, 1000, (8, 2))
            wired = np.array([False, True, True, False, True, False, False, True])
            region = Region(1000, 1000)
            base = nearest_wired(0, Deployment(region, coords, wired, 0))
            order = rng.permutation(8)
            new_id = np.argsort(order)
            shuffled = Deployment(region, coords[order], wired[order], int(new_id[0]))
            assert nearest_wired(int(new_id[0]), shuffled) == new_id[base]


class TestHalfPlaneFilter:
    def test_behind_excluded(self):
        assert half_plane_filter((0, 0), (100, 0), [(-50, 10)]) == [False]

    def test_barely_forward_kept(self):
        assert half_plane_filter((0, 0), (100, 0), [(1, 500)]) == [True]

    def test_on_boundary_excluded(self):
        # projection exactly zero: (0,123).(100,0) = 0
        assert half_plane_filter((0, 0), (100, 0), [(0, 123)]) == [False]

    def test_coincident_target_rejected(self):
        with pytest.raises(ValueError):
            half_plane_filter((5, 5), (5, 5), [])

    def test_array_rows_match_lists(self):
        rng = np.random.default_rng(19)
        current, target = rng.uniform(-100, 100, (2, 2))
        points = rng.uniform(-200, 200, (20, 2))
        assert half_plane_filter(current, target, points) == half_plane_filter(
            current.tolist(), target.tolist(), points.tolist()
        )

    def test_kept_iff_positive_projection(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            current = rng.uniform(-100, 100, 2)
            target = current + rng.uniform(1, 50, 2)
            points = rng.uniform(-200, 200, (10, 2))
            kept = half_plane_filter(current.tolist(), target.tolist(), points.tolist())
            ux, uy = target - current
            for (x, y), k in zip(points.tolist(), kept):
                proj = (x - current[0]) * ux + (y - current[1]) * uy
                assert k == (proj > 0)

    def test_rotation_invariant(self):
        # rotating everything about the current node preserves membership
        rng = np.random.default_rng(15)
        for _ in range(100):
            current = rng.uniform(-50, 50, 2)
            target = current + np.array([rng.uniform(1, 40), rng.uniform(-40, 40)])
            points = rng.uniform(-100, 100, (8, 2))
            theta = float(rng.uniform(0, TWO_PI))
            rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])

            def turn(p):
                return current + (p - current) @ rot.T

            before = half_plane_filter(current, target, points.tolist())
            after = half_plane_filter(current, turn(target), turn(points).tolist())
            assert before == after


class TestDeployment:
    def test_requires_both_roles(self):
        with pytest.raises(ConfigError):
            Deployment(Region(10, 10), [(0, 0), (1, 1)], [True, True], 0)

    def test_origin_must_be_wireless(self):
        with pytest.raises(ConfigError):
            Deployment(Region(10, 10), [(0, 0), (1, 1)], [True, False], 0)

    def test_positions_must_match_roles(self):
        with pytest.raises(ConfigError):
            Deployment(Region(10, 10), [(0, 0), (1, 1), (2, 2)], [True, False], 1)

    def test_node_views_read_the_arrays(self):
        positions = np.random.default_rng(16).uniform(0, 100, (7, 2))
        dep = assign_roles(positions, 0.4, Region(100, 100), np.random.default_rng(17), sectors=2)
        assert [g.id for g in dep.gnbs] == list(range(7))
        dep.attached[:] = np.arange(7) * 3
        assert [g.attached_count for g in dep.gnbs] == [3 * i for i in range(7)]

    def test_attached_count_writes_through(self):
        dep = make_deployment([(0, 0), (1, 0), (2, 0)], [False, True, False], 0)
        dep.gnbs[2].attached_count = 5
        for g in dep.gnbs:
            g.attached_count += g.id
        assert dep.attached.tolist() == [0, 1, 7]
        assert dep.gnbs[2].attached_count == 7

    @pytest.mark.parametrize("origin_id", [3, 4, -1])
    def test_origin_out_of_range_raises_index_error(self, origin_id):
        with pytest.raises(IndexError):
            make_deployment([(0, 0), (1, 0), (2, 0)], [False, True, False], origin_id)


class TestRedrawBound:
    def test_role_redraws_stop_with_named_key(self):
        # two nodes at p_w = 1e-9: a mixed role vector is practically never drawn
        rng = np.random.default_rng(18)
        with pytest.raises(ConfigError, match="deployment.p_w") as err:
            assign_roles([(0, 0), (1, 1)], 1e-9, Region(10, 10), rng)
        assert str(MAX_REDRAWS) in str(err.value)
