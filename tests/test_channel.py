import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from oracles import dense_associate_min_pathloss, dense_link_table, hashed_uniforms, splitmix64

from iabsim import channel
from iabsim.channel import (
    ASSOC_LAYER,
    ChannelParams,
    LosState,
    RadioConfig,
    RowStore,
    _box_muller,
    _child_rng,
    _hashed_uniforms,
    _may_be_live,
    _passes,
    _slot_keys,
    _visibility,
    associate_min_pathloss,
    link_table,
    los_probabilities,
    noise_power_dbm,
    shannon_rate,
)
from iabsim.errors import ConfigError
from iabsim.geometry import Deployment, Region
from iabsim.simulate import repetition_rng
from iabsim.streams import _seed_words, spawned_rngs

SeedSequence = np.random.SeedSequence

# shadowing off, LOS guaranteed at any range (no decay, no outage)
DETERMINISTIC_LOS = ChannelParams(
    los_sigma_db=0.0, nlos_sigma_db=0.0, los_decay_per_m=0.0, outage_slope_per_m=0.0
)
# shadowing off, NLOS at any range beyond a millimeter (LOS share exp(-1e3 d), no outage)
FORCED_NLOS = ChannelParams(
    los_sigma_db=0.0, nlos_sigma_db=0.0, los_decay_per_m=1e3, outage_slope_per_m=0.0
)
# outage probability 1 - exp(-d/30 - 1000) == 1 at any range
FORCED_OUTAGE = ChannelParams(outage_intercept=-1e3)


def world(points, wired, origin_id):
    return Deployment(Region(600, 600), points, wired, origin_id)


def pair_table(x, y, params, seed=0, radio=RadioConfig()):
    """Link table of a relay at (0, 0) and a wired donor at (x, y): one pair."""
    dep = world([(0.0, 0.0), (x, y)], [False, True], 0)
    return link_table(dep, radio, params, np.random.default_rng(seed))


class TestNoisePower:
    def test_reference_budget(self):
        # -174 + 10*log10(400e6) + 5
        assert noise_power_dbm(400e6, 5.0) == pytest.approx(-82.97940008672037, abs=1e-9)

    def test_unit_bandwidth_is_thermal_floor(self):
        assert noise_power_dbm(1.0, 0.0) == -174.0

    def test_noise_figure_is_additive(self):
        assert noise_power_dbm(400e6, 0.0) == pytest.approx(-87.97940008672037, abs=1e-9)
        assert noise_power_dbm(400e6, 5.0) - noise_power_dbm(400e6, 0.0) == pytest.approx(5.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigError):
            noise_power_dbm(0.0, 5.0)

    @pytest.mark.parametrize(
        "bandwidth_hz, noise_figure_db, key",
        [
            (-1.0, 5.0, "bandwidth_hz"),
            (math.nan, 5.0, "bandwidth_hz"),  # a NaN floor, without the check
            (math.inf, 5.0, "bandwidth_hz"),
            ("4e8", 5.0, "bandwidth_hz"),
            (400e6, math.nan, "noise_figure_db"),
            (400e6, -math.inf, "noise_figure_db"),
            (400e6, "5", "noise_figure_db"),
        ],
    )
    def test_bad_numbers_are_refused_naming_the_argument(self, bandwidth_hz, noise_figure_db, key):
        with pytest.raises(ConfigError, match=key):
            noise_power_dbm(bandwidth_hz, noise_figure_db)


class TestLosModel:
    def test_short_range_is_surely_los_capable(self):
        p_los, p_nlos, p_out = los_probabilities(1e-6)
        assert p_out == 0.0
        assert p_los == pytest.approx(1.0, abs=1e-6)

    def test_decay_constant_anchor(self):
        # at d equal to the decay length the LOS share is exactly 1/e
        p_los, _, p_out = los_probabilities(67.1)
        assert p_out == 0.0
        assert p_los == pytest.approx(math.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("d_m", [-5.0, math.nan, -math.inf, [10.0, -1e-9], [math.inf, math.nan]])
    def test_a_negative_or_nan_distance_is_refused(self, d_m):
        """-5 m gave P_LOS 1.077 and P_NLOS -0.077."""
        with pytest.raises(ConfigError, match="d_m"):
            los_probabilities(d_m)

    @pytest.mark.parametrize(
        "d_m",
        [True, False, np.True_, [True, 5.0], [5.0, False], [[10.0], [True]], np.array([True, False]), np.array(True)],
    )
    def test_a_bool_distance_is_refused(self, d_m):
        """True was read as a distance of 1 m, also in a list that numpy made a float array."""
        with pytest.raises(ConfigError, match="d_m"):
            los_probabilities(d_m)

    @pytest.mark.parametrize("d_m", ["5", b"5", ["5", 1.0], [1.0, b"5"], np.array(["5"]), np.array([b"5"])])
    def test_a_string_distance_is_refused(self, d_m):
        """The string '5' was read as 5 m."""
        with pytest.raises(ConfigError, match="d_m"):
            los_probabilities(d_m)

    @pytest.mark.parametrize(
        "d_m", [67.1, 67, np.float32(67.1), [10.0, 67], (0, 500.5), np.array([10, 67]), np.array([[1.0], [2.0]])]
    )
    def test_numbers_of_any_type_are_distances(self, d_m):
        as_floats = los_probabilities(np.asarray(d_m, dtype=float))
        assert all(np.array_equal(p, q) for p, q in zip(los_probabilities(d_m), as_floats))

    def test_an_infinite_distance_is_in_outage(self):
        assert [float(p) for p in los_probabilities(math.inf)] == [0.0, 0.0, 1.0]
        assert [p.shape for p in los_probabilities([])] == [(0,)] * 3

    def test_probabilities_form_a_distribution(self):
        d = np.linspace(0.1, 2000.0, 4000)
        p_los, p_nlos, p_out = los_probabilities(d)
        total = p_los + p_nlos + p_out
        assert np.allclose(total, 1.0, atol=1e-12)
        for p in (p_los, p_nlos, p_out):
            assert (p >= -1e-15).all() and (p <= 1 + 1e-15).all()
        assert (np.diff(p_los) <= 1e-15).all()  # LOS probability nonincreasing in d

    def test_empirical_frequencies_match_closed_form(self):
        # 1e6 draws at 100 m against the analytic three-state law, 3 sigma
        params = ChannelParams()
        d = 100.0
        p_los = (1.0 - max(0.0, 1.0 - math.exp(-d / 30.0 + 5.2))) * math.exp(-d / 67.1)
        p_out = max(0.0, 1.0 - math.exp(-d / 30.0 + 5.2))
        p_nlos = 1.0 - p_los - p_out
        rng = np.random.default_rng(42)
        n = 1_000_000
        # a spot check on the first 1000 uniforms, then the bulk check on the next 1e6
        live, los = _visibility(np.full(1000, d), rng.random(1000), params)
        assert (np.diff(live) > 0).all() and los.shape == live.shape
        live, los = _visibility(np.full(n, d), rng.random(n), params)
        counts = {
            LosState.LOS: int(los.sum()),
            LosState.NLOS: int(live.size - los.sum()),
            LosState.OUTAGE: n - live.size,
        }
        for value, p in ((LosState.LOS, p_los), (LosState.NLOS, p_nlos), (LosState.OUTAGE, p_out)):
            freq = counts[value] / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 3 * sigma + 1e-12, (value, freq, p)


class TestPathloss:
    def test_los_intercept_at_one_meter(self):
        table = pair_table(1.0, 0.0, DETERMINISTIC_LOS)
        assert table.los[0] == LosState.LOS
        assert table.pathloss_db[0] == pytest.approx(61.4, abs=1e-12)
        assert table.shadowing_db[0] == 0.0

    def test_los_closed_form_100m(self):
        table = pair_table(100.0, 0.0, DETERMINISTIC_LOS)
        assert table.los[0] == LosState.LOS
        assert table.pathloss_db[0] == pytest.approx(61.4 + 10 * 2.0 * 2.0, abs=1e-12)  # 101.4 dB

    def test_nlos_closed_form_100m(self):
        table = pair_table(100.0, 0.0, FORCED_NLOS)
        assert table.los[0] == LosState.NLOS
        assert table.pathloss_db[0] == pytest.approx(72.0 + 10 * 2.92 * 2.0, abs=1e-12)  # 130.4 dB

    def test_outage_is_infinite(self):
        table = pair_table(50.0, 0.0, FORCED_OUTAGE)
        assert table.los[0] == LosState.OUTAGE
        assert table.pathloss_db[0] == math.inf and table.shadowing_db[0] == 0.0
        assert table.snr[0, 1] == table.snr[1, 0] == -math.inf

    def test_sub_meter_clamped(self):
        table = pair_table(0.01, 0.0, DETERMINISTIC_LOS)
        assert table.pathloss_db[0] == pytest.approx(61.4, abs=1e-12)

    def test_shadowing_moments(self):
        # 200 nodes -> 19900 pairs, every one NLOS, shadowing sigma 8.7 dB
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 600, (200, 2))
        dep = Deployment(Region(600, 600), pts, np.arange(200) % 3 == 0, 1)
        params = ChannelParams(los_decay_per_m=1e3, outage_slope_per_m=0.0)
        table = link_table(dep, RadioConfig(), params, rng)
        assert (table.los == LosState.NLOS).all()
        draws = table.shadowing_db
        assert draws.mean() == pytest.approx(0.0, abs=3 * 8.7 / math.sqrt(draws.size))
        assert draws.std() == pytest.approx(8.7, rel=0.05)


class TestLinkState:
    """The budget of a single link, drawn by ``link_table`` on a two-node world."""

    def test_reference_budget_one_meter(self):
        # 30 + 18.0618 + 18.0618 - 61.4 - (-82.9794) = 87.703 dB
        table = pair_table(1.0, 0.0, DETERMINISTIC_LOS, seed=3)
        assert table.los[0] == LosState.LOS
        assert table.snr[0, 1] == pytest.approx(87.70299956639812, abs=1e-9)
        assert table.gain_dbi == pytest.approx(18.061799739838872, abs=1e-9)

    def test_budget_identity(self):
        rng = np.random.default_rng(4)
        radio = RadioConfig()
        noise = noise_power_dbm(radio.bandwidth_hz, radio.noise_figure_db)
        for seed in range(300):
            x, y = rng.uniform(10, 500, 2)
            table = pair_table(float(x), float(y), ChannelParams(), seed=seed)
            if table.los[0] == LosState.OUTAGE:
                assert table.snr[0, 1] == -math.inf
            else:
                residual = (
                    table.snr[0, 1] + table.pathloss_db[0] + table.shadowing_db[0] + noise
                    - radio.tx_power_dbm - 2 * table.gain_dbi
                )
                assert abs(residual) < 1e-9

    def test_threshold_crossing_distance(self):
        # invert the LOS budget: pathloss at 5 dB SNR is 144.103 dB -> d = 13.65 km,
        # so every LOS link inside a 1 km region clears the 5 dB threshold
        radio = RadioConfig()
        noise = noise_power_dbm(radio.bandwidth_hz, radio.noise_figure_db)
        gain = 10 * math.log10(radio.array_elements)
        pl_at_threshold = radio.tx_power_dbm + 2 * gain - 5.0 - noise
        assert pl_at_threshold == pytest.approx(144.10299956639813, abs=1e-9)
        d_cross = 10 ** ((pl_at_threshold - 61.4) / 20.0)
        assert d_cross == pytest.approx(13650.54460165097, rel=1e-9)
        table = pair_table(1000.0, 1000.0, DETERMINISTIC_LOS, seed=5, radio=radio)
        assert table.snr[0, 1] > 5.0


class TestLinkTable:
    def make_deployment(self, rng, n=12):
        pts = rng.uniform(0, 600, (n, 2))
        return world(pts, [i % 3 == 0 for i in range(n)], 1)

    def test_symmetry_shared_draw(self):
        rng = np.random.default_rng(6)
        dep = self.make_deployment(rng)
        table = link_table(dep, RadioConfig(), ChannelParams(), rng)
        assert np.array_equal(table.snr, table.snr.T)
        assert (np.diag(table.snr) == -np.inf).all()

    def test_budget_identity_closure(self):
        rng = np.random.default_rng(7)
        dep = self.make_deployment(rng)
        radio = RadioConfig()
        table = link_table(dep, radio, ChannelParams(), rng)
        finite = np.isfinite(table.pair_snr_db)
        residual = (
            table.pair_snr_db[finite]
            + table.pathloss_db[finite]
            + table.shadowing_db[finite]
            + table.noise_dbm
            - table.tx_power_dbm
            - 2 * table.gain_dbi
        )
        assert np.abs(residual).max() < 1e-9
        assert (table.pair_snr_db[~finite] == -np.inf).all()

    def test_optional_fading_widens_spread_but_keeps_closure(self):
        rng_a = np.random.default_rng(20)
        rng_b = np.random.default_rng(20)
        dep = self.make_deployment(rng_a)
        self.make_deployment(rng_b)  # keep both streams aligned before the tables
        plain = link_table(dep, RadioConfig(), ChannelParams(), rng_a)
        faded = link_table(dep, RadioConfig(), ChannelParams(fading_sigma_db=4.0), rng_b)
        finite = np.isfinite(faded.pair_snr_db)
        residual = (
            faded.pair_snr_db[finite]
            + faded.pathloss_db[finite]
            + faded.shadowing_db[finite]
            + faded.noise_dbm
            - faded.tx_power_dbm
            - 2 * faded.gain_dbi
        )
        assert np.abs(residual).max() < 1e-9
        both = finite & np.isfinite(plain.pair_snr_db)
        assert not np.allclose(plain.pair_snr_db[both], faded.pair_snr_db[both])

    def test_association_counts(self):
        rng = np.random.default_rng(9)
        dep = self.make_deployment(rng)
        ues = rng.uniform(0, 600, (40, 2))
        serving = associate_min_pathloss(ues, dep, ChannelParams(), rng)
        assert serving.shape == (40,)
        assert ((serving >= -1) & (serving < dep.n_gnbs)).all()

    def test_association_prefers_near_node_without_shadowing(self):
        rng = np.random.default_rng(10)
        dep = world([(0.0, 0.0), (500.0, 0.0)], [True, False], 1)
        ues = np.array([(10.0, 0.0), (490.0, 0.0)])
        serving = associate_min_pathloss(ues, dep, DETERMINISTIC_LOS, rng)
        assert serving.tolist() == [0, 1]


class TestShannonRate:
    def test_reference_anchor(self):
        # 400 MHz at 5 dB, full band: ~823 Mbit/s
        rate = shannon_rate(400e6, 5.0, 1)
        assert rate == pytest.approx(822949283.442718, rel=1e-9)
        assert abs(rate - 830e6) / 830e6 < 0.02

    @pytest.mark.parametrize("bandwidth_hz", [0.0, -1.0, math.nan, math.inf, "4e8", True])
    def test_a_bandwidth_that_is_not_finite_and_positive_is_refused(self, bandwidth_hz):
        with pytest.raises(ConfigError, match="bandwidth_hz"):
            shannon_rate(bandwidth_hz, 5.0, 1)

    def test_outage_gives_zero(self):
        assert shannon_rate(400e6, -math.inf, 1) == 0.0
        assert shannon_rate(400e6, -math.inf, 7) == 0.0

    @pytest.mark.parametrize("snr_db", [math.nan, "5", True])
    def test_an_snr_that_is_nan_or_no_number_is_refused(self, snr_db):
        """NaN gave a NaN rate."""
        with pytest.raises(ConfigError, match="snr_db"):
            shannon_rate(400e6, snr_db, 1)

    @pytest.mark.parametrize("n_attached", [-3, 1.5, math.nan, True])
    def test_a_load_that_is_no_integer_at_least_0_is_refused(self, n_attached):
        """-3 gave the full-band rate, and 1.5 split the band by 1.5."""
        with pytest.raises(ConfigError, match="n_attached"):
            shannon_rate(400e6, 5.0, n_attached)

    def test_rate_divides_by_load(self):
        assert shannon_rate(400e6, 5.0, 2) == pytest.approx(shannon_rate(400e6, 5.0, 1) / 2)

    def test_unloaded_node_counts_as_one(self):
        assert shannon_rate(400e6, 5.0, 0) == shannon_rate(400e6, 5.0, 1)

    def test_monotonicity(self):
        rates = [shannon_rate(400e6, s, 1) for s in np.linspace(-20, 60, 50)]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        loads = [shannon_rate(400e6, 10.0, n) for n in range(1, 10)]
        assert all(b < a for a, b in zip(loads, loads[1:]))

    def test_finite_past_the_float_range(self):
        """Where 10 ** (snr / 10) overflows the rate is snr / 10 * log2(10) per Hz, continuing
        the direct form across the edge; below it the direct form gives the bits."""
        edge = 10.0 * math.log10(np.finfo(float).max)  # about 3082.547 dB
        below = [math.nextafter(edge, -math.inf), edge - 1e-9, 3000.0]
        for snr in below:
            assert shannon_rate(1.0, snr, 1) == math.log2(1.0 + 10.0 ** (snr / 10.0))
        above = [edge + 1e-9, 3083.0, 4006.0, 1e300]
        for snr in above:
            with pytest.raises(OverflowError):
                10.0 ** (snr / 10.0)
            assert shannon_rate(400e6, snr, 4) == pytest.approx(1e8 * snr / 10.0 * math.log2(10.0), rel=1e-15)
        rates = [shannon_rate(1.0, s, 1) for s in below[::-1] + above]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert rates[3] - rates[2] < 1e-9
        assert shannon_rate(1.0, math.inf, 1) == math.inf


class TestRadioConfig:
    def test_rejects_non_square_array(self):
        with pytest.raises(ConfigError):
            RadioConfig(array_elements=48)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ConfigError):
            RadioConfig(bandwidth_hz=0.0)

    def test_rejects_bad_sectors(self):
        with pytest.raises(ConfigError):
            RadioConfig(sectors=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, key",
        [
            ("bandwidth_hz", "radio.B_hz"),
            ("tx_power_dbm", "radio.ptx_dbm"),
            ("noise_figure_db", "radio.nf_db"),
            ("array_elements", "radio.M"),
            ("sectors", "radio.S"),
            ("snr_threshold_db", "radio.gamma_th_db"),
        ],
    )
    def test_non_finite_field_names_the_key(self, field, key, value):
        with pytest.raises(ConfigError, match=rf"{key} must be finite"):
            RadioConfig(**{field: value})


class TestChannelParams:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ChannelParams)])
    def test_non_finite_field_names_the_key(self, field, value):
        with pytest.raises(ConfigError, match=rf"channel\.{field} must be finite"):
            ChannelParams(**{field: value})


def scattered_deployment(seed, n, side=1000.0):
    """n gNBs dropped uniformly on a square; every third one wired, origin 1."""
    pts = np.random.default_rng(seed).uniform(0, side, (n, 2))
    return Deployment(Region(side, side), pts, np.arange(n) % 3 == 0, 1)


def far_and_near_ues(seed, count, side=1000.0):
    """UEs inside the region plus UEs 5 km away, whose every link is in outage."""
    pts = np.random.default_rng(seed).uniform(0, side, (count, 2))
    return np.concatenate((pts, pts[: count // 2] + (5000.0, 0.0)))


# Outage laws of the screen tests: steep, default, shallow and nearly flat slopes;
# intercepts 5.2 and 40 make short links surely live, 0 and -2 do not.
SCREEN_SLOPES = (1 / 30, 1e-3, 0.5, 1e-6)
SCREEN_INTERCEPTS = (5.2, 0.0, -2.0, 40.0)
LN2 = math.log(2.0)


class TestSparseKernelMatchesDenseReference:
    """The outage-sparse kernel must match the dense formulation, drawn from the same keys, bit for bit."""

    CASES = {
        "default": ChannelParams(),
        "fading": ChannelParams(fading_sigma_db=3.0),
        "no_outage": ChannelParams(outage_slope_per_m=0.0),
        "steep": ChannelParams(outage_slope_per_m=0.1),
        "shallow": ChannelParams(outage_slope_per_m=1e-3),
        "negative_intercept": ChannelParams(outage_intercept=-2.0),
    }
    FEW_LIVE = {"steep", "negative_intercept"}  # a small world may serve none of 40 UEs

    @pytest.mark.parametrize("n", [2, 30, 480])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_link_table(self, n, case):
        params = self.CASES[case]
        dep = scattered_deployment(n, n)
        rng_new, rng_ref = np.random.default_rng(n), np.random.default_rng(n)
        new = link_table(dep, RadioConfig(), params, rng_new)
        ref = dense_link_table(dep, RadioConfig(), params, rng_ref)
        for name, value in vars(ref).items():
            got = getattr(new, name)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype, name
                assert np.array_equal(got, value), name
            else:
                assert got == value, name
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        if case == "no_outage":
            assert (new.los != LosState.OUTAGE).all()

    @pytest.mark.parametrize("n", [2, 30, 480])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_read_lazily(self, n, case):
        params = self.CASES[case]
        dep = scattered_deployment(n, n)
        rng_new, rng_ref = np.random.default_rng(n), np.random.default_rng(n)
        table = link_table(dep, RadioConfig(), params, rng_new)
        ref = dense_link_table(dep, RadioConfig(), params, rng_ref).snr
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        order = np.random.default_rng(n + 1).permutation(n).tolist()
        for i in order + order[::-1]:
            row = table[i]
            assert row.dtype == ref.dtype and row.shape == ref[i].shape
            assert row.tobytes() == ref[i].tobytes(), i
        assert "_whole" not in vars(table)  # reading rows did not evaluate the whole table

    @pytest.mark.parametrize("n", [2, 30, 480])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_association(self, n, case):
        params = self.CASES[case]
        dep = scattered_deployment(n + 1, n)
        ues = far_and_near_ues(n + 2, 40)
        rng_new, rng_ref = np.random.default_rng(n), np.random.default_rng(n)
        new = associate_min_pathloss(ues, dep, params, rng_new)
        ref = dense_associate_min_pathloss(ues, dep, params, rng_ref)
        assert new.dtype == ref.dtype
        assert np.array_equal(new, ref)
        assert rng_new.bit_generator.state == np.random.default_rng(n).bit_generator.state  # not advanced
        if los_probabilities(4000.0, params)[2] == 1.0:
            assert (new[40:] == -1).all()  # the far UEs see only outage links
        if n == 480 or case not in self.FEW_LIVE:
            assert (new[:40] >= 0).any()

    def test_association_on_random_worlds(self):
        rng = np.random.default_rng(2014)
        for world in range(300):
            params = ChannelParams(
                outage_slope_per_m=float(rng.choice(SCREEN_SLOPES + (0.0, -0.01))),
                outage_intercept=float(rng.choice(SCREEN_INTERCEPTS + (1e-3,))),
                fading_sigma_db=float(rng.choice([0.0, 3.0])),
            )
            dep = scattered_deployment(world, max(2, int(rng.poisson(rng.choice([10, 30, 120, 480])))))
            ues = far_and_near_ues(world + 1, int(rng.integers(2, 120)))
            rng_new, rng_ref = np.random.default_rng(world), np.random.default_rng(world)
            new = associate_min_pathloss(ues, dep, params, rng_new)
            ref = dense_associate_min_pathloss(ues, dep, params, rng_ref)
            assert np.array_equal(new, ref), (world, params)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state, (world, params)

    def test_empty_ue_list(self):
        dep = scattered_deployment(3, 5)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert associate_min_pathloss([], dep, ChannelParams(), rng).size == 0
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 1)])
    def test_ue_positions_not_k_by_2_are_refused_naming_the_shape(self, shape):
        dep = scattered_deployment(3, 5)
        with pytest.raises(ConfigError, match=re.escape(f"(k, 2) array, got one of shape {shape}")):
            associate_min_pathloss(np.zeros(shape), dep, ChannelParams(), np.random.default_rng(0))


@pytest.mark.parametrize(
    "pairs, bound, passes",
    [
        ([], 10, []),
        ([4, 6, 5], 10, [(0, 2), (2, 3)]),  # a pass fills up to the bound
        ([3, 12, 3], 10, [(0, 1), (1, 2), (2, 3)]),  # an item above the bound is a pass of its own
        ([12], 10, [(0, 1)]),
        ([0, 0, 12, 0, 5, 0], 10, [(0, 2), (2, 3), (3, 6)]),  # items of no pair join the pass they fall in
        ([0, 0, 0], 10, [(0, 3)]),
        (np.array([29] * 3 + [119] * 3 + [6] * 3), 300, [(0, 4), (4, 9)]),  # 206 pairs, then 256
    ],
)
def test_passes_take_whole_items_within_the_bound(pairs, bound, passes):
    assert list(_passes(pairs, bound)) == passes


class TestAssociationPasses:
    """Passes of whole UE rows draw and serve as one dense draw over every pair does,
    at, around and across the pass bound, and leave the parent stream where it was."""

    BOUND = channel.ASSOC_PASS_PAIRS
    CASES = {
        "default": ChannelParams(),
        "fading": ChannelParams(fading_sigma_db=3.0),
        "flat_outage": ChannelParams(outage_slope_per_m=0.0),  # every pair kept by the screen
        "falling_outage": ChannelParams(outage_slope_per_m=-0.01),
    }

    @staticmethod
    def check(ues, dep, params, seed=0):
        rng = np.random.default_rng(seed)
        new = associate_min_pathloss(ues, dep, params, rng)
        ref = dense_associate_min_pathloss(ues, dep, params, np.random.default_rng(seed))
        assert new.dtype == ref.dtype
        assert np.array_equal(new, ref)
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
        return new

    @pytest.mark.parametrize(
        "n, k",
        [
            (128, 127),  # k * n just below the bound: one pass
            (128, 128),  # at the bound: one pass
            (128, 129),  # just above: a second pass of one row
            (128, 515),  # several passes and a short last one
            (480, 34),  # 34 rows of 480 fill a pass
            (480, 35),
            (480, 103),
            (channel.ASSOC_PASS_PAIRS + 5, 3),  # each row wider than a pass is its own
        ],
    )
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_serving_cells_match_one_dense_draw(self, n, k, case):
        dep = scattered_deployment(n, n)
        ues = far_and_near_ues(k, k)[-k:]  # the last k: near UEs, then far ones in outage
        serving = self.check(ues, dep, self.CASES[case], seed=k)
        assert serving.shape == (k,)
        assert (serving >= 0).any()

    @pytest.mark.parametrize("fading_db", [0.0, 3.0])
    @pytest.mark.parametrize("exponent, expected", [(2.0, [-1, -1, 1]), (0.0, [-1] * 3), (-1.0, [-1] * 3)])
    def test_non_finite_totals_serve_as_the_reference(self, exponent, expected, fading_db):
        """gNBs on three corners of a square 2e308 m wide, and no pair is in outage. The coordinate
        differences of the far pairs of UEs 0, 1 and 3 overflow, so their distances and totals are
        +inf (exponent 2), NaN (exponent 0, as 0 * inf) or -inf (exponent -1); UE 3 stands on gNB 1.
        A UE whose lowest total is not finite, or NaN beside finite ones, is served by none. UE 2, at
        the center, is more than 1.3e154 m from every gNB, so its squared distances overflow but its
        differences do not: its distances are their hypot, finite, and it is served at every exponent."""
        big = 1e308
        dep = Deployment(Region(1e300, 1.0), [(-big, -big), (big, big), (-big, big)], [False, True, False], 0)
        ues = np.array([(big, -big), (1.5 * big, -1.5 * big), (0.0, 0.0), (big, big)])
        params = ChannelParams(
            outage_slope_per_m=-0.01, los_exponent=exponent, nlos_exponent=exponent, fading_sigma_db=fading_db
        )
        with np.errstate(all="ignore"):
            serving = self.check(ues, dep, params).tolist()
        assert serving[2] >= 0 and serving[:2] + serving[3:] == expected

    def test_ties_across_a_pass_boundary_go_to_the_lowest_id(self):
        """Two gNBs at each site, shadowing off: every UE's nearest site is a tie."""
        rng = np.random.default_rng(3)
        sites = rng.uniform(0, 1000, (240, 2))
        at = rng.permutation(np.repeat(np.arange(240), 2))  # the site of each of 480 gNBs
        dep = Deployment(Region(1000, 1000), sites[at], np.arange(480) % 3 == 0, 1)
        rows = self.BOUND // 480
        ues = rng.uniform(0, 1000, (3 * rows, 2))
        ues[rows] = ues[rows - 1]  # one UE on both sides of the first pass boundary
        serving = self.check(ues, dep, DETERMINISTIC_LOS)
        lowest = {site: int(np.flatnonzero(at == site)[0]) for site in range(240)}
        assert all(lowest[at[s]] == s for s in serving.tolist())
        assert serving[rows] == serving[rows - 1]

    def test_peak_memory_stays_below_half_a_float_per_pair(self):
        """One association of 2000 UEs and 480 gNBs holds no array with an entry per pair."""
        k, n = 2000, 480
        dep = scattered_deployment(5, n)
        ues = np.random.default_rng(6).uniform(0, 1000, (k, 2))
        associate_min_pathloss(ues[:1], dep, ChannelParams(), np.random.default_rng(0))  # fill the caches
        tracemalloc.start()
        try:
            serving = associate_min_pathloss(ues, dep, ChannelParams(), np.random.default_rng(7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (serving >= 0).all()
        assert peak < k * n * 8 / 2, peak


def block_store(deployments, words, law):
    """The ``RowStore`` of a block of the worlds ``deployments``, as a campaign block builds one:
    their arrays concatenated, world w keyed by the 64-bit link word ``words[w]`` under ``law``."""
    arrays = (np.concatenate([getattr(d, name) for d in deployments]) for name in ("positions", "wired", "attached"))
    sizes = np.array([d.n_gnbs for d in deployments], dtype=np.intp)
    return RowStore(sizes, *arrays, [d.origin_id for d in deployments], np.array(words, dtype=np.uint64), law)


def read_entries(store, world, node):
    """The padded row of each entry (world[k], node[k]) from one ``store.read`` of their block node
    ids, which must give each distinct row once, in block node order, and an index per entry."""
    rows, index = store.read(store.offset[world] + node)
    at = (store.offset[world] + node).tolist()
    assert rows.shape == (len(set(at)), store.width) and index.shape == world.shape
    assert [sorted(set(at))[i] for i in index.tolist()] == at
    return rows[index]


class TestRowStore:
    """``RowStore``: the rows of many worlds of a block read in hashed passes, the same bits as any other read."""

    # tables of different sizes, stored together under each channel law
    SIZES = (2, 7, 30, 120, 5, 30)

    @staticmethod
    def triplet(n, params):
        """Three tables of one world, keyed alike by the first word of ``default_rng(n)``: for the
        store, for single reads, and the dense reference."""
        dep = scattered_deployment(n, n)
        return tuple(
            build(dep, RadioConfig(), params, np.random.default_rng(n))
            for build in (link_table, link_table, dense_link_table)
        )

    @staticmethod
    def record_passes(monkeypatch):
        """The list of the (world, node id) rows of every pass from now on."""
        passes, real = [], RowStore._pass

        def record(store, at):
            world = np.searchsorted(store.offset, at, side="right") - 1
            passes.append(list(zip(world.tolist(), (at - store.offset[world]).tolist())))
            real(store, at)

        monkeypatch.setattr(RowStore, "_pass", record)
        return passes

    @staticmethod
    def block(tables):
        """The store of a block of the worlds of ``tables`` (from ``triplet``), keyed as each table is."""
        words = [np.random.default_rng(table.n).bit_generator.random_raw() for table in tables]
        return block_store([table.deployment for table in tables], words, tables[0].store.law)

    @pytest.mark.parametrize("fading_db", [0.0, 3.0])
    def test_mixed_tables_repeats_and_held_rows_match_rows_read_alone(self, fading_db, monkeypatch):
        triplets = [self.triplet(n, ChannelParams(fading_sigma_db=fading_db)) for n in self.SIZES]
        sizes = [table.n for table, _, _ in triplets]
        passes = self.record_passes(monkeypatch)
        store = self.block([table for table, _, _ in triplets])
        assert store.width == 120 and store.count == 0 and passes == []
        held = np.array((0, 2, 4)), np.array(sizes[:6:2]) - 1
        store.read(store.offset[held[0]] + held[1])  # rows read before the others
        assert passes == [[(w, sizes[w] - 1) for w in (0, 2, 4)]]
        rng = np.random.default_rng(9)
        world = np.repeat(np.arange(len(sizes)), 6)
        node = rng.integers(0, np.array(sizes)[world])
        # repeated rows, and the rows held
        world, node = (np.concatenate((a, a[::3], h)) for a, h in zip((world, node), held))
        order = rng.permutation(world.size)
        world, node = world[order], node[order]
        passes.clear()
        snr = read_entries(store, world, node)
        read = set(zip(world.tolist(), node.tolist()))
        fresh = read - {(w, sizes[w] - 1) for w in (0, 2, 4)}
        evaluated = [row for rows in passes for row in rows]
        assert sorted(evaluated) == sorted(fresh)  # each row once, and no row already held
        assert store.count == len(read)  # the store holds only the rows read
        assert snr.shape == (world.size, store.width)
        for k, (w, i) in enumerate(zip(world.tolist(), node.tolist())):
            table, alone, ref = triplets[w]
            row = snr[k]
            assert row.dtype == ref.snr.dtype
            assert row[: table.n].tobytes() == alone[i].tobytes() == ref.snr[i].tobytes(), (table.n, i)
            assert row[i] == -np.inf and (row[table.n :] == -np.inf).all()
        for table, _, _ in triplets:
            assert "_whole" not in vars(table)  # no pass evaluated the whole table
        passes.clear()
        assert read_entries(store, world, node).tobytes() == snr.tobytes() and passes == []  # read again: no pass

    @pytest.mark.parametrize("fading_db", [0.0, 3.0])
    def test_shadowing_and_fading_slots_are_hashed_only_for_live_pairs(self, fading_db, monkeypatch):
        """Slot 0 is hashed for every pair, and the shadowing (and fading) slots for the pairs not in
        outage only: the rows of a pass and the whole table keep the dense reference's bits."""
        table, alone, ref = self.triplet(120, ChannelParams(fading_sigma_db=fading_db))
        hashed, real = [], channel._hashed_uniforms
        monkeypatch.setattr(channel, "_hashed_uniforms", lambda k, c: hashed.append((k.shape, c.size)) or real(k, c))
        slots = 5 if fading_db else 3
        nodes = np.array([0, 7, 119, 7])
        snr = read_entries(self.block([table]), np.zeros(4, dtype=int), nodes)
        live = int(np.isfinite(snr[:3]).sum())  # a pair not in outage has a finite SNR
        assert 0 < live < 3 * 119 // 4
        assert hashed == [((1, 3 * 119), 3 * 119), ((slots - 1, live), live)]
        assert snr.tobytes() == ref.snr[nodes].tobytes()
        hashed.clear()
        pairs, live = 120 * 119 // 2, int(np.isfinite(ref.snr).sum()) // 2
        assert alone.snr.tobytes() == ref.snr.tobytes()
        assert hashed == [((1, pairs), pairs), ((slots - 1, live), live)]

    def test_pair_bound_splits_passes_not_bits(self, monkeypatch):
        triplets = [self.triplet(n, ChannelParams()) for n in (30, 120, 7)]
        store = self.block([table for table, _, _ in triplets])
        passes = self.record_passes(monkeypatch)
        monkeypatch.setattr(channel, "PASS_PAIRS", 300)  # rows of 29, 119 and 6 pairs
        world, node = np.repeat(np.arange(3), 3), np.tile((6, 0, 3), 3)
        snr = read_entries(store, world, node)
        rows = [[(w, i) for i in (0, 3, 6)] for w in range(3)]
        # a pass takes rows in node order while their pairs stay within the bound: 206, then 256
        assert passes == [rows[0] + rows[1][:1], rows[1][1:] + rows[2]]
        for k, (w, i) in enumerate(zip(world.tolist(), node.tolist())):
            assert snr[k, : store.sizes[w]].tobytes() == triplets[w][2].snr[i].tobytes()
        passes.clear()
        monkeypatch.setattr(channel, "PASS_PAIRS", 10)  # below one row: a pass per row
        store = self.block([triplets[1][0]])
        got = read_entries(store, np.zeros(2, dtype=int), np.array([5, 9]))
        assert got.tobytes() == triplets[1][2].snr[[5, 9]].tobytes()
        assert passes == [[(0, 5)], [(0, 9)]]

    def test_getitem_reads_each_row_once_through_the_tables_store(self, monkeypatch):
        """A table's store reads its deployment's own arrays, and holds each row read through it."""
        table, _, ref = self.triplet(30, ChannelParams())
        passes = self.record_passes(monkeypatch)
        assert table[np.int64(4)].tobytes() == ref.snr[4].tobytes()
        row = table[4]
        assert row.tobytes() == ref.snr[4].tobytes()
        row[:] = 0.0  # a copy: the held row stays
        assert table[7].tobytes() == ref.snr[7].tobytes() and table[4].tobytes() == ref.snr[4].tobytes()
        assert passes == [[(0, 4)], [(0, 7)]]
        assert table.store.count == 2 and "_whole" not in vars(table)
        dep, store = table.deployment, table.store
        assert store.positions is dep.positions and store.wired is dep.wired and store.attached is dep.attached

    def test_array_tables_are_held_padded_and_one_is_read_in_place(self, monkeypatch):
        mats = [self.triplet(n, ChannelParams())[2].snr for n in (7, 30, 5)]
        passes = self.record_passes(monkeypatch)
        store = RowStore.held([scattered_deployment(n, n) for n in (7, 30, 5)], mats)
        world, node = np.array([2, 0, 1, 2, 2]), np.array([4, 6, 29, 0, 4])
        snr = read_entries(store, world, node)
        for k, (w, i) in enumerate(zip(world.tolist(), node.tolist())):
            n = mats[w].shape[0]
            assert snr[k, :n].tobytes() == mats[w][i].tobytes() and (snr[k, n:] == -np.inf).all()
        one = RowStore.held([scattered_deployment(30, 30)], [mats[1]])
        assert one.rows is mats[1]  # not copied
        assert read_entries(one, np.zeros(2, dtype=int), np.array([3, 1])).tobytes() == mats[1][[3, 1]].tobytes()
        assert passes == [] and store.count == 42

    @pytest.mark.parametrize("i, error", [(-1, IndexError), (30, IndexError), (2.0, TypeError)])
    def test_rows_outside_the_table_are_refused(self, i, error, monkeypatch):
        """``LinkTable[i]`` is where node ids come from outside, so it checks them before the store
        is read: -1 would be the last row of a numpy array, and 30 a row of no world."""
        table, _, _ = self.triplet(30, ChannelParams())
        passes = self.record_passes(monkeypatch)
        with pytest.raises(error):
            table[i]
        assert passes == [] and table.store.count == 0

    @pytest.mark.parametrize("i", [True, False])
    def test_bool_rows_are_refused(self, i, monkeypatch):
        """A bool is no node id, though Python's ``operator.index(True)`` is 1."""
        table, _, _ = self.triplet(30, ChannelParams())
        passes = self.record_passes(monkeypatch)
        with pytest.raises(TypeError):
            table[i]
        assert passes == [] and table.store.count == 0

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 4), (3,)])
    def test_misshaped_tables_are_refused_naming_both_shapes(self, shape):
        with pytest.raises(ValueError, match=rf"\(3, 3\).*{re.escape(str(shape))}"):
            RowStore.held([scattered_deployment(7, 7), scattered_deployment(3, 3)], [np.zeros((7, 7)), np.zeros(shape)])
        with pytest.raises(ValueError, match=rf"\(3, 3\).*{re.escape(str(shape))}"):
            RowStore.held([scattered_deployment(3, 3)], [np.zeros(shape)])

    def test_a_dense480_block_holds_only_the_rows_it_reads(self):
        """14 worlds of 480 gNBs, as a dense480 block has: a few rounds of reads hold
        a few rows per world, far below a row for every node."""
        worlds, n = 14, 480
        deployments = [scattered_deployment(w, n) for w in range(worlds)]
        words = [np.random.default_rng(w).bit_generator.random_raw() for w in range(worlds)]
        table = link_table(deployments[0], RadioConfig(), ChannelParams(), np.random.default_rng(0))
        table[0]  # fill the caches: a read through a store of one world
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            store = block_store(deployments, words, table.store.law)
            for _ in range(5):  # a round of 4 walks and an oracle per world
                store.read(store.offset[np.repeat(np.arange(worlds), 5)] + rng.integers(0, n, 5 * worlds))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.count <= 25 * worlds
        every_row = worlds * n * store.width * 8  # what a row per node would take
        assert peak < every_row / 5, (peak, every_row)


class TestKeyedDraws:
    """Stream schema 2: the hashed draws of the link table and the association's child stream."""

    N = 200_000  # counters per slot; five slots give 10**6 uniforms
    COUNTERS = np.arange(1, N + 1, dtype=np.uint64)

    def slots(self, word=0x0123456789ABCDEF):
        return _hashed_uniforms(_slot_keys(word, 5), self.COUNTERS)

    def test_splitmix64_reference_outputs(self):
        # the first five outputs of SplitMix64 seeded with 1234567, as the reference C code gives them
        expected = [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821,
        ]
        assert splitmix64(1234567, range(1, 6)).tolist() == expected
        got = _hashed_uniforms(np.array([[1234567]], dtype=np.uint64), np.arange(1, 6, dtype=np.uint64))
        assert got[0].tolist() == [(v >> 11) * 2.0**-53 for v in expected]

    def test_kernel_matches_the_python_int_hash(self):
        """numpy's wrapping uint64 arithmetic against Python ints masked to 64 bits."""
        rng = np.random.default_rng(8)
        edge = np.array([1, 2, 2**32, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
        counters = np.concatenate((edge, rng.integers(1, 2**63, 2000, dtype=np.uint64)))
        for word in [0, 1, 2**64 - 1, *rng.integers(0, 2**63, 4).tolist()]:
            got = _hashed_uniforms(_slot_keys(word, 5), counters)
            for slot in range(5):
                assert got[slot].tobytes() == hashed_uniforms(word, slot, counters).tobytes(), (word, slot)

    def test_link_table_takes_one_word(self):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        ref.bit_generator.random_raw()
        link_table(scattered_deployment(5, 30), RadioConfig(), ChannelParams(), rng)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("fading_sigma_db", [0.0, 3.0])
    def test_a_pair_draws_the_same_from_either_end(self, fading_sigma_db):
        # no outage: every pair is live, so every slot reaches the SNR
        n = 40
        params = ChannelParams(outage_slope_per_m=0.0, fading_sigma_db=fading_sigma_db)
        table = link_table(scattered_deployment(4, n), RadioConfig(), params, np.random.default_rng(4))
        rows = np.array([table[i] for i in range(n)])  # each row hashed on its own
        assert rows.tobytes() == rows.T.tobytes()
        assert np.isfinite(rows[~np.eye(n, dtype=bool)]).all()

    def test_uniform_moments_and_chi_square(self):
        u = self.slots().ravel()
        n = u.size
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 5 * math.sqrt(1 / 12 / n)
        assert abs(u.var() - 1 / 12) < 5 * math.sqrt(1 / 180 / n)  # Var((u - 1/2)**2) = 1/80 - 1/144
        expected = n / 100
        chi2 = float((((np.bincount((u * 100).astype(int), minlength=100) - expected) ** 2) / expected).sum())
        assert chi2 < 99 + 5 * math.sqrt(2 * 99), chi2  # five sd above the mean of chi-square(99)

    def test_box_muller_normals(self):
        u = self.slots()
        for z in (_box_muller(u[1], u[2]), _box_muller(u[3], u[4])):
            assert abs(z.mean()) < 5 / math.sqrt(self.N)
            assert abs(z.var() - 1.0) < 5 * math.sqrt(2 / self.N)
            inside = float(np.mean(np.abs(z) < 1.0))
            assert abs(inside - math.erf(1 / math.sqrt(2))) < 5 * math.sqrt(0.6827 * 0.3173 / self.N)

    def test_no_correlation_across_slots_counters_or_layers(self):
        limit = 5 / math.sqrt(self.N)
        u = self.slots()
        assert np.abs(np.corrcoef(u)[~np.eye(5, dtype=bool)]).max() < limit
        for row in u:
            assert abs(np.corrcoef(row[:-1], row[1:])[0, 1]) < limit
        # the association's child stream against the link table's slots of one repetition
        rng = repetition_rng(1, 0)
        association = _child_rng(rng, ASSOC_LAYER).random(self.N)
        link = _hashed_uniforms(_slot_keys(int(rng.bit_generator.random_raw()), 5), self.COUNTERS)
        assert np.abs(np.corrcoef(np.vstack((association, link)))[0, 1:]).max() < limit

    def test_state_frequencies_from_hashed_uniforms(self):
        # C10's three-state check on 10**6 hashed visibility uniforms per distance
        key = _slot_keys(int(np.random.default_rng(77).bit_generator.random_raw()), 1)
        n = 1_000_000
        for step, d in enumerate((20.0, 100.0, 200.0)):
            u = _hashed_uniforms(key, np.arange(step * n + 1, (step + 1) * n + 1, dtype=np.uint64))[0]
            live, los = _visibility(np.full(n, d), u, ChannelParams())
            p_los, p_nlos, p_out = (float(p) for p in los_probabilities(d))
            counts = {
                LosState.LOS: int(los.sum()),
                LosState.NLOS: int(live.size - los.sum()),
                LosState.OUTAGE: n - live.size,
            }
            for state, p in ((LosState.LOS, p_los), (LosState.NLOS, p_nlos), (LosState.OUTAGE, p_out)):
                sigma = math.sqrt(p * (1.0 - p) / n)
                assert abs(counts[state] / n - p) <= 3.0 * sigma + 1e-12, (d, state)


def screened(d, u, params, seed=0):
    """(``_visibility`` live mask, ``_may_be_live`` mask) of pairs at distances ``d`` laid at random angles."""
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, d.size)
    dx, dy = d * np.cos(theta), d * np.sin(theta)
    live = np.zeros(d.size, dtype=bool)
    live[_visibility(np.hypot(dx, dy), u, params)[0]] = True
    return live, _may_be_live(dx * dx + dy * dy, u, params)


class TestOutageScreen:
    """``_may_be_live`` keeps every pair that ``_visibility`` keeps, for uniforms in [0, 1)."""

    U_TOP = 1.0 - 2.0**-53  # the largest uniform Generator.random returns

    @pytest.mark.parametrize("slope", SCREEN_SLOPES)
    @pytest.mark.parametrize("intercept", SCREEN_INTERCEPTS)
    def test_keeps_every_live_pair_at_the_boundary(self, slope, intercept):
        params = ChannelParams(outage_slope_per_m=slope, outage_intercept=intercept)
        d = np.random.default_rng(7).uniform(100.0, 1400.0, 100_000)
        p_out = los_probabilities(d, params)[2]
        # exp(c - s*d) in (2**-54, 2**-53): fl(1 - exp) rounds to U_TOP, so U_TOP is live there
        rim = np.linspace(intercept + 53 * LN2, intercept + 54 * LN2, 2001)[1:-1] / slope
        d_all = np.concatenate((d, d, d, d, d, rim))
        u = np.concatenate(
            (
                np.nextafter(p_out, -np.inf),
                p_out,
                np.nextafter(p_out, np.inf),
                np.zeros(d.size),
                np.full(d.size + rim.size, self.U_TOP),
            )
        )
        drawable = (u >= 0.0) & (u < 1.0)
        live, kept = screened(d_all[drawable], u[drawable], params)
        assert kept[live].all(), d_all[drawable][live & ~kept][:5]
        live_rim, kept_rim = screened(rim, np.full(rim.size, self.U_TOP), params)
        assert live_rim.all() and kept_rim.all()

    def test_drops_most_outage_pairs_of_the_default_law(self):
        rng = np.random.default_rng(11)
        d = np.hypot(*rng.uniform(-1000.0, 1000.0, (2, 100_000)))
        live, kept = screened(d, rng.random(d.size), ChannelParams())
        assert kept[live].all()
        assert kept.sum() < 1.5 * live.sum() < 0.1 * d.size

    @pytest.mark.parametrize("slope", SCREEN_SLOPES)
    @pytest.mark.parametrize("e", [-52, -51, -20, -1, 0, 1])
    def test_keeps_a_rounding_margin_past_the_real_radius(self, slope, e):
        """The float c - s*d can sit about 2**-52 * (|c| + s*d) above the real value,
        so on an exp that rounds up a pair that far past the real-number radius
        (c + (2 - e) ln 2)/s may be live; where c + (2 - e) ln 2 is near 0 the
        relative d**2 factor does not cover that."""
        u = np.array([1.0 - 2.0 ** (e - 1)])  # 1 - u = 2**(e - 1), binary exponent e
        for intercept in SCREEN_INTERCEPTS + (-(2 - e) * LN2,):
            params = ChannelParams(outage_slope_per_m=slope, outage_intercept=intercept)
            radius = (intercept + (2 - e) * LN2) / slope
            if radius < 0.0:
                continue
            d = radius + 2.0**-50 * (abs(intercept) + 40.0) / slope
            assert _may_be_live(np.array([d * d]), u, params).all(), (intercept, d)

    @pytest.mark.parametrize("slope", [0.0, -0.01])
    @pytest.mark.parametrize("intercept", SCREEN_INTERCEPTS)
    def test_no_positive_slope_keeps_every_pair(self, slope, intercept):
        params = ChannelParams(outage_slope_per_m=slope, outage_intercept=intercept)
        rng = np.random.default_rng(3)
        d2 = np.concatenate((rng.uniform(0.0, 1e12, 1000), [0.0, np.inf]))
        u = np.concatenate((rng.random(1000), [0.0, self.U_TOP]))
        assert _may_be_live(d2, u, params).all()


# master seeds and repetitions at the edges of one and two uint32 words, master seeds of four words (the
# pool size) and five (the first word past the pool), and a seed of many words
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96, 2**128, int("7" * 4000))
REPETITIONS = (0, 1, 63, 64, 2**32 - 1, 2**32, 2**33 + 7)
FIRST_DRAWS = (
    lambda g: g.random(),
    lambda g: g.poisson(30.0),
    lambda g: g.standard_normal(),
    lambda g: g.bit_generator.random_raw(),
)


class TestSeedWords:
    """A block derives its repetitions' generators, and their association children, in one
    pass; each is numpy's ``default_rng(SeedSequence(...))``, bit for bit. One call holds keys
    of one and two words, as a block that straddles repetition 2**32 does."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed{str(seed)[:12]}")
    def test_words_equal_numpy(self, seed):
        keys = [(rep,) for rep in REPETITIONS]
        children = [(rep, ASSOC_LAYER) for rep in REPETITIONS]
        for key, words in zip(keys, _seed_words(seed, keys)):
            assert np.array_equal(words, SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)), key
        for key, words in zip(children, _seed_words(seed, children)):
            want = SeedSequence(seed, spawn_key=key, pool_size=4).generate_state(4, np.uint64)
            assert np.array_equal(words, want), key

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed{str(seed)[:12]}")
    def test_first_draws_equal_numpy(self, seed):
        keys = [(rep,) for rep in REPETITIONS]
        for key, got in zip(keys, spawned_rngs(seed, keys)):
            want = np.random.default_rng(SeedSequence(seed, spawn_key=key))
            for draw in FIRST_DRAWS:
                assert draw(got) == draw(want), key
        children = [(rep, ASSOC_LAYER) for rep in REPETITIONS[::3]]
        for key, got in zip(children, spawned_rngs(seed, children)):
            want = _child_rng(repetition_rng(seed, key[0]), ASSOC_LAYER)
            for draw in FIRST_DRAWS:
                assert draw(got) == draw(want), key

    def test_seed_sequence_describes_the_stream(self):
        (rng,) = spawned_rngs(2**40 + 1, [(2**33 + 7,)])
        ss = rng.bit_generator.seed_seq
        assert (ss.entropy, ss.spawn_key, ss.pool_size) == (2**40 + 1, (2**33 + 7,), 4)
        want = SeedSequence(2**40 + 1, spawn_key=(2**33 + 7,))
        for n_words, dtype in ((4, np.uint64), (8, np.uint32), (3, np.uint64)):
            assert np.array_equal(ss.generate_state(n_words, dtype), want.generate_state(n_words, dtype))

    @pytest.mark.parametrize(
        "parent",
        [
            lambda: np.random.default_rng(12345),
            lambda: np.random.default_rng([3, 2**40, 0]),
            lambda: np.random.default_rng(SeedSequence(99, spawn_key=(5,), pool_size=8)),
            lambda: np.random.default_rng(SeedSequence(2**70, pool_size=8)),
        ],
        ids=["int", "ints", "pool8_spawned", "pool8"],
    )
    def test_child_of_a_foreign_parent_is_unchanged(self, parent):
        ss = parent().bit_generator.seed_seq
        want = np.random.default_rng(
            SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, ASSOC_LAYER), pool_size=ss.pool_size)
        )
        got = _child_rng(parent(), ASSOC_LAYER)
        for draw in FIRST_DRAWS:
            assert draw(got) == draw(want)

    def test_negative_repetition_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            _seed_words(1, [(0,), (-1,)])
