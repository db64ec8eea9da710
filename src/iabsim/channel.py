"""Large-scale mmWave link model with a fixed coherent array gain 10*log10(M) per endpoint.

The model is deliberately cluster-free: a three-state visibility draw
(LOS / NLOS / outage), a floating-intercept pathloss with lognormal shadowing,
and the coherent peak gain of an M-element planar array at both ends, as with
ideal beam steering. One channel draw is shared by both directions of a gNB
pair, so the resulting backhaul graph is undirected.

Conventions: gains and losses in dB, powers in dBm, distances in meters.
An outage link carries -inf dB SNR and is never a selection candidate.

Random streams (schema 2): the link table takes one 64-bit word from the
repetition generator and derives one key per draw slot from it with
SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). The draws of the gNB pair
with flat upper-triangle index k are counter-based (Salmon et al., SC'11):
slot s of that pair is the SplitMix64 output of key_s + (k + 1) * gamma,
taken as a 53-bit uniform. Slot 0 is the visibility uniform, slots 1-2 give
the shadowing normal and slots 3-4 the fading normal, each by Box-Muller.
A pair's draws are thus fixed by the word and by k, the same from either
end, and a row of the table is hashed and evaluated only when it is first
read. UE association draws from a child stream of the repetition's seed
sequence, so running or skipping it leaves the repetition generator where
it was: a uniform for every UE-gNB pair, then a shadowing normal (and a
fading normal) for each pair that is not in outage, in pair order. It walks
the UEs in passes of whole rows, each drawing its pairs' uniforms in turn,
which gives the same numbers as one draw for all pairs. The outage law runs
only on the pairs that a squared-distance bound (``_may_be_live``) cannot
rule out.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, fields
from enum import IntEnum
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, require_number
from .geometry import Deployment

THERMAL_NOISE_DBM_PER_HZ = -174.0
# The layout of the random draws described above; a campaign's numbers depend on it.
STREAM_SCHEMA = 2
# SplitMix64's state increment (the odd integer nearest 2**64 / golden ratio) and its two mixing multipliers.
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK_64 = (1 << 64) - 1
# Hash slots of a gNB pair: visibility, shadowing (two), and fading (two) when it is on.
_SLOTS, _SLOTS_WITH_FADING = 3, 5
# Spawn-key tag of the UE association's child stream (ASCII "asoc").
ASSOC_LAYER = 0x61736F63
# The most pairs one hashed pass over link-table rows takes; it caps the pass's
# temporaries, and the bits of a row do not depend on it.
PASS_PAIRS = 4096
# The most UE-gNB pairs one association pass takes (or one UE row, when a row
# is wider): each float64 temporary stays at or below 128 KiB, which malloc
# serves from its heap instead of mapping, and faulting in, fresh pages per call.
ASSOC_PASS_PAIRS = 16384


class LosState(IntEnum):
    LOS = 0
    NLOS = 1
    OUTAGE = 2


@dataclass(frozen=True)
class RadioConfig:
    """Radio front-end parameters shared by every gNB.

    ``sectors`` is checked but unused, kept because ``bench/layers.py`` passes it to ``assign_roles``.
    """

    bandwidth_hz: float = 400e6
    tx_power_dbm: float = 30.0
    noise_figure_db: float = 5.0
    array_elements: int = 64
    sectors: int = 3
    snr_threshold_db: float = 5.0

    def __post_init__(self):
        require_number("radio.B_hz", self.bandwidth_hz, above=0)
        require_number("radio.ptx_dbm", self.tx_power_dbm)
        require_number("radio.nf_db", self.noise_figure_db)
        require_number("radio.M", self.array_elements, integer=True, at_least=1)
        require_number("radio.S", self.sectors, integer=True, at_least=1)
        require_number("radio.gamma_th_db", self.snr_threshold_db)
        root = math.isqrt(int(self.array_elements))
        if root * root != self.array_elements:
            raise ConfigError(
                f"radio.M must be a perfect square (planar array), got {self.array_elements}"
            )


@dataclass(frozen=True)
class ChannelParams:
    """Large-scale constants for 28 GHz urban links; every field is overridable.

    Pathloss follows alpha + 10*exponent*log10(d) per visibility state, with
    zero-mean Gaussian shadowing of the given sigma. The outage probability is
    max(0, 1 - exp(-slope*d + intercept)) and the LOS share of the remainder
    decays as exp(-los_decay*d). ``fading_sigma_db`` > 0 adds one extra
    lognormal perturbation per link (off by default).
    """

    los_alpha_db: float = 61.4
    los_exponent: float = 2.0
    los_sigma_db: float = 5.8
    nlos_alpha_db: float = 72.0
    nlos_exponent: float = 2.92
    nlos_sigma_db: float = 8.7
    outage_slope_per_m: float = 1.0 / 30.0
    outage_intercept: float = 5.2
    los_decay_per_m: float = 1.0 / 67.1
    fading_sigma_db: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            require_number(f"channel.{field.name}", getattr(self, field.name))


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise floor: -174 dBm/Hz + 10*log10(B) + NF."""
    if bandwidth_hz <= 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth_hz}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def _outage_probability(d: np.ndarray, params: ChannelParams) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.exp(-params.outage_slope_per_m * d + params.outage_intercept))


def _los_probability(d: np.ndarray, p_out: np.ndarray, params: ChannelParams) -> np.ndarray:
    return (1.0 - p_out) * np.exp(-params.los_decay_per_m * d)


def los_probabilities(d_m, params: ChannelParams = ChannelParams()):
    """Closed-form (P_LOS, P_NLOS, P_OUTAGE) at distance ``d_m`` (scalar or array)."""
    d = np.asarray(d_m, dtype=float)
    p_out = _outage_probability(d, params)
    p_los = _los_probability(d, p_out, params)
    p_nlos = 1.0 - p_out - p_los
    return p_los, p_nlos, p_out


def _visibility(d: np.ndarray, u: np.ndarray, params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """Split flat pairs by their uniforms ``u``: (indices not in outage, LOS mask over those).

    The LOS probability is evaluated only on the pairs that are not in outage.
    """
    p_out = _outage_probability(d, params)
    live = (u >= p_out).nonzero()[0]
    p_out_live = p_out[live]
    los = u[live] < p_out_live + _los_probability(d[live], p_out_live, params)
    return live, los


@lru_cache(maxsize=16)
def _budget_coefficients(params: ChannelParams) -> np.ndarray:
    """Rows alpha, 10 * exponent and sigma of the NLOS (column 0) and LOS (column 1) laws."""
    table = np.array(
        [
            (params.nlos_alpha_db, params.los_alpha_db),
            (10.0 * params.nlos_exponent, 10.0 * params.los_exponent),
            (params.nlos_sigma_db, params.los_sigma_db),
        ]
    )
    table.flags.writeable = False
    return table


def _budget(
    d: np.ndarray, los: np.ndarray, shadow: np.ndarray, fading: np.ndarray | None, params: ChannelParams
) -> tuple[np.ndarray, np.ndarray]:
    """(pathloss, shadowing) of visible pairs from their standard-normal draws."""
    d_eff = np.maximum(d, 1.0)  # keep the log finite below 1 m
    alpha, slope, sigma = _budget_coefficients(params).take(los.view(np.uint8), axis=1)
    pathloss = alpha + slope * np.log10(d_eff)
    shadowing = sigma * shadow
    if fading is not None:
        shadowing = shadowing + params.fading_sigma_db * fading
    return pathloss, shadowing


def _splitmix64(x: int) -> int:
    """SplitMix64's output for the state ``x``, in Python ints."""
    z = x & _MASK_64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK_64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK_64
    return z ^ (z >> 31)


def _slot_keys(word: int, slots: int) -> np.ndarray:
    """(slots, 1) uint64 keys: the first ``slots`` outputs of a SplitMix64 stream seeded with ``word``."""
    return np.array([[_splitmix64(word + (s + 1) * _GOLDEN_GAMMA)] for s in range(slots)], dtype=np.uint64)


_GAMMA_U64, _MIX_1_U64, _MIX_2_U64 = np.uint64(_GOLDEN_GAMMA), np.uint64(_MIX_1), np.uint64(_MIX_2)
_SHIFTS = tuple(np.uint64(b) for b in (30, 27, 31, 11))


def _hashed_uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """(slots, m) uniforms in [0, 1) with 53 bits: SplitMix64 of keys[s] + counters[c] * gamma.

    ``keys`` is a (slots, 1) uint64 column and ``counters`` a uint64 vector;
    the arithmetic wraps modulo 2**64, as SplitMix64's does.
    """
    s30, s27, s31, s11 = _SHIFTS
    z = counters * _GAMMA_U64
    z = z + keys
    z ^= z >> s30
    z *= _MIX_1_U64
    z ^= z >> s27
    z *= _MIX_2_U64
    z ^= z >> s31
    z >>= s11
    return z * 2.0**-53


def _box_muller(u_radius: np.ndarray, u_angle: np.ndarray) -> np.ndarray:
    """Standard normals sqrt(-2 ln(1 - u1)) * cos(2 pi u2) from uniforms in [0, 1)."""
    return np.sqrt(-2.0 * np.log1p(-u_radius)) * np.cos(2.0 * math.pi * u_angle)


def _spread(size: int, live: np.ndarray, values: np.ndarray, fill) -> np.ndarray:
    """Length-``size`` array with ``values`` at the ``live`` indices and ``fill`` elsewhere."""
    out = np.full(size, fill, dtype=values.dtype)
    out[live] = values
    return out


def _los_codes(size: int, live: np.ndarray, los: np.ndarray) -> np.ndarray:
    codes = np.where(los, LosState.LOS, LosState.NLOS).astype(np.int8)
    return _spread(size, live, codes, LosState.OUTAGE)


class LinkTable:
    """Shared channel realization for all gNB pairs of one deployment.

    ``table[i]`` is row i of the symmetric SNR matrix in dB, with -inf on the
    diagonal and on outage pairs; a row is hashed and evaluated on its first
    read, by ``evaluate_rows``, and kept in ``rows``. ``snr`` is the whole
    (n, n) matrix. It and the flat per-pair arrays (upper triangle,
    ``src < dst``), with ``gain_dbi``, ``noise_dbm`` and ``tx_power_dbm``,
    retain every budget component for auditing the link-budget identity;
    reading any of them evaluates every pair once.
    """

    def __init__(self, positions, word: int, params: ChannelParams, gain_dbi, noise_dbm, tx_power_dbm):
        self.positions = positions
        self.n = len(positions)
        self.params = params
        self._keys = _slot_keys(word, _SLOTS_WITH_FADING if params.fading_sigma_db > 0.0 else _SLOTS)
        self.gain_dbi = gain_dbi
        self.noise_dbm = noise_dbm
        self.tx_power_dbm = tx_power_dbm
        self.rows: dict[int, np.ndarray] = {}

    def _evaluate(self, positions: np.ndarray, a, b, keys: np.ndarray, counters: np.ndarray):
        """Channel, under this table's constants, of the pairs (a, b) of rows of ``positions``
        whose slots s are hashed from ``keys[s]`` at ``counters`` (flat index + 1, uint64).

        Returns (distance, live, los, pathloss, shadowing, snr); ``live`` holds
        the positions of the pairs not in outage, and the last four are given
        for those pairs only. The distance does not depend on which end comes
        first, to the bit: x[b] - x[a] is exactly -(x[a] - x[b]).
        """
        x, y = positions.T
        d = np.hypot(x[a] - x[b], y[a] - y[b])
        u = _hashed_uniforms(keys, counters)
        live, los = _visibility(d, u[0], self.params)
        v = u[1:].take(live, axis=1)
        normals = _box_muller(v[0::2], v[1::2])  # shadowing, then fading when it is on
        fading = normals[1] if len(normals) > 1 else None
        pathloss, shadowing = _budget(d[live], los, normals[0], fading, self.params)
        snr = self.tx_power_dbm + self.gain_dbi + self.gain_dbi - pathloss - shadowing - self.noise_dbm
        return d, live, los, pathloss, shadowing, snr

    def __getitem__(self, i: int) -> np.ndarray:
        row = self.rows.get(i)
        if row is None:
            evaluate_rows(((self, i),))
            row = self.rows[i]
        return row

    @cached_property
    def _whole(self) -> dict[str, np.ndarray]:
        """Every pair evaluated once: the (n, n) matrix and the flat upper-triangle arrays."""
        n = self.n
        src, dst = np.triu_indices(n, k=1)
        counters = np.arange(1, src.size + 1, dtype=np.uint64)
        d, live, los, pathloss, shadowing, snr = self._evaluate(
            self.positions, src, dst, self._keys, counters
        )
        matrix = np.full((n, n), -np.inf)
        matrix[src[live], dst[live]] = snr
        matrix[dst[live], src[live]] = snr
        return {
            "snr": matrix,
            "src": src,
            "dst": dst,
            "distance_m": d,
            "los": _los_codes(d.size, live, los),
            "pathloss_db": _spread(d.size, live, pathloss, np.inf),
            "shadowing_db": _spread(d.size, live, shadowing, 0.0),
            "pair_snr_db": _spread(d.size, live, snr, -np.inf),
        }

    snr = property(lambda self: self._whole["snr"])
    src = property(lambda self: self._whole["src"])
    dst = property(lambda self: self._whole["dst"])
    distance_m = property(lambda self: self._whole["distance_m"])
    los = property(lambda self: self._whole["los"])
    pathloss_db = property(lambda self: self._whole["pathloss_db"])
    shadowing_db = property(lambda self: self._whole["shadowing_db"])
    pair_snr_db = property(lambda self: self._whole["pair_snr_db"])


def evaluate_rows(requests) -> None:
    """Evaluate the rows named by ``requests``, pairs (table, row id), that no table holds yet.

    Their tables must share one set of channel constants. The rows go through
    one hashed pass, or more when a pass would take over ``PASS_PAIRS`` pairs.
    A pass concatenates the pairs of its rows, with positions offset per table,
    slot keys repeated per pair, and the pair (i, j) of an n-node table at
    counter c[min(i, j)] + max(i, j), where c[a] = a(2n - a - 1)/2 - a puts
    the pair (a, b), a < b, at its flat upper-triangle index + 1. Every pair
    thus draws what it draws in any other read of the table. Each row is kept
    in its table's ``rows`` as a slice of the pass's output, -inf in its own
    column.
    """
    todo: dict[tuple[int, int], tuple[LinkTable, int]] = {}
    for table, i in requests:
        i = operator.index(i)
        if i not in table.rows:
            if not 0 <= i < table.n:
                raise IndexError(f"no row {i} in a link table of {table.n} gNBs")
            todo[id(table), i] = (table, i)
    laws = [(table.params, table.gain_dbi, table.noise_dbm, table.tx_power_dbm) for table, _ in todo.values()]
    if any(law != laws[0] for law in laws):
        raise ValueError("rows evaluated together need link tables with the same channel constants")
    batch, pairs = [], 0
    for table, i in todo.values():
        if batch and pairs + table.n - 1 > PASS_PAIRS:
            _row_pass(batch)
            batch, pairs = [], 0
        batch.append((table, i))
        pairs += table.n - 1
    if batch:
        _row_pass(batch)


def _row_pass(rows: list[tuple[LinkTable, int]]) -> None:
    """One hashed pass over the rows (table, id), all of tables with the same channel constants."""
    tables = list({id(table): table for table, _ in rows}.values())
    # the offset of each table's nodes in the concatenated positions
    first = dict(zip(map(id, tables), itertools.accumulate((table.n for table in tables), initial=0)))
    ids, sizes, bases = np.array([(i, table.n, first[id(table)]) for table, i in rows]).T
    ends = np.cumsum(sizes)
    starts = ends - sizes  # row r fills out[starts[r]:ends[r]]; its n - 1 pairs start at starts[r] - r
    per_row = np.array((ids, sizes, bases, starts, starts - np.arange(len(rows))))
    i, n, base, start, pair_start = np.repeat(per_row, sizes - 1, axis=1)
    j = np.arange(i.size) - pair_start
    j += j >= i  # skip the row's own column
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    counters = (lo * (2 * n - lo - 1) // 2 - lo + hi).view(np.uint64)
    positions = np.concatenate([table.positions for table in tables])
    keys = np.repeat(np.concatenate([table._keys for table, _ in rows], axis=1), sizes - 1, axis=1)
    _, live, _, _, _, snr = tables[0]._evaluate(positions, base + j, base + i, keys, counters)
    out = np.full(int(ends[-1]), -np.inf)
    out[(start + j)[live]] = snr
    for (table, i), a, b in zip(rows, starts.tolist(), ends.tolist()):
        table.rows[i] = out[a:b]


def link_table(
    deployment: Deployment,
    radio: RadioConfig,
    params: ChannelParams,
    rng: np.random.Generator,
) -> LinkTable:
    """The pairwise link realization of one repetition, keyed by one 64-bit word of ``rng``.

    Nothing else is drawn: a row's pairs are hashed when the row is read.
    """
    word = int(rng.bit_generator.random_raw())
    # Steering is ideal, so both endpoint gains sit at the coherent peak.
    gain = 10.0 * math.log10(radio.array_elements)
    noise = noise_power_dbm(radio.bandwidth_hz, radio.noise_figure_db)
    return LinkTable(deployment.positions, word, params, gain, noise, radio.tx_power_dbm)


@lru_cache(maxsize=16)
def _radius_sq_by_exponent(slope: float, intercept: float) -> np.ndarray:
    """R**2 * (1 + 1e-9) of ``_may_be_live`` for each of the 2048 biased binary exponents; -1 where R < 0."""
    if slope <= 0.0:
        table = np.full(2048, np.inf)
    else:
        e = np.arange(-1022.0, 1026.0)  # frexp exponent of each biased exponent
        slack = 2.0**-48 * (abs(intercept) + 64.0)
        with np.errstate(over="ignore"):
            r = (intercept + (2.0 - e) * math.log(2.0) + slack) / slope
            table = np.where(r >= 0.0, r * r * (1.0 + 1e-9), -1.0)
    table.flags.writeable = False
    return table


def _may_be_live(d2: np.ndarray, u: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Mask over pairs with squared distances ``d2`` and uniforms ``u`` in [0, 1):
    False only where ``_visibility`` puts the pair in outage.

    Write s and c for the outage slope and intercept, E = fl(exp(c - s*d)),
    and 1 - u = m * 2**e with m in [1/2, 1). When E >= 1/2, E >= 2**(e - 2)
    since e <= 1. Otherwise a pair the exact test keeps has
    u >= fl(1 - E) >= 1/2, so 1 - u is exact, at least 2**-53, and at most
    E + 2**-54 <= E + (1 - u)/2; hence E >= (1 - u)/2 >= 2**(e - 2) again.
    For s > 0 that gives d <= R(u) = (c + (2 - e) ln 2 + slack)/s, the slack
    covering the rounding of c - s*d and of exp. A pair is kept when
    d2 <= R(u)**2 * (1 + 1e-9), the factor covering the rounding of d2 and
    of the distance the exact test runs on (sqrt(d2), or the hypot). e is
    read from the bits of 1 - u and indexes a table of R**2, so no pair
    needs a transcendental call.
    With (1 - e) the bound would drop u = 1 - 2**-53 for E in (2**-54, 2**-53),
    which fl(1 - E) rounds to u. With s <= 0 every pair is kept.
    """
    table = _radius_sq_by_exponent(params.outage_slope_per_m, params.outage_intercept)
    exponent = (1.0 - u).view(np.int64)
    exponent >>= 52  # 1 - u > 0, so the sign bit is 0 and this is the biased exponent
    return d2 <= table[exponent]


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat squared distances from each row of ``a`` to each row of ``b``, computed in place."""
    with np.errstate(over="ignore"):  # an infinite d2 is beyond any finite radius
        d2 = a[:, None, 0] - b[None, :, 0]
        d2 *= d2
        dy = a[:, None, 1] - b[None, :, 1]
        dy *= dy
        d2 += dy
    return d2.ravel()


def _child_rng(rng: np.random.Generator, layer: int) -> np.random.Generator:
    """Generator of the child ``layer`` of ``rng``'s seed sequence; ``rng`` is not advanced."""
    ss = rng.bit_generator.seed_seq
    return np.random.default_rng(
        np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, layer), pool_size=ss.pool_size)
    )


def associate_min_pathloss(
    ue_positions: np.ndarray,
    deployment: Deployment,
    params: ChannelParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Serving gNB per row of the (k, 2) ``ue_positions`` (lowest realized pathloss); -1 if all in outage.

    The draws come from the ``ASSOC_LAYER`` child stream of ``rng``, which is
    not advanced: a uniform for every pair, then the normals of the pairs not
    in outage. The UEs go in passes of whole rows, at most ``ASSOC_PASS_PAIRS``
    pairs each unless one row is wider; a pass draws its pairs' uniforms and
    keeps the index, distance and LOS flag of those not in outage, so only
    they are held across passes. The channel law runs only on the pairs
    ``_may_be_live`` keeps. Ties go to the lowest gNB id.
    """
    if len(ue_positions) == 0:
        return np.empty(0, dtype=np.int64)
    rng = _child_rng(rng, ASSOC_LAYER)
    gnb = deployment.positions
    n = len(gnb)  # at least 2: a deployment has a wired and a wireless gNB
    rows = max(1, ASSOC_PASS_PAIRS // n)
    passes = []  # per pass: its UE count, and its live pairs' index in the pass, distance and LOS flag
    for first in range(0, len(ue_positions), rows):
        ue = ue_positions[first : first + rows]
        u = rng.random(len(ue) * n)
        d2 = _squared_distances(ue, gnb)
        kept = _may_be_live(d2, u, params).nonzero()[0]
        d = np.sqrt(d2[kept])
        live, los = _visibility(d, u[kept], params)
        passes.append((len(ue), kept[live], d[live], los))
    count = sum(live.size for _, live, _, _ in passes)
    normals = rng.standard_normal((2 if params.fading_sigma_db > 0.0 else 1, count))  # shadowing, then fading
    serving, start = [], 0
    for size, live, d, los in passes:
        v = normals[:, start : start + live.size]
        start += live.size
        pathloss, shadowing = _budget(d, los, v[0], v[1] if len(v) > 1 else None, params)
        total = _spread(size * n, live, pathloss + shadowing, np.inf).reshape(size, n)
        best = np.argmin(total, axis=1)
        best[total[np.arange(size), best] == np.inf] = -1
        serving.append(best)
    return np.concatenate(serving)


def shannon_rate(bandwidth_hz: float, snr_db: float, n_attached: int) -> float:
    """Achievable rate in bit/s when the band is split across ``n_attached`` users."""
    if bandwidth_hz <= 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth_hz}")
    if snr_db == -math.inf:
        return 0.0
    share = bandwidth_hz / max(n_attached, 1)
    try:
        return share * math.log2(1.0 + 10.0 ** (snr_db / 10.0))
    except OverflowError:  # 10 ** (x / 10) passes the largest float: log2(1 + p) = log2(p) + log2(1 + 1/p)
        return share * (snr_db / 10.0 * math.log2(10.0) + math.log2(1.0 + 10.0 ** (-snr_db / 10.0)))
