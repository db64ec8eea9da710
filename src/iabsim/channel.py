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
end, whenever and beside whatever other rows they are evaluated: a block's
``RowStore`` hashes and evaluates a row only when it is first read, and a
row's bits do not depend on when that is. UE association draws from a child
stream of the repetition's seed sequence, so running or skipping it leaves
the repetition generator where it was: a uniform for every UE-gNB pair, then
a shadowing normal (and a fading normal) for each pair that is not in
outage, in pair order. A block associates the UEs of all its worlds at once
(``_associate``), in passes that hold whole worlds' UE rows; a world wider
than a pass goes in passes of whole rows of its own. ``_passes`` plans these
passes and the hashed passes over link rows by one rule. Each world draws its
pairs' uniforms, and after its last pass its normals, from its own stream,
which gives the same numbers as one draw per world for all its pairs. The
outage law runs only on the pairs that a squared-distance bound
(``_may_be_live``) cannot rule out. A campaign block derives its repetition
and association generators many at a time with ``streams.spawned_rngs``, bit
for bit numpy's SeedSequence streams, and the slot keys of all its words in
one pass. The one-world calls (``link_table``, ``associate_min_pathloss``)
are blocks of one: a ``LinkTable`` reads through a ``RowStore`` of its one
world, which reads that world's own arrays.
"""
from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, check_params, key_of, param, require_number, require_number_or_inf
from .geometry import Deployment

THERMAL_NOISE_DBM_PER_HZ = -174.0
# The layout of the random draws described above; a campaign's numbers depend on it.
STREAM_SCHEMA = 2
# SplitMix64's state increment (the odd integer nearest 2**64 / golden ratio) and its two mixing multipliers.
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
# Hash slots of a gNB pair: visibility, shadowing (two), and fading (two) when it is on.
_SLOTS, _SLOTS_WITH_FADING = 3, 5
# Spawn-key tag of the UE association's child stream (ASCII "asoc").
ASSOC_LAYER = 0x61736F63
# The most pairs one hashed pass over link-table rows takes; it caps the pass's
# temporaries, and the bits of a row do not depend on it.
PASS_PAIRS = 4096
# Link rows a ``RowStore`` makes room for per world up front: 2.7-4.1 are read
# on the benchmark workloads, so a store seldom grows (by doubling), and rows
# it never writes are never touched, so they take no resident memory.
ROWS_KEPT = 6
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

    bandwidth_hz: float = param("radio.B_hz", 400e6, above=0)
    tx_power_dbm: float = param("radio.ptx_dbm", 30.0)
    noise_figure_db: float = param("radio.nf_db", 5.0)
    array_elements: int = param("radio.M", 64, integer=True, at_least=1)
    sectors: int = param("radio.S", 3, integer=True, at_least=1)
    snr_threshold_db: float = param("radio.gamma_th_db", 5.0)

    def __post_init__(self):
        check_params(self)
        root = math.isqrt(int(self.array_elements))
        if root * root != self.array_elements:
            raise ConfigError(
                f"{key_of(self, 'array_elements')} must be a perfect square (planar array), got {self.array_elements}"
            )


@dataclass(frozen=True)
class ChannelParams:
    """Large-scale constants for 28 GHz urban links; every field is overridable.

    Pathloss follows alpha + 10*exponent*log10(d) per visibility state, with
    zero-mean Gaussian shadowing of the given sigma. The outage probability is
    max(0, 1 - exp(-slope*d + intercept)) and the LOS share of the remainder
    decays as exp(-los_decay*d). ``fading_sigma_db`` > 0 adds one extra
    lognormal perturbation per link (off by default). The sigmas and the LOS
    decay must be >= 0; the outage slope and the exponents may be negative.
    """

    los_alpha_db: float = param("channel.los_alpha_db", 61.4)
    los_exponent: float = param("channel.los_exponent", 2.0)
    los_sigma_db: float = param("channel.los_sigma_db", 5.8, at_least=0)
    nlos_alpha_db: float = param("channel.nlos_alpha_db", 72.0)
    nlos_exponent: float = param("channel.nlos_exponent", 2.92)
    nlos_sigma_db: float = param("channel.nlos_sigma_db", 8.7, at_least=0)
    outage_slope_per_m: float = param("channel.outage_slope_per_m", 1.0 / 30.0)
    outage_intercept: float = param("channel.outage_intercept", 5.2)
    los_decay_per_m: float = param("channel.los_decay_per_m", 1.0 / 67.1, at_least=0)
    fading_sigma_db: float = param("channel.fading_sigma_db", 0.0, at_least=0)

    def __post_init__(self):
        check_params(self)


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise floor: -174 dBm/Hz + 10*log10(B) + NF, for a finite B > 0 and a finite NF."""
    require_number("bandwidth_hz", bandwidth_hz, above=0)
    require_number("noise_figure_db", noise_figure_db)
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def _outage_probability(d: np.ndarray, params: ChannelParams) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.exp(-params.outage_slope_per_m * d + params.outage_intercept))


def _los_probability(d: np.ndarray, p_out: np.ndarray, params: ChannelParams) -> np.ndarray:
    return (1.0 - p_out) * np.exp(-params.los_decay_per_m * d)


def los_probabilities(d_m, params: ChannelParams = ChannelParams()):
    """Closed-form (P_LOS, P_NLOS, P_OUTAGE) at distance ``d_m`` (scalar or array), each >= 0 and
    finite or +inf. A bool or a string is no distance, alone or in a list or array."""
    kind = d_m.dtype.kind if isinstance(d_m, np.ndarray) else "O"  # objects are looked at one by one
    if kind in "bSU" or kind == "O" and any(
        isinstance(x, (bool, np.bool_, str, bytes)) for x in np.asarray(d_m, dtype=object).flat
    ):
        raise ConfigError(f"d_m must be a number of meters or an array of them, not bools or strings, got {d_m!r}")
    d = np.asarray(d_m, dtype=float)
    nearest = float(d.min()) if d.size else 0.0  # NaN when any distance is NaN
    if nearest != math.inf:
        require_number("d_m", nearest, at_least=0)
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


_GAMMA_U64, _MIX_1_U64, _MIX_2_U64 = np.uint64(_GOLDEN_GAMMA), np.uint64(_MIX_1), np.uint64(_MIX_2)
_SHIFTS = tuple(np.uint64(b) for b in (30, 27, 31, 11))


def _splitmix64(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """SplitMix64 outputs for the states keys + counters * gamma, broadcast, on uint64 arrays;
    the arithmetic wraps modulo 2**64, as SplitMix64's does."""
    s30, s27, s31, _ = _SHIFTS
    z = counters * _GAMMA_U64
    z = z + keys
    z ^= z >> s30
    z *= _MIX_1_U64
    z ^= z >> s27
    z *= _MIX_2_U64
    z ^= z >> s31
    return z


def _slot_keys(words, slots: int) -> np.ndarray:
    """(slots, len(words)) uint64 keys, or (slots, 1) for one word: column w holds the first
    ``slots`` outputs of a SplitMix64 stream seeded with ``words[w]``, all in one pass."""
    return _splitmix64(np.asarray(words, dtype=np.uint64), np.arange(1, slots + 1, dtype=np.uint64)[:, None])


def _slot_count(params: ChannelParams) -> int:
    """The hash slots of a gNB pair under ``params``."""
    return _SLOTS_WITH_FADING if params.fading_sigma_db > 0.0 else _SLOTS


def _hashed_uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """(slots, m) uniforms in [0, 1) with 53 bits: SplitMix64 of keys[s] + counters[c] * gamma.

    ``keys`` is a (slots, 1) uint64 column, or (slots, m), and ``counters`` a uint64 vector.
    """
    z = _splitmix64(keys, counters)
    z >>= _SHIFTS[3]
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


def _evaluate(law, positions: np.ndarray, a, b, keys: np.ndarray, counters: np.ndarray):
    """Channel, under the channel ``law`` (params, gain_dbi, noise_dbm, tx_power_dbm), of the pairs
    (a, b) of rows of ``positions`` whose slots s are hashed from ``keys[s]``, a (slots, pairs) array
    (a broadcast view when the pairs share their keys), at ``counters`` (flat index + 1, uint64).

    Slot 0 is hashed for every pair, and the shadowing and fading slots only
    for the pairs not in outage: each draw is keyed by its slot and counter,
    so these are the bits that hashing every slot gives. Returns (distance,
    live, los, pathloss, shadowing, snr); ``live`` holds the positions of the
    pairs not in outage, and the last four are given for those pairs only.
    The distance does not depend on which end comes first, to the bit:
    x[b] - x[a] is exactly -(x[a] - x[b]).
    """
    params, gain_dbi, noise_dbm, tx_power_dbm = law
    x, y = positions.T
    with np.errstate(over="ignore"):  # as in ``_screen``: a difference beyond the float range is +inf away
        d = np.hypot(x[a] - x[b], y[a] - y[b])
    live, los = _visibility(d, _hashed_uniforms(keys[:1], counters)[0], params)
    v = _hashed_uniforms(keys[1:].take(live, axis=1), counters[live])
    normals = _box_muller(v[0::2], v[1::2])  # shadowing, then fading when it is on
    fading = normals[1] if len(normals) > 1 else None
    pathloss, shadowing = _budget(d[live], los, normals[0], fading, params)
    snr = tx_power_dbm + gain_dbi + gain_dbi - pathloss - shadowing - noise_dbm
    return d, live, los, pathloss, shadowing, snr


class LinkTable:
    """Shared channel realization for all gNB pairs of one ``deployment``, which it keeps.

    ``table[i]`` is row i of the symmetric SNR matrix in dB, with -inf on the
    diagonal and on outage pairs, read through ``store``, the ``RowStore`` of
    this one world, which reads the deployment's own arrays: a row is hashed
    and evaluated when first read, by ``table[i]``, ``build_path`` or
    ``widest_path_oracle``, and held after. ``snr`` is the whole (n, n)
    matrix. It and the flat per-pair arrays (upper triangle, ``src < dst``),
    with the store's channel law (``params``, ``gain_dbi``, ``noise_dbm``,
    ``tx_power_dbm``), retain every budget component for auditing the
    link-budget identity; reading any array evaluates every pair once.
    """

    def __init__(self, deployment: Deployment, store: "RowStore"):
        self.deployment, self.store = deployment, store
        self.positions, self.n = deployment.positions, deployment.n_gnbs
        self.params, self.gain_dbi, self.noise_dbm, self.tx_power_dbm = store.law

    def __getitem__(self, i: int) -> np.ndarray:
        if isinstance(i, bool):
            raise TypeError(f"a link table row is read by an integer node id, got {i!r}")
        i = operator.index(i)
        if not 0 <= i < self.n:
            raise IndexError(f"node id {i} is outside a table of {self.n} gNBs")
        rows, _ = self.store.read(np.array([i]))
        return rows[0]

    @cached_property
    def _whole(self) -> dict[str, np.ndarray]:
        """Every pair evaluated once: the (n, n) matrix and the flat upper-triangle arrays."""
        n = self.n
        src, dst = np.triu_indices(n, k=1)
        counters = np.arange(1, src.size + 1, dtype=np.uint64)
        store = self.store
        keys = np.broadcast_to(store.keys, (len(store.keys), src.size))
        d, live, los, pathloss, shadowing, snr = _evaluate(store.law, self.positions, src, dst, keys, counters)
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


def _passes(pairs, bound: int):
    """The passes, as (start, stop), over items of ``pairs[i]`` pairs each, in order: a pass takes the
    next whole items while their pairs stay within ``bound``, and at least one item."""
    ends = np.cumsum(pairs).tolist()
    start = 0
    while start < len(ends):
        stop = max(start + 1, bisect.bisect_right(ends, (ends[start - 1] if start else 0) + bound))
        yield start, stop
        start = stop


class RowStore:
    """A block of worlds: their nodes, and their link rows padded with -inf to the widest world.

    World w has ``sizes[w]`` gNBs and origin ``origin[w]``, and its node j is node ``offset[w] + j``
    of the block, which indexes ``positions``, ``wired`` and ``attached``; the store keeps these
    arrays as given. It holds no row until it is read, and then hashes and evaluates it under the
    channel ``law`` (params, gain_dbi, noise_dbm, tx_power_dbm) from the slot keys of world w's
    64-bit link word ``words[w]``, column w of ``keys``: a campaign block samples its worlds into
    one, and a ``LinkTable`` reads through one of its world. ``RowStore.held`` holds the rows of
    arrays from the start. ``slot`` gives each node's row in ``rows`` (-1 while unread), which
    makes room for ``ROWS_KEPT`` rows per world and then grows geometrically: the store writes only
    the rows read.
    """

    def __init__(self, sizes, positions, wired, attached, origin, words, law):
        self._nodes(sizes, positions, wired, attached, origin)
        self.keys, self.law, self.count = _slot_keys(words, _slot_count(law[0])), law, 0
        self.slot = np.full(int(sizes.sum()), -1)
        self.rows = np.empty((ROWS_KEPT * sizes.size, self.width))

    @classmethod
    def held(cls, worlds, mats) -> "RowStore":
        """The store of the ``Deployment``s ``worlds`` whose rows are the (n, n) arrays ``mats``, held
        from the start: one world's arrays and rows are read in place, several worlds' joined once."""
        for d, mat in zip(worlds, mats):
            n, shape = d.n_gnbs, np.shape(mat)
            if shape != (n, n):
                raise ValueError(f"a world of {n} gNBs needs an ({n}, {n}) link table, got one of shape {shape}")
        positions, wired, attached = (
            getattr(worlds[0], name) if len(worlds) == 1 else np.concatenate([getattr(d, name) for d in worlds])
            for name in ("positions", "wired", "attached")
        )
        store = cls.__new__(cls)
        sizes = np.array([d.n_gnbs for d in worlds], dtype=np.intp)
        store._nodes(sizes, positions, wired, attached, [d.origin_id for d in worlds])
        store.count = int(sizes.sum())
        store.slot = np.arange(store.count)
        if len(mats) == 1:
            store.rows = np.asarray(mats[0], dtype=float)
        else:
            store.rows = np.full((store.count, store.width), -np.inf)
            for start, n, mat in zip(store.offset.tolist(), sizes.tolist(), mats):
                store.rows[start : start + n, :n] = mat
        return store

    def _nodes(self, sizes, positions, wired, attached, origin) -> None:
        self.sizes, self.positions, self.wired, self.attached, self.origin = sizes, positions, wired, attached, origin
        self.width = int(sizes.max())
        self.offset = sizes.cumsum() - sizes

    def read(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the block nodes ``at`` (unchecked: ``LinkTable[i]`` checks the ids it is given),
        each distinct row once and padded, in block node order, and the index of each entry's row
        among them. The distinct rows not held yet go through hashed passes of whole rows that
        ``_passes`` plans, each of at most ``PASS_PAIRS`` pairs (or one row, when wider), so one read
        for every kernel of a round hashes all their missing rows together."""
        # distinct nodes; a plain np.unique would import numpy.ma (about 15 ms) in every new pool worker
        seen = np.zeros(self.slot.size, dtype=bool)
        seen[at] = True
        distinct = seen.nonzero()[0]
        slot = self.slot[distinct]
        missing = distinct[slot < 0]
        if missing.size:
            first, self.count = self.count, self.count + missing.size
            if self.count > len(self.rows):
                rows = np.empty((max(self.count, 2 * len(self.rows)), self.width))
                rows[:first] = self.rows[:first]
                self.rows = rows
            self.rows[first : self.count] = -np.inf
            self.slot[missing] = np.arange(first, self.count)
            pairs = self.sizes[np.searchsorted(self.offset, missing, side="right") - 1] - 1
            for start, stop in _passes(pairs, PASS_PAIRS):
                self._pass(missing[start:stop])
            slot = self.slot[distinct]
        return self.rows.take(slot, axis=0), distinct.searchsorted(at)

    def _pass(self, at: np.ndarray) -> None:
        """One hashed pass over the rows of the block nodes ``at``, into their slots. The pair (i, j)
        of an n-node world takes counter c[min(i, j)] + max(i, j), where c[a] = a(2n - a - 3)/2
        puts the pair (a, b), a < b, at its flat upper-triangle index + 1: it draws what any read
        draws. a(2n - a - 3) is even, so the halving is a shift."""
        world = np.searchsorted(self.offset, at, side="right") - 1
        base, n = self.offset[world], self.sizes[world]
        keys = np.repeat(self.keys[:, world], n - 1, axis=1)
        ends = (n - 1).cumsum()  # row r has the n - 1 pairs [ends[r] - n + 1, ends[r])
        cell = self.slot[at] * self.width  # the flat index of each row's first column in ``rows``
        i, m, base, cell, start = np.repeat((at - base, 2 * n - 3, base, cell, ends - n + 1), n - 1, axis=1)
        j = np.arange(i.size) - start
        j += j >= i  # skip the row's own column
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        counters = ((lo * (m - lo) >> 1) + hi).view(np.uint64)
        _, live, _, _, _, snr = _evaluate(self.law, self.positions, base + j, base + i, keys, counters)
        self.rows.reshape(-1)[(cell + j)[live]] = snr


def _one_world_store(deployment: Deployment, link_snr_db) -> RowStore:
    """A ``RowStore`` of ``deployment`` and its table ``link_snr_db``: the one a ``LinkTable`` keeps, so
    the rows any call reads are evaluated once, or one holding an (n, n) array's rows. A LinkTable is
    read only with the deployment it was built on, while that holds the arrays its store reads."""
    if not isinstance(link_snr_db, LinkTable):
        return RowStore.held([deployment], [link_snr_db])
    store, names = link_snr_db.store, ("positions", "wired", "attached")
    if link_snr_db.deployment is not deployment or any(getattr(store, a) is not getattr(deployment, a) for a in names):
        raise ValueError("a link table is read with the deployment it was built on")
    return store


def _channel_law(radio: RadioConfig, params: ChannelParams) -> tuple:
    """The constants a link's SNR takes: (params, gain_dbi, noise_dbm, tx_power_dbm)."""
    # Steering is ideal, so both endpoint gains sit at the coherent peak.
    gain = 10.0 * math.log10(radio.array_elements)
    noise = noise_power_dbm(radio.bandwidth_hz, radio.noise_figure_db)
    return params, gain, noise, radio.tx_power_dbm


def link_table(
    deployment: Deployment,
    radio: RadioConfig,
    params: ChannelParams,
    rng: np.random.Generator,
) -> LinkTable:
    """The pairwise link realization of one repetition, keyed by one 64-bit word of ``rng``.

    Nothing else is drawn: a row's pairs are hashed when the row is read, through a store of this
    one world that reads the deployment's own arrays.
    """
    d, words = deployment, np.array([rng.bit_generator.random_raw()], dtype=np.uint64)
    sizes, law = np.array([d.n_gnbs], dtype=np.intp), _channel_law(radio, params)
    return LinkTable(d, RowStore(sizes, d.positions, d.wired, d.attached, [d.origin_id], words, law))


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


def _child_rng(rng: np.random.Generator, layer: int) -> np.random.Generator:
    """Generator of the child ``layer`` of ``rng``'s seed sequence; ``rng`` is not advanced."""
    ss = rng.bit_generator.seed_seq
    return np.random.default_rng(
        np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, layer), pool_size=ss.pool_size)
    )


def _screen(ues, gnbs, offset: list[int], sizes: list[int], drawn, streams, params: ChannelParams):
    """The pairs not in outage of one pass: each (world w, first row, rows) of ``drawn`` pairs those
    UE rows of ``ues`` in turn with its ``sizes[w]`` gNBs, rows ``offset[w]`` on of ``gnbs``, and
    draws their uniforms from ``streams[w]``. Returns the pass's first UE row, the first pair of
    each row, and the index, distance and LOS flag of each pair not in outage, and their count per
    world of ``drawn``, all in pair order."""
    width = np.repeat([sizes[w] for w, _, _ in drawn], [rows for _, _, rows in drawn])  # the pairs of each row
    starts = width.cumsum()
    pairs = int(starts[-1])
    starts -= width
    d2, dy, u = np.empty(pairs), np.empty(pairs), np.empty(pairs)
    at, ends = 0, []
    with np.errstate(over="ignore"):  # an infinite distance, squared or not, is beyond any finite radius
        for w, row, rows in drawn:
            if rows:  # a world with no UE has no pair and no stream
                ue, gnb, n = ues[row : row + rows], gnbs[offset[w] : offset[w] + sizes[w]], sizes[w]
                block = slice(at, at + rows * n)
                np.subtract(ue[:, None, 0], gnb[None, :, 0], out=d2[block].reshape(rows, n))
                np.subtract(ue[:, None, 1], gnb[None, :, 1], out=dy[block].reshape(rows, n))
                streams[w].random(out=u[block])
                at = block.stop
            ends.append(at)
        d2 *= d2
        dy *= dy
        d2 += dy
        del dy
        kept = _may_be_live(d2, u, params).nonzero()[0]
        d = np.sqrt(d2[kept])
        far = (~np.isfinite(d)).nonzero()[0]
        if far.size:  # the square overflowed: the hypot of the differences, as a link row takes it
            pair = kept[far]
            row = np.searchsorted(starts, pair, side="right") - 1
            base = np.repeat([offset[w] for w, _, _ in drawn], [rows for _, _, rows in drawn])  # per UE row: its first gNB
            gnb = base[row] + pair - starts[row]
            d[far] = np.hypot(*(ues[drawn[0][1] + row] - gnbs[gnb]).T)
    live, los = _visibility(d, u[kept], params)
    pair = kept[live]
    ends = np.searchsorted(pair, ends).tolist()
    counts = [(w, stop - start) for (w, _, _), start, stop in zip(drawn, [0] + ends, ends)]
    return drawn[0][1], starts, pair, d[live], los, counts


def _serve(serving, held, streams, params: ChannelParams) -> None:
    """Fill ``serving`` for the UE rows of the passes ``held``, as ``_screen`` returns them, which
    end their last world, from their pairs not in outage. Each world first draws the normals of all
    its pairs from ``streams[world]``. A UE is served by the pair of the lowest total pathloss among
    its pairs not in outage, a segment minimum, and by the first of them (the lowest gNB id) when
    several reach it; by none when that minimum is not finite, NaN included, as in ``np.min``."""
    normals = np.empty((2 if params.fading_sigma_db > 0.0 else 1, sum(p[2].size for p in held)))
    merged = {}  # live pairs per world, in world order
    for *_, counts in held:
        for w, count in counts:
            merged[w] = merged.get(w, 0) + count
    at = 0
    for w, count in merged.items():
        if count:
            for row in normals:  # shadowing, then fading
                streams[w].standard_normal(out=row[at : at + count])
            at += count
    at = 0
    for first, starts, pair, d, los, _ in held:
        v = normals[:, at : at + pair.size]
        at += pair.size
        pathloss, shadowing = _budget(d, los, v[0], v[1] if len(v) > 1 else None, params)
        total = pathloss + shadowing
        row = np.searchsorted(starts, pair, side="right") - 1
        best = np.full(starts.size, np.inf)
        np.minimum.at(best, row, total)
        hit = (total == best[row]).nonzero()[0]
        lead = row[hit]  # in row order: the first pair of each row at its minimum is where ``lead`` changes
        hit = hit[lead != np.concatenate(([-1], lead[:-1]))]
        served = np.full(starts.size, -1)
        served[row[hit]] = pair[hit] - starts[row[hit]]
        served[~np.isfinite(best)] = -1
        serving[first : first + starts.size] = served


def _associate(ues, ue_sizes, gnbs, sizes, params: ChannelParams, streams) -> np.ndarray:
    """Serving gNB of each UE of a block of worlds: its id in its world, or -1 if all pairs are in outage.

    World w has ``ue_sizes[w]`` UEs and ``sizes[w]`` gNBs, rows of ``ues`` and ``gnbs`` in world
    order, and draws from ``streams[w]`` (read only when it has UEs) a uniform for each of its pairs
    in row-major order, then the normals of its pairs not in outage. ``_passes`` plans the passes:
    whole worlds by their pairs within ``ASSOC_PASS_PAIRS``, each served after its pass, and a
    wider world alone, in passes of whole rows planned the same way, which keep only the index,
    distance and LOS flag of their pairs not in outage until the world is served after its last.
    The channel law runs only on the pairs ``_may_be_live`` keeps. Ties go to the lowest gNB id.
    """
    sizes, ue_sizes = [int(n) for n in sizes], [int(k) for k in ue_sizes]
    offset, row = np.cumsum([0] + sizes).tolist(), np.cumsum([0] + ue_sizes).tolist()
    serving = np.empty(row[-1], dtype=np.intp)
    bound = ASSOC_PASS_PAIRS
    for first, last in _passes([k * n for k, n in zip(ue_sizes, sizes)], bound):
        k, n = ue_sizes[first], sizes[first]
        if k * n > bound:  # a world alone, in passes of whole rows
            parts = [[(first, row[first] + a, b - a)] for a, b in _passes([n] * k, bound)]
        elif row[first] < row[last]:
            parts = [[(w, row[w], ue_sizes[w]) for w in range(first, last)]]
        else:
            continue  # no UE
        _serve(serving, [_screen(ues, gnbs, offset, sizes, part, streams, params) for part in parts], streams, params)
    return serving


def associate_min_pathloss(
    ue_positions: np.ndarray,
    deployment: Deployment,
    params: ChannelParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Serving gNB per row of the (k, 2) ``ue_positions`` (lowest realized pathloss); -1 if all in outage.

    A block of one world for ``_associate``. The draws come from the ``ASSOC_LAYER``
    child stream of ``rng``, which is not advanced: a uniform for every pair, then
    the normals of the pairs not in outage. Ties go to the lowest gNB id.
    """
    if len(ue_positions) == 0:
        return np.empty(0, dtype=np.int64)
    ues = np.asarray(ue_positions, dtype=float)
    if ues.ndim != 2 or ues.shape[1] != 2:
        raise ConfigError(f"UE positions must be a (k, 2) array, got one of shape {ues.shape}")
    child = _child_rng(rng, ASSOC_LAYER)
    return _associate(ues, [len(ues)], deployment.positions, [deployment.n_gnbs], params, [child])


def shannon_rate(bandwidth_hz: float, snr_db: float, n_attached: int) -> float:
    """Achievable rate in bit/s when the band, finite and > 0, is split across ``n_attached`` users,
    an integer >= 0, at an SNR that is a number or +-inf (0 at -inf)."""
    require_number("bandwidth_hz", bandwidth_hz, above=0)
    require_number_or_inf("snr_db", snr_db)
    require_number("n_attached", n_attached, integer=True, at_least=0)
    if snr_db == -math.inf:
        return 0.0
    share = bandwidth_hz / max(n_attached, 1)
    try:
        return share * math.log2(1.0 + 10.0 ** (snr_db / 10.0))
    except OverflowError:  # 10 ** (x / 10) passes the largest float: log2(1 + p) = log2(p) + log2(1 + 1/p)
        return share * (snr_db / 10.0 * math.log2(10.0) + math.log2(1.0 + 10.0 ** (-snr_db / 10.0)))
