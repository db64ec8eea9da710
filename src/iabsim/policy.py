"""Hop-by-hop backhaul parent selection: one selection kernel with a per-policy key.

The greedy rules highest-quality-first (HQF), wired-first (WF),
position-aware (PA) and maximum-local-rate (MLR) differ only in how a node
ranks its admissible parents. Every hop admits the unvisited nodes whose raw
link SNR clears the threshold and takes the one with the highest key, ties
going to wired nodes and then to the lowest id. Wired donors may be ranked
with an additive dB bonus that grows with the number of hops already
traveled (the wired bias). The bias alters ranking only; link feasibility is
always judged on the raw SNR.

``WalkBlock`` is the one walk implementation: it steps many walks, over many
worlds, as arrays, one hop per round, and ``build_path`` runs a block of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from enum import Enum

import numpy as np

from .channel import LinkTable, _one_world_store, shannon_rate
from .errors import ConfigError, check_params, param, require_number, require_number_or_inf
from .geometry import RERANK_FLOOR, RERANK_MARGIN, Deployment, _nearest, _origin_id, _padded_ids


class WbfKind(Enum):
    NONE = "none"
    POLYNOMIAL = "polynomial"
    EXPONENTIAL = "exponential"


class PolicyKind(Enum):
    HQF = "HQF"
    WF = "WF"
    PA = "PA"
    MLR = "MLR"


class PathOutcome(Enum):
    SUCCESS = "success"
    NO_CANDIDATE = "no_candidate"
    MAX_HOPS = "max_hops"


@dataclass(frozen=True)
class WbfConfig:
    """Wired-bias shape and parameters.

    Polynomial bias: (n / n_ht)^k * gamma_gap_db + gamma_h_db.
    Exponential bias: gamma^(n / n_ht) * gamma_gap_db + gamma_h_db.
    ``n_ht`` is the hop-count threshold at which the polynomial bias reaches
    the full SNR gap; ``gamma_h_db`` is a hysteresis nudging ties toward a
    wired donor.
    """

    kind: WbfKind = param("wbf.kind", WbfKind.NONE)
    n_ht: int = param("wbf.n_ht", 6, integer=True, at_least=1)
    k: float = param("wbf.k", 1.0, above=0)
    gamma: float = param("wbf.gamma", 1.5, at_least=1)  # the bias must not decay with hops
    gamma_gap_db: float = param("wbf.gamma_gap_db", 5.0, at_least=0)
    gamma_h_db: float = param("wbf.gamma_h_db", 2.0, at_least=0)

    def __post_init__(self):
        check_params(self)


WBF_PRESETS: dict[str, WbfConfig] = {
    "none": WbfConfig(),
    "aggressive_poly": WbfConfig(WbfKind.POLYNOMIAL, n_ht=1, k=3.0, gamma_gap_db=15.0, gamma_h_db=2.0),
    "conservative_poly": WbfConfig(WbfKind.POLYNOMIAL, n_ht=6, k=1.0, gamma_gap_db=5.0, gamma_h_db=2.0),
    "aggressive_exp": WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=3.0, gamma_gap_db=15.0, gamma_h_db=2.0),
    "conservative_exp": WbfConfig(WbfKind.EXPONENTIAL, n_ht=6, gamma=1.5, gamma_gap_db=5.0, gamma_h_db=2.0),
}


def _label_number(value: float) -> str:
    """``value`` as ``:g`` prints it when that is exact and has no '+'; otherwise its
    shortest round-trip form without the '+'. ``float`` of either gives ``value``
    back, so the numbers of an automatic label fix it, and it stays a legal label."""
    text = f"{value:g}"
    if "+" in text or float(text) != value:
        text = repr(float(value)).replace("+", "")
    return text


def _wbf_label(wbf: WbfConfig) -> str:
    """The suffix of a policy's automatic label: the preset's name, or the bias's shape and
    numbers, and none for no bias."""
    for name, preset in WBF_PRESETS.items():
        if wbf == preset and name != "none":
            return name
    if wbf.kind == WbfKind.NONE:
        return ""
    shape = "poly" if wbf.kind == WbfKind.POLYNOMIAL else "exp"
    knob = f"k{_label_number(wbf.k)}" if wbf.kind == WbfKind.POLYNOMIAL else f"g{_label_number(wbf.gamma)}"
    return f"{shape}_nht{wbf.n_ht}_{knob}_gap{_label_number(wbf.gamma_gap_db)}_h{_label_number(wbf.gamma_h_db)}"


@dataclass(frozen=True)
class PathResult:
    """Outcome of one path construction.

    ``hops`` lists the chosen node ids in order; the last entry is a wired
    donor iff the outcome is SUCCESS. ``bottleneck_snr_db`` is the minimum raw
    SNR over the traversed links (NaN when no link was traversed).
    """

    origin_id: int
    hops: tuple[int, ...]
    bottleneck_snr_db: float
    outcome: PathOutcome
    policy: PolicyKind | None
    wbf: WbfConfig | None

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def success(self) -> bool:
        return self.outcome == PathOutcome.SUCCESS


def wbf_poly(n_hops: int, cfg: WbfConfig) -> float:
    """Polynomial wired bias in dB after ``n_hops`` traveled hops, an integer >= 0."""
    require_number("n_hops", n_hops, integer=True, at_least=0)
    return (n_hops / cfg.n_ht) ** cfg.k * cfg.gamma_gap_db + cfg.gamma_h_db


def wbf_exp(n_hops: int, cfg: WbfConfig) -> float:
    """Exponential wired bias in dB after ``n_hops`` traveled hops, an integer >= 0."""
    require_number("n_hops", n_hops, integer=True, at_least=0)
    return cfg.gamma ** (n_hops / cfg.n_ht) * cfg.gamma_gap_db + cfg.gamma_h_db


def wired_bias_db(n_hops: int, cfg: WbfConfig) -> float:
    """The wired bias of ``cfg`` in dB after ``n_hops`` traveled hops, an integer >= 0."""
    if cfg.kind == WbfKind.NONE:
        require_number("n_hops", n_hops, integer=True, at_least=0)
        return 0.0
    if cfg.kind == WbfKind.POLYNOMIAL:
        return wbf_poly(n_hops, cfg)
    return wbf_exp(n_hops, cfg)


_SUCCESS, _NO_CANDIDATE, _MAX_HOPS = range(3)  # outcome codes: the index in PathOutcome
_OUTCOMES = tuple(PathOutcome)


@lru_cache(maxsize=64)
def _policy_table(policies: tuple[tuple[PolicyKind, WbfConfig], ...], hops: int):
    """Per (kind, wbf): the wired bias added after 0, 1, ..., hops - 1 hops (none
    for WF), and whether the kind is WF, PA and MLR."""
    bias = np.array(
        [[0.0 if kind == PolicyKind.WF else wired_bias_db(n, wbf) for n in range(hops)] for kind, wbf in policies]
    )
    kinds = [kind for kind, _ in policies]
    tables = (bias, *(np.array([kind == k for kind in kinds]) for k in (PolicyKind.WF, PolicyKind.PA, PolicyKind.MLR)))
    for table in tables:
        table.flags.writeable = False  # shared by every block of these policies
    return tables


def vector_rates(share: np.ndarray, snr_db: np.ndarray) -> np.ndarray:
    """``shannon_rate`` on arrays: ``share`` is the bandwidth over max(load, 1)."""
    with np.errstate(over="ignore"):
        power = 10.0 ** (snr_db / 10.0)
        rate = np.log2(1.0 + power)
        over = np.isinf(power)
        if over.any():  # 10 ** (x / 10) passes the largest float: log2(1 + p) = log2(p) + log2(1 + 1/p)
            rate[over] = snr_db[over] / 10.0 * math.log2(10.0) + np.log2(1.0 + 10.0 ** (-snr_db[over] / 10.0))
        return share * rate


class WalkBlock:
    """Greedy walks over many worlds, stepped together one hop per round.

    Walk w starts at node ``origin[w]`` of world ``world[w]`` of ``store``, the
    ``RowStore`` of the block, and follows ``policies[policy[w]]``, a (kind,
    wbf) pair. The store holds the worlds' nodes and link rows; the block holds
    its walks' ``world``, ``policy``, ``outcome``, ``length`` and ``bottleneck``
    by walk id, and only ``ids`` (the walks still going), ``at`` (the block node
    each of them stands on) and ``open`` shrink as walks end. Each round,
    ``step`` gets the distinct rows of ``at`` and the index of each walk's row
    among them (``_lockstep`` reads them from the store for every kernel at
    once), and moves each of those walks one hop:

    - the admissible parents of every walk are the columns of its row whose
      raw SNR clears the threshold and that it has not visited (padding
      counts as visited), a bool gather through the index; the rest of the
      round runs on these (walk, column) entries, whose raw SNR is read by
      index, so no walk holds a float row of its own;
    - WF narrows a walk's pool to wired nodes, and PA to the nodes j ahead of
      its current node c toward the wired node t nearest c (``_nearest``): those with
      (p_j - p_c) . (p_t - p_c) > 0, so a node on the perpendicular is not
      ahead. Either narrows only when that leaves a candidate;
    - the key is the raw SNR plus, on wired nodes, the bias of the walk's
      policy at the current hop (every walk still going has taken ``hop``
      hops), and for MLR the Shannon rate of that over the node's load;
    - the (key, wired, -id) maximum is taken in four steps: the max per walk,
      the entries equal to it, the wired ones among them if any, and the first.

    MLR's rate and PA's nearest donor are ranked on vectors within
    ``RERANK_MARGIN``, and a walk with more than one candidate in that margin
    re-ranks them as ``shannon_rate`` and ``geometry._closest`` do. HQF, WF
    and the half-plane test are plain sums and products, which numpy rounds as
    Python does, so every walk takes the hops of a walk on Python floats.

    When no walk is going, ``outcome`` (codes in ``PathOutcome`` order),
    ``length`` and ``bottleneck`` (NaN for a walk with no hop) describe every
    walk in the order given, and ``results`` builds their PathResults.
    """

    def __init__(self, store, policies, world, origin, policy, snr_threshold_db, max_hops, bandwidth_hz):
        self.store = store
        self.policies = policies
        self.threshold = snr_threshold_db
        self.max_hops = max_hops
        self.bandwidth_hz = bandwidth_hz
        # a walk visits distinct nodes, so it takes at most width - 1 hops
        hops = min(max_hops, store.width)
        self.bias, self.is_wf, self.is_pa, self.is_mlr = _policy_table(tuple(policies), hops)
        if self.is_mlr.any():
            self.share = bandwidth_hz / np.maximum(store.attached, 1)
            self.top_share = np.maximum.reduceat(self.share, store.offset)
        if self.is_pa.any():
            self.donors = _padded_ids(store.wired, store.offset)
        self.world = np.asarray(world, dtype=np.intp)
        self.origin = np.asarray(origin, dtype=np.intp)
        self.policy = np.asarray(policy, dtype=np.intp)
        count = self.origin.size
        self.outcome = np.zeros(count, dtype=np.int8)
        self.length = np.zeros(count, dtype=np.intp)
        self.bottleneck = np.full(count, math.inf)
        self.trail = []  # per round: the ids of the walks that moved, and the nodes they moved to
        # the walks still going, the block node each stands on, and the columns each may still visit
        self.ids, self.at = np.arange(count), store.offset[self.world] + self.origin
        self.open = np.arange(store.width) < store.sizes[self.world][:, None]
        self.open[self.ids, self.origin] = False
        self.hop = 0

    def step(self, rows: np.ndarray, index: np.ndarray) -> None:
        """Move every walk still going one hop: walk ``ids[k]`` stands on row ``index[k]`` of ``rows``."""
        ids = self.ids
        world, policies = self.world[ids], self.policy[ids]
        # the admissible entries (walk, col), in walk order, then column order
        walk, col = ((rows >= self.threshold)[index] & self.open).nonzero()
        raw = rows[index[walk], col]
        count = ids.size
        node = self.store.offset[world][walk] + col
        wired = self.store.wired[node]
        policy = policies[walk]
        pa, mlr = self.is_pa[policies].nonzero()[0], self.is_mlr[policies].nonzero()[0]
        # Python floats overflow quietly; so do the vectors that stand for them
        with np.errstate(over="ignore", invalid="ignore"):
            # the pool: WF keeps the wired entries and PA the forward ones, when there are any
            prefer = wired | ~self.is_wf[policy]
            if pa.size:
                entries = self.is_pa[policy].nonzero()[0]
                which = np.searchsorted(pa, walk[entries])
                prefer[entries] = self._ahead(world[pa], self.at[pa], which, node[entries])
            some = np.zeros(count, dtype=bool)
            some[walk[prefer]] = True
            pool = prefer | ~some[walk]
            value = np.where(wired, raw + self.bias[policy, self.hop], raw)
            key = np.where(pool, value, -np.inf)
            if mlr.size:
                rated = (self.is_mlr[policy] & pool).nonzero()[0]
                key[rated] = vector_rates(self.share[node[rated]], value[rated])
            # the (key, wired, -id) maximum: the best key, the entries at it, the wired ones
            # among them if any, and the first; MLR keeps every rate within the margin of its
            # best, and its whole pool when the best rate is infinite
            best = np.full(count, -np.inf)
            np.maximum.at(best, walk, key)
            if mlr.size:
                top = best[mlr]
                margin = RERANK_MARGIN * (top + self.top_share[world[mlr]]) + RERANK_FLOOR
                best[mlr] = np.where(top == np.inf, -np.inf, top - margin)
            tie = pool & (key >= best[walk])
        on_wired = tie & wired
        some[:] = False
        some[walk[on_wired]] = True
        final = (on_wired | (tie & ~some[walk])).nonzero()[0]
        lead = walk[final]  # in walk order: the first final entry of each walk is where ``lead`` changes
        final = final[lead != np.concatenate(([-1], lead[:-1]))]
        pick = np.full(count, -1)
        pick[walk[final]] = final
        if mlr.size:
            self._rerank(pick, mlr, walk, tie, value, wired, node)

        moves = (pick >= 0).nonzero()[0]
        entry = pick[moves]
        moved, chosen, link = ids[moves], col[entry], raw[entry]
        held = self.bottleneck[moved]
        self.bottleneck[moved] = np.where(link < held, link, held)
        self.at[moves] = node[entry]
        self.trail.append((moved, chosen))
        self.open[moves, chosen] = False
        self.hop += 1
        code = np.full(count, _NO_CANDIDATE, dtype=np.int8)
        code[moves] = np.where(wired[entry], _SUCCESS, _MAX_HOPS)
        done = code != _MAX_HOPS
        if self.hop == self.max_hops:
            done[:] = True
        if done.any():
            self._end(done, code[done])

    def _ahead(self, world: np.ndarray, at: np.ndarray, which: np.ndarray, node: np.ndarray) -> np.ndarray:
        """Whether each block node ``node[e]`` lies ahead of the walk standing on block node
        ``at[which[e]]`` of world ``world[which[e]]``: on the wired side of the perpendicular at
        that node toward its nearest wired node (``geometry._nearest``); nothing is ahead when
        the node shares that donor's position."""
        positions = self.store.positions
        here = positions[at]
        toward = positions[_nearest(self.donors[world], positions, here)] - here
        step, toward = positions[node] - here[which], toward[which]
        return step[:, 0] * toward[:, 0] + step[:, 1] * toward[:, 1] > 0.0

    def _rerank(self, pick, mlr, walk, tie, value, wired, node) -> None:
        """Re-rank on Python floats, as ``shannon_rate`` ranks them, the MLR walks with
        more than one entry in ``tie``."""
        for w in mlr[np.bincount(walk[tie], minlength=pick.size)[mlr] > 1].tolist():
            entries = np.arange(*np.searchsorted(walk, (w, w + 1)))
            entries = entries[tie[entries]]
            loads = self.store.attached[node[entries]]
            candidates = zip(entries.tolist(), value[entries].tolist(), wired[entries].tolist(), loads.tolist())
            # a walk's entries run in column order, so -entry ranks as -id does
            pick[w] = max(candidates, key=lambda c: (shannon_rate(self.bandwidth_hz, c[1], c[3]), c[2], -c[0]))[0]

    def _end(self, done, code) -> None:
        """Record the walks still going at ``done`` as ended with outcome ``code`` and drop them."""
        gone = self.ids[done]
        self.outcome[gone] = code
        self.length[gone] = self.hop  # less the round that found no candidate, once all have ended
        keep = ~done
        self.ids, self.at, self.open = self.ids[keep], self.at[keep], self.open[keep]
        if not self.ids.size:
            self.length -= self.outcome == _NO_CANDIDATE
            self.bottleneck[self.length == 0] = math.nan

    def results(self) -> list[PathResult]:
        """The PathResult of every walk, in the order they were given; all must have ended."""
        path = np.zeros((self.origin.size, self.hop), dtype=np.intp)
        for hop, (ids, nodes) in enumerate(self.trail):
            path[ids, hop] = nodes
        return [
            PathResult(origin, tuple(nodes[:length]), bottleneck, _OUTCOMES[code], *self.policies[p])
            for origin, p, nodes, length, bottleneck, code in zip(
                self.origin.tolist(),
                self.policy.tolist(),
                path.tolist(),
                self.length.tolist(),
                self.bottleneck.tolist(),
                self.outcome.tolist(),
            )
        ]


def _lockstep(blocks) -> None:
    """Step ``blocks`` (``WalkBlock``s and ``OracleBlock``s of one store) together until all have
    ended. Each round makes one ``RowStore.read`` of the block nodes ``at`` of every kernel still
    going, so a row that several kernels stand on is read, and hashed, once; each kernel then steps
    on its slice of the index that read returns, cut by the sizes of ``at`` taken before any step,
    as a step shrinks its own ``at``. A row's bits do not depend on when it is read, so neither
    does any kernel's result."""
    store = blocks[0].store
    while going := [block for block in blocks if block.at.size]:
        bounds = np.cumsum([0] + [block.at.size for block in going]).tolist()
        rows, index = store.read(np.concatenate([block.at for block in going]))
        for block, start, stop in zip(going, bounds, bounds[1:]):
            block.step(rows, index[start:stop])


def build_path(
    origin_id: int,
    policy: PolicyKind,
    wbf: WbfConfig,
    deployment: Deployment,
    link_snr_db: LinkTable | np.ndarray,
    snr_threshold_db: float,
    *,
    max_hops: int,
    bandwidth_hz: float,
) -> PathResult:
    """Iterate a selection policy from ``origin_id`` until a wired donor is reached.

    The traveled hop count fed to the bias starts at 0 for the first selection.
    Terminates with SUCCESS on choosing a wired node, NO_CANDIDATE when no
    admissible parent remains, or MAX_HOPS. ``link_snr_db``, a ``LinkTable``
    or an (n, n) array, is read through a ``RowStore`` of one world, and the
    walk is a ``WalkBlock`` of one. A ``policy`` or ``wbf`` of another type, a
    threshold that is NaN or no number, and a bandwidth that is not finite and
    > 0 get a ConfigError naming the argument.
    """
    for name, value, kind in (("policy", policy, PolicyKind), ("wbf", wbf, WbfConfig)):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
    origin_id = _origin_id(origin_id, deployment.wired)
    require_number_or_inf("snr_threshold_db", snr_threshold_db)
    require_number("max_hops", max_hops, integer=True, at_least=1)
    require_number("bandwidth_hz", bandwidth_hz, above=0)
    store = _one_world_store(deployment, link_snr_db)
    block = WalkBlock(store, [(policy, wbf)], [0], [origin_id], [0], snr_threshold_db, int(max_hops), bandwidth_hz)
    _lockstep([block])
    return block.results()[0]
