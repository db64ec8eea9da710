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
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from enum import Enum

import numpy as np

from .channel import LinkTable, shannon_rate
from .errors import ConfigError, require_number
from .geometry import RERANK_FLOOR, RERANK_MARGIN, Deployment, _closest


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

    kind: WbfKind = WbfKind.NONE
    n_ht: int = 6
    k: float = 1.0
    gamma: float = 1.5
    gamma_gap_db: float = 5.0
    gamma_h_db: float = 2.0

    def __post_init__(self):
        require_number("wbf.n_ht", self.n_ht, integer=True, at_least=1)
        require_number("wbf.k", self.k, above=0)
        require_number("wbf.gamma", self.gamma, at_least=1)  # the bias must not decay with hops
        require_number("wbf.gamma_gap_db", self.gamma_gap_db, at_least=0)
        require_number("wbf.gamma_h_db", self.gamma_h_db, at_least=0)


WBF_NONE = WbfConfig()


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
    """Polynomial wired bias in dB after ``n_hops`` traveled hops."""
    return (n_hops / cfg.n_ht) ** cfg.k * cfg.gamma_gap_db + cfg.gamma_h_db


def wbf_exp(n_hops: int, cfg: WbfConfig) -> float:
    """Exponential wired bias in dB after ``n_hops`` traveled hops."""
    return cfg.gamma ** (n_hops / cfg.n_ht) * cfg.gamma_gap_db + cfg.gamma_h_db


def wired_bias_db(n_hops: int, cfg: WbfConfig) -> float:
    if cfg.kind == WbfKind.NONE:
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


def padded_rows(tables, rows: list[tuple[int, int]], width: int) -> np.ndarray:
    """The rows (world, node id), read as ``tables[world][id]``, as one matrix padded with -inf to ``width``."""
    snr = np.full((len(rows), width), -np.inf)
    for r, (w, i) in enumerate(rows):
        row = tables[w][i]
        snr[r, : row.size] = row
    return snr


def _check_origin(deployment: Deployment, origin_id: int) -> None:
    """Refuse a path origin outside the deployment (IndexError) or on a wired gNB (ValueError)."""
    if not 0 <= origin_id < deployment.n_gnbs:
        raise IndexError(f"no gNB with id {origin_id} among {deployment.n_gnbs}")
    if deployment.wired[origin_id]:
        raise ValueError("path origin must be a wireless gNB")


class WalkBlock:
    """Greedy walks over many worlds, stepped together one hop per round.

    Walk w starts at node ``origin[w]`` of ``worlds[world[w]]`` and follows
    ``policies[policy[w]]``, a (kind, wbf) pair. Each round, ``wanted`` names
    the distinct link-table rows (world, node id) that the walks still going
    stand on, and ``step`` reads them as ``tables[world][id]`` and moves each
    of those walks one hop:

    - the rows, padded with -inf to the widest world, form one matrix, and the
      admissible parents of every walk are the columns of its row whose raw
      SNR clears the threshold and that it has not visited (padding counts as
      visited); the rest of the round runs on these (walk, column) entries;
    - WF narrows a walk's pool to wired nodes, and PA to the nodes j ahead of
      its current node c toward the wired node t nearest c: those with
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
    ``length`` and ``final_bottleneck`` (NaN for a walk with no hop) describe
    every walk in the order given, and ``results`` builds their PathResults.
    """

    def __init__(self, worlds, policies, world, origin, policy, snr_threshold_db, max_hops, bandwidth_hz=400e6):
        self.worlds = worlds
        self.policies = policies
        self.threshold = snr_threshold_db
        self.max_hops = max_hops
        self.bandwidth_hz = bandwidth_hz
        # per node of the block, world by world: node j of world w is offset[w] + j
        sizes = np.array([d.n_gnbs for d in worlds])
        self.width = int(sizes.max())
        offset = sizes.cumsum() - sizes
        self.wired = np.concatenate([d.wired for d in worlds])
        # a walk visits distinct nodes, so it takes at most width - 1 hops
        hops = min(max_hops, self.width)
        self.bias, self.is_wf, self.is_pa, self.is_mlr = _policy_table(tuple(policies), hops)
        if self.is_mlr.any():
            self.share = bandwidth_hz / np.maximum(np.concatenate([d.attached for d in worlds]), 1)
            self.top_share = np.maximum.reduceat(self.share, offset)
        if self.is_pa.any():
            self.x, self.y = np.concatenate([d.positions for d in worlds]).T
            # column w: the wired nodes of world w in id order, padded with -1 at infinity
            donors = self.wired.nonzero()[0]
            counts = np.add.reduceat(self.wired, offset, dtype=np.intp)
            rank = np.arange(donors.size) - np.repeat(counts.cumsum() - counts, counts)
            at = (rank, np.repeat(np.arange(len(worlds)), counts))
            self.donor = np.full((counts.max(), len(worlds)), -1)
            self.donor[at] = donors
            self.donor_x, self.donor_y = np.full((2, counts.max(), len(worlds)), np.inf)
            self.donor_x[at], self.donor_y[at] = self.x[donors], self.y[donors]
        self.origin = np.asarray(origin, dtype=np.intp)
        self.walk_policy = np.asarray(policy, dtype=np.intp)
        count = self.origin.size
        self.trail = []  # per round: the ids of the walks that moved, and the nodes they moved to
        self.outcome = np.zeros(count, dtype=np.int8)
        self.length = np.zeros(count, dtype=np.intp)
        self.final_bottleneck = np.zeros(count)
        # the walks still going: rows id, world, first node of the world in the
        # block, current node and policy of ``state``; the columns each may still
        # visit; their bottlenecks
        world = np.asarray(world, dtype=np.intp)
        self.state = np.array((np.arange(count), world, offset[world], self.origin, self.walk_policy))
        self.open = np.arange(self.width) < sizes[world][:, None]
        self.open[self.state[0], self.origin] = False
        self.bottleneck = np.full(count, math.inf)
        self.hop = 0
        self._pending = None

    @property
    def going(self) -> bool:
        return self.state.shape[1] > 0

    def wanted(self) -> list[tuple[int, int]]:
        """(world, node id) of each distinct row the walks still going stand on."""
        if self._pending is None:
            _, world, base, current, _ = self.state
            node = base + current
            walks = np.arange(node.size)
            last = np.empty(self.wired.size, dtype=np.intp)
            last[node] = walks
            last = last[node]  # per walk, the last walk standing on its node
            distinct = (last == walks).nonzero()[0]
            rank = np.empty(node.size, dtype=np.intp)
            rank[distinct] = np.arange(distinct.size)
            rows = list(zip(world[distinct].tolist(), current[distinct].tolist()))
            self._pending = rows, rank[last]
        return self._pending[0]

    def step(self, tables) -> None:
        """Move every walk still going one hop, reading its row as ``tables[world][id]``."""
        self.wanted()
        rows, row_of = self._pending
        self._pending = None
        snr = padded_rows(tables, rows, self.width)
        # the admissible entries (walk, col), in walk order, then column order
        walk, col = ((snr >= self.threshold)[row_of] & self.open).nonzero()
        raw = snr[row_of[walk], col]
        ids, _, base, current, policies = self.state  # views of the state rows
        count = ids.size
        node = base[walk] + col
        wired = self.wired[node]
        policy = policies[walk]
        pa, mlr = self.is_pa[policies].nonzero()[0], self.is_mlr[policies].nonzero()[0]
        # Python floats overflow quietly; so do the vectors that stand for them
        with np.errstate(over="ignore", invalid="ignore") if pa.size or mlr.size else nullcontext():
            # the pool: WF keeps the wired entries and PA the forward ones, when there are any
            prefer = wired | ~self.is_wf[policy]
            if pa.size:
                entries = self.is_pa[policy].nonzero()[0]
                prefer[entries] = self._ahead(pa, walk[entries], node[entries])
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
                margin = RERANK_MARGIN * (top + self.top_share[self.state[1, mlr]]) + RERANK_FLOOR
                best[mlr] = np.where(top == np.inf, -np.inf, top - margin)
            tie = pool & (key >= best[walk])
        on_wired = tie & wired
        some[:] = False
        some[walk[on_wired]] = True
        final = (on_wired | (tie & ~some[walk])).nonzero()[0]
        pick = np.full(count, -1)
        pick[walk[final[::-1]]] = final[::-1]  # the first final entry of each walk
        if mlr.size:
            self._rerank(pick, mlr, walk, tie, value, wired, col)

        moves = (pick >= 0).nonzero()[0]
        entry = pick[moves]
        chosen, link = col[entry], raw[entry]
        held = self.bottleneck[moves]
        self.bottleneck[moves] = np.where(link < held, link, held)
        self.trail.append((ids[moves], chosen))
        self.open[moves, chosen] = False
        current[moves] = chosen
        self.hop += 1
        code = np.full(count, _NO_CANDIDATE, dtype=np.int8)
        code[moves] = np.where(wired[entry], _SUCCESS, _MAX_HOPS)
        done = code != _MAX_HOPS
        if self.hop == self.max_hops:
            done[:] = True
        if done.any():
            self._end(done, code[done])

    def _ahead(self, pa: np.ndarray, walk: np.ndarray, node: np.ndarray) -> np.ndarray:
        """Whether each entry (``walk``, ``node``) of the PA walks ``pa`` lies on the
        wired side of the perpendicular at the walk's node toward its nearest wired
        node (lowest id on ties); nothing is forward when the node shares that
        donor's position."""
        _, world, base, current, _ = self.state[:, pa]
        here = base + current
        cx, cy = self.x[here], self.y[here]
        dx, dy = self.donor_x[:, world] - cx, self.donor_y[:, world] - cy
        dist = np.hypot(dx, dy)
        near = dist <= dist.min(axis=0) * (1.0 + RERANK_MARGIN) + RERANK_FLOOR
        pick = near.argmax(axis=0)
        for r in (near.sum(axis=0) > 1).nonzero()[0].tolist():
            # a near-tie, or no donor at a finite distance: rank as geometry._closest does
            donors = self.donor[:, world[r]]
            positions = self.worlds[world[r]].positions
            closest = _closest(donors[near[:, r] & (donors >= 0)] - base[r], positions, positions[current[r]])
            pick[r] = (donors == base[r] + closest).argmax()
        which = np.searchsorted(pa, walk)
        at = np.arange(pa.size)
        cx, cy, ux, uy = cx[which], cy[which], dx[pick, at][which], dy[pick, at][which]
        return (self.x[node] - cx) * ux + (self.y[node] - cy) * uy > 0.0

    def _rerank(self, pick, mlr, walk, tie, value, wired, col) -> None:
        """Re-rank on Python floats, as ``shannon_rate`` ranks them, the MLR walks with
        more than one entry in ``tie``."""
        for w in mlr[np.bincount(walk[tie], minlength=pick.size)[mlr] > 1].tolist():
            entries = np.arange(*np.searchsorted(walk, (w, w + 1)))
            entries = entries[tie[entries]]
            loads = self.worlds[self.state[1, w]].attached[col[entries]]
            candidates = zip(entries.tolist(), value[entries].tolist(), wired[entries].tolist(), loads.tolist())
            # a walk's entries run in column order, so -entry ranks as -id does
            pick[w] = max(candidates, key=lambda c: (shannon_rate(self.bandwidth_hz, c[1], c[3]), c[2], -c[0]))[0]

    def _end(self, done, code) -> None:
        """Record the walks in ``done`` as ended with outcome ``code`` and drop them."""
        gone = self.state[0, done]
        self.outcome[gone] = code
        self.length[gone] = self.hop  # less the round that found no candidate, once all have ended
        self.final_bottleneck[gone] = self.bottleneck[done]
        keep = ~done
        self.state, self.open, self.bottleneck = self.state[:, keep], self.open[keep], self.bottleneck[keep]
        if not self.going:
            self.length -= self.outcome == _NO_CANDIDATE
            self.final_bottleneck[self.length == 0] = math.nan

    def results(self) -> list[PathResult]:
        """The PathResult of every walk, in the order they were given; all must have ended."""
        path = np.zeros((self.origin.size, self.hop), dtype=np.intp)
        for hop, (ids, nodes) in enumerate(self.trail):
            path[ids, hop] = nodes
        return [
            PathResult(
                origin_id=origin,
                hops=tuple(nodes[:length]),
                bottleneck_snr_db=bottleneck,
                outcome=_OUTCOMES[code],
                policy=self.policies[p][0],
                wbf=self.policies[p][1],
            )
            for origin, p, nodes, length, bottleneck, code in zip(
                self.origin.tolist(),
                self.walk_policy.tolist(),
                path.tolist(),
                self.length.tolist(),
                self.final_bottleneck.tolist(),
                self.outcome.tolist(),
            )
        ]


def build_path(
    origin_id: int,
    policy: PolicyKind,
    wbf: WbfConfig,
    deployment: Deployment,
    link_snr_db: LinkTable | np.ndarray,
    snr_threshold_db: float,
    max_hops: int = 30,
    bandwidth_hz: float = 400e6,
) -> PathResult:
    """Iterate a selection policy from ``origin_id`` until a wired donor is reached.

    The traveled hop count fed to the bias starts at 0 for the first selection.
    Terminates with SUCCESS on choosing a wired node, NO_CANDIDATE when no
    admissible parent remains, or MAX_HOPS. ``link_snr_db`` is read one row
    at a time, as ``link_snr_db[i]``: a ``LinkTable`` or an (n, n) array.
    The walk is a ``WalkBlock`` of one.
    """
    _check_origin(deployment, origin_id)
    if max_hops < 1:
        raise ConfigError(f"max_hops must be >= 1, got {max_hops}")
    block = WalkBlock([deployment], [(policy, wbf)], [0], [origin_id], [0], snr_threshold_db, max_hops, bandwidth_hz)
    while block.going:
        block.step([link_snr_db])
    return block.results()[0]
