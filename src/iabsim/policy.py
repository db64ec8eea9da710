"""Hop-by-hop backhaul parent selection: one ranking kernel with a per-policy key.

The greedy rules highest-quality-first (HQF), wired-first (WF),
position-aware (PA) and maximum-local-rate (MLR) differ only in how a node
ranks its admissible parents. Every hop admits the unvisited nodes whose raw
link SNR clears the threshold and takes the one with the highest key. Wired
donors may be ranked with an additive dB bonus that grows with the number of
hops already traveled (the wired bias). The bias alters ranking only; link
feasibility is always judged on the raw SNR.
"""
from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import LinkTable, shannon_rate
from .errors import ConfigError, require_number
from .geometry import Deployment, _closest, half_plane_filter


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


def _ranking_key(policy: PolicyKind, wbf: WbfConfig, n_hops: int, bandwidth_hz: float):
    """The key a hop maximises over candidates ``(id, raw SNR, wired, load)``.

    HQF and PA rank by the biased SNR and MLR by the Shannon rate of the
    biased SNR split across the node's load; ties go to wired nodes, then to
    the lowest id. WF ranks wired nodes first, by raw SNR: with no wired node
    in reach no bias applies and the wired flag is constant, which is HQF.
    The rate is computed on Python floats: a vectorized log2/power may round
    differently and flip near-ties.
    """
    bias = wired_bias_db(n_hops, wbf)
    if policy == PolicyKind.WF:
        return lambda c: (c[2], c[1], -c[0])
    if policy == PolicyKind.MLR:
        return lambda c: (shannon_rate(bandwidth_hz, c[1] + bias if c[2] else c[1], c[3]), c[2], -c[0])
    return lambda c: (c[1] + bias if c[2] else c[1], c[2], -c[0])


def _forward(current_id: int, candidates: list[tuple], deployment: Deployment, wired: np.ndarray) -> list[tuple]:
    """PA's pool: the candidates on the wired side of the current node.

    The dividing line is perpendicular to the segment toward the nearest of
    the ``wired`` ids (lowest id on ties). Empty when the current node shares
    its donor's position, where no direction is forward.
    """
    pos = deployment.positions
    current = pos[current_id].tolist()
    target = pos[_closest(wired, pos, pos[current_id])].tolist()
    if current == target:
        return []
    keep = half_plane_filter(current, target, pos[[c[0] for c in candidates]].tolist())
    return [c for c, kept in zip(candidates, keep) if kept]


def read_rows(
    steps: Generator[int, np.ndarray, PathResult], link_snr_db: LinkTable | np.ndarray
) -> PathResult:
    """Run a row-reading generator to its result, sending ``link_snr_db[i]`` for each id i it yields."""
    try:
        i = next(steps)
        while True:
            i = steps.send(link_snr_db[i])
    except StopIteration as stop:
        return stop.value


def path_steps(
    origin_id: int,
    policy: PolicyKind,
    wbf: WbfConfig,
    deployment: Deployment,
    snr_threshold_db: float,
    max_hops: int = 30,
    bandwidth_hz: float = 400e6,
) -> Generator[int, np.ndarray, PathResult]:
    """``build_path``'s walk as a generator: it yields the id of each row of the
    link table it reads, is sent that row, and returns the PathResult.
    """
    if deployment.node(origin_id).is_wired:
        raise ValueError("path origin must be a wireless gNB")
    if max_hops < 1:
        raise ConfigError(f"max_hops must be >= 1, got {max_hops}")
    wired = deployment.wired.nonzero()[0] if policy == PolicyKind.PA else None  # PA's donors

    visited = {origin_id}
    hops: list[int] = []
    bottleneck = math.inf
    current = origin_id
    n_hops = 0
    outcome = PathOutcome.MAX_HOPS
    while n_hops < max_hops:
        row = yield current
        ids = (row >= snr_threshold_db).nonzero()[0]
        columns = zip(
            ids.tolist(), row[ids].tolist(), deployment.wired[ids].tolist(), deployment.attached[ids].tolist()
        )
        candidates = [c for c in columns if c[0] not in visited]
        if not candidates:
            outcome = PathOutcome.NO_CANDIDATE
            break
        # PA falls back to the full set when nothing makes forward progress
        pool = (policy == PolicyKind.PA and _forward(current, candidates, deployment, wired)) or candidates
        chosen = max(pool, key=_ranking_key(policy, wbf, n_hops, bandwidth_hz))[0]
        hops.append(chosen)
        visited.add(chosen)
        bottleneck = min(bottleneck, float(row[chosen]))
        current = chosen
        n_hops += 1
        if deployment.wired[chosen]:
            outcome = PathOutcome.SUCCESS
            break
    return PathResult(
        origin_id=origin_id,
        hops=tuple(hops),
        bottleneck_snr_db=bottleneck if hops else math.nan,
        outcome=outcome,
        policy=policy,
        wbf=wbf,
    )


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
    """
    steps = path_steps(origin_id, policy, wbf, deployment, snr_threshold_db, max_hops, bandwidth_hz)
    return read_rows(steps, link_snr_db)
