"""Hop-by-hop backhaul parent selection.

Four greedy rules are implemented: highest-quality-first (HQF), wired-first
(WF), position-aware (PA) and maximum-local-rate (MLR). All of them admit a
candidate only if its raw link SNR clears the threshold, never revisit a node,
and may rank wired donors with an additive dB bonus that grows with the number
of hops already traveled (the wired bias). The bias alters ranking only; link
feasibility is always judged on the raw SNR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import shannon_rate
from .errors import ConfigError
from .geometry import Deployment, half_plane_filter, nearest_wired


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
        if self.n_ht < 1:
            raise ConfigError(f"wbf.n_ht must be >= 1, got {self.n_ht}")
        if self.k <= 0:
            raise ConfigError(f"wbf.k must be positive, got {self.k}")
        if self.gamma < 1.0:
            raise ConfigError(
                f"wbf.gamma must be >= 1 (the bias must not decay with hops), got {self.gamma}"
            )
        if self.gamma_gap_db < 0 or self.gamma_h_db < 0:
            raise ConfigError("wbf.gamma_gap_db and wbf.gamma_h_db must be >= 0")


WBF_NONE = WbfConfig()


@dataclass(frozen=True)
class Candidate:
    """One admissible next hop as seen from the current node."""

    node_id: int
    raw_snr_db: float
    is_wired: bool
    attached_count: int


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


def biased_metric(candidate: Candidate, n_hops: int, wbf: WbfConfig) -> float:
    """Ranking metric: raw SNR, plus the wired bias for wired candidates."""
    if candidate.is_wired and wbf.kind != WbfKind.NONE:
        return candidate.raw_snr_db + wired_bias_db(n_hops, wbf)
    return candidate.raw_snr_db


def candidate_set(
    current_id: int,
    deployment: Deployment,
    link_snr_db: np.ndarray,
    visited: set[int],
    snr_threshold_db: float,
) -> list[Candidate]:
    """Admissible parents of ``current_id``: unvisited nodes at or above threshold.

    Returned in ascending id order for determinism.
    """
    row = link_snr_db[current_id]
    ids = (row >= snr_threshold_db).nonzero()[0]
    columns = zip(
        ids.tolist(), row[ids].tolist(), deployment.wired[ids].tolist(), deployment.attached[ids].tolist()
    )
    return [Candidate(*c) for c in columns if c[0] != current_id and c[0] not in visited]


def _argbest(candidates: list[Candidate], metric) -> int:
    """Highest metric; ties go to wired candidates, then to the lowest id."""
    best = max(candidates, key=lambda c: (metric(c), c.is_wired, -c.node_id))
    return best.node_id


def select_hqf(candidates: list[Candidate], n_hops: int, wbf: WbfConfig) -> int:
    """Pick the candidate with the highest (bias-adjusted) SNR."""
    if not candidates:
        raise ValueError("select_hqf needs a nonempty candidate set")
    return _argbest(candidates, lambda c: biased_metric(c, n_hops, wbf))


def select_wf(candidates: list[Candidate], n_hops: int, wbf: WbfConfig) -> int:
    """Pick a wired donor whenever one is admissible, otherwise fall back to HQF.

    With several wired donors in reach, take the one with the highest raw SNR.
    """
    if not candidates:
        raise ValueError("select_wf needs a nonempty candidate set")
    wired = [c for c in candidates if c.is_wired]
    if wired:
        return max(wired, key=lambda c: (c.raw_snr_db, -c.node_id)).node_id
    return select_hqf(candidates, n_hops, wbf)


def select_pa(
    current_id: int,
    candidates: list[Candidate],
    deployment: Deployment,
    n_hops: int,
    wbf: WbfConfig,
) -> int:
    """HQF restricted to candidates on the wired side of the current node.

    The dividing line is perpendicular to the segment toward the nearest wired
    donor. If no candidate makes forward progress, selection falls back to
    plain HQF over the full set rather than failing; so it does when the
    current node shares its donor's position, where no direction is forward.
    """
    if not candidates:
        raise ValueError("select_pa needs a nonempty candidate set")
    pos = deployment.positions
    current = pos[current_id].tolist()
    target = pos[nearest_wired(current_id, deployment)].tolist()
    forward = []
    if current != target:
        keep = half_plane_filter(current, target, pos[[c.node_id for c in candidates]].tolist())
        forward = [c for c, kept in zip(candidates, keep) if kept]
    return select_hqf(forward or candidates, n_hops, wbf)


def select_mlr(
    candidates: list[Candidate],
    bandwidth_hz: float,
    n_hops: int,
    wbf: WbfConfig,
) -> int:
    """Pick the candidate with the highest achievable share of the Shannon rate.

    Each candidate's band is split across its attached terminals; the wired
    bias (if any) is applied to the SNR before the rate computation.
    """
    if not candidates:
        raise ValueError("select_mlr needs a nonempty candidate set")
    return _argbest(
        candidates,
        lambda c: shannon_rate(bandwidth_hz, biased_metric(c, n_hops, wbf), c.attached_count),
    )


def build_path(
    origin_id: int,
    policy: PolicyKind,
    wbf: WbfConfig,
    deployment: Deployment,
    link_snr_db: np.ndarray,
    snr_threshold_db: float,
    max_hops: int = 30,
    bandwidth_hz: float = 400e6,
) -> PathResult:
    """Iterate a selection policy from ``origin_id`` until a wired donor is reached.

    The traveled hop count fed to the bias starts at 0 for the first selection.
    Terminates with SUCCESS on choosing a wired node, NO_CANDIDATE when no
    admissible parent remains, or MAX_HOPS.
    """
    if deployment.node(origin_id).is_wired:
        raise ValueError("path origin must be a wireless gNB")
    if max_hops < 1:
        raise ConfigError(f"max_hops must be >= 1, got {max_hops}")

    visited = {origin_id}
    hops: list[int] = []
    bottleneck = math.inf
    current = origin_id
    n_hops = 0
    outcome = PathOutcome.MAX_HOPS
    while n_hops < max_hops:
        candidates = candidate_set(current, deployment, link_snr_db, visited, snr_threshold_db)
        if not candidates:
            outcome = PathOutcome.NO_CANDIDATE
            break
        if policy == PolicyKind.HQF:
            chosen = select_hqf(candidates, n_hops, wbf)
        elif policy == PolicyKind.WF:
            chosen = select_wf(candidates, n_hops, wbf)
        elif policy == PolicyKind.PA:
            chosen = select_pa(current, candidates, deployment, n_hops, wbf)
        else:
            chosen = select_mlr(candidates, bandwidth_hz, n_hops, wbf)
        hops.append(chosen)
        visited.add(chosen)
        bottleneck = min(bottleneck, float(link_snr_db[current, chosen]))
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
