"""Planar deployment sampling: Poisson drops, node roles and the origin relay.

All coordinates and distances are in meters; densities are in nodes per km^2.
Every sampling routine takes an explicit ``numpy.random.Generator`` so callers
own their streams and repetitions stay reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_number

# Redraws a conditioned sample may take before its law is judged unreachable.
MAX_REDRAWS = 10_000
# The largest mean numpy's Poisson sampler accepts (int64 max - 10 sqrt(int64 max)).
POISSON_MAX_MEAN = float(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))
# The origin's and PA's donor distances and MLR's Shannon rate are ranked on
# vectors, which numpy may round differently from ``math.hypot`` and
# ``shannon_rate`` in the last bits. The candidates within this relative margin
# of the best, plus a floor that covers subnormal results, are re-ranked on
# Python floats.
RERANK_MARGIN = 1e-12
RERANK_FLOOR = 1e-300


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangular deployment area."""

    width_m: float = 1000.0
    height_m: float = 1000.0

    def __post_init__(self):
        require_number("deployment.region_width_m", self.width_m, above=0)
        require_number("deployment.region_height_m", self.height_m, above=0)

    @property
    def area_km2(self) -> float:
        return self.width_m * self.height_m / 1e6


class GnbNode:
    """Write-through view of row ``id`` of ``Deployment.attached``.

    Campaigns read the deployment's arrays; ``Deployment.gnbs`` and these
    views remain only because the benchmark replay (``bench/layers.py``)
    stores each node's load through ``attached_count``.
    """

    __slots__ = ("_deployment", "id")

    def __init__(self, deployment: "Deployment", node_id: int):
        self._deployment = deployment
        self.id = node_id

    @property
    def attached_count(self) -> int:
        return int(self._deployment.attached[self.id])

    @attached_count.setter
    def attached_count(self, value: int) -> None:
        self._deployment.attached[self.id] = value


@dataclass(eq=False)
class Deployment:
    """One realized topology over a region, stored as arrays indexed by node id.

    Row i of ``positions`` (n, 2), ``wired`` (n,) and ``attached`` (n,)
    describes gNB i, so ids are also row indices into pairwise link matrices.
    ``attached`` counts the terminals each node serves (zeros unless user
    association filled it in); ``ue_positions`` (k, 2) holds the UE drop when
    one was kept, and no rows otherwise.
    """

    region: Region
    positions: np.ndarray
    wired: np.ndarray
    origin_id: int
    attached: np.ndarray | None = None
    ue_positions: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.wired = np.asarray(self.wired, dtype=bool)
        n = self.wired.size
        if self.positions.shape != (n, 2):
            raise ConfigError(f"positions must be an (n, 2) array for n = {n} gNBs")
        if self.attached is None:
            self.attached = np.zeros(n, dtype=np.int64)
        n_wired = int(self.wired.sum())
        if n_wired == 0 or n_wired == n:
            raise ConfigError("deployment needs at least one wired and one wireless gNB")
        if not 0 <= self.origin_id < n:
            raise IndexError(f"no gNB with id {self.origin_id} among {n}")
        if self.wired[self.origin_id]:
            raise ConfigError("origin must be a wireless gNB")

    @property
    def gnbs(self) -> list[GnbNode]:
        return [GnbNode(self, i) for i in range(self.n_gnbs)]

    @property
    def n_gnbs(self) -> int:
        return self.wired.size


def sample_ppp(density_per_km2: float, region: Region, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson scatter: Poisson(density * area) i.i.d. uniform points, as (k, 2)."""
    if density_per_km2 <= 0:
        raise ConfigError(f"density must be positive, got {density_per_km2} per km^2")
    count = int(rng.poisson(density_per_km2 * region.area_km2))
    xs = rng.uniform(0.0, region.width_m, count)
    ys = rng.uniform(0.0, region.height_m, count)
    return np.column_stack((xs, ys))


def _closest(ids: np.ndarray, positions: np.ndarray, point: np.ndarray) -> int:
    """The id among ``ids`` nearest to ``point``, lowest id on ties.

    Distances go through ``math.hypot``: ``np.hypot`` rounds some of them
    differently in the last bit, which can reorder near-ties.
    """
    dx, dy = (point - positions[ids]).T.tolist()
    return min(zip(map(math.hypot, dx, dy), ids.tolist()))[1]


def assign_roles(
    positions: np.ndarray,
    p_w: float,
    region: Region,
    rng: np.random.Generator,
    sectors: int = 3,
) -> Deployment:
    """Mark each node wired with probability ``p_w`` and pick the origin relay.

    Role vectors are redrawn until both a wired and a wireless node exist, at
    most ``MAX_REDRAWS`` times. Then one uniform per node, a sector rotation
    that no link reads, is taken from ``rng`` and dropped, which keeps the
    stream where it was; ``sectors`` is checked but unused, and stays only
    because the benchmark replay (``bench/layers.py``) passes it. The origin
    is the wireless node nearest the region center (lowest id on ties), which
    keeps evaluated paths away from the border.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.size == 0:
        raise ConfigError("cannot assign roles to an empty position list")
    if not 0.0 < p_w < 1.0:
        raise ConfigError(f"p_w must lie strictly in (0, 1), got {p_w}")
    if sectors < 1:
        raise ConfigError(f"sectors must be >= 1, got {sectors}")
    n = len(positions)
    if n < 2:
        raise ConfigError("need at least two gNBs to split into wired and wireless")

    for _ in range(MAX_REDRAWS):
        wired = rng.random(n) < p_w
        if 0 < int(wired.sum()) < n:
            break
    else:
        raise ConfigError(
            f"deployment.p_w = {p_w}: {MAX_REDRAWS} role draws over {n} gNBs "
            "gave no mix of wired and wireless nodes"
        )
    rng.random(n)  # the sector rotations: the same doubles as uniform(0, 2 pi, n)
    center = np.array((region.width_m / 2.0, region.height_m / 2.0))
    wireless = (~wired).nonzero()[0]
    dist = np.hypot(*(positions[wireless] - center).T)
    # the nodes within the re-rank margin of the nearest (and any NaN row); a near-tie is ranked by _closest
    near = wireless[~(dist > dist.min() * (1.0 + RERANK_MARGIN) + RERANK_FLOOR)]
    origin = int(near[0]) if near.size == 1 else _closest(near, positions, center)
    return Deployment(region, positions, wired, origin)
