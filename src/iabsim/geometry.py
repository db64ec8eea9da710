"""Planar deployment sampling and the spatial predicates used by path selection.

All coordinates and distances are in meters; densities are in nodes per km^2.
Every sampling routine takes an explicit ``numpy.random.Generator`` so callers
own their streams and repetitions stay reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_number

TWO_PI = 2.0 * math.pi
# Redraws a conditioned sample may take before its law is judged unreachable.
MAX_REDRAWS = 10_000
# The largest mean numpy's Poisson sampler accepts (int64 max - 10 sqrt(int64 max)).
POISSON_MAX_MEAN = float(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))


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

    @property
    def center(self) -> "Position":
        return Position(self.width_m / 2.0, self.height_m / 2.0)


@dataclass(frozen=True)
class Position:
    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


class GnbNode:
    """View of row ``id`` of a deployment's arrays: one wired donor or wireless relay.

    Views are made on demand by :meth:`Deployment.node` and
    :attr:`Deployment.gnbs`; setting ``attached_count`` (the number of
    terminals the node serves) writes into ``Deployment.attached``.
    """

    __slots__ = ("_deployment", "id")

    def __init__(self, deployment: "Deployment", node_id: int):
        self._deployment = deployment
        self.id = node_id

    @property
    def position(self) -> Position:
        return Position(*self._deployment.positions[self.id].tolist())

    @property
    def is_wired(self) -> bool:
        return bool(self._deployment.wired[self.id])

    @property
    def sector_boresights(self) -> tuple[float, ...]:
        return tuple(self._deployment.sector_boresights[self.id].tolist())

    @property
    def attached_count(self) -> int:
        return int(self._deployment.attached[self.id])

    @attached_count.setter
    def attached_count(self, value: int) -> None:
        self._deployment.attached[self.id] = value


@dataclass(eq=False)
class Deployment:
    """One realized topology over a region, stored as arrays indexed by node id.

    Row i of ``positions`` (n, 2), ``wired`` (n,), ``attached`` (n,) and
    ``sector_boresights`` (n, S) describes gNB i, so ids are also row indices
    into pairwise link matrices. ``attached`` counts the terminals each node
    serves (zeros unless user association filled it in); ``ue_positions`` is
    (k, 2).
    """

    region: Region
    positions: np.ndarray
    wired: np.ndarray
    origin_id: int
    attached: np.ndarray | None = None
    sector_boresights: np.ndarray | None = None
    ue_positions: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.wired = np.asarray(self.wired, dtype=bool)
        n = self.wired.size
        if self.positions.shape != (n, 2):
            raise ConfigError(f"positions must be an (n, 2) array for n = {n} gNBs")
        if self.attached is None:
            self.attached = np.zeros(n, dtype=np.int64)
        if self.sector_boresights is None:
            self.sector_boresights = np.zeros((n, 1))
        n_wired = int(self.wired.sum())
        if n_wired == 0 or n_wired == n:
            raise ConfigError("deployment needs at least one wired and one wireless gNB")
        if self.node(self.origin_id).is_wired:
            raise ConfigError("origin must be a wireless gNB")

    def node(self, node_id: int) -> GnbNode:
        if not 0 <= node_id < self.n_gnbs:
            raise IndexError(f"no gNB with id {node_id} among {self.n_gnbs}")
        return GnbNode(self, node_id)

    @property
    def gnbs(self) -> list[GnbNode]:
        return [GnbNode(self, i) for i in range(self.n_gnbs)]

    @property
    def n_gnbs(self) -> int:
        return self.wired.size

    @property
    def wired_ids(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.wired).tolist())


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
    most ``MAX_REDRAWS`` times. Each node gets ``sectors`` evenly spaced
    boresights sharing one uniform random rotation. The origin is the wireless
    node nearest the region center (lowest id on ties), which keeps evaluated
    paths away from the border.
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
    offsets = rng.uniform(0.0, TWO_PI, n)
    boresights = (offsets[:, None] + TWO_PI * np.arange(sectors) / sectors) % TWO_PI
    center = np.array((region.width_m / 2.0, region.height_m / 2.0))
    origin = _closest((~wired).nonzero()[0], positions, center)
    return Deployment(region, positions, wired, origin, sector_boresights=boresights)


def nearest_wired(node_id: int, deployment: Deployment) -> int:
    """Id of the wired gNB closest to ``node_id`` (lowest id on ties)."""
    wired = deployment.wired.nonzero()[0]
    if wired.size == 0:
        raise ValueError("deployment has no wired gNB")
    return _closest(wired, deployment.positions, deployment.positions[node_id])


def half_plane_filter(current, wired_target, points) -> list[bool]:
    """Per point (x, y), whether it lies strictly on the wired side of the perpendicular at ``current``.

    Point j is kept iff (p_j - p_current) . (p_wired - p_current) > 0; points
    exactly on the dividing line are dropped. Takes coordinate pairs, e.g. the
    rows of ``positions[ids].tolist()``: per point, plain float arithmetic is
    cheaper than array calls on the few candidates of one hop.
    """
    cx, cy = current
    ux = wired_target[0] - cx
    uy = wired_target[1] - cy
    if ux == 0.0 and uy == 0.0:
        raise ValueError("wired_target must differ from current position")
    return [(x - cx) * ux + (y - cy) * uy > 0.0 for x, y in points]
