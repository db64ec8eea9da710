"""Planar deployment sampling: Poisson drops, node roles and the origin relay.

All coordinates and distances are in meters; densities are in nodes per km^2.
Every sampling routine takes an explicit ``numpy.random.Generator`` so callers
own their streams and repetitions stay reproducible. One rule, ``_nearest``,
picks both the origin relay and the wired donor a PA walk heads for.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_params, param, require_number

# Redraws a conditioned sample may take before its law is judged unreachable.
MAX_REDRAWS = 10_000
# The most gNBs or UEs a drop may expect (density times region area). A drop
# holds its positions and a link-table row one entry per gNB; UE association
# runs in bounded passes but keeps one entry per UE-gNB pair not in outage
# (every pair when the outage slope is <= 0), so far larger counts fail on
# allocation; the cap also lies far below the largest mean numpy's Poisson
# sampler takes (about 9.2e18).
MAX_EXPECTED_NODES = 1e6
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

    width_m: float = param("deployment.region_width_m", 1000.0, above=0)
    height_m: float = param("deployment.region_height_m", 1000.0, above=0)

    def __post_init__(self):
        check_params(self)

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
        self.origin_id = _origin_id(self.origin_id, self.wired)

    @property
    def gnbs(self) -> list[GnbNode]:
        return [GnbNode(self, i) for i in range(self.n_gnbs)]

    @property
    def n_gnbs(self) -> int:
        return self.wired.size


def _origin_id(origin_id, wired: np.ndarray) -> int:
    """``origin_id`` as an int, among the nodes with the ``wired`` flags. An origin that is not an
    integer (a bool included) gets a ConfigError naming ``origin_id``, one outside the nodes an
    IndexError, and one on a wired node a ConfigError."""
    require_number("origin_id", origin_id, integer=True)
    origin_id = int(origin_id)
    if not 0 <= origin_id < wired.size:
        raise IndexError(f"no gNB with id {origin_id} among {wired.size}")
    if wired[origin_id]:
        raise ConfigError("origin must be a wireless gNB")
    return origin_id


def _expected_nodes(key: str, density: float, region: Region) -> float:
    """The expected node count of ``density`` per km^2 over ``region``; a ConfigError names ``key``
    when it passes ``MAX_EXPECTED_NODES``."""
    expected = density * region.area_km2  # inf when the area overflows
    if not expected <= MAX_EXPECTED_NODES:
        raise ConfigError(
            f"{key} times the region area gives {expected:.4g} expected nodes, "
            f"beyond the cap of {MAX_EXPECTED_NODES:.4g}"
        )
    return expected


def _ppp_draws(mean: float, rng: np.random.Generator) -> np.ndarray:
    """The draws of one Poisson drop of mean ``mean``: its count, then 2 * count doubles, the x
    coordinates and then the y coordinates as unit uniforms. ``rng.uniform(0, w, count)`` draws the
    same doubles and returns 0 + w * u, which is w * u to the bit."""
    return rng.random(2 * int(rng.poisson(mean)))


def _points(draws: list[np.ndarray], region: Region) -> tuple[np.ndarray, np.ndarray]:
    """The drops ``draws`` of ``_ppp_draws`` scaled to ``region``, as one (n, 2) array of every
    drop's points in turn, and the size of each drop."""
    sizes = [d.size // 2 for d in draws]
    positions = np.empty((sum(sizes), 2))
    for column, side in enumerate((region.width_m, region.height_m)):
        parts = [d[n * column : n * (column + 1)] for d, n in zip(draws, sizes)]
        np.multiply(parts[0] if len(parts) == 1 else np.concatenate(parts), side, out=positions[:, column])
    return positions, np.array(sizes, dtype=np.intp)


def sample_ppp(density_per_km2: float, region: Region, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson scatter: Poisson(density * area) i.i.d. uniform points, as (k, 2). The
    density must be a finite positive number whose expected count stays within ``MAX_EXPECTED_NODES``."""
    require_number("density_per_km2", density_per_km2, above=0)
    return _points([_ppp_draws(_expected_nodes("density_per_km2", density_per_km2, region), rng)], region)[0]


def _closest(ids: np.ndarray, positions: np.ndarray, point: np.ndarray) -> int:
    """The id among ``ids`` nearest to ``point``, lowest id on ties.

    Distances go through ``math.hypot``: ``np.hypot`` rounds some of them
    differently in the last bit, which can reorder near-ties.
    """
    dx, dy = (point - positions[ids]).T.tolist()
    return min(zip(map(math.hypot, dx, dy), ids.tolist()))[1]


def _draw_roles(n: int, p_w: float, rng: np.random.Generator) -> np.ndarray:
    """The wired flags of ``n`` nodes, each wired with probability ``p_w``, redrawn until both a
    wired and a wireless node exist, at most ``MAX_REDRAWS`` times. Then one uniform per node, a
    sector rotation that no link reads, is taken from ``rng`` and dropped, which keeps the stream
    where it was."""
    for _ in range(MAX_REDRAWS):
        wired = rng.random(n) < p_w
        if 0 < np.count_nonzero(wired) < n:
            break
    else:
        raise ConfigError(
            f"deployment.p_w = {p_w}: {MAX_REDRAWS} role draws over {n} gNBs "
            "gave no mix of wired and wireless nodes"
        )
    rng.random(n)  # the sector rotations: the same doubles as uniform(0, 2 pi, n)
    return wired


def _padded_ids(mask: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """One row per world of a block, whose world w holds the nodes ``offset[w]`` on: the ids of
    the nodes of w with ``mask`` set, in id order, padded with -1 to the longest row."""
    counts = np.add.reduceat(mask, offset, dtype=np.intp)
    table = np.full((counts.size, counts.max()), -1)
    table[np.arange(counts.max()) < counts[:, None]] = mask.nonzero()[0]  # row by row, as the ids run
    return table


def _nearest(ids: np.ndarray, positions: np.ndarray, points: np.ndarray) -> np.ndarray:
    """For each row r of the padded id table ``ids`` (-1 pads, after the ids), the id in it
    nearest to ``points[r]``, lowest id on ties. Distances are ranked by ``np.hypot``, and the ids
    within ``RERANK_MARGIN`` of a row's nearest (the whole row, when the nearest is at infinity or
    one distance is NaN, which is also when a pad is near) are re-ranked by ``_closest``."""
    x, y = positions.T
    dist = np.hypot(x.take(ids) - points[:, :1], y.take(ids) - points[:, 1:])
    dist[ids < 0] = np.inf
    near = ~(dist > dist.min(axis=1, keepdims=True) * (1.0 + RERANK_MARGIN) + RERANK_FLOOR)
    pick = ids[np.arange(len(ids)), near.argmax(axis=1)]
    for r in (near.sum(axis=1) > 1).nonzero()[0].tolist():
        pick[r] = _closest(ids[r, near[r] & (ids[r] >= 0)], positions, points[r])
    return pick


def _origins(positions: np.ndarray, wired: np.ndarray, sizes: np.ndarray, region: Region) -> list[int]:
    """The origin of each world of a block, as its id in its world: by ``_nearest``, the wireless
    node nearest the region center, lowest id on ties. World w holds the next ``sizes[w]`` rows of
    ``positions`` and ``wired``."""
    offset = sizes.cumsum() - sizes
    center = np.array((region.width_m / 2.0, region.height_m / 2.0))
    return (_nearest(_padded_ids(~wired, offset), positions, np.tile(center, (sizes.size, 1))) - offset).tolist()


def assign_roles(
    positions: np.ndarray,
    p_w: float,
    region: Region,
    rng: np.random.Generator,
    sectors: int = 3,
) -> Deployment:
    """Mark each node wired with probability ``p_w`` and pick the origin relay.

    The roles come from ``_draw_roles``, and the origin from ``_origins`` for a block of one world:
    the wireless node nearest the region center (lowest id on ties), which keeps evaluated paths
    away from the border. ``sectors`` is checked but unused, and stays only because the benchmark
    replay (``bench/layers.py``) passes it.
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
    wired = _draw_roles(n, p_w, rng)
    return Deployment(region, positions, wired, _origins(positions, wired, np.array([n]), region)[0])
