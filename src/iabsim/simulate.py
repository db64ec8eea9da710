"""Monte Carlo campaign driver.

Each repetition regenerates the whole world (gNB deployment, UE association,
channel realization) from a counter-derived random stream, runs every
configured policy on the identical realization (paired comparison), and
optionally computes a centralized max-min-bottleneck benchmark path. The
aggregation step is worker-count independent: per-repetition records are
assembled in repetition order before any statistic is computed.

Repetitions run in blocks aligned to their indices: block k holds
repetitions [kB, (k + 1)B) of the worker's range, with B from
``_block_size``. A block samples its worlds in repetition order. Every walk
of every world is one walk of a ``policy.WalkBlock``, which moves all of
them one hop per round; the oracle of each world is a generator that yields
the id of each link-table row it reads and runs on while its rows are held.
Each round, the rows the walks stand on and the rows the waiting oracles ask
for are hashed and evaluated together (``channel.evaluate_rows``), then the
walks step and the oracles resume, until all have ended. Link draws are
keyed, not drawn in sequence, so when a row is evaluated does not change its
bits: results equal those of each repetition run alone, and
``run_repetition`` is a block of one. A campaign keeps the walks' outcome,
hop and bottleneck arrays, and builds PathResults only when it keeps paths.
"""
from __future__ import annotations

import heapq
import math
import warnings
from collections.abc import Generator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, LinkTable, RadioConfig, associate_min_pathloss, evaluate_rows, link_table
from .errors import ConfigError, _shown, require_number
from .geometry import MAX_REDRAWS, Deployment, Region, assign_roles, sample_ppp
from .policy import PathOutcome, PathResult, PolicyKind, WalkBlock, WbfConfig, wired_bias_db


# The most gNBs or UEs a drop may expect (density times region area). A drop
# holds its positions and a link-table row one entry per gNB; UE association
# runs in bounded passes but keeps one entry per UE-gNB pair not in outage
# (every pair when the outage slope is <= 0), so far larger counts fail on
# allocation; the cap also lies far below ``geometry.POISSON_MAX_MEAN``, the
# largest mean numpy's Poisson sampler takes.
MAX_EXPECTED_NODES = 1e6
# A block runs at most BLOCK_REPETITIONS repetitions in lockstep, and fewer
# when their worlds would expect more than about BLOCK_EXPECTED_NODES gNBs and
# UEs in all. The bounds cap the memory a block holds; results do not depend on them.
BLOCK_REPETITIONS = 64
BLOCK_EXPECTED_NODES = 8192


@dataclass(frozen=True)
class PolicySpec:
    """One policy variant to evaluate, with a label used in outputs."""

    kind: PolicyKind
    wbf: WbfConfig = WbfConfig()
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.kind.value)


@dataclass(frozen=True)
class SimConfig:
    """Full experiment parameterization."""

    lambda_g: float = 30.0
    p_w: float = 0.3
    lambda_ue: float = 100.0
    region: Region = Region()
    radio: RadioConfig = RadioConfig()
    channel: ChannelParams = ChannelParams()
    policies: tuple[PolicySpec, ...] = (
        PolicySpec(PolicyKind.HQF),
        PolicySpec(PolicyKind.WF),
        PolicySpec(PolicyKind.PA),
        PolicySpec(PolicyKind.MLR),
    )
    repetitions: int = 1000
    master_seed: int = 1
    max_hops: int = 30
    oracle_enabled: bool = False

    def __post_init__(self):
        require_number("deployment.lambda_g", self.lambda_g, above=0)
        require_number("deployment.lambda_ue", self.lambda_ue, at_least=0)
        if not 0.0 < self.p_w < 1.0:
            raise ConfigError(f"deployment.p_w must lie strictly in (0, 1), got {self.p_w}")
        require_number("run.repetitions", self.repetitions, integer=True, at_least=1)
        require_number("run.master_seed", self.master_seed, integer=True, at_least=0)
        require_number("run.max_hops", self.max_hops, integer=True, at_least=1)
        if not self.policies:
            raise ConfigError("at least one policy must be configured")
        labels = [p.label for p in self.policies]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"policy labels must be unique, got {labels}")
        for spec in self.policies:
            # the bias never decreases with hops: finite at the last hop, finite at all
            try:
                finite = math.isfinite(wired_bias_db(self.max_hops - 1, spec.wbf))
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(
                    f"policy '{spec.label}': the wired bias of its 'wbf' is not finite "
                    f"at every hop below run.max_hops = {_shown(self.max_hops)}"
                )
        for key, density in (("deployment.lambda_g", self.lambda_g), ("deployment.lambda_ue", self.lambda_ue)):
            expected = density * self.region.area_km2  # inf when the area overflows
            if density > 0 and not expected <= MAX_EXPECTED_NODES:
                raise ConfigError(
                    f"{key} times the region area gives {expected:.4g} expected nodes, "
                    f"beyond the cap of {MAX_EXPECTED_NODES:.4g}"
                )
        expected_nodes = self.lambda_g * self.region.area_km2
        if expected_nodes < 3.0:
            warnings.warn(
                f"expected gNB count {expected_nodes:.2f} < 3; deployment resampling "
                "may dominate and edge effects will be severe",
                stacklevel=2,
            )


def repetition_rng(master_seed: int, rep_index: int) -> np.random.Generator:
    """Independent stream for one repetition, derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(rep_index,)))


def sample_world(cfg: SimConfig, rng: np.random.Generator):
    """One full realization: deployment, UE loads and link table.

    The gNB drop is redrawn until it holds two nodes, at most ``MAX_REDRAWS``
    times. UE association fills ``deployment.attached`` only when some
    configured policy is MLR, the one policy that reads the loads; otherwise
    it is skipped and the loads stay 0. It draws from its own child stream,
    so the link table, and every policy, sees the same realization whichever
    policies are configured.
    """
    for _ in range(MAX_REDRAWS):
        points = sample_ppp(cfg.lambda_g, cfg.region, rng)
        if len(points) >= 2:
            break
    else:
        raise ConfigError(
            f"deployment.lambda_g = {cfg.lambda_g}: {MAX_REDRAWS} drops in a row "
            "held fewer than two gNBs"
        )
    deployment = assign_roles(points, cfg.p_w, cfg.region, rng, sectors=cfg.radio.sectors)
    if cfg.lambda_ue > 0:
        ues = deployment.ue_positions = sample_ppp(cfg.lambda_ue, cfg.region, rng)
        if any(spec.kind == PolicyKind.MLR for spec in cfg.policies):
            serving = associate_min_pathloss(ues, deployment, cfg.channel, rng)
            deployment.attached = np.bincount(serving[serving >= 0], minlength=deployment.n_gnbs)
    links = link_table(deployment, cfg.radio, cfg.channel, rng)
    return deployment, links


def _bottleneck_steps(wired: list[bool], origin_id: int, snr_threshold_db: float):
    """Max-min Dijkstra for the value only; None when no wired node is reachable.

    Reads rows as ``oracle_steps`` does."""
    heap = [(-math.inf, origin_id)]
    settled = set()
    while heap:
        neg_b, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if wired[node]:
            return -neg_b
        row = yield node
        for nxt in (row >= snr_threshold_db).nonzero()[0].tolist():
            if nxt not in settled:
                heapq.heappush(heap, (max(neg_b, -float(row[nxt])), nxt))
    return None


def oracle_steps(
    deployment: Deployment, origin_id: int, snr_threshold_db: float
) -> Generator[int, np.ndarray, PathResult]:
    """``widest_path_oracle`` as a generator: it yields the id of each row it reads and is sent that row."""
    wired = deployment.wired.tolist()
    best = yield from _bottleneck_steps(wired, origin_id, snr_threshold_db)
    if best is None:
        return PathResult(
            origin_id=origin_id,
            hops=(),
            bottleneck_snr_db=math.nan,
            outcome=PathOutcome.NO_CANDIDATE,
            policy=None,
            wbf=None,
        )
    heap = [(0, (origin_id,))]
    settled = set()
    while heap:
        hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if wired[node]:
            return PathResult(
                origin_id=origin_id,
                hops=path[1:],
                bottleneck_snr_db=best,
                outcome=PathOutcome.SUCCESS,
                policy=None,
                wbf=None,
            )
        row = yield node
        for nxt in (row >= best).nonzero()[0].tolist():
            if nxt not in settled:
                heapq.heappush(heap, (hops + 1, path + (nxt,)))
    raise AssertionError("unreachable: phase 1 proved a wired node reachable")


def widest_path_oracle(
    deployment: Deployment,
    link_snr_db: LinkTable | np.ndarray,
    origin_id: int,
    snr_threshold_db: float,
) -> PathResult:
    """Centralized max-min-bottleneck path from the origin to any wired donor.

    Among all paths achieving the optimal bottleneck, returns the one with the
    fewest hops and then the lexicographically smallest id sequence. Two
    phases: a max-min Dijkstra fixes the optimal bottleneck value b*, then a
    best-first search over the subgraph of links with SNR >= b* (exactly the
    links usable by optimal paths) minimizes (hop count, id sequence). In that
    second search extending a path strictly worsens its key, so the first
    wired node popped is the tie-broken optimum. Both phases read
    ``link_snr_db`` one row at a time, as ``link_snr_db[i]``.
    """
    steps = oracle_steps(deployment, origin_id, snr_threshold_db)
    try:
        i = next(steps)
        while True:
            i = steps.send(link_snr_db[i])
    except StopIteration as stop:
        return stop.value


def _block_size(cfg: SimConfig) -> int:
    """Repetitions per block: at most ``BLOCK_REPETITIONS`` and about ``BLOCK_EXPECTED_NODES`` nodes."""
    expected = (cfg.lambda_g + cfg.lambda_ue) * cfg.region.area_km2
    return max(1, int(min(BLOCK_REPETITIONS, BLOCK_EXPECTED_NODES / max(expected, 1.0))))


def _lockstep(
    walks: WalkBlock, tables: list[LinkTable], oracles: list[tuple[Generator, LinkTable]]
) -> list[PathResult]:
    """Step ``walks`` over ``tables`` and run the oracle generators, each against its
    link table, to their ends; returns the oracles' results in order.

    Each round, every oracle runs on while the rows it asks for are held; then
    the rows the waiting oracles and the walks ask for are evaluated together,
    in passes of at most ``channel.PASS_PAIRS`` pairs, every walk moves one hop
    and every waiting oracle resumes with its row.
    """
    results: list[PathResult | None] = [None] * len(oracles)
    running = [(k, gen, table, None) for k, (gen, table) in enumerate(oracles)]
    while running or walks.going:
        waiting = []
        for k, gen, table, row in running:
            try:
                i = gen.send(row)
                while (row := table.rows.get(i)) is not None:
                    i = gen.send(row)
            except StopIteration as stop:
                results[k] = stop.value
            else:
                waiting.append((k, gen, table, i))
        wanted = [(tables[w], i) for w, i in walks.wanted()] if walks.going else []
        evaluate_rows(wanted + [(table, i) for _, _, table, i in waiting])
        if walks.going:
            walks.step(tables)
        running = [(k, gen, table, table.rows[i]) for k, gen, table, i in waiting]
    return results


def _run_block(cfg: SimConfig, reps: range) -> tuple[WalkBlock, list[PathResult]]:
    """Every policy (and the oracle) on the world of each repetition in ``reps``, stepped in lockstep.

    Returns the finished walks, repetition by repetition and policy by policy
    within one, and the oracle's results.
    """
    threshold = cfg.radio.snr_threshold_db
    worlds, tables, oracles = [], [], []
    for rep in reps:
        deployment, links = sample_world(cfg, repetition_rng(cfg.master_seed, rep))
        worlds.append(deployment)
        tables.append(links)
        if cfg.oracle_enabled:
            oracles.append((oracle_steps(deployment, deployment.origin_id, threshold), links))
    n_policies = len(cfg.policies)
    walks = WalkBlock(
        worlds,
        [(spec.kind, spec.wbf) for spec in cfg.policies],
        np.repeat(np.arange(len(worlds)), n_policies),
        np.repeat([d.origin_id for d in worlds], n_policies),
        np.tile(np.arange(n_policies), len(worlds)),
        threshold,
        cfg.max_hops,
        cfg.radio.bandwidth_hz,
    )
    return walks, _lockstep(walks, tables, oracles)


def run_repetition(cfg: SimConfig, rep_index: int) -> dict[str, PathResult]:
    """Run every configured policy (and the oracle) on one fresh realization.

    Returns a mapping from policy label to its PathResult; the oracle result,
    when enabled, is stored under the reserved label ``"oracle"``.
    """
    walks, found = _run_block(cfg, range(rep_index, rep_index + 1))
    results = dict(zip((spec.label for spec in cfg.policies), walks.results()))
    if cfg.oracle_enabled:
        results["oracle"] = found[0]
    return results


_OUTCOME_CODE = {outcome: code for code, outcome in enumerate(PathOutcome)}  # as WalkBlock records them


@dataclass
class CampaignResult:
    """Per-repetition records of one campaign, indexed by repetition order."""

    labels: tuple[str, ...]
    repetitions: int
    outcome: dict[str, np.ndarray]
    hop_count: dict[str, np.ndarray]
    bottleneck_db: dict[str, np.ndarray]
    oracle_outcome: np.ndarray | None = None
    oracle_bottleneck_db: np.ndarray | None = None
    paths: dict[str, list[PathResult]] | None = None

    def success_mask(self, label: str) -> np.ndarray:
        return self.outcome[label] == _OUTCOME_CODE[PathOutcome.SUCCESS]


def _run_range(cfg: SimConfig, start: int, stop: int, keep_paths: bool) -> list[tuple]:
    """Repetitions [start, stop), run in the blocks [kB, (k + 1)B) that meet the range.

    Per block: the walks' outcome codes, hop counts and bottlenecks
    (repetition-major, as ``_run_block`` orders them), the oracle's results,
    and with ``keep_paths`` the walks' PathResults.
    """
    def records(walks: WalkBlock, found: list[PathResult]) -> tuple:
        # keeps the arrays, not the walks: the block's worlds are freed before the next one is sampled
        return walks.outcome, walks.length, walks.final_bottleneck, found, walks.results() if keep_paths else ()

    size = _block_size(cfg)
    blocks = []
    first = start
    while first < stop:
        last = min(stop, (first // size + 1) * size)
        blocks.append(records(*_run_block(cfg, range(first, last))))
        first = last
    return blocks


def run_campaign(cfg: SimConfig, workers: int = 1, keep_paths: bool = False) -> CampaignResult:
    """Execute all repetitions, optionally across processes.

    The per-repetition streams depend only on (master_seed, index), and records
    are reassembled in repetition order, so the result is identical for any
    worker count.
    """
    require_number("workers", workers, integer=True, at_least=1)
    workers = int(workers)
    reps = cfg.repetitions
    if workers == 1 or reps == 1:
        blocks = _run_range(cfg, 0, reps, keep_paths)
    else:
        bounds = np.linspace(0, reps, min(workers, reps) + 1).astype(int)
        with ProcessPoolExecutor(max_workers=len(bounds) - 1) as pool:
            futures = [
                pool.submit(_run_range, cfg, int(a), int(b), keep_paths)
                for a, b in zip(bounds[:-1], bounds[1:])
                if b > a
            ]
            blocks = [block for fut in futures for block in fut.result()]

    labels = tuple(spec.label for spec in cfg.policies)
    codes, hops, bottlenecks, found, walked = zip(*blocks)
    outcome, hop_count, bottleneck = (
        np.concatenate(part).reshape(reps, len(labels)) for part in (codes, hops, bottlenecks)
    )
    found = [res for part in found for res in part]
    paths = oracle_outcome = oracle_bottleneck = None
    if keep_paths:
        walked = [res for part in walked for res in part]
        paths = {lab: walked[p :: len(labels)] for p, lab in enumerate(labels)}
        if cfg.oracle_enabled:
            paths["oracle"] = found
    if cfg.oracle_enabled:
        oracle_outcome = np.array([_OUTCOME_CODE[res.outcome] for res in found], dtype=np.int8)
        oracle_bottleneck = np.array([res.bottleneck_snr_db for res in found])
    return CampaignResult(
        labels=labels,
        repetitions=reps,
        outcome={lab: outcome[:, p].copy() for p, lab in enumerate(labels)},
        hop_count={lab: hop_count[:, p].astype(np.int32) for p, lab in enumerate(labels)},
        bottleneck_db={lab: bottleneck[:, p].copy() for p, lab in enumerate(labels)},
        oracle_outcome=oracle_outcome,
        oracle_bottleneck_db=oracle_bottleneck,
        paths=paths,
    )


class EmpiricalCdf:
    """Right-continuous empirical distribution of a finite sample."""

    def __init__(self, values):
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise ValueError("empirical CDF needs at least one sample")
        self.values = arr

    @property
    def n(self) -> int:
        return int(self.values.size)

    def evaluate(self, x):
        """F(x) = (# samples <= x) / n; accepts scalars or arrays."""
        idx = np.searchsorted(self.values, x, side="right")
        out = idx / self.n
        return float(out) if np.isscalar(x) else out

    __call__ = evaluate

    def quantile(self, q: float) -> float:
        """Inverse CDF (type-1): smallest sample v with F(v) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {q}")
        # F(v_k) is the float k/n, and ceil(q*n) can miss the smallest k with
        # k/n >= q by one either way, so step to it.
        n = self.n
        k = min(max(math.ceil(q * n), 1), n)
        while k > 1 and (k - 1) / n >= q:
            k -= 1
        while k < n and k / n < q:
            k += 1
        return float(self.values[k - 1])

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique sample values and the CDF evaluated at each (ends at 1.0)."""
        uniq, counts = np.unique(self.values, return_counts=True)
        return uniq, np.cumsum(counts) / self.n


@dataclass
class PolicySummary:
    """Aggregated statistics for one policy over a campaign.

    CDFs and metric statistics cover successful paths only and are ``None``
    when a policy never succeeded. ``mean_oracle_gap_db`` averages
    (oracle bottleneck - policy bottleneck) over repetitions where both
    succeeded.
    """

    label: str
    kind: PolicyKind
    wbf: WbfConfig
    repetitions: int
    successes: int
    failure_probability: float
    hops_cdf: EmpiricalCdf | None
    snr_cdf: EmpiricalCdf | None
    hop_mean: float | None
    hop_median: float | None
    hop_p95: float | None
    snr_mean_db: float | None
    snr_median_db: float | None
    snr_p95_db: float | None
    mean_oracle_gap_db: float | None


@dataclass
class CampaignSummary:
    policies: dict[str, PolicySummary] = field(default_factory=dict)


def aggregate(cfg: SimConfig, result: CampaignResult) -> CampaignSummary:
    """Reduce per-repetition records to per-policy CDFs and summary statistics."""
    if result.repetitions < 1:
        raise ConfigError("cannot aggregate an empty campaign")
    summary = CampaignSummary()
    for spec in cfg.policies:
        lab = spec.label
        ok = result.success_mask(lab)
        successes = int(ok.sum())
        hops_cdf = snr_cdf = None
        hop_stats = (None, None, None)
        snr_stats = (None, None, None)
        gap = None
        if successes > 0:
            hops_cdf = EmpiricalCdf(result.hop_count[lab][ok])
            snr_cdf = EmpiricalCdf(result.bottleneck_db[lab][ok])
            hop_stats = (hops_cdf.mean, hops_cdf.quantile(0.5), hops_cdf.quantile(0.95))
            snr_stats = (snr_cdf.mean, snr_cdf.quantile(0.5), snr_cdf.quantile(0.95))
            if result.oracle_outcome is not None:
                both = ok & (result.oracle_outcome == _OUTCOME_CODE[PathOutcome.SUCCESS])
                if both.any():
                    gap = float(
                        np.mean(result.oracle_bottleneck_db[both] - result.bottleneck_db[lab][both])
                    )
        summary.policies[lab] = PolicySummary(
            label=lab,
            kind=spec.kind,
            wbf=spec.wbf,
            repetitions=result.repetitions,
            successes=successes,
            failure_probability=1.0 - successes / result.repetitions,
            hops_cdf=hops_cdf,
            snr_cdf=snr_cdf,
            hop_mean=hop_stats[0],
            hop_median=hop_stats[1],
            hop_p95=hop_stats[2],
            snr_mean_db=snr_stats[0],
            snr_median_db=snr_stats[1],
            snr_p95_db=snr_stats[2],
            mean_oracle_gap_db=gap,
        )
    return summary
