"""Monte Carlo campaign driver.

Each repetition regenerates the whole world (gNB deployment, UE association,
channel realization) from a counter-derived random stream, runs every
configured policy on the identical realization (paired comparison), and
optionally computes a centralized max-min-bottleneck benchmark path. The
aggregation step is worker-count independent: per-repetition records are
assembled in repetition order before any statistic is computed.

Repetitions run in blocks aligned to their indices: block k holds
repetitions [kB, (k + 1)B) of the worker's range, with B from
``_block_size``. A block samples its worlds in repetition order. The walks
of all its worlds are one ``policy.WalkBlock`` and their oracles one
``OracleBlock``; each round, the rows both ask for are hashed and evaluated
together (``channel.evaluate_rows``) and both step, until all have ended.
Link draws are keyed, not drawn in sequence, so when a row is evaluated does
not change its bits: results equal those of each repetition run alone, and
``run_repetition`` is a block of one. A campaign keeps outcome, hop and
bottleneck arrays; it builds PathResults, and searches the oracle's paths,
only when it keeps paths.
"""
from __future__ import annotations

import heapq
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, LinkTable, RadioConfig, associate_min_pathloss, evaluate_rows, link_table
from .errors import ConfigError, _shown, require_number
from .geometry import MAX_REDRAWS, Deployment, Region, assign_roles, sample_ppp
from .policy import _NO_CANDIDATE, _OUTCOMES, _SUCCESS, PathResult, PolicyKind, WalkBlock, WbfConfig, wired_bias_db
from .policy import _check_origin, padded_rows

_OUTCOME_CODE = {outcome: code for code, outcome in enumerate(_OUTCOMES)}  # as the blocks record them
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


def _keeps_ues(cfg: SimConfig) -> bool:
    """Whether the worlds of ``cfg`` keep their UE drops: only MLR reads the loads."""
    return any(spec.kind == PolicyKind.MLR for spec in cfg.policies)


def sample_world(cfg: SimConfig, rng: np.random.Generator):
    """One full realization: deployment, UE loads and link table.

    The gNB drop is redrawn until it holds two nodes, at most ``MAX_REDRAWS``
    times. The UE drop and its association, which fills ``deployment.attached``,
    are kept only when some configured policy is MLR, the one policy that reads
    the loads; otherwise the UE draws are taken from ``rng`` and dropped, and
    the deployment holds no UEs and zero loads. The association draws from its
    own child stream, so the generator ends in the same place either way: the
    link table, and every policy, sees the same realization whichever policies
    are configured.
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
    deployment = assign_roles(points, cfg.p_w, cfg.region, rng)
    if cfg.lambda_ue > 0:
        if _keeps_ues(cfg):
            ues = deployment.ue_positions = sample_ppp(cfg.lambda_ue, cfg.region, rng)
            serving = associate_min_pathloss(ues, deployment, cfg.channel, rng)
            deployment.attached = np.bincount(serving[serving >= 0], minlength=deployment.n_gnbs)
        else:  # sample_ppp's draws, dropped: the count, then one double per coordinate
            rng.random(2 * int(rng.poisson(cfg.lambda_ue * cfg.region.area_km2)))
    links = link_table(deployment, cfg.radio, cfg.channel, rng)
    return deployment, links


class OracleBlock:
    """Phase 1 of the oracle, a max-min Dijkstra (Pollack 1960) from node ``origin[w]``
    of each world ``worlds[w]``, stepped together like a ``WalkBlock``.

    Each round, every world settles its reached, unsettled node with the largest
    tentative bottleneck t (lowest id on ties): SUCCESS at t if it is wired,
    NO_CANDIDATE if there is none; else ``step`` reads its row and reaches every
    unsettled column that clears the threshold at max(t, min(t_node, SNR)).
    Reached is its own mask, as -inf is a real bottleneck at a threshold of -inf.
    The max-min value is unique and max and min are exact, so no settle order
    changes a bit. ``outcome`` (``PathOutcome`` codes) and ``bottleneck`` (NaN on
    failure) describe every world once none is going.
    """

    def __init__(self, worlds, origin, snr_threshold_db):
        self.threshold = snr_threshold_db
        sizes = np.array([d.n_gnbs for d in worlds])
        self.width = int(sizes.max())
        count = sizes.size
        self.outcome = np.full(count, _NO_CANDIDATE, dtype=np.int8)
        self.bottleneck = np.full(count, math.nan)
        # the worlds still going: ids, and per column wired, settled (as padding is), open (reached, not
        # settled) and the tentative bottleneck
        self.ids = np.arange(count)
        self.settled = np.arange(self.width) >= sizes[:, None]
        self.wired = np.zeros((count, self.width), dtype=bool)
        self.wired[~self.settled] = np.concatenate([d.wired for d in worlds])
        self.open = np.zeros((count, self.width), dtype=bool)
        self.open[self.ids, origin] = True
        self.value = np.where(self.open, np.inf, -np.inf)
        self._settle()

    def wanted(self) -> list[tuple[int, int]]:
        """(world, node id) of the node each world still going settled this round."""
        return list(zip(self.ids.tolist(), self.node.tolist()))

    def step(self, tables) -> None:
        """Reach out from each settled node over its row, read as ``tables[world][id]``, and settle the next."""
        snr = padded_rows(tables, self.wanted(), self.width)
        admit = (snr >= self.threshold) & ~self.settled
        np.maximum(self.value, np.minimum(snr, self.held[:, None]), out=self.value, where=admit)
        self.open |= admit
        self._settle()

    def _settle(self) -> None:
        """Settle the best open node of every world still going, and drop the worlds that end."""
        best = np.where(self.open, self.value, -np.inf).max(axis=1)
        node = (self.open & (self.value >= best[:, None])).argmax(axis=1)
        rows = np.arange(node.size)
        found = self.open[rows, node]
        wired = found & self.wired[rows, node]
        self.open[rows, node] = False
        self.settled[rows, node] = True
        done = wired | ~found
        if done.any():
            self.outcome[self.ids[wired]] = _SUCCESS
            self.bottleneck[self.ids[wired]] = best[wired]
            keep = ~done
            self.ids, self.settled, self.wired, self.open, self.value = (
                a[keep] for a in (self.ids, self.settled, self.wired, self.open, self.value)
            )
            node, best = node[keep], best[keep]
        self.node, self.held, self.going = node, best, node.size > 0


def _fewest_hops(link_snr_db, wired: list[bool], origin_id: int, best: float) -> tuple[int, ...]:
    """Phase 2 of the oracle: over the links with SNR >= ``best``, the hops to a wired
    node with the fewest hops and then the smallest id sequence, by a best-first
    search on that key; extending a path strictly worsens its key, so the first
    wired node popped ends the optimum. Reads rows as ``link_snr_db[i]``."""
    heap = [(0, (origin_id,))]
    settled = set()
    while heap:
        hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if wired[node]:
            return path[1:]
        row = link_snr_db[node]
        for nxt in (row >= best).nonzero()[0].tolist():
            if nxt not in settled:
                heapq.heappush(heap, (hops + 1, path + (nxt,)))
    raise AssertionError("unreachable: phase 1 proved a wired node reachable")


def _oracle_paths(oracle: OracleBlock, worlds: list[Deployment], tables, origins) -> list[PathResult]:
    """The PathResults of the worlds of a finished ``oracle``; phase 2 finds the hops of each success."""
    return [
        PathResult(o, _fewest_hops(t, d.wired.tolist(), o, b) if c == _SUCCESS else (), b, _OUTCOMES[c], None, None)
        for d, t, o, c, b in zip(worlds, tables, origins, oracle.outcome.tolist(), oracle.bottleneck.tolist())
    ]


def widest_path_oracle(
    deployment: Deployment, link_snr_db: LinkTable | np.ndarray, origin_id: int, snr_threshold_db: float
) -> PathResult:
    """Centralized max-min-bottleneck path from the origin to any wired donor.

    An ``OracleBlock`` of one world finds the optimal bottleneck b*, and among the
    paths over links with SNR >= b* ``_fewest_hops`` finds the one with the fewest
    hops and then the smallest id sequence. Both read ``link_snr_db`` (a ``LinkTable``
    or an (n, n) array) one row at a time; the origin is checked as in ``build_path``.
    """
    _check_origin(deployment, origin_id)
    oracle = OracleBlock([deployment], [origin_id], snr_threshold_db)
    _lockstep([oracle], [link_snr_db])
    return _oracle_paths(oracle, [deployment], [link_snr_db], [origin_id])[0]


def _block_size(cfg: SimConfig) -> int:
    """Repetitions per block: at most ``BLOCK_REPETITIONS`` and about ``BLOCK_EXPECTED_NODES`` nodes
    kept, UEs counting only when the worlds keep them."""
    expected = (cfg.lambda_g + (cfg.lambda_ue if _keeps_ues(cfg) else 0.0)) * cfg.region.area_km2
    return max(1, int(min(BLOCK_REPETITIONS, BLOCK_EXPECTED_NODES / max(expected, 1.0))))


def _lockstep(blocks, tables) -> None:
    """Step ``blocks`` (``WalkBlock``s and ``OracleBlock``s) over ``tables`` until all have ended.

    Each round, one ``channel.evaluate_rows`` call evaluates the rows that the blocks
    still going want, and each of them steps; an (n, n) array table needs no evaluating.
    """
    while going := [block for block in blocks if block.going]:
        wanted = [(tables[w], i) for block in going for w, i in block.wanted()]
        evaluate_rows([(table, i) for table, i in wanted if isinstance(table, LinkTable)])
        for block in going:
            block.step(tables)


def _run_block(cfg: SimConfig, reps: range, keep_paths: bool) -> tuple:
    """Every policy (and the oracle) on the world of each repetition in ``reps``, stepped in lockstep.

    Returns the walks' outcome codes, hop counts and bottlenecks (repetition by repetition, policy by
    policy within one), the oracle's outcome codes and bottlenecks (None without it), and the walks' and
    the oracle's PathResults (empty without ``keep_paths``); the worlds are not kept.
    """
    threshold = cfg.radio.snr_threshold_db
    worlds, tables = zip(*(sample_world(cfg, repetition_rng(cfg.master_seed, rep)) for rep in reps))
    origins = [d.origin_id for d in worlds]
    n_policies = len(cfg.policies)
    walks = WalkBlock(
        worlds,
        [(spec.kind, spec.wbf) for spec in cfg.policies],
        np.repeat(np.arange(len(worlds)), n_policies),
        np.repeat(origins, n_policies),
        np.tile(np.arange(n_policies), len(worlds)),
        threshold,
        cfg.max_hops,
        cfg.radio.bandwidth_hz,
    )
    oracle = OracleBlock(worlds, origins, threshold) if cfg.oracle_enabled else None
    _lockstep([walks] if oracle is None else [walks, oracle], tables)
    walked = walks.results() if keep_paths else []
    if oracle is None:
        return walks.outcome, walks.length, walks.final_bottleneck, None, None, walked, []
    found = _oracle_paths(oracle, worlds, tables, origins) if keep_paths else []
    return walks.outcome, walks.length, walks.final_bottleneck, oracle.outcome, oracle.bottleneck, walked, found


def run_repetition(cfg: SimConfig, rep_index: int) -> dict[str, PathResult]:
    """Run every configured policy (and the oracle) on one fresh realization.

    Returns a mapping from policy label to its PathResult; the oracle result,
    when enabled, is stored under the reserved label ``"oracle"``.
    """
    *_, walked, found = _run_block(cfg, range(rep_index, rep_index + 1), keep_paths=True)
    return dict(zip([spec.label for spec in cfg.policies] + ["oracle"], walked + found))  # found is [] without the oracle


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
        return self.outcome[label] == _SUCCESS


def _run_range(cfg: SimConfig, start: int, stop: int, keep_paths: bool) -> list[tuple]:
    """Repetitions [start, stop), run in the blocks [kB, (k + 1)B) that meet the range;
    per block, the records of ``_run_block``."""
    size = _block_size(cfg)
    edges = [start, *range((start // size + 1) * size, stop, size), stop]
    return [_run_block(cfg, range(first, last), keep_paths) for first, last in zip(edges, edges[1:])]


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
    codes, hops, bottlenecks, oracle_codes, oracle_bottlenecks, walked, found = zip(*blocks)
    outcome, hop_count, bottleneck = (
        np.concatenate(part).reshape(reps, len(labels)) for part in (codes, hops, bottlenecks)
    )
    paths = oracle_outcome = oracle_bottleneck = None
    if keep_paths:
        walked = [res for part in walked for res in part]
        paths = {lab: walked[p :: len(labels)] for p, lab in enumerate(labels)}
        if cfg.oracle_enabled:
            paths["oracle"] = [res for part in found for res in part]
    if cfg.oracle_enabled:
        oracle_outcome, oracle_bottleneck = np.concatenate(oracle_codes), np.concatenate(oracle_bottlenecks)
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
                both = ok & (result.oracle_outcome == _SUCCESS)
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
