"""Monte Carlo campaign driver.

Each repetition regenerates the whole world (gNB deployment, UE association,
channel realization) from a counter-derived random stream, runs every
configured policy on the identical realization (paired comparison), and
optionally computes a centralized max-min-bottleneck benchmark path. The
aggregation step is worker-count independent: per-repetition records are
assembled in repetition order before any statistic is computed.

A worker's range of repetitions runs in the fewest blocks of near-equal size
that keep each block within ``BLOCK_BYTES``, by the per-world estimate of
``_world_bytes``. A block derives the generators of all its repetitions (and
their association children) in one pass and samples its worlds at once into
one ``channel.RowStore`` that holds their nodes and link rows: each world takes
only its draws from its own generators, in stream order, and the scaling, the
origin pick, the link keys and the UE association run once for the block.
``sample_world`` is a block of one, whose ``LinkTable`` reads through the
block's store. The walks of all its worlds are one ``policy.WalkBlock`` and
their oracles one ``OracleBlock``, stepped in lockstep until all have ended:
each round makes one read of the store for the row every walk and oracle
still going stands on, evaluating the rows not held yet, and each kernel steps
on its entries' rows through the index the read returns. Link draws are
keyed, so when a row is evaluated does not change its bits: results equal
those of each repetition run alone, and
``run_repetition`` is a block of one. A campaign keeps outcome, hop and
bottleneck arrays; it builds PathResults, and searches the oracle's paths,
only when it keeps paths.
"""
from __future__ import annotations

import heapq
import math
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ASSOC_LAYER, ROWS_KEPT, ChannelParams, LinkTable, RadioConfig, RowStore, _associate, _child_rng
from .channel import _channel_law, _one_world_store
from .errors import ConfigError, _shown, check_params, key_of, param, require_number, require_number_or_inf
from .geometry import MAX_REDRAWS, Deployment, Region, _draw_roles, _expected_nodes, _origin_id, _origins, _points
from .geometry import _ppp_draws
from .policy import _NO_CANDIDATE, _OUTCOMES, _SUCCESS, PathResult, PolicyKind, WalkBlock, WbfConfig, wired_bias_db
from .policy import _lockstep, _wbf_label

_OUTCOME_CODE = {outcome: code for code, outcome in enumerate(_OUTCOMES)}  # as the blocks record them
# The memory a block's worlds may hold, by the estimate of ``_world_bytes``;
# results do not depend on it. Larger blocks pay each round's numpy calls for
# more worlds at once. Against blocks of 1 MiB with one read per kernel, on a
# shared 2-vCPU host (campaign CPU time on one worker, median of 20 alternating
# pairs; peak RSS of bench/run_bench.py, median of 2 runs):
#
#   bound   desk           dense480       nomlr120
#   1 MiB   1.02x, -3.0%   1.07x, -2.6%   1.09x, +0.1%
#   2 MiB   1.09x, -1.9%   1.07x, -0.9%   1.28x, +0.7%
#   4 MiB   1.17x, +3.3%   1.20x, +4.1%   1.29x, +0.9%
#
# 4 MiB lifts the peak RSS of desk and dense480 by more than 3%; at 2 MiB the
# 150 repetitions of each of two nomlr120 workers were one block.
BLOCK_BYTES = 2 << 20
# A pool starts only when each of its processes gets at least POOL_SHARE_US of
# one-worker work, as ``_rep_cost_us`` estimates it from the config: a start and
# a stop cost 7-9 ms, and a forked worker's first share runs cold. One-worker
# campaign wall time against 2 workers, on a shared 2-vCPU host (median of 7
# after a warm campaign, each in a fresh process, 3 alternations):
#
#   workload  reps  estimate  1 worker   2 workers
#   nomlr120   300     20 ms  23-26 ms   31-33 ms
#   nomlr120   600     39 ms  45-53 ms   43-54 ms
#   nomlr120  1200     79 ms  87-92 ms   66-86 ms
#   desk       400     39 ms  50-56 ms   46-59 ms
#   desk       800     79 ms  99-104 ms  81-128 ms
#   dense480    40     51 ms  53-55 ms   55-70 ms
#   dense480    60     76 ms  82-89 ms   70-93 ms
#   dense480   120    152 ms  160-209 ms 106-136 ms
#
# The pool breaks even at 40-65 ms of estimated work. The estimate's terms, fitted
# to one-worker time on 18 configs (lambda_g 30-480, 1-7 policies, with and
# without the oracle and MLR) to within 30%: a fixed part, a part per expected
# gNB, per expected gNB and walk, per expected gNB for the oracle, and per
# expected UE-gNB pair when MLR keeps the UEs. The walks run in lockstep, so one
# more costs little.
POOL_SHARE_US = 25_000
REP_US, GNB_US, WALK_US, ORACLE_US, UE_PAIR_US = 20.0, 0.35, 0.01, 0.2, 0.02
# What a policy label may hold: it names output files.
_LABEL_RE = re.compile(r"[A-Za-z0-9._-]+")


@dataclass(frozen=True)
class PolicySpec:
    """One policy variant to evaluate, with a label used in outputs; with none, it gets the label
    ``parse_config`` gives, such as ``HQF`` or ``HQF_aggressive_poly``."""

    kind: PolicyKind
    wbf: WbfConfig = WbfConfig()
    label: str = ""

    def __post_init__(self):
        # SimConfig refuses any other kind or wbf
        if not self.label and isinstance(self.kind, PolicyKind) and isinstance(self.wbf, WbfConfig):
            suffix = _wbf_label(self.wbf)
            object.__setattr__(self, "label", f"{self.kind.value}_{suffix}" if suffix else self.kind.value)


@dataclass(frozen=True)
class SimConfig:
    """Full experiment parameterization."""

    lambda_g: float = param("deployment.lambda_g", 30.0, above=0)
    p_w: float = param("deployment.p_w", 0.3)
    lambda_ue: float = param("deployment.lambda_ue", 100.0, at_least=0)
    region: Region = Region()
    radio: RadioConfig = RadioConfig()
    channel: ChannelParams = ChannelParams()
    policies: tuple[PolicySpec, ...] = (
        PolicySpec(PolicyKind.HQF),
        PolicySpec(PolicyKind.WF),
        PolicySpec(PolicyKind.PA),
        PolicySpec(PolicyKind.MLR),
    )
    repetitions: int = param("run.repetitions", 1000, integer=True, at_least=1)
    master_seed: int = param("run.master_seed", 1, integer=True, at_least=0)
    max_hops: int = param("run.max_hops", 30, integer=True, at_least=1)
    oracle_enabled: bool = param("run.oracle", False)

    def __post_init__(self):
        check_params(self)
        if not 0.0 < self.p_w < 1.0:
            raise ConfigError(f"{key_of(self, 'p_w')} must lie strictly in (0, 1), got {self.p_w}")
        if not isinstance(self.policies, (list, tuple)):
            raise ConfigError(f"'policies' must be a list or tuple of PolicySpec, got {self.policies!r}")
        object.__setattr__(self, "policies", tuple(self.policies))
        if not self.policies:
            raise ConfigError("'policies' must hold at least one PolicySpec")
        for i, spec in enumerate(self.policies):
            if not isinstance(spec, PolicySpec):
                raise ConfigError(f"'policies[{i}]' must be a PolicySpec, got {spec!r}")
            for name, kind in (("kind", PolicyKind), ("wbf", WbfConfig)):
                if not isinstance(getattr(spec, name), kind):
                    raise ConfigError(f"'policies[{i}].{name}' must be a {kind.__name__}, got {getattr(spec, name)!r}")
            if not isinstance(spec.label, str) or not _LABEL_RE.fullmatch(spec.label):
                raise ConfigError(f"'policies[{i}].label' may only contain letters, digits, '._-', got {spec.label!r}")
            if spec.label == "oracle":
                raise ConfigError(f"'policies[{i}].label' must not be 'oracle' (reserved)")
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
                    f"at every hop below {key_of(self, 'max_hops')} = {_shown(self.max_hops)}"
                )
        for name in ("lambda_g", "lambda_ue"):
            if getattr(self, name) > 0:
                _expected_nodes(key_of(self, name), getattr(self, name), self.region)
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
    """Whether the worlds of ``cfg`` drop UEs and keep them: only MLR reads the loads."""
    return cfg.lambda_ue > 0 and any(spec.kind == PolicyKind.MLR for spec in cfg.policies)


def _sample_worlds(cfg: SimConfig, rngs, children) -> tuple[RowStore, np.ndarray | None]:
    """The worlds of the generators ``rngs``, in order: their ``RowStore`` and the UE drops it kept
    (None unless the worlds keep their UEs).

    Each world first takes its draws from its own generator, in stream order: the gNB drop, redrawn
    until it holds two nodes, at most ``MAX_REDRAWS`` times; its roles and sector rotations; the UE
    drop; and the link word. The drops are then scaled, the origins picked and the UEs associated
    for all the worlds at once. The UE drop and its association, which fills the loads, are kept
    only when some configured policy is MLR, the one policy that reads the loads; otherwise the UE
    draws are taken and dropped, and the loads are zero. World w's association draws from
    ``children[w]``, its own child stream, or one derived from its generator when that is None, so
    the generator ends in the same place either way: the link table, and every policy, sees the
    same realization whichever policies are configured.
    """
    keep_ues = _keeps_ues(cfg)
    area = cfg.region.area_km2
    gnbs, wired, ues, words = [], [], [], []
    for rng in rngs:
        for _ in range(MAX_REDRAWS):
            drop = _ppp_draws(cfg.lambda_g * area, rng)
            if drop.size >= 4:
                break
        else:
            raise ConfigError(
                f"{key_of(cfg, 'lambda_g')} = {cfg.lambda_g}: {MAX_REDRAWS} drops in a row "
                "held fewer than two gNBs"
            )
        gnbs.append(drop)
        wired.append(_draw_roles(drop.size // 2, cfg.p_w, rng))
        if cfg.lambda_ue > 0:
            drop = _ppp_draws(cfg.lambda_ue * area, rng)
            if keep_ues:
                ues.append(drop)
        words.append(rng.bit_generator.random_raw())
    positions, sizes = _points(gnbs, cfg.region)
    wired = wired[0] if len(wired) == 1 else np.concatenate(wired)
    origin = _origins(positions, wired, sizes, cfg.region)
    ue_positions = None
    if keep_ues:
        ue_positions, ue_sizes = _points(ues, cfg.region)
        streams = [
            (_child_rng(rng, ASSOC_LAYER) if child is None else child) if k else None
            for rng, child, k in zip(rngs, children, ue_sizes.tolist())
        ]
        serving = _associate(ue_positions, ue_sizes, positions, sizes, cfg.channel, streams)
        served = serving >= 0
        at = np.repeat(sizes.cumsum() - sizes, ue_sizes)[served] + serving[served]
        attached = np.bincount(at, minlength=positions.shape[0])
    else:
        attached = np.zeros(positions.shape[0], dtype=np.int64)
    law = _channel_law(cfg.radio, cfg.channel)
    store = RowStore(sizes, positions, wired, attached, origin, np.array(words, dtype=np.uint64), law)
    return store, ue_positions


def sample_world(cfg: SimConfig, rng: np.random.Generator):
    """One full realization: deployment, UE loads and link table.

    A block of one world for ``_sample_worlds``: the deployment holds the arrays of the block's
    store, and the link table reads its rows through that store. The UE drop is kept
    (``deployment.ue_positions``) only when some configured policy is MLR.
    """
    store, ues = _sample_worlds(cfg, [rng], [None])
    deployment = Deployment(cfg.region, store.positions, store.wired, store.origin[0], store.attached)
    if ues is not None:
        deployment.ue_positions = ues
    return deployment, LinkTable(deployment, store)


class OracleBlock:
    """Phase 1 of the oracle, a max-min Dijkstra (Pollack 1960) from node ``origin[w]``
    of each world w of ``store``, the ``RowStore`` of the block, stepped together like
    a ``WalkBlock``. The block reads the worlds' sizes, offsets, wired flags and link
    rows from the store, and holds only each world's search state.

    Each round, every world settles its reached, unsettled node with the largest
    tentative bottleneck t (lowest id on ties): SUCCESS at t if it is wired,
    NO_CANDIDATE if there is none; else ``step``, handed that node's row by the round's read,
    reaches every unsettled column that clears the threshold at max(t, min(t_node, SNR)).
    A column's tentative bottleneck is NaN while it is not open (unreached or settled), as -inf
    is a real bottleneck at a threshold of -inf, and fmax passes over NaN. The max-min value is
    unique and max, min and fmax are exact, so no settle order changes a bit. ``origin`` is kept
    and ``at`` is the block node each world still going settled last; ``outcome`` (``PathOutcome``
    codes) and ``bottleneck`` (NaN on failure) describe every world once none is going.
    """

    def __init__(self, store, origin, snr_threshold_db):
        self.store, self.threshold, self.origin = store, snr_threshold_db, np.asarray(origin, dtype=np.intp)
        count = store.sizes.size
        self.outcome = np.full(count, _NO_CANDIDATE, dtype=np.int8)
        self.bottleneck = np.full(count, math.nan)
        # the worlds still going: ids, and per column settled (as padding is) and the tentative bottleneck
        self.ids = np.arange(count)
        self.settled = np.arange(store.width) >= store.sizes[:, None]
        self.value = np.full(self.settled.shape, math.nan)
        self.value[self.ids, self.origin] = math.inf
        self._settle()

    def step(self, rows: np.ndarray, index: np.ndarray) -> None:
        """Reach out from the node each world still going settled, whose row is ``index[k]`` of
        ``rows`` for world ``ids[k]``, over the unsettled columns that clear the threshold, and
        settle the next."""
        world, col = ((rows >= self.threshold)[index] & ~self.settled).nonzero()
        reach = np.minimum(rows[index[world], col], self.held[world])
        self.value[world, col] = np.fmax(self.value[world, col], reach)
        self._settle()

    def _settle(self) -> None:
        """Settle the best open node of every world still going, and drop the worlds that end."""
        best = np.fmax.reduce(self.value, axis=1)  # NaN when no column is open
        node = (self.value == best[:, None]).argmax(axis=1)
        found = ~np.isnan(best)
        at = self.store.offset[self.ids] + node
        wired = found & self.store.wired[at]
        rows = np.arange(node.size)
        self.value[rows, node] = math.nan
        self.settled[rows, node] = True
        done = wired | ~found
        if done.any():
            self.outcome[self.ids[wired]] = _SUCCESS
            self.bottleneck[self.ids[wired]] = best[wired]
            keep = ~done
            self.ids, self.settled, self.value, at, best = (
                a[keep] for a in (self.ids, self.settled, self.value, at, best)
            )
        self.at, self.held = at, best


def _fewest_hops(store: RowStore, world: int, origin_id: int, best: float) -> tuple[int, ...]:
    """Phase 2 of the oracle: over the links with SNR >= ``best``, the hops to a wired
    node with the fewest hops and then the smallest id sequence, by a best-first
    search on that key; extending a path strictly worsens its key, so the first
    wired node popped ends the optimum. Reads the wired flags and rows of ``world`` from ``store``."""
    heap = [(0, (origin_id,))]
    settled = set()
    while heap:
        hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if store.wired[store.offset[world] + node]:
            return path[1:]
        row = store.read(np.array([store.offset[world] + node]))[0][0, : store.sizes[world]]
        for nxt in (row >= best).nonzero()[0].tolist():
            if nxt not in settled:
                heapq.heappush(heap, (hops + 1, path + (nxt,)))
    raise AssertionError("unreachable: phase 1 proved a wired node reachable")


def _oracle_paths(oracle: OracleBlock, store: RowStore) -> list[PathResult]:
    """The PathResults of the worlds of a finished ``oracle``; phase 2 finds the hops of each success."""
    return [
        PathResult(o, _fewest_hops(store, w, o, b) if c == _SUCCESS else (), b, _OUTCOMES[c], None, None)
        for w, (o, c, b) in enumerate(zip(oracle.origin.tolist(), oracle.outcome.tolist(), oracle.bottleneck.tolist()))
    ]


def widest_path_oracle(
    deployment: Deployment, link_snr_db: LinkTable | np.ndarray, origin_id: int, snr_threshold_db: float
) -> PathResult:
    """Centralized max-min-bottleneck path from the origin to any wired donor.

    An ``OracleBlock`` of one world finds the optimal bottleneck b*, and among the
    paths over links with SNR >= b* ``_fewest_hops`` finds the one with the fewest
    hops and then the smallest id sequence. Both read ``link_snr_db`` (a ``LinkTable``
    or an (n, n) array) through a ``RowStore`` of one world; the origin and the threshold
    are checked as in ``build_path``.
    """
    origin_id = _origin_id(origin_id, deployment.wired)
    require_number_or_inf("snr_threshold_db", snr_threshold_db)
    store = _one_world_store(deployment, link_snr_db)
    oracle = OracleBlock(store, [origin_id], snr_threshold_db)
    _lockstep([oracle])
    return _oracle_paths(oracle, store)[0]


def _world_bytes(cfg: SimConfig) -> int:
    """The bytes a world of ``cfg`` holds in a block, estimated per column of the padded width (the
    mean gNB count plus three standard deviations): 8 B for each of the ``ROWS_KEPT`` rows its store
    makes room for and for the row a round's read gathers (at most one per world on the benchmark
    workloads), 2 B per walk (its open columns, and its admissible ones in a round) and 10 B for
    the oracle (its settled columns, its admissible ones in a round, and its tentative
    bottlenecks); and 16 B per UE when the worlds keep their UEs."""
    gnbs = cfg.lambda_g * cfg.region.area_km2
    columns = 8 * (ROWS_KEPT + 1) + 2 * len(cfg.policies) + 10 * cfg.oracle_enabled
    ues = cfg.lambda_ue * cfg.region.area_km2 if _keeps_ues(cfg) else 0.0
    return int((gnbs + 3.0 * math.sqrt(gnbs)) * columns + 16 * ues)


def _rep_cost_us(cfg: SimConfig) -> float:
    """One worker's time per repetition of ``cfg`` in µs, estimated from the expected gNB count n,
    the walks, the oracle and, when the worlds keep their UEs, the expected UE-gNB pairs."""
    gnbs = cfg.lambda_g * cfg.region.area_km2
    per_gnb = GNB_US + WALK_US * len(cfg.policies) + ORACLE_US * cfg.oracle_enabled
    ues = cfg.lambda_ue * cfg.region.area_km2 if _keeps_ues(cfg) else 0.0
    return REP_US + gnbs * per_gnb + UE_PAIR_US * gnbs * ues


def _block_size(cfg: SimConfig) -> int:
    """Repetitions per block: as many worlds as ``BLOCK_BYTES`` holds, and at least one."""
    return max(1, BLOCK_BYTES // _world_bytes(cfg))


def _sample_block(cfg: SimConfig, reps: range) -> RowStore:
    """The ``RowStore`` of the worlds of the repetitions ``reps``, sampled by ``_sample_worlds`` from
    the repetition generators (and association children) that the block derives in one pass."""
    from .streams import spawned_rngs

    children = [None] * len(reps)
    if _keeps_ues(cfg):
        children = list(spawned_rngs(cfg.master_seed, [(rep, ASSOC_LAYER) for rep in reps]))
    return _sample_worlds(cfg, list(spawned_rngs(cfg.master_seed, [(rep,) for rep in reps])), children)[0]


def _run_block(cfg: SimConfig, reps: range, keep_paths: bool) -> tuple:
    """Every policy (and the oracle) on the world of each repetition in ``reps``, stepped in lockstep.

    Returns the walks' outcome codes, hop counts and bottlenecks (repetition by repetition, policy by
    policy within one), the oracle's outcome codes and bottlenecks (None without it), and the walks' and
    the oracle's PathResults (empty without ``keep_paths``); only the block's ``RowStore`` (``_sample_block``)
    keeps the worlds' nodes.
    """
    threshold = cfg.radio.snr_threshold_db
    store = _sample_block(cfg, reps)
    n_policies = len(cfg.policies)
    walks = WalkBlock(
        store,
        [(spec.kind, spec.wbf) for spec in cfg.policies],
        np.repeat(np.arange(len(reps)), n_policies),
        np.repeat(store.origin, n_policies),
        np.tile(np.arange(n_policies), len(reps)),
        threshold,
        cfg.max_hops,
        cfg.radio.bandwidth_hz,
    )
    oracle = OracleBlock(store, store.origin, threshold) if cfg.oracle_enabled else None
    _lockstep([walks] if oracle is None else [walks, oracle])
    walked = walks.results() if keep_paths else []
    if oracle is None:
        return walks.outcome, walks.length, walks.bottleneck, None, None, walked, []
    found = _oracle_paths(oracle, store) if keep_paths else []
    return walks.outcome, walks.length, walks.bottleneck, oracle.outcome, oracle.bottleneck, walked, found


def run_repetition(cfg: SimConfig, rep_index: int) -> dict[str, PathResult]:
    """Run every configured policy (and the oracle) on one fresh realization.

    Returns a mapping from policy label to its PathResult; the oracle result,
    when enabled, is stored under the reserved label ``"oracle"``. ``rep_index`` must be an
    integer >= 0 (not a bool).
    """
    require_number("rep_index", rep_index, integer=True, at_least=0)
    rep_index = int(rep_index)
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
    """Repetitions [start, stop), run in the fewest blocks of near-equal size within ``_block_size``;
    per block, the records of ``_run_block``."""
    count = -(-(stop - start) // _block_size(cfg))
    edges = [start + (stop - start) * k // count for k in range(count + 1)]
    return [_run_block(cfg, range(first, last), keep_paths) for first, last in zip(edges, edges[1:])]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _work_cap(cfg: SimConfig) -> int:
    """The most processes that each get ``POOL_SHARE_US`` of the campaign's estimated one-worker time,
    and at least one."""
    return max(1, int(cfg.repetitions * _rep_cost_us(cfg) // POOL_SHARE_US))


def run_campaign(cfg: SimConfig, workers: int = 1, keep_paths: bool = False) -> CampaignResult:
    """Execute all repetitions, optionally across processes.

    At most ``min(workers, repetitions, usable CPUs, work cap)`` processes run,
    each on one contiguous range of repetitions. The work cap (``_work_cap``)
    gives each process at least ``POOL_SHARE_US`` of the one-worker time that
    ``_rep_cost_us`` estimates from the config, since a smaller share does not
    pay for starting the pool. With one process, the campaign runs in this
    process. With more, this process imports the pool, and then ``streams``
    with ``numpy.random``, so workers forked from it inherit the module
    rather than each import it again; under the ``spawn`` and ``forkserver``
    start methods each worker still imports it. The per-repetition streams
    depend only on (master_seed, index), and records are reassembled in
    repetition order, so the result is identical for any worker count.
    """
    require_number("workers", workers, integer=True, at_least=1)
    reps = cfg.repetitions
    processes = min(int(workers), reps, _usable_cpus(), _work_cap(cfg))
    if processes == 1:
        blocks = _run_range(cfg, 0, reps, keep_paths)
    else:
        from concurrent.futures import ProcessPoolExecutor  # with multiprocessing, about 20 ms to import

        from . import streams  # noqa: F401  (for the forked workers to inherit)

        bounds = np.linspace(0, reps, processes + 1).astype(int).tolist()
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [pool.submit(_run_range, cfg, a, b, keep_paths) for a, b in zip(bounds, bounds[1:])]
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
    """Right-continuous empirical distribution of a finite sample that holds no NaN."""

    def __init__(self, values):
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise ValueError("empirical CDF needs at least one sample")
        if np.isnan(arr[-1]):  # sorting puts any NaN last
            raise ValueError("empirical CDF samples must not be NaN")
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
