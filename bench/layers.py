"""Traced run: what each layer of a repetition costs, timed from outside the package.

``traced_repetition`` makes the calls that ``sample_world`` and
``run_repetition`` make, in their order and on the same random stream, and
times each one. Because it is a copy of that call sequence, every round checks
it: the traced campaign's digest must equal the untraced one's. When it does
not (the package changed the sequence), the per-layer numbers are reported
stale through ``trace.pipeline_matches = 0`` and the run goes on. The arrays
are assembled with the package's own outcome codes (``_OUTCOME_CODE``), as
``run_campaign`` assembles them.

Counts (pairs, candidates, rows read) are taken from each call's output after
the repetition's clock has stopped, so they cost no traced time.
"""
from __future__ import annotations

import math
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from campaign import bundle_for, campaign_digest, gate
from iabsim.channel import associate_min_pathloss, link_table
from iabsim.cli import write_results
from iabsim.config import parse_config
from iabsim.geometry import assign_roles, sample_ppp
from iabsim.policy import PathOutcome, PolicyKind, build_path
from iabsim.simulate import (
    _OUTCOME_CODE,
    CampaignResult,
    SimConfig,
    aggregate,
    repetition_rng,
    run_campaign,
    widest_path_oracle,
)


class Tracer:
    """Wall time and call count per span name, repetition durations, and counters."""

    def __init__(self):
        self.ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.rep_ns: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.ns[name] += time.perf_counter_ns() - start
        self.calls[name] += 1
        return out

    def mean_us(self, *names: str) -> float:
        """Mean microseconds per call over the named spans; 0 when none ran."""
        calls = sum(self.calls[n] for n in names)
        return sum(self.ns[n] for n in names) / calls / 1e3 if calls else 0.0


def _associate(deployment, cfg: SimConfig, rng) -> None:
    serving = associate_min_pathloss(deployment.ue_positions, deployment, cfg.channel, rng)
    counts = np.bincount(serving[serving >= 0], minlength=deployment.n_gnbs)
    for g in deployment.gnbs:
        g.attached_count = int(counts[g.id])


def traced_repetition(cfg: SimConfig, rep: int, tr: Tracer) -> dict:
    """One repetition as ``run_repetition`` makes it, with every call timed."""
    start = time.perf_counter_ns()
    rng = tr.call("simulate.repetition_rng", repetition_rng, cfg.master_seed, rep)
    while True:
        points = tr.call("geometry.sample_ppp", sample_ppp, cfg.lambda_g, cfg.region, rng)
        if len(points) >= 2:
            break
        tr.counts["ppp_redraws"] += 1
    deployment = tr.call(
        "geometry.assign_roles", assign_roles, points, cfg.p_w, cfg.region, rng, sectors=cfg.radio.sectors
    )
    if cfg.lambda_ue > 0:
        deployment.ue_positions = tr.call("geometry.sample_ppp_ue", sample_ppp, cfg.lambda_ue, cfg.region, rng)
        tr.call("channel.associate_min_pathloss", _associate, deployment, cfg, rng)
    links = tr.call("channel.link_table", link_table, deployment, cfg.radio, cfg.channel, rng)
    results = {}
    for spec in cfg.policies:
        results[spec.label] = tr.call(
            f"policy.build_path.{spec.label}",
            build_path,
            deployment.origin_id,
            spec.kind,
            spec.wbf,
            deployment,
            links.snr,
            cfg.radio.snr_threshold_db,
            max_hops=cfg.max_hops,
            bandwidth_hz=cfg.radio.bandwidth_hz,
        )
    if cfg.oracle_enabled:
        results["oracle"] = tr.call(
            "simulate.widest_path_oracle",
            widest_path_oracle,
            deployment,
            links.snr,
            deployment.origin_id,
            cfg.radio.snr_threshold_db,
        )
    tr.rep_ns.append(time.perf_counter_ns() - start)
    _count_world(cfg, deployment, links, results, tr.counts)
    return results


def _count_world(cfg: SimConfig, deployment, links, results: dict, c: dict) -> None:
    """Work counts of one repetition, read from its outputs."""
    n = deployment.n_gnbs
    snr = links.snr
    th = cfg.radio.snr_threshold_db
    admissible_pairs = int(np.count_nonzero(snr >= th)) // 2
    c["reps"] += 1
    c["n_gnbs"] += n
    c["ue_pairs"] += len(deployment.ue_positions) * n
    c["link_pairs"] += n * (n - 1) // 2
    c["link_bytes"] += sum(v.nbytes for v in vars(links).values() if isinstance(v, np.ndarray))
    # The diagonal is -inf too; every other -inf entry is an outage pair, counted twice.
    c["outage_pairs"] += (int(np.count_nonzero(np.isneginf(snr))) - n) // 2
    if cfg.lambda_ue > 0 and any(spec.kind == PolicyKind.MLR for spec in cfg.policies):
        c["assoc_used"] += 1
    if cfg.oracle_enabled:
        c["oracle_edges"] += admissible_pairs
    rows = set()
    for spec in cfg.policies:
        res = results[spec.label]
        # build_path scans the row of every node it stands on; it stops at the
        # donor, at max_hops, or at a node whose row has no admissible entry.
        stood_on = [res.origin_id, *res.hops]
        if res.outcome != PathOutcome.NO_CANDIDATE:
            stood_on.pop()
        unvisited = np.ones(n, dtype=bool)
        for node in stood_on:
            unvisited[node] = False
            c["scanned"] += int(unvisited.sum())
            c["admitted"] += int(np.count_nonzero(snr[node][unvisited] >= th))
        rows.update(stood_on)
        c["walks"] += 1
        c["walk_hops"] += res.hop_count
    c["walk_rows_share"] += len(rows) / n


def traced_campaign(cfg: SimConfig, tr: Tracer) -> CampaignResult:
    """Every repetition traced, assembled into arrays as ``run_campaign`` does."""
    labels = tuple(spec.label for spec in cfg.policies)
    reps = cfg.repetitions
    outcome = {lab: np.empty(reps, dtype=np.int8) for lab in labels}
    hop_count = {lab: np.empty(reps, dtype=np.int32) for lab in labels}
    bottleneck = {lab: np.empty(reps, dtype=np.float64) for lab in labels}
    oracle_outcome = np.empty(reps, dtype=np.int8) if cfg.oracle_enabled else None
    oracle_bottleneck = np.empty(reps, dtype=np.float64) if cfg.oracle_enabled else None
    for rep in range(reps):
        results = traced_repetition(cfg, rep, tr)
        for lab in labels:
            res = results[lab]
            outcome[lab][rep] = _OUTCOME_CODE[res.outcome]
            hop_count[lab][rep] = res.hop_count
            bottleneck[lab][rep] = res.bottleneck_snr_db
        if cfg.oracle_enabled:
            oracle_outcome[rep] = _OUTCOME_CODE[results["oracle"].outcome]
            oracle_bottleneck[rep] = results["oracle"].bottleneck_snr_db
    return CampaignResult(
        labels=labels,
        repetitions=reps,
        outcome=outcome,
        hop_count=hop_count,
        bottleneck_db=bottleneck,
        oracle_outcome=oracle_outcome,
        oracle_bottleneck_db=oracle_bottleneck,
    )


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100 - 1000 / samples))


def traced_run(doc: dict, workers: int, seconds: float, work_dir: Path) -> dict:
    """Rounds of (untraced campaign, traced campaign) until ``seconds`` have passed.

    Each round also runs the campaign serially when ``workers`` > 1: the
    untraced serial wall is the base of the tracing overhead, and its digest
    must equal the parallel one (worker-count determinism).
    """
    tr = Tracer()
    attempted = failed = 0
    matches = True
    digests = set()
    efficiency, overhead, problems = [], [], []
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        attempted += 1
        out = work_dir / f"round{attempted}"
        cfg = tr.call("config.parse_config", parse_config, doc)
        start = time.perf_counter()
        untraced = run_campaign(cfg, workers=workers)
        wall = time.perf_counter() - start
        serial_wall = wall
        round_problems = []
        if workers > 1:
            start = time.perf_counter()
            serial = run_campaign(cfg, workers=1)
            serial_wall = time.perf_counter() - start
            if campaign_digest(serial) != campaign_digest(untraced):
                round_problems.append(f"{workers} workers and 1 worker gave different results")
        first = len(tr.rep_ns)
        start = time.perf_counter()
        traced = traced_campaign(cfg, tr)
        traced_wall = time.perf_counter() - start
        traced_ns = sum(tr.rep_ns[first:])
        summary = tr.call("simulate.aggregate", aggregate, cfg, traced)
        try:
            written = tr.call("cli.write_results", write_results, bundle_for(cfg, summary), out)
            tr.counts["bytes_written"] += sum(p.stat().st_size for p in written)
            round_problems += gate(cfg, untraced, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        digest = campaign_digest(untraced)
        digests.add(digest)
        if len(digests) > 1:
            round_problems.append("a repeated campaign gave a different result")
        matches &= campaign_digest(traced) == digest
        efficiency.append(traced_ns / 1e9 / (workers * wall))
        overhead.append(traced_wall / serial_wall - 1.0)
        if round_problems:
            failed += 1
            problems += round_problems
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "campaign_digest": sorted(digests),
        "metrics": layer_metrics(cfg, tr, matches, statistics.median(efficiency), statistics.median(overhead)),
        "per_label_us": {spec.label: tr.mean_us(f"policy.build_path.{spec.label}") for spec in cfg.policies},
    }


def layer_metrics(cfg: SimConfig, tr: Tracer, matches: bool, efficiency: float, overhead: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    c = tr.counts
    reps = c["reps"]
    walks = c["walks"]
    rep_us = np.asarray(tr.rep_ns) / 1e3
    tail = tail_percentile(len(rep_us))
    link_pairs = c["link_pairs"]
    by_kind = {
        kind: [f"policy.build_path.{spec.label}" for spec in cfg.policies if spec.kind == kind]
        for kind in PolicyKind
    }
    all_walks = [name for names in by_kind.values() for name in names]
    return {
        "simulate.repetition_rng.us": (tr.mean_us("simulate.repetition_rng"), "us"),
        "geometry.sample_ppp.us": (tr.ns["geometry.sample_ppp"] / reps / 1e3, "us"),
        "geometry.ppp_redraws": (c["ppp_redraws"], "count"),
        "geometry.assign_roles.us": (tr.mean_us("geometry.assign_roles"), "us"),
        "geometry.sample_ppp_ue.us": (tr.mean_us("geometry.sample_ppp_ue"), "us"),
        "geometry.n_gnbs_mean": (c["n_gnbs"] / reps, "count"),
        "channel.associate_min_pathloss.us": (tr.mean_us("channel.associate_min_pathloss"), "us"),
        "channel.ue_pairs": (c["ue_pairs"] / reps, "count"),
        "channel.assoc_used_share": (c["assoc_used"] / reps, "share"),
        "channel.link_table.us": (tr.mean_us("channel.link_table"), "us"),
        "channel.link_pairs": (link_pairs / reps, "count"),
        "channel.link_table.ns_per_pair": (tr.ns["channel.link_table"] / link_pairs, "ns"),
        "channel.link_table.bytes_computed": (c["link_bytes"] / reps, "B"),
        "channel.outage_share": (c["outage_pairs"] / link_pairs, "share"),
        "channel.walk_rows_share": (c["walk_rows_share"] / reps, "share"),
        "policy.build_path.us": (tr.mean_us(*all_walks), "us"),
        **{f"policy.build_path.{kind.value}.us": (tr.mean_us(*names), "us") for kind, names in by_kind.items()},
        "policy.hops_per_walk": (c["walk_hops"] / walks, "count"),
        "policy.candidates_scanned": (c["scanned"] / walks, "count"),
        "policy.admit_share": (c["admitted"] / c["scanned"] if c["scanned"] else 0.0, "share"),
        "simulate.widest_path_oracle.us": (tr.mean_us("simulate.widest_path_oracle"), "us"),
        "simulate.oracle_edges": (c["oracle_edges"] / reps, "count"),
        "simulate.run_repetition.p50_us": (float(np.percentile(rep_us, 50)), "us"),
        "simulate.run_repetition.tail_us": (float(np.percentile(rep_us, tail)), "us"),
        "simulate.run_repetition.tail_pct": (tail, "%"),
        "simulate.run_repetition.samples": (len(rep_us), "count"),
        "simulate.parallel_efficiency": (efficiency, "share"),
        "simulate.aggregate.ms": (tr.mean_us("simulate.aggregate") / 1e3, "ms"),
        "cli.write_results.ms": (tr.mean_us("cli.write_results") / 1e3, "ms"),
        "cli.bytes_written": (c["bytes_written"] / tr.calls["cli.write_results"], "B"),
        "config.parse_config.us": (tr.mean_us("config.parse_config"), "us"),
        "trace.overhead_share": (overhead, "share"),
        "trace.pipeline_matches": (int(matches), "count"),
    }
