"""The untraced campaign pipeline, its correctness gate and the campaign digest.

Only the public steps that ``iabsim.cli.main`` takes are used here, so the
end-to-end measurement keeps working when the inside of a repetition changes.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from iabsim import __version__
from iabsim.cli import ResultBundle, write_results
from iabsim.config import config_document, parse_config
from iabsim.simulate import CampaignResult, CampaignSummary, SimConfig, aggregate, run_campaign

# A policy's bottleneck may exceed the oracle's only by rounding.
ORACLE_SLACK_DB = 1e-9
# Timed campaigns a run needs before it may stop, besides the first (warm-up) one.
MIN_TIMED = 3


def bundle_for(cfg: SimConfig, summary: CampaignSummary) -> ResultBundle:
    return ResultBundle(
        config_doc=config_document(cfg),
        master_seed=cfg.master_seed,
        version=__version__,
        summary=summary,
    )


def run_pipeline(doc: dict, workers: int, out_dir: Path) -> tuple[SimConfig, CampaignResult]:
    """parse_config -> run_campaign -> aggregate -> write_results, as the CLI runs them."""
    cfg = parse_config(doc)
    result = run_campaign(cfg, workers=workers)
    write_results(bundle_for(cfg, aggregate(cfg, result)), out_dir)
    return cfg, result


def timed_run(doc: dict, workers: int, seconds: float, work_dir: Path) -> dict:
    """Run the same campaign until ``seconds`` have passed; gate every one.

    Each campaign is one operation; it fails when it raises or fails the gate.
    The first campaign fills caches and is not timed. Every campaign has the
    same seed, so all of them must give the same digest.
    """
    rates, problems, digests = [], [], set()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(rates) < MIN_TIMED:
        attempted += 1
        out = work_dir / f"campaign{attempted}"
        try:
            start = time.perf_counter()
            cfg, result = run_pipeline(doc, workers, out)
            wall = time.perf_counter() - start
            found = gate(cfg, result, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            break
        finally:
            shutil.rmtree(out, ignore_errors=True)
        digests.add(campaign_digest(result))
        if len(digests) > 1:
            found.append("a repeated campaign gave a different result")
        if found:
            failed += 1
            problems += found
        if attempted > 1:
            rates.append(cfg.repetitions / wall)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "campaign_digest": sorted(digests),
        "reps_per_campaign": doc["run"]["repetitions"],
        "reps_per_s": rates,
    }


def campaign_digest(result: CampaignResult) -> str:
    """sha256 over the per-repetition arrays, policies in label order, oracle last."""
    h = hashlib.sha256()

    def add(name: str, arr: np.ndarray) -> None:
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}\n".encode())
        h.update(np.ascontiguousarray(arr).tobytes())

    for label in result.labels:
        add(f"{label}.outcome", result.outcome[label])
        add(f"{label}.hop_count", result.hop_count[label])
        add(f"{label}.bottleneck_db", result.bottleneck_db[label])
    if result.oracle_outcome is not None:
        add("oracle.outcome", result.oracle_outcome)
        add("oracle.bottleneck_db", result.oracle_bottleneck_db)
    return h.hexdigest()


def gate(cfg: SimConfig, result: CampaignResult, out_dir: Path) -> list[str]:
    """Checks that hold under any random-stream schema; returns the failures found.

    Policy ``NO_CANDIDATE``/``MAX_HOPS`` outcomes are simulation outputs, not
    failures: only the invariants below are.
    """
    problems = []
    oracle_ok = None
    if result.oracle_bottleneck_db is not None:
        # An oracle success carries a finite bottleneck; a failure carries NaN.
        oracle_ok = np.isfinite(result.oracle_bottleneck_db)
    for label in result.labels:
        hops = result.hop_count[label]
        ok = result.success_mask(label)
        if int(hops.max()) > cfg.max_hops:
            problems.append(f"{label}: hop count above max_hops={cfg.max_hops}")
        if ok.any() and int(hops[ok].min()) < 1:
            problems.append(f"{label}: a success with no hop")
        if oracle_ok is not None:
            if not oracle_ok[ok].all():
                problems.append(f"{label}: a policy success where the oracle failed")
            if (result.bottleneck_db[label][ok] > result.oracle_bottleneck_db[ok] + ORACLE_SLACK_DB).any():
                problems.append(f"{label}: a policy bottleneck above the oracle's")
    # A wired bias of 1e6 dB makes HQF take a wired donor whenever one is admissible: WF's rule.
    if {"WF", "HQF_huge_gap"} <= set(result.labels):
        for field in ("outcome", "hop_count"):
            arrays = getattr(result, field)
            if not np.array_equal(arrays["WF"], arrays["HQF_huge_gap"]):
                problems.append(f"HQF_huge_gap {field} differs from WF")
    echo = json.loads((Path(out_dir) / "summary.json").read_text())["metadata"]["config"]
    if parse_config(echo) != cfg:
        problems.append("summary.json config echo does not reparse to the run's SimConfig")
    return problems
