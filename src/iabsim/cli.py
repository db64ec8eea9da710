"""Command-line entry point and machine-readable result emission.

Outputs are plotting-agnostic: one ``summary.json`` with the echoed config and
per-policy statistics, plus per-policy ``<label>_hops_cdf.csv`` and
``<label>_snr_cdf.csv`` tables (``value,cdf`` rows, ascending). Exit codes:
0 success, 1 validation error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .channel import STREAM_SCHEMA
from .config import WBF_PRESETS, _parse_policy_entry, config_document, parse_config
from .errors import ConfigError
from .simulate import CampaignSummary, EmpiricalCdf, SimConfig, aggregate, run_campaign


@dataclass
class ResultBundle:
    """Everything a run emits: reproducibility metadata plus the summary."""

    config_doc: dict
    master_seed: int
    version: str
    summary: CampaignSummary


def _bundle_doc(bundle: ResultBundle) -> dict:
    """The document of summary.json: the run's metadata and each policy's statistics, no CDF rows."""
    policies = {}
    for label, s in bundle.summary.policies.items():
        policies[label] = {
            "policy": s.kind.value,
            "wbf_kind": s.wbf.kind.value,
            "repetitions": s.repetitions,
            "successes": s.successes,
            "failure_probability": s.failure_probability,
            "hops": None
            if s.hop_mean is None
            else {"mean": s.hop_mean, "median": s.hop_median, "p95": s.hop_p95},
            "bottleneck_snr_db": None
            if s.snr_mean_db is None
            else {"mean": s.snr_mean_db, "median": s.snr_median_db, "p95": s.snr_p95_db},
            "mean_oracle_gap_db": s.mean_oracle_gap_db,
        }
    return {
        "metadata": {
            "version": bundle.version,
            "stream_schema": STREAM_SCHEMA,
            "master_seed": bundle.master_seed,
            "config": bundle.config_doc,
        },
        "policies": policies,
    }


def _cdf_csv_text(cdf: EmpiricalCdf | None) -> str:
    """``cdf``'s steps as ``value,cdf`` rows at 6 digits; the header alone without a CDF."""
    rows = () if cdf is None else zip(*(steps.tolist() for steps in cdf.steps()))
    return "".join(["value,cdf\n", *(f"{v:.6g},{p:.6f}\n" for v, p in rows)])


def _replace_text(path: Path, text: str) -> None:
    """Write ``text`` under a temporary name beside ``path``, then rename it into place."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, newline="\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_results(bundle: ResultBundle, out_dir) -> list[Path]:
    """Emit the per-policy CDF tables, then summary.json; returns written paths.

    An old summary.json and every old CDF table are removed first and every
    file is renamed into place whole, so a summary on disk always sits next to
    the complete tables of its own run and no others, even when writing stops
    partway.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.json"
    for old in (summary_path, *out.glob("*_hops_cdf.csv"), *out.glob("*_snr_cdf.csv")):
        old.unlink(missing_ok=True)
    tables = []
    for label, s in bundle.summary.policies.items():
        for suffix, cdf in (("hops_cdf", s.hops_cdf), ("snr_cdf", s.snr_cdf)):
            tables.append(out / f"{label}_{suffix}.csv")
            _replace_text(tables[-1], _cdf_csv_text(cdf))
    _replace_text(summary_path, json.dumps(_bundle_doc(bundle), indent=2) + "\n")
    return [summary_path, *tables]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to the validation exit code
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="iabsim", description="Multi-hop mmWave backhaul path-selection campaigns")
    parser.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, help="master seed, overrides the config file")
    parser.add_argument("--reps", type=int, help="number of repetitions, overrides the config file")
    parser.add_argument("--policies", help="comma-separated list among HQF,WF,PA,MLR")
    parser.add_argument("--preset-wbf", help=f"apply a bias preset to every policy: {sorted(WBF_PRESETS)}")
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes; at most min(workers, repetitions, usable CPUs) start, and only as "
        "many as the campaign's estimated work pays for",
    )
    parser.add_argument("--oracle", action="store_true", help="also compute the max-min bottleneck benchmark")
    return parser


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    if args.policies is not None:
        names = [p.strip() for p in args.policies.split(",") if p.strip()]
        if not names:
            raise ConfigError("--policies must name at least one policy")
        entries = [{"policy": name, "wbf": args.preset_wbf} for name in names]
        try:
            policies = tuple(_parse_policy_entry(entry, i) for i, entry in enumerate(entries))
        except ConfigError as exc:
            raise ConfigError(f"--policies/--preset-wbf: {exc}") from None
        cfg = replace(cfg, policies=policies)
    elif args.preset_wbf is not None:
        raise ConfigError("--preset-wbf requires --policies")
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.reps is not None:
        cfg = replace(cfg, repetitions=args.reps)
    if args.oracle:
        cfg = replace(cfg, oracle_enabled=True)
    return cfg


def _print_summary(summary: CampaignSummary) -> None:
    print(f"{'policy':<28} {'success':>8} {'med hops':>9} {'med SNR dB':>11} {'gap dB':>8}")
    for label, s in summary.policies.items():
        med_hops = "-" if s.hop_median is None else f"{s.hop_median:.0f}"
        med_snr = "-" if s.snr_median_db is None else f"{s.snr_median_db:.2f}"
        gap = "-" if s.mean_oracle_gap_db is None else f"{s.mean_oracle_gap_db:.2f}"
        print(f"{label:<28} {1 - s.failure_probability:>8.3f} {med_hops:>9} {med_snr:>11} {gap:>8}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            cfg = parse_config(Path(args.config)) if args.config else parse_config({})
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        cfg = _apply_overrides(cfg, args)
        # A world law that cannot be sampled (see sample_world) shows up here.
        result = run_campaign(cfg, workers=args.workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = aggregate(cfg, result)
    bundle = ResultBundle(
        config_doc=config_document(cfg),
        master_seed=cfg.master_seed,
        version=__version__,
        summary=summary,
    )
    try:
        written = write_results(bundle, args.out)
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 2
    _print_summary(summary)
    print(f"wrote {len(written)} files to {Path(args.out)}")
    return 0
