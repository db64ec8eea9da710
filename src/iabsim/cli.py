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


# A CDF row's depth in summary.json (policies, label, table, row): json.dumps(..., indent=2)
# puts each row, each of its numbers and the table's closing bracket on a line of their own,
# indented this far.
_ROW, _NUMBER, _CLOSE = ("\n" + " " * width for width in (8, 10, 6))


def _cdf_rows(cdf: EmpiricalCdf | None) -> list[list[float]]:
    """The (value, cdf) rows of ``cdf``'s steps as Python floats; none without a CDF."""
    if cdf is None:
        return []
    values, probs = cdf.steps()
    return [[v, p] for v, p in zip(values.tolist(), probs.tolist())]


def _rows_json(rows: list[list[float]]) -> str:
    """``rows`` as ``json.dumps(..., indent=2)`` writes a CDF table in summary.json, to the byte.
    The pure-Python encoder that ``indent`` selects is slow on long tables, so the rows go through
    the C encoder on one line, which is then broken and indented."""
    if not rows:
        return "[]"
    text = json.dumps(rows)[2:-2].replace("], [", f"{_ROW}],{_ROW}[{_NUMBER}").replace(", ", f",{_NUMBER}")
    return f"[{_ROW}[{_NUMBER}{text}{_ROW}]{_CLOSE}]"


def _bundle_doc(bundle: ResultBundle) -> dict:
    """The document of summary.json, with each CDF table replaced by a NUL character and its key
    "<label>_<table>", which no other string of the document holds."""
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
            "hops_cdf": f"\0{label}_hops_cdf",
            "snr_cdf": f"\0{label}_snr_cdf",
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


def _summary_text(bundle: ResultBundle, tables: dict) -> str:
    """summary.json as ``json.dumps(doc, indent=2)`` writes it, with the CDF rows that ``tables``
    holds by key spliced in from ``_rows_json`` where ``_bundle_doc`` left each key."""
    head, *parts = json.dumps(_bundle_doc(bundle), indent=2).split('"\\u0000')
    text = [head]
    for part in parts:  # a key, its closing quote, and the text up to the next key
        key, rest = part.split('"', 1)
        text += [_rows_json(tables[key]), rest]
    return "".join(text) + "\n"


def _cdf_csv_text(rows: list[list[float]]) -> str:
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
    rows = {}  # each CDF's steps, taken once for its table and for summary.json
    for label, s in bundle.summary.policies.items():
        for suffix, cdf in (("hops_cdf", s.hops_cdf), ("snr_cdf", s.snr_cdf)):
            key = f"{label}_{suffix}"
            rows[key] = _cdf_rows(cdf)
            _replace_text(out / f"{key}.csv", _cdf_csv_text(rows[key]))
    _replace_text(summary_path, _summary_text(bundle, rows))
    return [summary_path, *(out / f"{key}.csv" for key in rows)]


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
        help="parallel worker processes; at most min(workers, repetitions, usable CPUs) start",
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
