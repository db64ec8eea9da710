"""Print the campaign digest of each benchmark workload at two seeds and two worker counts.

    python scripts/campaign_digests.py [ROOT]

``iabsim`` is imported from ROOT/src and ``campaign_digest`` from
ROOT/bench/campaign.py, read-only; ROOT defaults to the checkout holding this
script, and may be another one, such as a pull request's merge base. The
first line names the random-stream schema (``channel.STREAM_SCHEMA``). Two
checkouts with the same schema must print the same lines: a change that moves
a campaign's numbers declares a new schema.
"""
import json
import sys
from pathlib import Path

# Small campaigns: nomlr120's spans two of its blocks, so block edges are crossed.
REPETITIONS = {"desk": 40, "dense480": 6, "nomlr120": 80}
SEEDS = (1, 4242)
WORKERS = (1, 2)


def main(root: Path) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from campaign import campaign_digest
    from iabsim.channel import STREAM_SCHEMA
    from iabsim.config import parse_config
    from iabsim.simulate import run_campaign

    print(f"stream_schema {STREAM_SCHEMA}")
    for workload, reps in REPETITIONS.items():
        doc = json.loads((root / "bench" / "workloads" / f"{workload}.json").read_text())
        for seed in SEEDS:
            doc["run"].update(repetitions=reps, master_seed=seed)
            cfg = parse_config(doc)
            for workers in WORKERS:
                digest = campaign_digest(run_campaign(cfg, workers=workers))
                print(f"{workload} seed={seed} workers={workers} {digest}", flush=True)


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent).resolve())
