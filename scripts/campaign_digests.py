"""Print the campaign digest of each benchmark workload at two seeds and two worker counts.

    python scripts/campaign_digests.py [ROOT]

``iabsim`` is imported from ROOT/src and ``campaign_digest`` from
ROOT/bench/campaign.py, read-only; ROOT defaults to the checkout holding this
script, and may be another one, such as a pull request's merge base. The
first line names the random-stream schema (``channel.STREAM_SCHEMA``). Each
workload then gets a SHA-256 of its parsed config's echo as sorted-key JSON,
so a change to a parsed value or a dropped echo key shows, and a change of key
order does not. Each (workload, seed, workers) line gives the campaign digest
and a SHA-256 of every PathResult the same campaign keeps with
``keep_paths=True`` (hops, outcome and exact bottleneck, the oracle's included),
which catches a path change that the per-repetition arrays miss; a
``workers=2`` line runs two pool processes even on a host with one CPU, and
although its campaign is smaller than the work that pays for a pool. Each
(workload, seed) also gets a ``blocks=small`` line for one worker with blocks
of at most ``SMALL_BLOCKS[workload]`` repetitions, so that every campaign
crosses several block edges; it lowers ``simulate.BLOCK_BYTES``, and also the
pass bounds to ``SMALL_PASSES``, so that every desk world (about 3000 UE-gNB
pairs) is associated in passes of whole UE rows of its own and every dense480
link row is hashed in a pass of its own. No bit depends on a block or pass
bound, so its digests equal those of the default bounds. Two checkouts with the same
schema must print the same lines: a change that moves a campaign's numbers
declares a new schema.
"""
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

# Small campaigns, each of which fits in one block at the default bound.
REPETITIONS = {"desk": 40, "dense480": 6, "nomlr120": 80}
# The most repetitions a block holds in the blocks=small runs.
SMALL_BLOCKS = {"desk": 7, "dense480": 2, "nomlr120": 15}
# The pairs a link-row pass (PASS_PAIRS) and an association pass (ASSOC_PASS_PAIRS) take in those runs.
SMALL_PASSES = {"PASS_PAIRS": 300, "ASSOC_PASS_PAIRS": 1000}
SEEDS = (1, 4242)
WORKERS = (1, 2)


def paths_digest(paths: dict) -> str:
    """SHA-256 over every kept PathResult, label by label in the campaign's order."""
    h = hashlib.sha256()
    for label, results in paths.items():
        for res in results:
            fields = (label, res.origin_id, res.hops, float(res.bottleneck_snr_db).hex(), res.outcome.value)
            h.update(f"{fields}\n".encode())
    return h.hexdigest()


@contextmanager
def small_blocks(simulate, channel, cfg, repetitions: int):
    """Blocks of at most ``repetitions`` repetitions of ``cfg``, and passes of ``SMALL_PASSES``
    pairs, inside the block; the bounds are restored after."""
    saved = simulate.BLOCK_BYTES, {name: getattr(channel, name) for name in SMALL_PASSES}
    simulate.BLOCK_BYTES = repetitions * simulate._world_bytes(cfg)
    for name, pairs in SMALL_PASSES.items():
        setattr(channel, name, pairs)
    try:
        yield
    finally:
        simulate.BLOCK_BYTES = saved[0]
        for name, pairs in saved[1].items():
            setattr(channel, name, pairs)


def main(root: Path) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from campaign import campaign_digest
    from iabsim.channel import STREAM_SCHEMA
    from iabsim.config import config_document, parse_config
    from iabsim import channel, simulate
    from iabsim.simulate import run_campaign

    # a workers=2 line runs two ranges in the pool on any host, however small its campaign
    simulate._usable_cpus = lambda: max(WORKERS)
    simulate._work_cap = lambda cfg: max(WORKERS)
    print(f"stream_schema {STREAM_SCHEMA}")
    for workload, reps in REPETITIONS.items():
        doc = json.loads((root / "bench" / "workloads" / f"{workload}.json").read_text())
        echo = json.dumps(config_document(parse_config(doc)), sort_keys=True)
        print(f"{workload} config_echo_sha256 {hashlib.sha256(echo.encode()).hexdigest()}")
        for seed in SEEDS:
            doc["run"].update(repetitions=reps, master_seed=seed)
            cfg = parse_config(doc)
            for workers in WORKERS:
                digest = campaign_digest(run_campaign(cfg, workers=workers))
                kept = paths_digest(run_campaign(cfg, workers=workers, keep_paths=True).paths)
                print(f"{workload} seed={seed} workers={workers} {digest} paths={kept}", flush=True)
            with small_blocks(simulate, channel, cfg, SMALL_BLOCKS[workload]):
                digest = campaign_digest(run_campaign(cfg))
                kept = paths_digest(run_campaign(cfg, keep_paths=True).paths)
            print(f"{workload} seed={seed} workers=1 blocks=small {digest} paths={kept}", flush=True)


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent).resolve())
