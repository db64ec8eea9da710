"""One realization, four selection policies, and the centralized benchmark.

Run: python demos/03_single_run_policies.py
"""
from iabsim import (
    PolicyKind,
    SimConfig,
    WbfConfig,
    build_path,
    repetition_rng,
    sample_world,
    widest_path_oracle,
)

cfg = SimConfig()  # reference parameterization: 30 gNB/km^2, p_w = 0.3, M = 64
rng = repetition_rng(master_seed=26, rep_index=0)
deployment, links = sample_world(cfg, rng)

origin = deployment.origin_id
print(f"world: {deployment.n_gnbs} gNBs ({deployment.wired.sum()} wired), "
      f"{len(deployment.ue_positions)} UEs, origin relay id {origin}")

def describe(name, res):
    if res.success:
        trail = " -> ".join(str(h) for h in (origin,) + res.hops)
        wired_mark = "wired" if deployment.wired[res.hops[-1]] else "relay"
        print(f"{name:>8}: {trail}  ({res.hop_count} hops, bottleneck "
              f"{res.bottleneck_snr_db:.1f} dB, ends at {wired_mark})")
    else:
        print(f"{name:>8}: failed with {res.outcome.value} after {res.hop_count} hops")

no_bias = WbfConfig()
for kind in PolicyKind:
    res = build_path(origin, kind, no_bias, deployment, links.snr, cfg.radio.snr_threshold_db,
                     max_hops=cfg.max_hops, bandwidth_hz=cfg.radio.bandwidth_hz)
    describe(kind.value, res)

oracle = widest_path_oracle(deployment, links.snr, origin, cfg.radio.snr_threshold_db)
describe("oracle", oracle)
print("\nthe oracle is the centralized max-min-bottleneck benchmark; every greedy")
print("policy's bottleneck is bounded by it on the same realization")
