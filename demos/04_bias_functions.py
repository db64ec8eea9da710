"""Wired-bias functions: preset shapes and their effect on path building.

Run: python demos/04_bias_functions.py
"""
import numpy as np

from iabsim import (
    PolicyKind,
    SimConfig,
    WBF_PRESETS,
    WbfConfig,
    WbfKind,
    build_path,
    repetition_rng,
    sample_world,
    wired_bias_db,
)

print("=== Bias in dB vs hops traveled ===")
names = ["conservative_poly", "aggressive_poly", "conservative_exp", "aggressive_exp"]
print(f"{'N':>3} " + " ".join(f"{n:>18}" for n in names))
for n_hops in range(0, 7):
    row = " ".join(f"{wired_bias_db(n_hops, WBF_PRESETS[name]):>18.2f}" for name in names)
    print(f"{n_hops:>3} {row}")
print("\nthe exponential variant dominates its polynomial twin at every hop count,")
print("and the aggressive settings dwarf any realistic SNR difference past one hop")

print("\n=== Effect on the highest-SNR-first policy (100 worlds) ===")
cfg = SimConfig()
run = {"max_hops": cfg.max_hops, "bandwidth_hz": cfg.radio.bandwidth_hz}
variants = {
    "no bias": WbfConfig(),
    "conservative_poly": WBF_PRESETS["conservative_poly"],
    "aggressive_poly": WBF_PRESETS["aggressive_poly"],
    "aggressive_exp": WBF_PRESETS["aggressive_exp"],
    "huge gap (acts as WF)": WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=1.0, gamma_gap_db=1e6),
}
hops = {name: [] for name in variants}
matches_wf = 0
for rep in range(100):
    deployment, links = sample_world(cfg, repetition_rng(11, rep))
    wf = build_path(deployment.origin_id, PolicyKind.WF, WbfConfig(), deployment,
                    links.snr, cfg.radio.snr_threshold_db, **run)
    for name, wbf in variants.items():
        res = build_path(deployment.origin_id, PolicyKind.HQF, wbf, deployment,
                         links.snr, cfg.radio.snr_threshold_db, **run)
        if res.success:
            hops[name].append(res.hop_count)
        if name.startswith("huge") and res.hops == wf.hops:
            matches_wf += 1

for name, values in hops.items():
    print(f"{name:>22}: mean hops {np.mean(values):.2f} over {len(values)} successes")
print(f"\nhuge-gap bias reproduced the wired-first walk on {matches_wf}/100 worlds")
