"""Deployment geometry walkthrough: Poisson scatter, roles, and PA's forward half-plane.

A deployment is a set of arrays indexed by gNB id: ``positions`` (n, 2) and
``wired`` (n,).

Run: python demos/01_deployment_geometry.py
"""
import numpy as np

from iabsim import Region, assign_roles, sample_ppp

rng = np.random.default_rng(2024)
region = Region(1000.0, 1000.0)

print("=== Poisson deployment over 1 km x 1 km ===")
counts = [len(sample_ppp(30.0, region, rng)) for _ in range(2000)]
print(f"density 30 gNB/km^2: empirical mean count {np.mean(counts):.2f} (law says 30)")

positions = sample_ppp(30.0, region, rng)
deployment = assign_roles(positions, p_w=0.3, region=region, rng=rng)
pos, wired = deployment.positions, deployment.wired
relay_ids = np.flatnonzero(~wired)
print(f"\none realization: {deployment.n_gnbs} gNBs, {wired.sum()} wired donors, {relay_ids.size} relays")

origin = deployment.origin_id
center = np.array((region.width_m / 2.0, region.height_m / 2.0))
print(f"origin relay: id {origin} at ({pos[origin, 0]:.0f}, {pos[origin, 1]:.0f}) m, "
      f"{np.hypot(*(pos[origin] - center)):.0f} m from center")

# the donor a PA walk steers toward: the wired gNB nearest the origin, lowest id on ties
dist = np.hypot(*(pos - pos[origin]).T)
donor = np.flatnonzero(wired)[np.argmin(dist[wired])]
print(f"\nnearest wired donor: id {donor}, {dist[donor]:.0f} m away")

# the relays j ahead of the origin o toward the donor t: (p_j - p_o) . (p_t - p_o) > 0
forward = relay_ids[(pos[relay_ids] - pos[origin]) @ (pos[donor] - pos[origin]) > 0]
print(f"half-plane filter toward the donor keeps {forward.size} of {relay_ids.size} relays")
for j in forward[:5]:
    print(f"  kept relay {j} at ({pos[j, 0]:.0f}, {pos[j, 1]:.0f})")
