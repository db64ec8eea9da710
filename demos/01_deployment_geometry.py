"""Deployment geometry walkthrough: Poisson scatter, roles, spatial predicates.

Run: python demos/01_deployment_geometry.py
"""
import numpy as np

from iabsim import Region, assign_roles, distance, half_plane_filter, nearest_wired, sample_ppp

rng = np.random.default_rng(2024)
region = Region(1000.0, 1000.0)

print("=== Poisson deployment over 1 km x 1 km ===")
counts = [len(sample_ppp(30.0, region, rng)) for _ in range(2000)]
print(f"density 30 gNB/km^2: empirical mean count {np.mean(counts):.2f} (law says 30)")

positions = sample_ppp(30.0, region, rng)
deployment = assign_roles(positions, p_w=0.3, region=region, rng=rng, sectors=3)
wired = [g for g in deployment.gnbs if g.is_wired]
relays = [g for g in deployment.gnbs if not g.is_wired]
print(f"\none realization: {len(deployment.gnbs)} gNBs, {len(wired)} wired donors, {len(relays)} relays")

origin = deployment.node(deployment.origin_id)
print(f"origin relay: id {origin.id} at ({origin.position.x:.0f}, {origin.position.y:.0f}) m, "
      f"{distance(origin.position, region.center):.0f} m from center")
print(f"sector boresights (rad): {[round(b, 2) for b in origin.sector_boresights]}")

donor_id = nearest_wired(origin.id, deployment)
donor = deployment.node(donor_id)
print(f"\nnearest wired donor: id {donor_id}, {distance(origin.position, donor.position):.0f} m away")

pos = deployment.positions
relay_ids = [g.id for g in relays]
keep = half_plane_filter(pos[origin.id], pos[donor_id], pos[relay_ids])
forward = [g for g, kept in zip(relays, keep) if kept]
print(f"half-plane filter toward the donor keeps {len(forward)} of {len(relays)} relays")
for g in forward[:5]:
    print(f"  kept relay {g.id} at ({g.position.x:.0f}, {g.position.y:.0f})")
