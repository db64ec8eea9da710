"""Channel model walkthrough: noise floor, visibility states, pathloss, beam gain.

Run: python demos/02_link_budget_channel.py
"""
import math

import numpy as np

from iabsim import (
    ChannelParams,
    Deployment,
    RadioConfig,
    Region,
    link_state,
    los_probabilities,
    noise_power_dbm,
    shannon_rate,
    upa_gain_db,
)

radio = RadioConfig()  # 28 GHz, 400 MHz, 30 dBm, NF 5 dB, 8x8 array, 3 sectors
params = ChannelParams()
noise = noise_power_dbm(radio.bandwidth_hz, radio.noise_figure_db)

print("=== Link budget building blocks ===")
print(f"thermal noise floor over {radio.bandwidth_hz/1e6:.0f} MHz with NF "
      f"{radio.noise_figure_db:.0f} dB: {noise:.2f} dBm")
print(f"aligned array gain: M=64 -> {upa_gain_db(64, 0, 0, math.pi):.2f} dBi, "
      f"M=256 -> {upa_gain_db(256, 0, 0, math.pi):.2f} dBi")
null_angle = math.asin(2 / 8)
print(f"first 8-element null (steer broadside, arrive {math.degrees(null_angle):.1f} deg): "
      f"{upa_gain_db(64, 0.0, null_angle, math.pi):.1f} dBi (floor)")

print("\n=== Visibility states vs distance ===")
print(f"{'d [m]':>6} {'P(LOS)':>8} {'P(NLOS)':>8} {'P(out)':>8}")
for d in (20, 50, 100, 150, 200, 300):
    p_los, p_nlos, p_out = los_probabilities(float(d), params)
    print(f"{d:>6} {float(p_los):>8.3f} {float(p_nlos):>8.3f} {float(p_out):>8.3f}")

print("\n=== Realized link SNR vs distance (one draw each) ===")
rng = np.random.default_rng(7)
boresights = [[0.0, 2 * math.pi / 3, 4 * math.pi / 3]] * 2
print(f"{'d [m]':>6} {'state':>7} {'pathloss':>9} {'SNR [dB]':>9} {'rate 1 user':>12}")
for d in (10, 50, 100, 150, 200, 300):
    pair = Deployment(Region(), [(0.0, 0.0), (float(d), 0.0)], [False, True], 0,
                      sector_boresights=np.array(boresights))
    ls = link_state(pair.node(0), pair.node(1), radio, params, rng)
    rate = shannon_rate(radio.bandwidth_hz, ls.snr_db, 1)
    pl = "inf" if math.isinf(ls.pathloss_db) else f"{ls.pathloss_db:.1f}"
    snr = "-inf" if math.isinf(ls.snr_db) else f"{ls.snr_db:.1f}"
    print(f"{d:>6} {ls.los.name:>7} {pl:>9} {snr:>9} {rate/1e6:>9.0f} Mb/s")

print("\nthe 5 dB admission threshold corresponds to "
      f"{shannon_rate(radio.bandwidth_hz, 5.0, 1)/1e6:.0f} Mbit/s on the full band")
