"""Channel model walkthrough: noise floor, array gain, visibility states, SNR vs distance.

Run: python demos/02_link_budget_channel.py
"""
import math

import numpy as np

from iabsim import (
    ChannelParams,
    Deployment,
    LosState,
    RadioConfig,
    Region,
    link_table,
    los_probabilities,
    noise_power_dbm,
    shannon_rate,
)

radio = RadioConfig()  # 400 MHz, 30 dBm, NF 5 dB, 8x8 array
params = ChannelParams()
noise = noise_power_dbm(radio.bandwidth_hz, radio.noise_figure_db)


def pair(d):
    """A wireless relay at the origin and a wired donor ``d`` meters east of it."""
    return Deployment(Region(), [(0.0, 0.0), (float(d), 0.0)], [False, True], 0)


print("=== Link budget building blocks ===")
print(f"thermal noise floor over {radio.bandwidth_hz/1e6:.0f} MHz with NF "
      f"{radio.noise_figure_db:.0f} dB: {noise:.2f} dBm")
gains = {
    m: link_table(pair(10), RadioConfig(array_elements=m), params, np.random.default_rng(0)).gain_dbi
    for m in (64, 256)
}
print(f"coherent array gain per endpoint: M=64 -> {gains[64]:.2f} dBi, M=256 -> {gains[256]:.2f} dBi")

print("\n=== Visibility states vs distance ===")
print(f"{'d [m]':>6} {'P(LOS)':>8} {'P(NLOS)':>8} {'P(out)':>8}")
for d in (20, 50, 100, 150, 200, 300):
    p_los, p_nlos, p_out = los_probabilities(float(d), params)
    print(f"{d:>6} {float(p_los):>8.3f} {float(p_nlos):>8.3f} {float(p_out):>8.3f}")

print("\n=== Realized link SNR vs distance (one draw each) ===")
rng = np.random.default_rng(7)
print(f"{'d [m]':>6} {'state':>7} {'pathloss':>9} {'SNR [dB]':>9} {'rate 1 user':>12}")
for d in (10, 50, 100, 150, 200, 300):
    table = link_table(pair(d), radio, params, rng)
    snr_db = float(table.pair_snr_db[0])
    pathloss_db = float(table.pathloss_db[0])
    rate = shannon_rate(radio.bandwidth_hz, snr_db, 1)
    pl = "inf" if math.isinf(pathloss_db) else f"{pathloss_db:.1f}"
    snr = "-inf" if math.isinf(snr_db) else f"{snr_db:.1f}"
    print(f"{d:>6} {LosState(int(table.los[0])).name:>7} {pl:>9} {snr:>9} {rate/1e6:>9.0f} Mb/s")

print("\nthe 5 dB admission threshold corresponds to "
      f"{shannon_rate(radio.bandwidth_hz, 5.0, 1)/1e6:.0f} Mbit/s on the full band")
