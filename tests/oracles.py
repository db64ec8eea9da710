"""Independent reference implementations used to check the library.

These deliberately re-derive results with plain loops and exhaustive search,
sharing no code with the package internals.
"""
import math
from types import SimpleNamespace

import numpy as np

from iabsim.channel import LosState
from iabsim.policy import PolicyKind, WbfKind


def _dense_pair_draws(d, params, rng):
    """Three-state law and budget evaluated on every pair, outage included.

    Returns (codes, pathloss, shadowing) shaped like ``d``; outage pairs get
    +inf pathloss and zero shadowing.
    """
    p_out = np.maximum(0.0, 1.0 - np.exp(-params.outage_slope_per_m * d + params.outage_intercept))
    p_los = (1.0 - p_out) * np.exp(-params.los_decay_per_m * d)
    u = rng.random(d.shape)
    codes = np.where(
        u < p_out, LosState.OUTAGE, np.where(u < p_out + p_los, LosState.LOS, LosState.NLOS)
    ).astype(np.int8)
    los = codes == LosState.LOS
    out = codes == LosState.OUTAGE
    alpha = np.where(los, params.los_alpha_db, params.nlos_alpha_db)
    exponent = np.where(los, params.los_exponent, params.nlos_exponent)
    sigma = np.where(los, params.los_sigma_db, params.nlos_sigma_db)
    pathloss = alpha + 10.0 * exponent * np.log10(np.maximum(d, 1.0))
    shadowing = sigma * rng.standard_normal(d.shape)
    if params.fading_sigma_db > 0.0:
        shadowing = shadowing + params.fading_sigma_db * rng.standard_normal(d.shape)
    return codes, np.where(out, np.inf, pathloss), np.where(out, 0.0, shadowing)


def dense_link_table(deployment, radio, params, rng):
    """The pairwise link table with every budget term computed for every pair."""
    pos = deployment.positions
    n = len(pos)
    src, dst = np.triu_indices(n, k=1)
    d = np.hypot(pos[src, 0] - pos[dst, 0], pos[src, 1] - pos[dst, 1])
    codes, pathloss, shadowing = _dense_pair_draws(d, params, rng)
    gain = 10.0 * math.log10(radio.array_elements)
    noise = -174.0 + 10.0 * math.log10(radio.bandwidth_hz) + radio.noise_figure_db
    pair_snr = radio.tx_power_dbm + gain + gain - pathloss - shadowing - noise
    snr = np.full((n, n), -np.inf)
    snr[src, dst] = pair_snr
    snr[dst, src] = pair_snr
    return SimpleNamespace(
        snr=snr,
        src=src,
        dst=dst,
        distance_m=d,
        los=codes,
        pathloss_db=pathloss,
        shadowing_db=shadowing,
        pair_snr_db=pair_snr,
        gain_dbi=gain,
        noise_dbm=noise,
        tx_power_dbm=radio.tx_power_dbm,
    )


def dense_associate_min_pathloss(ue_positions, deployment, params, rng):
    """Serving gNB per UE from a full (UE, gNB) pathloss matrix; -1 if all in outage."""
    if len(ue_positions) == 0:
        return np.empty(0, dtype=np.int64)
    gnb = deployment.positions
    ue = np.asarray(ue_positions)
    d = np.hypot(ue[:, None, 0] - gnb[None, :, 0], ue[:, None, 1] - gnb[None, :, 1])
    _, pathloss, shadowing = _dense_pair_draws(d, params, rng)
    total = pathloss + shadowing
    serving = np.argmin(total, axis=1)
    serving[~np.isfinite(np.min(total, axis=1))] = -1
    return serving


def enumerate_widest(mat, wired, origin, threshold):
    """Best (bottleneck, hops, path) over every simple path to a first wired node.

    Exhaustive DFS; paths are ranked by highest bottleneck, then fewest hops,
    then lexicographically smallest id sequence. Returns None when no wired
    node is reachable.
    """
    n = mat.shape[0]
    best = None

    def rank(b, hops, path):
        return (-b, hops, path)

    stack = [(origin, frozenset([origin]), math.inf, ())]
    while stack:
        node, visited, bottleneck, path = stack.pop()
        for j in range(n):
            if j in visited or mat[node, j] < threshold:
                continue
            b2 = min(bottleneck, mat[node, j])
            if wired[j]:
                cand = (b2, len(path) + 1, path + (j,))
                if best is None or rank(*cand) < rank(*best):
                    best = cand
            else:
                stack.append((j, visited | {j}, b2, path + (j,)))
    return best


def reference_greedy_trace(kind, dep, mat, threshold, wbf, max_hops, bandwidth_hz=400e6):
    """Re-derive one greedy walk with explicit loops; returns (hops, bottleneck, ok)."""

    def bias(n):
        if wbf.kind == WbfKind.NONE:
            return 0.0
        base = (n / wbf.n_ht) ** wbf.k if wbf.kind == WbfKind.POLYNOMIAL else wbf.gamma ** (n / wbf.n_ht)
        return base * wbf.gamma_gap_db + wbf.gamma_h_db

    def rank(node_id, value):
        return (value, dep.node(node_id).is_wired, -node_id)

    current, visited, hops, bottleneck = dep.origin_id, {dep.origin_id}, [], math.inf
    for n in range(max_hops):
        admissible = [
            j
            for j in range(dep.n_gnbs)
            if j != current and j not in visited and mat[current, j] >= threshold
        ]
        if not admissible:
            return tuple(hops), bottleneck, False
        if kind == PolicyKind.WF and any(dep.node(j).is_wired for j in admissible):
            wired = [j for j in admissible if dep.node(j).is_wired]
            chosen = max(wired, key=lambda j: (mat[current, j], -j))
        else:
            pool = admissible
            if kind == PolicyKind.PA:
                cur = dep.node(current).position
                target = min(
                    (g for g in dep.gnbs if g.is_wired),
                    key=lambda g: (math.hypot(g.position.x - cur.x, g.position.y - cur.y), g.id),
                ).position
                forward = [
                    j
                    for j in admissible
                    if (dep.node(j).position.x - cur.x) * (target.x - cur.x)
                    + (dep.node(j).position.y - cur.y) * (target.y - cur.y)
                    > 0
                ]
                pool = forward or admissible

            def value(j):
                v = mat[current, j] + (bias(n) if dep.node(j).is_wired else 0.0)
                if kind == PolicyKind.MLR:
                    return (bandwidth_hz / max(dep.node(j).attached_count, 1)) * math.log2(
                        1 + 10 ** (v / 10)
                    )
                return v

            chosen = max(pool, key=lambda j: rank(j, value(j)))
        hops.append(chosen)
        visited.add(chosen)
        bottleneck = min(bottleneck, mat[current, chosen])
        current = chosen
        if dep.node(chosen).is_wired:
            return tuple(hops), bottleneck, True
    return tuple(hops), bottleneck, False
