"""Independent reference implementations used to check the library.

These deliberately re-derive results with plain loops and exhaustive search,
sharing no code with the package internals.
"""
import math
from types import SimpleNamespace

import numpy as np

from iabsim.channel import ASSOC_LAYER, LosState
from iabsim.policy import PolicyKind, WbfKind


MASK_64 = (1 << 64) - 1
# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): state increment and the two mixing multipliers.
GAMMA = 0x9E3779B97F4A7C15
MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def splitmix64(key, counters):
    """SplitMix64 outputs mix((key + c * GAMMA) mod 2**64) for the counters c >= 0, as uint64.

    The arithmetic is done in Python ints masked to 64 bits. The counters ride
    in 128-bit lanes of one int, so each step of the mix is one big-int
    operation on every lane: after a mask a lane holds a value below 2**64,
    its product with a 64-bit constant stays inside the lane, and the bits a
    right shift brings down from the next lane land above bit 64, where the
    next mask clears them.
    """
    counters = np.asarray(counters, dtype=np.uint64)
    size = counters.size

    def pack(values):
        lanes = np.zeros((size, 2), dtype="<u8")
        lanes[:, 0] = values
        return int.from_bytes(lanes.tobytes(), "little")

    ones = pack(1)
    mask = ones * MASK_64
    z = (pack(counters) * GAMMA + (key & MASK_64) * ones) & mask
    z = (((z ^ (z >> 30)) & mask) * MIX[0]) & mask
    z = (((z ^ (z >> 27)) & mask) * MIX[1]) & mask
    z = (z ^ (z >> 31)) & mask
    return np.frombuffer(z.to_bytes(16 * size, "little"), dtype="<u8")[::2].astype(np.uint64)


def hashed_uniforms(word, slot, counters):
    """Uniforms of one draw slot: the 53 top bits of SplitMix64 keyed by the slot's key.

    The slot keys are the outputs 1, 2, ... of a SplitMix64 stream seeded with ``word``.
    """
    key = int(splitmix64(word, [slot + 1])[0])
    return (splitmix64(key, counters) >> np.uint64(11)) * 2.0**-53


def box_muller(u_radius, u_angle):
    """Standard normals from two uniforms in [0, 1), by the cosine branch of Box-Muller."""
    return np.sqrt(-2.0 * np.log1p(-u_radius)) * np.cos(2.0 * math.pi * u_angle)


def _dense_law(d, u, params):
    """Three-state codes and (pathloss, LOS mask) of every pair at distances ``d`` with visibility uniforms ``u``."""
    p_out = np.maximum(0.0, 1.0 - np.exp(-params.outage_slope_per_m * d + params.outage_intercept))
    p_los = (1.0 - p_out) * np.exp(-params.los_decay_per_m * d)
    codes = np.where(
        u < p_out, LosState.OUTAGE, np.where(u < p_out + p_los, LosState.LOS, LosState.NLOS)
    ).astype(np.int8)
    los = codes == LosState.LOS
    alpha = np.where(los, params.los_alpha_db, params.nlos_alpha_db)
    exponent = np.where(los, params.los_exponent, params.nlos_exponent)
    pathloss = alpha + 10.0 * exponent * np.log10(np.maximum(d, 1.0))
    return codes, pathloss, los


def _dense_budget(d, u, shadow, fading, params):
    """(codes, pathloss, shadowing) of every pair; outage pairs get +inf pathloss and zero shadowing.

    ``shadow`` and ``fading`` (or None) are standard normals, read only where a pair is not in outage.
    """
    codes, pathloss, los = _dense_law(d, u, params)
    out = codes == LosState.OUTAGE
    sigma = np.where(los, params.los_sigma_db, params.nlos_sigma_db)
    shadowing = sigma * shadow
    if fading is not None:
        shadowing = shadowing + params.fading_sigma_db * fading
    return codes, np.where(out, np.inf, pathloss), np.where(out, 0.0, shadowing)


def dense_link_table(deployment, radio, params, rng):
    """The pairwise link table with every budget term computed for every pair.

    One word of ``rng`` keys the draws. The pair at flat upper-triangle index
    k takes slot 0 (visibility), slots 1-2 (shadowing) and, with fading on,
    slots 3-4 (fading) at counter k + 1; the normal slots are hashed for the
    pairs not in outage, the only ones that read them.
    """
    word = int(rng.bit_generator.random_raw())
    pos = deployment.positions
    n = len(pos)
    src, dst = np.triu_indices(n, k=1)
    d = np.hypot(pos[src, 0] - pos[dst, 0], pos[src, 1] - pos[dst, 1])
    counters = np.arange(1, src.size + 1)
    u = hashed_uniforms(word, 0, counters)
    live = _dense_law(d, u, params)[0] != LosState.OUTAGE

    def normals(slot):
        out = np.zeros(d.shape)
        out[live] = box_muller(
            hashed_uniforms(word, slot, counters[live]), hashed_uniforms(word, slot + 1, counters[live])
        )
        return out

    fading = normals(3) if params.fading_sigma_db > 0.0 else None
    codes, pathloss, shadowing = _dense_budget(d, u, normals(1), fading, params)
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
    """Serving gNB per UE from a full (UE, gNB) pathloss matrix; -1 if all in outage.

    The association's child stream of ``rng``'s seed sequence draws a uniform
    for every pair, then a shadowing normal (and a fading normal) for each
    pair not in outage, in row-major order.
    """
    if len(ue_positions) == 0:
        return np.empty(0, dtype=np.int64)
    ss = rng.bit_generator.seed_seq
    child = np.random.default_rng(
        np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, ASSOC_LAYER), pool_size=ss.pool_size)
    )
    gnb = deployment.positions
    ue = np.asarray(ue_positions)
    dx, dy = ue[:, None, 0] - gnb[None, :, 0], ue[:, None, 1] - gnb[None, :, 1]
    d = np.sqrt(dx * dx + dy * dy)
    u = child.random(d.shape)
    live = _dense_law(d, u, params)[0] != LosState.OUTAGE
    shadow = np.zeros(d.shape)
    shadow[live] = child.standard_normal(int(live.sum()))
    fading = None
    if params.fading_sigma_db > 0.0:
        fading = np.zeros(d.shape)
        fading[live] = child.standard_normal(int(live.sum()))
    _, pathloss, shadowing = _dense_budget(d, u, shadow, fading, params)
    total = pathloss + shadowing
    serving = np.argmin(total, axis=1)
    serving[~np.isfinite(np.min(total, axis=1))] = -1
    return serving


def enumerate_widest(mat, wired, origin, threshold):
    """Best (bottleneck, hops, path) over every simple path to a first wired node.

    Exhaustive DFS; paths are ranked by highest bottleneck, then fewest hops,
    then lexicographically smallest id sequence. Returns None when no wired
    node is reachable. A partial path is dropped once even its best possible
    extension (same bottleneck, one more hop) ranks below the best path found.
    """
    n = mat.shape[0]
    best = None

    def rank(b, hops, path):
        return (-b, hops, path)

    stack = [(origin, frozenset([origin]), math.inf, ())]
    while stack:
        node, visited, bottleneck, path = stack.pop()
        if best is not None and rank(bottleneck, len(path) + 1, path) > rank(*best):
            continue
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

    wired, attached = dep.wired.tolist(), dep.attached.tolist()
    pos = dep.positions.tolist()

    def rank(node_id, value):
        return (value, wired[node_id], -node_id)

    current, visited, hops, bottleneck = dep.origin_id, {dep.origin_id}, [], math.inf
    for n in range(max_hops):
        admissible = [
            j
            for j in range(dep.n_gnbs)
            if j != current and j not in visited and mat[current, j] >= threshold
        ]
        if not admissible:
            return tuple(hops), bottleneck, False
        if kind == PolicyKind.WF and any(wired[j] for j in admissible):
            chosen = max((j for j in admissible if wired[j]), key=lambda j: (mat[current, j], -j))
        else:
            pool = admissible
            if kind == PolicyKind.PA:
                (cx, cy), (tx, ty) = pos[current], pos[nearest_wired(current, dep)]
                forward = [j for j in admissible if (pos[j][0] - cx) * (tx - cx) + (pos[j][1] - cy) * (ty - cy) > 0]
                pool = forward or admissible

            def value(j):
                v = float(mat[current, j] + (bias(n) if wired[j] else 0.0))
                if kind == PolicyKind.MLR:
                    try:
                        bits = math.log2(1 + 10 ** (v / 10))
                    except OverflowError:  # past the float range: log2(1 + p) = log2(p) + log2(1 + 1/p)
                        bits = v / 10 * math.log2(10) + math.log2(1 + 10 ** (-v / 10))
                    return (bandwidth_hz / max(attached[j], 1)) * bits
                return v

            chosen = max(pool, key=lambda j: rank(j, value(j)))
        hops.append(chosen)
        visited.add(chosen)
        bottleneck = min(bottleneck, mat[current, chosen])
        current = chosen
        if wired[chosen]:
            return tuple(hops), bottleneck, True
    return tuple(hops), bottleneck, False


def closest_wireless(positions, wired, region):
    """The origin rule: the wireless gNB nearest the region center by ``math.hypot``, lowest id on ties."""
    cx, cy = region.width_m / 2.0, region.height_m / 2.0
    rows = zip(positions.tolist(), wired.tolist())
    return min((math.hypot(cx - x, cy - y), i) for i, ((x, y), w) in enumerate(rows) if not w)[1]


def nearest_wired(node_id, deployment):
    """Id of the wired gNB closest to ``node_id`` (lowest id on ties)."""
    wired = np.flatnonzero(deployment.wired).tolist()
    if not wired:
        raise ValueError("deployment has no wired gNB")
    pos = deployment.positions.tolist()
    x, y = pos[node_id]
    return min(wired, key=lambda j: (math.hypot(pos[j][0] - x, pos[j][1] - y), j))


def half_plane_filter(current, wired_target, points):
    """Per point (x, y), whether it lies strictly on the wired side of the perpendicular at ``current``.

    Point j is kept iff (p_j - p_current) . (p_wired - p_current) > 0; points
    exactly on the dividing line are dropped.
    """
    cx, cy = current
    ux = wired_target[0] - cx
    uy = wired_target[1] - cy
    if ux == 0.0 and uy == 0.0:
        raise ValueError("wired_target must differ from current position")
    return [(x - cx) * ux + (y - cy) * uy > 0.0 for x, y in points]
