"""Seeded differential test on small worlds with forced ties.

Integer-valued SNRs, integer grid positions and small integer loads make equal
metrics common, so the tie-breaking rules of every greedy policy and of the
widest-path oracle are exercised against the loop references in ``oracles``.
"""
import numpy as np
from oracles import enumerate_widest, reference_greedy_trace

from iabsim.geometry import Deployment, Region
from iabsim.policy import PolicyKind, WbfConfig, WbfKind, build_path
from iabsim.simulate import widest_path_oracle

WORLDS = 10_000
THRESHOLD = 5.0
BIASES = (
    WbfConfig(),
    WbfConfig(WbfKind.POLYNOMIAL, n_ht=2, k=1.0, gamma_gap_db=2.0, gamma_h_db=1.0),
    WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=2.0, gamma_gap_db=1.0, gamma_h_db=2.0),
)


def tied_world(rng):
    """A world of 3..8 gNBs on grid points (some shared), SNRs drawn from a few integers.

    Points on one grid cell put a node on its nearest wired donor now and then,
    where PA has no forward direction.
    """
    n = int(rng.integers(3, 9))
    cells = rng.integers(0, 16, n)
    wired = rng.random(n) < 0.4
    wired[0] = False
    if not wired.any():
        wired[int(rng.integers(1, n))] = True
    positions = np.column_stack((cells % 4, cells // 4))
    attached = rng.integers(0, 3, n)
    values = rng.integers(3, 10, (n, n)).astype(float)
    values[rng.random((n, n)) < 0.3] = -np.inf
    mat = np.triu(values, 1)
    mat = np.where(np.tri(n, dtype=bool), mat.T, mat)
    np.fill_diagonal(mat, -np.inf)
    return Deployment(Region(5.0, 5.0), positions, wired, 0, attached=attached), mat, wired.tolist()


def test_policies_and_oracle_match_references_under_ties():
    rng = np.random.default_rng(2024)
    oracle_successes = 0
    for world in range(WORLDS):
        dep, mat, wired = tied_world(rng)
        max_hops = int(rng.integers(1, dep.n_gnbs + 1))
        wbf = BIASES[world % len(BIASES)]
        for kind in PolicyKind:
            got = build_path(0, kind, wbf, dep, mat, THRESHOLD, max_hops=max_hops)
            hops, bottleneck, ok = reference_greedy_trace(kind, dep, mat, THRESHOLD, wbf, max_hops)
            assert got.hops == hops, (world, kind)
            assert got.success == ok, (world, kind)
            if hops:
                assert got.bottleneck_snr_db == bottleneck, (world, kind)
        res = widest_path_oracle(dep, mat, 0, THRESHOLD)
        best = enumerate_widest(mat, wired, 0, THRESHOLD)
        if best is None:
            assert not res.success, world
        else:
            oracle_successes += 1
            assert res.success, world
            assert (res.bottleneck_snr_db, res.hop_count, res.hops) == best, world
    assert WORLDS // 4 < oracle_successes < WORLDS
