"""Slow reference implementations that the fast library paths are tested against.

Each one is the straightforward construction a library function used before
it was replaced by an exact shortcut; the tests require both to agree.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from amplify_dp.distributions import DiscreteDist

# Feasibility margin for floating-point max-flow on probability capacities.
FLOW_ATOL = 1e-12


def _wasserstein_feasible(p: np.ndarray, q: np.ndarray, dist: np.ndarray, w: float) -> tuple[bool, np.ndarray | None]:
    """Max-flow test: can all mass move along pairs with distance <= w?"""
    g = nx.DiGraph()
    n, m = dist.shape
    for i in range(n):
        g.add_edge("s", ("a", i), capacity=float(p[i]))
    for j in range(m):
        g.add_edge(("b", j), "t", capacity=float(q[j]))
    for i in range(n):
        for j in range(m):
            if dist[i, j] <= w + FLOW_ATOL:
                g.add_edge(("a", i), ("b", j), capacity=float(min(p[i], q[j])))
    value, flow = nx.maximum_flow(g, "s", "t")
    if value < 1.0 - FLOW_ATOL:
        return False, None
    joint = np.zeros_like(dist)
    for i in range(n):
        for j, f in flow.get(("a", i), {}).items():
            if isinstance(j, tuple) and j[0] == "b":
                joint[i, j[1]] = f
    return True, joint


def w_inf_max_flow_search(mu: DiscreteDist, nu: DiscreteDist) -> tuple[float, np.ndarray]:
    """W-infinity and a witness by binary search over the pairwise distances,
    deciding each threshold by a full networkx max-flow."""
    x, y = mu.coords(), nu.coords()
    if x.shape[1] != y.shape[1]:
        raise ValueError("supports live in different dimensions")
    dist = np.sqrt(np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2))
    thresholds = np.unique(dist)
    # Smallest feasible threshold via binary search; feasibility is monotone.
    lo, hi = 0, len(thresholds) - 1
    ok, joint = _wasserstein_feasible(mu.probs, nu.probs, dist, thresholds[hi])
    if not ok:
        raise RuntimeError("transport infeasible at the maximal distance")
    best = (float(thresholds[hi]), joint)
    while lo <= hi:
        mid = (lo + hi) // 2
        ok, joint = _wasserstein_feasible(mu.probs, nu.probs, dist, thresholds[mid])
        if ok:
            best = (float(thresholds[mid]), joint)
            hi = mid - 1
        else:
            lo = mid + 1
    return best


def ultra_coeff_pairs(rows: np.ndarray) -> float:
    """Ultra-mixing coefficient by the loop over ordered row pairs.

    0/0 imposes no constraint; a positive mass over a zero entry breaks
    absolute continuity and forces gamma = 1.
    """
    r = rows
    n = r.shape[0]
    min_ratio = 1.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            pos = r[j] > 0.0
            if np.any(r[i][~pos] > 0.0):
                return 1.0
            if pos.any():
                min_ratio = min(min_ratio, float((r[i][pos] / r[j][pos]).min()))
    return min(max(1.0 - min_ratio, 0.0), 1.0)
