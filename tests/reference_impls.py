"""Slow reference implementations that the fast library paths are tested against.

Each one is the straightforward construction a library function used before
it was replaced by an exact shortcut; the tests require both to agree.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

from amplify_dp._rng import rng_from_seed, uniform_open
from amplify_dp.distributions import DiscreteDist
from amplify_dp.iteration import _laplace_pair_log_bound
from amplify_dp.mixing import Coupling, DiscreteKernel

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


def dobrushin_coeff_pairs(rows: np.ndarray) -> float:
    """Dobrushin coefficient from the full n x n x m array of row differences."""
    r = rows
    diff = 0.5 * np.abs(r[:, None, :] - r[None, :, :]).sum(axis=2)
    return float(diff.max())


def eps_dobrushin_coeff_pairs(rows: np.ndarray, eps: float) -> float:
    """eps-Dobrushin coefficient from the full n x n x m array of row pairs."""
    r = rows
    p = r[:, None, :]
    q = r[None, :, :]
    if math.isinf(eps):
        contrib = np.where(q == 0.0, p, 0.0)
    else:
        contrib = np.where(q == 0.0, p, np.maximum(p - math.exp(eps) * q, 0.0))
    return float(min(contrib.sum(axis=2).max(), 1.0))


def sinkhorn_fixed_sweeps(mu: DiscreteDist, nu: DiscreteDist, seed: int) -> np.ndarray:
    """Random coupling matrix after 400 Sinkhorn sweeps, from the same seeded
    start as ``random_joint_coupling``."""
    rng = rng_from_seed(seed)
    mass = -np.log(uniform_open(rng, (len(mu.points), len(nu.points))))
    for _ in range(400):
        mass *= (mu.probs / mass.sum(axis=1))[:, None]
        mass *= (nu.probs / mass.sum(axis=0))[None, :]
    return mass / mass.sum()


def laplace_bound_grid_golden(sensitivity: float, lambda1: float, lambda2: float,
                              alpha: float) -> float:
    """Iterated-Laplace RDP epsilon by a 10^4-step grid over [0, sensitivity]
    and golden-section refinement of the bracket around the best grid point."""
    grid = 10**4
    if sensitivity == 0.0:
        return 0.0

    def f(w):
        return _laplace_pair_log_bound(w, sensitivity, lambda1, lambda2, alpha)

    ws = np.linspace(0.0, sensitivity, grid + 1)
    vals = [f(w) for w in ws]
    k = int(np.argmin(vals))
    a, b = ws[max(k - 1, 0)], ws[min(k + 1, grid)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(min(min(vals), fc, fd), 0.0) / (alpha - 1.0)


def coupling_pairs(pi: Coupling) -> DiscreteDist:
    """A coupling as a distribution on ``(x, y)`` pairs in row-major order,
    the form the independent and random couplings were built in."""
    points = [(x, y) for x in pi.first_points for y in pi.second_points]
    return DiscreteDist(points, pi.mass.ravel())


def greedy_coupling_pairs(mu: DiscreteDist, nu: DiscreteDist) -> DiscreteDist:
    """Northwest-corner coupling on the pairs it matches, in path order."""
    i = j = 0
    remain_p = mu.probs.copy()
    remain_q = nu.probs.copy()
    points, probs = [], []
    while i < len(remain_p) and j < len(remain_q):
        m = min(remain_p[i], remain_q[j])
        if m > 0:
            points.append((mu.points[i], nu.points[j]))
            probs.append(m)
        remain_p[i] -= m
        remain_q[j] -= m
        if remain_p[i] <= 0:
            i += 1
        if j < len(remain_q) and remain_q[j] <= 0:
            j += 1
    total = sum(probs)
    return DiscreteDist(points, [x / total for x in probs])


def joint_as_matrix(pi: DiscreteDist) -> tuple[list, list, np.ndarray]:
    """Pair coupling back to a matrix, supports in order of first appearance."""
    xs: list = []
    ys: list = []
    x_idx: dict = {}
    y_idx: dict = {}
    for pt in pi.points:
        if not (isinstance(pt, tuple) and len(pt) == 2):
            raise ValueError("coupling points must be (x, y) pairs")
        x, y = pt
        if x not in x_idx:
            x_idx[x] = len(xs)
            xs.append(x)
        if y not in y_idx:
            y_idx[y] = len(ys)
            ys.append(y)
    mass = np.zeros((len(xs), len(ys)))
    for pt, pr in zip(pi.points, pi.probs):
        mass[x_idx[pt[0]], y_idx[pt[1]]] += pr
    return xs, ys, mass


def transport_operator_pairs(pi: DiscreteDist) -> DiscreteKernel:
    """Transport operator of a pair coupling, through ``joint_as_matrix``."""
    xs, ys, mass = joint_as_matrix(pi)
    row_mass = mass.sum(axis=1)
    keep = row_mass > 0.0
    rows = mass[keep] / row_mass[keep, None]
    return DiscreteKernel(rows, [x for x, k in zip(xs, keep) if k], ys)


def pair_marginals(pi: DiscreteDist) -> tuple[DiscreteDist, DiscreteDist]:
    """Marginals of a pair coupling, summed pair by pair into dicts."""
    first: dict = {}
    second: dict = {}
    for (x, y), pr in zip(pi.points, pi.probs):
        first[x] = first.get(x, 0.0) + pr
        second[y] = second.get(y, 0.0) + pr
    mu = DiscreteDist(list(first), np.array(list(first.values())))
    nu = DiscreteDist(list(second), np.array(list(second.values())))
    return mu, nu
