"""Slow reference implementations that the fast library paths are tested against.

Each one is the straightforward construction a library function used before
it was replaced by an exact shortcut, or a second formula for a library
value; the tests require both to agree.  ``project_to_ball`` is instead the
step of the algorithm whose hypotheses the SGD accountant's tests check,
and ``dist_from_probs`` a shorthand for building test laws.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import networkx as nx
import numpy as np

from amplify_dp import _quadrature
from amplify_dp._quadrature import INITIAL_PANELS, QuadratureError
from amplify_dp._rng import rng_from_seed, uniform_open
from amplify_dp.diffusion import BrownianParams, OuParams, brownian_rdp, ou_mse, ou_rdp, ou_transition
from amplify_dp.distributions import DiscreteDist, GaussianDist, LaplaceDist, _trusted, quadrature_domain
from amplify_dp.divergences import (EXP_ARG_MAX, DpGuarantee, _distances, _exp_times_stack, _start_threshold,
                                    aligned_masses, exp_times, hockey_stick)
from amplify_dp.mixing import (
    SINKHORN_ATOL,
    SINKHORN_MAX_SWEEPS,
    Coupling,
    DiscreteKernel,
    amplify_with_kernel,
    pushforward,
    random_joint_coupling,
)
from amplify_dp.cli import format_cell
from amplify_dp.verify import (DIFFUSION_GRID, DIFFUSION_SENSITIVITY, EXACT_TOL, MSE_RTOL, QUAD_TOL, _report,
                               _transport_stack_rows, _trial_seeds, _trial_sizes)

# Feasibility margin for floating-point max-flow on probability capacities.
FLOW_ATOL = 1e-12


def dist_from_probs(probs: Sequence[float]) -> DiscreteDist:
    """A law on the labels ``s0, s1, ...`` with the given probabilities."""
    return DiscreteDist([f"s{i}" for i in range(len(probs))], probs)


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
            if dist[i, j] <= w:
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
    dist = _distances(x, y)
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


def w_inf_restart_search(mu: DiscreteDist, nu: DiscreteDist) -> tuple[float, np.ndarray]:
    """Bottleneck transport in one augmenting-path pass over the distance matrix,
    starting at the smallest distance and restarting the BFS after each raise.

    ``flow`` only uses pairs with ``dist <= w``.  A BFS from the sources with
    mass left follows such pairs forward and pairs carrying flow backward; a
    path to a target with room left is augmented by its bottleneck.  When no
    path exists, the reached nodes form a cut that no threshold below the
    nearest unreached target can cross, so ``w`` rises to that distance.
    """
    x, y = mu.coords(), nu.coords()
    if x.shape[1] != y.shape[1]:
        raise ValueError("supports live in different dimensions")
    dist = _distances(x, y)
    supply, demand = mu.probs.copy(), nu.probs.copy()
    flow = np.zeros_like(dist)
    w, routed = dist.min(), 0.0
    while 1.0 - routed > FLOW_ATOL:
        seen_s, seen_t = supply > 0.0, np.zeros(len(demand), dtype=bool)
        # by_s[j]: source that reached target j; by_t[i]: target that reached source i.
        by_s, by_t = np.full(len(demand), -1), np.full(len(supply), -1)
        frontier, sink = seen_s.copy(), -1
        while frontier.any():
            rows = np.flatnonzero(frontier)
            reach = (dist[rows] <= w) & ~seen_t
            new_t = np.flatnonzero(reach.any(axis=0))
            if not new_t.size:
                break
            by_s[new_t] = rows[reach[:, new_t].argmax(axis=0)]
            seen_t[new_t] = True
            open_t = new_t[demand[new_t] > 0.0]
            if open_t.size:
                sink = open_t[0]
                break
            back = (flow[:, new_t] > 0.0) & ~seen_s[:, None]
            frontier = back.any(axis=1)
            by_t[frontier] = new_t[back[frontier].argmax(axis=1)]
            seen_s |= frontier
        if sink < 0:
            gaps = dist[np.ix_(seen_s, ~seen_t)]
            if not gaps.size:
                raise RuntimeError("transport infeasible at the maximal distance")
            w = gaps.min()
            continue
        path, j = [], sink
        while j >= 0:
            path.append((by_s[j], j))
            j = by_t[path[-1][0]]
        # Forward pairs (i_k, j_k) gain flow; backward pairs (i_k, j_k+1) give it up.
        fi, fj = np.array(path).T
        amount = min(supply[fi[-1]], demand[sink], flow[fi[:-1], fj[1:]].min(initial=np.inf))
        flow[fi, fj] += amount
        flow[fi[:-1], fj[1:]] -= amount
        supply[fi[-1]] -= amount
        demand[sink] -= amount
        routed += amount
    return float(w), flow


def w_inf_bfs_search(mu: DiscreteDist, nu: DiscreteDist) -> tuple[float, np.ndarray]:
    """Bottleneck transport by one augmenting path per numpy BFS, from the
    ``_start_threshold`` bound up, going on after each raise.

    ``flow`` only uses pairs with ``dist <= w``.  A BFS from the sources with
    mass left follows such pairs forward and pairs carrying flow backward; a
    path to a target with room left is augmented by its bottleneck.  When the
    BFS reaches no new target, ``w`` rises to the nearest unreached target of
    a reached source and the same BFS goes on from every reached source.
    """
    x, y = mu.coords(), nu.coords()
    if x.shape[1] != y.shape[1]:
        raise ValueError("supports live in different dimensions")
    dist = _distances(x, y)
    supply, demand = mu.probs.copy(), nu.probs.copy()
    flow = np.zeros_like(dist)
    w, routed = _start_threshold(dist, supply, demand), 0.0
    within = dist <= w
    while 1.0 - routed > FLOW_ATOL:
        seen_s, seen_t = supply > 0.0, np.zeros(len(demand), dtype=bool)
        # by_s[j]: source that reached target j; by_t[i]: target that reached source i.
        by_s, by_t = np.full(len(demand), -1), np.full(len(supply), -1)
        frontier, sink = seen_s.copy(), -1
        while sink < 0:
            rows = np.flatnonzero(frontier)
            reach = within[rows] & ~seen_t
            new_t = np.flatnonzero(reach.any(axis=0))
            if not new_t.size:
                gaps = dist[np.ix_(seen_s, ~seen_t)]
                if not gaps.size:
                    raise RuntimeError("transport infeasible at the maximal distance")
                w, frontier = gaps.min(), seen_s.copy()
                within = dist <= w
                continue
            by_s[new_t] = rows[reach[:, new_t].argmax(axis=0)]
            seen_t[new_t] = True
            open_t = new_t[demand[new_t] > 0.0]
            if open_t.size:
                sink = open_t[0]
                break
            back = (flow[:, new_t] > 0.0) & ~seen_s[:, None]
            frontier = back.any(axis=1)
            by_t[frontier] = new_t[back[frontier].argmax(axis=1)]
            seen_s |= frontier
        fi, fj, j = [], [], sink
        while j >= 0:
            fi.append(by_s[j])
            fj.append(j)
            j = by_t[fi[-1]]
        # Forward pairs (i_k, j_k) gain flow; backward pairs (i_k, j_k+1) give it up.
        fi, fj = np.array(fi), np.array(fj)
        amount = min(supply[fi[-1]], demand[sink], flow[fi[:-1], fj[1:]].min(initial=np.inf))
        flow[fi, fj] += amount
        flow[fi[:-1], fj[1:]] -= amount
        supply[fi[-1]] -= amount
        demand[sink] -= amount
        routed += amount
    return float(w), flow


def gaussian_density_numpy(d: GaussianDist, x) -> float:
    """Gaussian density with ``x`` as a numpy array, in any dimension."""
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if xv.shape != (d.dim,):
        raise ValueError(f"x has dimension {xv.shape}, family expects ({d.dim},)")
    sq = float(np.sum((xv - np.asarray(d.mean)) ** 2))
    return math.exp(-sq / (2.0 * d.variance)) / (2.0 * math.pi * d.variance) ** (d.dim / 2.0)


def density_per_call(family, x) -> float:
    """``distributions.density`` with every constant computed on each call,
    as it was before the laws held their constants."""
    if isinstance(family, GaussianDist):
        v = x[0] if isinstance(x, (list, tuple)) and len(x) == 1 else x
        if family.dim == 1 and isinstance(v, (int, float)):
            diff = float(v) - family.mean[0]
            return math.exp(-(diff * diff) / (2.0 * family.variance)) / (2.0 * math.pi * family.variance) ** 0.5
        raw = np.asarray(x)
        if raw.dtype == object:
            raise TypeError(f"x must be numeric, got {x!r}")
        xv = np.atleast_1d(raw.astype(np.float64))
        if xv.shape != (family.dim,):
            raise ValueError(f"x has dimension {xv.shape}, family expects ({family.dim},)")
        sq = float(np.sum((xv - np.asarray(family.mean)) ** 2))
        return math.exp(-sq / (2.0 * family.variance)) / (2.0 * math.pi * family.variance) ** (family.dim / 2.0)
    if isinstance(family, LaplaceDist):
        z = abs(float(x) - family.loc)
        return math.exp(-z / family.scale) / (2.0 * family.scale)
    raise TypeError(f"unsupported family {type(family).__name__}")


def log_density_per_call(family, x) -> np.ndarray:
    """``distributions.log_density`` with every constant computed on each call."""
    xv = np.asarray(x, dtype=np.float64)
    if isinstance(family, GaussianDist):
        if family.dim != 1:
            raise ValueError("log_density is 1-D only")
        v = family.variance
        return -((xv - family.mean[0]) ** 2) / (2.0 * v) - 0.5 * math.log(2.0 * math.pi * v)
    if isinstance(family, LaplaceDist):
        return -np.abs(xv - family.loc) / family.scale - math.log(2.0 * family.scale)
    raise TypeError(f"unsupported family {type(family).__name__}")


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
        contrib = np.where(q == 0.0, p, np.maximum(p - exp_times(eps, q), 0.0))
    return float(min(contrib.sum(axis=2).max(), 1.0))


def eps_dobrushin_coeff_row_blocks(rows: np.ndarray, eps: float) -> float:
    """eps-Dobrushin coefficient by the all-pairs loop of row blocks: every
    ordered row pair, each block of rows against all rows in one array of at
    most max(2^16, n * m) entries, each pair summed along its contiguous axis.
    e^eps * q is the library's (+inf on q's support at eps = +inf)."""
    if math.isinf(eps):
        scaled = np.where(rows > 0.0, math.inf, 0.0)
    else:
        scaled = _exp_times_stack(np.array([[eps]]), rows[None])[0, 0]
    worst = 0.0
    step = max(1, 2**16 // rows.size)
    for start in range(0, len(rows), step):
        excess = rows[start:start + step, None] - scaled[None]
        worst = max(worst, float(np.maximum(excess, 0.0, out=excess).sum(axis=2).max()))
    return min(worst, 1.0)


def sinkhorn_fixed_sweeps(mu: DiscreteDist, nu: DiscreteDist, seed: int) -> np.ndarray:
    """Random coupling matrix after 400 Sinkhorn sweeps, from the same seeded
    start as ``random_joint_coupling``."""
    rng = rng_from_seed(seed)
    mass = -np.log(uniform_open(rng, (len(mu.points), len(nu.points))))
    for _ in range(400):
        mass *= (mu.probs / mass.sum(axis=1))[:, None]
        mass *= (nu.probs / mass.sum(axis=0))[None, :]
    return mass / mass.sum()


def sinkhorn_per_sweep_buffers(mu: DiscreteDist, nu: DiscreteDist, seed: int) -> np.ndarray:
    """``random_joint_coupling``'s mass with the masks and scale buffers
    allocated anew in every sweep, as the loop was first written."""
    p, q = mu.probs, nu.probs
    rng = rng_from_seed(seed)
    mass = -np.log(uniform_open(rng, (len(p), len(q)))) * np.outer(p > 0.0, q > 0.0)
    for _ in range(SINKHORN_MAX_SWEEPS):
        row_sums = mass.sum(axis=1)
        if np.abs(row_sums - p).max() <= SINKHORN_ATOL:
            break
        mass *= np.divide(p, row_sums, out=np.zeros_like(p), where=p > 0.0)[:, None]
        col_sums = mass.sum(axis=0)
        mass *= np.divide(q, col_sums, out=np.zeros_like(q), where=q > 0.0)[None, :]
    return mass


def sinkhorn_per_pair(p: np.ndarray, q: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The Sinkhorn loop of the one-pair ``random_joint_coupling``, verbatim,
    on the start matrix ``mass`` (scaled in place and returned)."""
    p_pos, q_pos = p > 0.0, q > 0.0
    # The scale entries of zero-mass atoms are never written, so they stay 0.
    row_scale, col_scale = np.zeros_like(p), np.zeros_like(q)
    for _ in range(SINKHORN_MAX_SWEEPS):
        row_sums = mass.sum(axis=1)
        if np.abs(row_sums - p).max() <= SINKHORN_ATOL:
            break
        mass *= np.divide(p, row_sums, out=row_scale, where=p_pos)[:, None]
        col_sums = mass.sum(axis=0)
        mass *= np.divide(q, col_sums, out=col_scale, where=q_pos)[None, :]
    return mass


def sinkhorn_start_per_pair(p: np.ndarray, q: np.ndarray, seed: int) -> np.ndarray:
    """The start matrix of the one-pair ``random_joint_coupling`` between the
    masses ``p`` and ``q``, drawn from the seed's own stream."""
    return -np.log(uniform_open(rng_from_seed(seed), (len(p), len(q)))) * np.outer(p > 0.0, q > 0.0)


def random_joint_coupling_per_pair(mu: DiscreteDist, nu: DiscreteDist, seed: int) -> Coupling:
    """``random_joint_coupling`` as it was before pairs were solved in
    stacks: its own start matrix and its own Sinkhorn loop."""
    p, q = mu.probs, nu.probs
    return Coupling(mu.points, nu.points, sinkhorn_per_pair(p, q, sinkhorn_start_per_pair(p, q, seed)))


def hockey_stick_scalar(mu: DiscreteDist, nu: DiscreteDist, eps: float) -> float:
    """``hockey_stick`` as it was before it ran on stacks: one 1-D sum of the
    positive parts."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    _, p, q = aligned_masses(mu, nu)
    zero_q = q == 0.0
    out = float(p[zero_q].sum())
    if not math.isinf(eps):
        out += float(np.maximum(p[~zero_q] - exp_times(eps, q[~zero_q]), 0.0).sum())
    return min(out, 1.0)


def hockey_stick_via_min(mu: DiscreteDist, nu: DiscreteDist, eps: float) -> float:
    """Same divergence computed as 1 - sum of min(p_mu, e^eps * p_nu)."""
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    _, p, q = aligned_masses(mu, nu)
    pos_q = q > 0.0
    if math.isinf(eps):
        overlap = float(p[pos_q].sum())
    else:
        overlap = float(np.minimum(p[pos_q], exp_times(eps, q[pos_q])).sum())
    return 1.0 - overlap


def renyi_gaussian(u, v, sigma2: float, alpha: float) -> float:
    """Closed-form Renyi divergence between N(u, sigma2*I) and N(v, sigma2*I)."""
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    if not (alpha > 1 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and > 1")
    uv = np.atleast_1d(np.asarray(u, dtype=np.float64))
    vv = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if uv.shape != vv.shape:
        raise ValueError("u and v must have the same dimension")
    return alpha * float(np.sum((uv - vv) ** 2)) / (2.0 * sigma2)


def renyi_laplace(shift: float, scale: float, alpha: float) -> float:
    """Closed-form Renyi divergence between Lap(shift, scale) and Lap(0, scale):
    log(alpha/(2 alpha - 1) e^((alpha-1) z) + (alpha-1)/(2 alpha - 1) e^(-alpha z)) / (alpha - 1)
    with z = |shift| / scale."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    if not (alpha > 1 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and > 1")
    z = abs(shift) / scale
    a = math.log(alpha / (2.0 * alpha - 1.0)) + z * (alpha - 1.0)
    b = math.log((alpha - 1.0) / (2.0 * alpha - 1.0)) - z * alpha
    return float(np.logaddexp(a, b)) / (alpha - 1.0)


def project_to_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball, over the last axis: the
    projection of the projected noisy SGD step that ``contraction_coeff`` bounds."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    scale = np.where(norms > radius, radius / np.where(norms == 0, 1.0, norms), 1.0)
    return x * scale


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


def northwest_corner_mass(mu: DiscreteDist, nu: DiscreteDist) -> np.ndarray:
    """:func:`greedy_coupling_pairs` as a mass matrix on the supports of ``mu`` and ``nu``."""
    pairs, mass = greedy_coupling_pairs(mu, nu), np.zeros((len(mu.points), len(nu.points)))
    for (x, y), prob in zip(pairs.points, pairs.probs):
        mass[mu.points.index(x), nu.points.index(y)] = prob
    return mass


def line_pass(within: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[list, float]:
    """Greedy transport on the line along the pairs that ``within`` admits,
    one pair of mass vectors at a time, as W-infinity's search decided each
    threshold before the pass ran on stacks of mass lists.

    Sources and targets are in increasing coordinate order, so each source's
    admissible targets form an interval whose two ends never decrease.  Each
    source fills the leftmost targets that still have room; a target it
    passes is full or out of reach of every later source, which makes the
    routed mass maximal.  With every pair admissible it is the northwest-corner
    rule.  Returns the ``(i, j, amount)`` moves, in order, and the mass routed.
    """
    m = within.shape[1]
    reaches = within.any(axis=1).tolist()
    first = within.argmax(axis=1).tolist()
    stop = (m - within[:, ::-1].argmax(axis=1)).tolist()
    room, moves, routed, j = q.tolist(), [], 0.0, 0
    for i, left in enumerate(p.tolist()):
        if not (reaches[i] and left > 0.0):
            continue
        j = max(j, first[i])
        while left > 0.0 and j < stop[i]:
            amount = min(left, room[j])
            if amount > 0.0:
                moves.append((i, j, amount))
                left -= amount
                room[j] -= amount
                routed += amount
            if room[j] > 0.0:
                break
            j += 1
    return moves, routed


def amplify_closed_forms(eps: float, delta: float, condition: str, gamma: float) -> tuple[float, float]:
    """``mixing.amplify``'s (eps', delta') as it computed them before its
    arithmetic moved into ``mixing._amplify_step``, with the old helper's
    three-branch eps' = log(1 + gamma*(e^eps - 1))."""
    if condition in ("dobrushin", "eps_dobrushin"):
        return eps, gamma * delta
    if gamma == 0.0:
        eps_prime = 0.0
    elif eps < 700.0:
        eps_prime = math.log1p(gamma * math.expm1(eps))
    else:
        eps_prime = eps + math.log(gamma + (1.0 - gamma) * math.exp(-eps))
    beta = gamma + (1.0 - gamma) * math.exp(-eps)
    if condition == "doeblin":
        delta_prime = gamma * (1.0 - beta * (1.0 - delta))
    else:
        delta_prime = gamma * delta * beta
    return eps_prime, min(max(delta_prime, 0.0), 1.0)


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


def integrate_scalar(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-8,
    max_evals: int = 10**6,
    breakpoints: Sequence[float] = (),
    rtol: float = 0.0,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to tolerance ``tol + rtol * |integral|``.

    The pure-Python adaptive Simpson with a work stack that
    ``_quadrature.integrate`` replaced.  Adaptive bisection of Simpson panels
    with Richardson extrapolation.  ``breakpoints`` pre-split the domain (pass
    kink locations of ``f``).  The relative term is applied panel-wise, which
    bounds the global relative error for non-negative integrands.  Raises
    :class:`QuadratureError` once ``max_evals`` function evaluations are spent
    without reaching the local error targets.
    """
    if not b > a:
        raise ValueError("domain must satisfy a < b")

    cuts = sorted({float(a), float(b), *(float(x) for x in breakpoints if a < x < b)})
    evals = 0

    def fev(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > max_evals:
            raise QuadratureError(
                f"quadrature exceeded {max_evals} evaluations before converging"
            )
        return f(x)

    # Seed the work stack with uniform panels inside each breakpoint segment,
    # so narrow features away from segment ends are not missed.
    total = b - a
    stack: list[tuple[float, float, float, float, float, float, float]] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n = max(1, round(INITIAL_PANELS * (hi - lo) / total))
        edges = [lo + (hi - lo) * k / n for k in range(n + 1)]
        for x0, x1 in zip(edges[:-1], edges[1:]):
            xm = 0.5 * (x0 + x1)
            f0, fm, f1 = fev(x0), fev(xm), fev(x1)
            s = (x1 - x0) / 6.0 * (f0 + 4.0 * fm + f1)
            stack.append((x0, x1, f0, fm, f1, s, tol * (x1 - x0) / total))

    result = 0.0
    while stack:
        x0, x1, f0, fm, f1, s, tloc = stack.pop()
        xm = 0.5 * (x0 + x1)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x1)
        fl, fr = fev(xl), fev(xr)
        sl = (xm - x0) / 6.0 * (f0 + 4.0 * fl + fm)
        sr = (x1 - xm) / 6.0 * (fm + 4.0 * fr + f1)
        err = sl + sr - s
        if abs(err) <= 15.0 * (tloc + rtol * abs(sl + sr)):
            result += sl + sr + err / 15.0
        else:
            stack.append((x0, xm, f0, fl, fm, sl, 0.5 * tloc))
            stack.append((xm, x1, fm, fr, f1, sr, 0.5 * tloc))
    return result


def renyi_numeric_1d_scalar(
    p: Callable[[float], float],
    q: Callable[[float], float],
    alpha: float,
    domain: tuple[float, float],
    tol: float = 1e-8,
    max_evals: int = 10**6,
    breakpoints: Sequence[float] = (),
) -> float:
    """The Renyi oracle on ``integrate_scalar``: p below 1e-100 counts as zero
    mass, so it under-reports once the tilted mass sits where p < 1e-100
    (large alpha); sound for moderate alpha only."""
    if not (alpha > 1 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and > 1")

    def integrand(x: float) -> float:
        pv = p(x)
        if pv <= 1e-100:
            return 0.0
        qv = q(x)
        if qv <= 0.0:
            raise ValueError(f"q vanishes at x={x} while p is positive")
        try:
            return math.exp(alpha * math.log(pv) + (1.0 - alpha) * math.log(qv))
        except OverflowError:
            raise QuadratureError(f"integrand overflows at x={x}") from None

    half = 0.5 * tol * (alpha - 1.0)
    moment = integrate_scalar(
        integrand, domain[0], domain[1], tol=half, rtol=half,
        max_evals=max_evals, breakpoints=breakpoints,
    )
    if not math.isfinite(moment):
        raise QuadratureError(f"moment integral is not finite: {moment!r}")
    return max(0.0, math.log(moment) / (alpha - 1.0))


def integrate_one(
    log_f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rtol: float = 1e-8,
    breakpoints: Sequence[float] = (),
) -> float:
    """The one-integral sweep loop that ``_quadrature._integrate_stack``
    replaced, as ``_quadrature.integrate`` ran it: the same rules, the same
    errors and the same budget, ``_quadrature.MAX_EVALS`` read at call time."""
    if not b > a:
        raise ValueError("domain must satisfy a < b")
    total = b - a
    evals = 0

    def evaluate(x: np.ndarray) -> np.ndarray:
        nonlocal evals
        if evals + len(x) > _quadrature.MAX_EVALS:
            raise QuadratureError(f"quadrature exceeded {_quadrature.MAX_EVALS} evaluations before converging")
        evals += len(x)
        logs = np.asarray(log_f(x), dtype=np.float64)
        if np.any(logs == math.inf):
            raise QuadratureError(f"log-integrand is +inf at x={float(x[logs == math.inf][0])!r}")
        return logs

    edges = _quadrature._seed_edges(a, b, breakpoints)
    x0, x1 = edges[:-1], edges[1:]
    n = len(x0)
    logs = evaluate(np.concatenate([edges, 0.5 * (x0 + x1)]))
    l0, l1, lm = logs[:n], logs[1:n + 1], logs[n + 1:]
    top, acc = -math.inf, 0.0  # running maximum M; accepted panels, in units of exp(M)
    # Log of the largest representable node of the panels that touched a NaN
    # point, and that panel's midpoint.
    worst, worst_at = -math.inf, None

    while len(x0):
        xm = 0.5 * (x0 + x1)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x1)
        n = len(x0)
        logs = evaluate(np.concatenate([xl, xr]))
        ll, lr = logs[:n], logs[n:]
        nodes = np.stack([l0, ll, lm, lr, l1])
        unknown = np.isnan(nodes)
        nodes[unknown] = -math.inf
        node_max = nodes.max(axis=0)
        new_top = float(node_max.max())
        if new_top > top:
            acc, top = acc * math.exp(top - new_top), new_top
        v0, vl, vm, vr, v1 = np.exp(nodes - top) if top > -math.inf else np.zeros_like(nodes)
        s = (x1 - x0) / 6.0 * (v0 + 4.0 * vm + v1)
        sl = (xm - x0) / 6.0 * (v0 + 4.0 * vl + vm)
        sr = (x1 - xm) / 6.0 * (vm + 4.0 * vr + v1)
        refined = sl + sr
        err = refined - s
        estimate = acc + float(refined.sum())
        near = np.where(unknown.any(axis=0), node_max, -math.inf)
        i = int(np.argmax(near))
        if near[i] > worst:
            worst, worst_at = float(near[i]), float(xm[i])
        if worst_at is not None and math.exp(worst - top) > rtol * estimate / total:
            raise QuadratureError(
                f"integrand is not negligible next to x={worst_at!r}, where it is not representable"
            )
        done = np.abs(err) <= 15.0 * rtol * estimate * (x1 - x0) / total
        acc += float((refined[done] + err[done] / 15.0).sum())
        keep = ~done
        x0, x1 = np.concatenate([x0[keep], xm[keep]]), np.concatenate([xm[keep], x1[keep]])
        l0, lm, l1 = (np.concatenate([l0[keep], lm[keep]]), np.concatenate([ll[keep], lr[keep]]),
                      np.concatenate([lm[keep], l1[keep]]))
    return math.log(acc) + top if acc > 0.0 else -math.inf


def require_negligible_ends_one(log_f: Callable[[np.ndarray], np.ndarray], a: float, b: float, rtol: float,
                                log_integral: float) -> None:
    """The domain-end rule as one integral's check, before it was stacked."""
    ends = log_f(np.array([a, b], dtype=np.float64))
    if np.any(ends + math.log(b - a) > math.log(rtol) + log_integral):
        raise QuadratureError("integrand is not negligible at a domain end")


def renyi_numeric_log_one(log_p, log_q, alpha: float, domain: tuple[float, float], tol: float = 1e-8,
                          breakpoints: Sequence[float] = ()) -> float:
    """``renyi_numeric_log`` on :func:`integrate_one`, as it was before the
    stacked forms."""
    if not (alpha > 1 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and > 1")

    def log_integrand(x: np.ndarray) -> np.ndarray:
        lp, lq = log_p(x), log_q(x)
        with np.errstate(invalid="ignore"):
            return np.where(lp == -math.inf, -math.inf, alpha * lp + (1.0 - alpha) * lq)

    a, b = domain
    rtol = 0.5 * tol * (alpha - 1.0)
    log_moment = integrate_one(log_integrand, a, b, rtol=rtol, breakpoints=breakpoints)
    if log_moment == -math.inf:
        raise QuadratureError("moment integral vanished")
    require_negligible_ends_one(log_integrand, a, b, rtol, log_moment)
    return max(0.0, log_moment / (alpha - 1.0))


def scalar_log_one(density: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """The log-density adapter ``renyi_numeric_1d`` built for each scalar
    density before it took one log pass over both: one call per point, and a
    NaN log where the density is not positive."""
    def log_values(x: np.ndarray) -> np.ndarray:
        values = np.fromiter(map(density, x.tolist()), np.float64, len(x))
        out = np.full(len(x), np.nan)
        positive = values > 0.0
        out[positive] = np.log(values[positive])
        return out
    return log_values


def gaussian_log_density_one(law: GaussianDist, x: np.ndarray) -> np.ndarray:
    """The Gaussian branch of ``log_density`` for one law, before it was stacked."""
    v = law.variance
    return -((x - law.mean[0]) ** 2) / (2.0 * v) - 0.5 * math.log(2.0 * math.pi * v)


def mse_numeric_one(law: GaussianDist, x0: float) -> float:
    """``verify.mse_numeric`` on :func:`integrate_one`, before the stacked forms."""
    def log_integrand(x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.abs(x - x0)) + gaussian_log_density_one(law, x)

    a, b = quadrature_domain(law)
    log_moment = integrate_one(log_integrand, a, b, rtol=MSE_RTOL, breakpoints=(x0,))
    require_negligible_ends_one(log_integrand, a, b, MSE_RTOL, log_moment)
    return math.exp(log_moment)


def certify_diffusion_per_integral() -> list:
    """``certify_diffusion`` with one :func:`integrate_one` loop per row, as it
    ran before its integrals were stacked; a row whose integral raises
    ``QuadratureError`` has measured inf."""
    theta_grid, rho_grid, t_grid, alpha_grid = (
        DIFFUSION_GRID[k] for k in ("theta", "rho", "t", "alpha"))
    entries = []
    for theta in theta_grid:
        for rho in rho_grid:
            for t in t_grid:
                p = OuParams(theta=theta, rho=rho, t=t, delta=DIFFUSION_SENSITIVITY, R=1.0, d=1)
                entries.append(("ou_rdp_quadrature", f"theta={theta},rho={rho},t={t}",
                                ou_transition([0.0], p), ou_transition([DIFFUSION_SENSITIVITY], p),
                                ou_rdp, p))
    for t in t_grid:
        entries.append(("brownian_rdp_quadrature", f"t={t}",
                        GaussianDist([0.0], 2.0 * t), GaussianDist([DIFFUSION_SENSITIVITY], 2.0 * t),
                        brownian_rdp, BrownianParams(t=t, delta=DIFFUSION_SENSITIVITY)))

    def measured(quadrature, closed):
        try:
            return abs(quadrature() - closed)
        except QuadratureError:
            return math.inf

    reports = []
    for case, desc, law0, law1, rdp, params in entries:
        lo = min(quadrature_domain(law0)[0], quadrature_domain(law1)[0])
        hi = max(quadrature_domain(law0)[1], quadrature_domain(law1)[1])
        for alpha in alpha_grid:
            closed = rdp(params, alpha).epsilon
            quad = partial(renyi_numeric_log_one, partial(gaussian_log_density_one, law1),
                           partial(gaussian_log_density_one, law0), alpha, (lo, hi))
            reports.append(_report(len(reports), case, f"{desc},alpha={alpha}", measured=measured(quad, closed),
                                   bound=0.0, tolerance=QUAD_TOL, coefficient=closed))
    for theta in theta_grid:
        for t in t_grid:
            p = OuParams(theta=theta, rho=1.0, t=t, delta=DIFFUSION_SENSITIVITY, R=1.0, d=1)
            closed = ou_mse(p, 1.0)
            quad = partial(mse_numeric_one, ou_transition([1.0], p), 1.0)
            reports.append(_report(len(reports), "ou_mse_quadrature", f"theta={theta},t={t}",
                                   measured=measured(quad, closed), bound=0.0, tolerance=QUAD_TOL,
                                   coefficient=closed))
    return reports


def render_rows_per_cell(rows) -> list[str]:
    """CSV table lines with one ``format_cell`` call per cell, row by row:
    what ``cli._render_csv`` did before it formatted column by column."""
    return [",".join(format_cell(cell) for cell in row) for row in rows]


def coupling_marginals_by_sum(pi: Coupling) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of a coupling by Python's ``sum`` over its columns
    and rows: what ``Coupling.marginals`` returned before it used cumulative sums."""
    return sum(pi.mass.T), sum(pi.mass)


def random_instance_per_trial(nx: int, ny: int, seed: int) -> tuple[DiscreteDist, DiscreteDist, DiscreteKernel]:
    """``verify.random_instance`` as it was before trials were drawn in stacks:
    two draws from the trial's stream, each row normalized alone."""
    rng = rng_from_seed(seed)
    points = [f"x{i}" for i in range(nx)]
    mu, nu = (DiscreteDist(points, row / row.sum()) for row in -np.log(uniform_open(rng, (2, nx))))
    rows = -np.log(uniform_open(rng, (nx, ny)))
    return mu, nu, DiscreteKernel(rows / rows.sum(axis=1, keepdims=True), points,
                                  [f"y{j}" for j in range(ny)])


def certify_theorem1_per_trial(trials: int, sizes: tuple[int, int], eps_grid: Sequence[float],
                               seed: int) -> list:
    """``verify.certify_theorem1`` as it was before it ran on stacks: one
    instance, one pair of pushed laws and one ``amplify_with_kernel`` call per
    trial."""
    inst_seeds = _trial_seeds(seed, trials)
    inst_sizes = _trial_sizes(seed, trials, sizes)
    reports = []
    for t in range(trials):
        iseed = int(inst_seeds[t])
        nx, ny = map(int, inst_sizes[t])
        mu, nu, kernel = random_instance_per_trial(nx, ny, iseed)
        mu_k = pushforward(mu, kernel)
        nu_k = pushforward(nu, kernel)
        guarantees = [DpGuarantee(eps, hockey_stick(mu, nu, eps)) for eps in eps_grid]
        amplified = amplify_with_kernel(kernel, guarantees)
        eps_primes = list(dict.fromkeys(out.epsilon for by_cond in amplified
                                        for _, out in by_cond.values()))
        measured = {eps: hockey_stick(mu_k, nu_k, eps) for eps in eps_primes}
        for eps, guarantee, by_cond in zip(eps_grid, guarantees, amplified):
            desc = f"nx={nx},ny={ny},seed={iseed},eps={eps}"
            for cond, (gamma, out) in by_cond.items():
                reports.append(_report(
                    t, f"theorem1_{cond}", desc,
                    measured=measured[out.epsilon],
                    bound=out.delta,
                    tolerance=EXACT_TOL,
                    delta_before=guarantee.delta,
                    coefficient=gamma,
                ))
    return reports


def random_pair_per_trial(rng: np.random.Generator, n: int) -> tuple[DiscreteDist, DiscreteDist]:
    """The pair (mu, nu) of a transport trial as ``verify`` drew it before it
    cut the pair from the trial's one draw: ``2n`` uniforms, each row
    normalized alone."""
    raw = -np.log(uniform_open(rng, (2, n)))
    points = tuple(f"x{i}" for i in range(n))
    return tuple(_trusted(DiscreteDist, points, row / row.sum()) for row in raw)


def certify_transport_per_trial(trials: int, sizes: tuple[int, int], seed: int) -> list:
    """``verify.certify_transport_and_decompose`` as it was before it ran on
    stacks: each trial's pair from one stream and its random coupling from a
    second stream of the same seed, then one transport operator, pushforward
    and mixture decomposition per coupling and trial."""
    iseeds = _trial_seeds(seed, trials).tolist()
    ns = _trial_sizes(seed, trials, sizes)[:, 0].tolist()
    eps_values = (uniform_open(rng_from_seed(seed, 3), trials) * 2.0).tolist()
    reports = []
    for t, n, iseed, eps in zip(range(trials), ns, iseeds, eps_values):
        mu, nu = random_pair_per_trial(rng_from_seed(iseed), n)
        pi = random_joint_coupling(mu, nu, iseed)
        reports += transport_rows_per_trial(t, f"n={n},seed={iseed},eps={eps!r}", eps, mu, nu, pi)
    return reports


def stacked_transport_rows(t: int, desc: str, eps: float, mu: DiscreteDist, nu: DiscreteDist,
                           pi_random: Coupling) -> list:
    """``verify._transport_stack_rows`` of one trial; ``mu`` and ``nu`` share their points."""
    return _transport_stack_rows([t], [desc], [eps], mu.probs[None], nu.probs[None], pi_random.mass[None])[0]


def transport_rows_per_trial(t: int, desc: str, eps: float, mu: DiscreteDist, nu: DiscreteDist,
                             pi_random: Coupling) -> list:
    """The transport suite's rows of one trial as they were before they ran on
    stacks, with every coupling formula written out here: the independent
    coupling, the greedy coupling (the northwest-corner loop), the transport
    operator (rows over their sums, rows of no mass dropped), the marginals
    (cumulative sums), the pushforward (one product, normalized) and the
    decomposition as they were before they had stacked forms, so that nothing
    is shared with the stacked path."""
    reports = []
    product = np.outer(mu.probs, nu.probs)
    couplings = {
        "independent": product / product.sum(),
        "greedy": northwest_corner_mass(mu, nu),
        "random_joint": pi_random.mass,
    }
    for name, mass in couplings.items():
        row_mass = mass.sum(axis=1)
        keep = row_mass > 0.0
        op = mass[keep] / row_mass[keep, None]
        first = np.cumsum(mass, axis=1)[:, -1].copy()
        second = np.cumsum(mass, axis=0)[-1].copy()
        # The operator is defined on the first points with mass only.
        pushed = first[first > 0.0] @ op
        pushed = pushed / pushed.sum()
        err = float(max(np.abs(pushed - second).max(), np.abs(second - nu.probs).max()))
        reports.append(_report(t, f"transport_{name}", desc,
                               measured=err, bound=0.0, tolerance=EXACT_TOL))

    theta_exact = hockey_stick(mu, nu, eps)
    theta, omega, mu_p, nu_p = mixture_decompose_per_pair(mu, nu, eps)
    reports.append(_report(t, "decompose_theta", desc,
                           measured=abs(theta - theta_exact),
                           bound=0.0, tolerance=EXACT_TOL,
                           delta_before=theta_exact))
    if theta > 0.0:
        # The decomposition's laws live on the aligned support of (mu, nu).
        _, p, q = aligned_masses(mu, nu)
        omega = omega if omega is not None else np.zeros_like(p)
        nu_p = nu_p if nu_p is not None else np.zeros_like(p)
        w_nu = 1.0 - (1.0 - theta) * math.exp(-eps)
        err_mu = np.abs((1.0 - theta) * omega + theta * mu_p - p).max()
        err_nu = np.abs((1.0 - theta) * math.exp(-eps) * omega + w_nu * nu_p - q).max()
        overlap = float(np.minimum(mu_p, nu_p).sum())
        reports.append(_report(t, "decompose_reconstruction", desc,
                               measured=float(max(err_mu, err_nu)),
                               bound=0.0, tolerance=EXACT_TOL,
                               delta_before=theta_exact))
        reports.append(_report(t, "decompose_overlap", desc,
                               measured=overlap, bound=0.0, tolerance=0.0,
                               delta_before=theta_exact))
    return reports


def mixture_decompose_per_pair(mu: DiscreteDist, nu: DiscreteDist, eps: float) -> tuple:
    """``mixture_decompose`` as it was before it ran on stacks: theta and the
    masses of omega, mu_prime and nu_prime (None where a part has no mass)."""
    points, p, q = aligned_masses(mu, nu)
    eq = exp_times(eps, q)
    mask_mu = p > eq
    if not np.any(mask_mu):
        return 0.0, None, None, None
    overlap = np.minimum(p, eq)
    mu_res = np.where(mask_mu, p - eq, 0.0)
    theta = 1.0 - float(overlap.sum())
    if theta <= 0.0:
        theta = float(mu_res.sum())
    p_shrunk = p / math.exp(eps) if eps <= EXP_ARG_MAX else p * math.exp(-eps)
    nu_res = np.where(p < eq, np.maximum(q - p_shrunk, 0.0), 0.0)
    parts = [mass / mass.sum() if mass.sum() > 0.0 else None for mass in (overlap, mu_res, nu_res)]
    return (min(theta, 1.0), *parts)
