"""Slow reference implementations that the fast library paths are tested against.

Each one is the straightforward construction a library function used before
it was replaced by an exact shortcut; the tests require both to agree.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import networkx as nx
import numpy as np

from amplify_dp._quadrature import INITIAL_PANELS, QuadratureError
from amplify_dp._rng import rng_from_seed, uniform_open
from amplify_dp.distributions import DiscreteDist, GaussianDist
from amplify_dp.divergences import aligned_masses, exp_times
from amplify_dp.iteration import _laplace_pair_log_bound
from amplify_dp.mixing import SINKHORN_ATOL, SINKHORN_MAX_SWEEPS, Coupling, DiscreteKernel
from amplify_dp.verify import format_cell

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
    dist = np.sqrt(np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2))
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


def gaussian_density_numpy(d: GaussianDist, x) -> float:
    """Gaussian density with ``x`` as a numpy array, in any dimension."""
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if xv.shape != (d.dim,):
        raise ValueError(f"x has dimension {xv.shape}, family expects ({d.dim},)")
    sq = float(np.sum((xv - np.asarray(d.mean)) ** 2))
    return math.exp(-sq / (2.0 * d.variance)) / (2.0 * math.pi * d.variance) ** (d.dim / 2.0)


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


def random_joint_coupling_per_pair(mu: DiscreteDist, nu: DiscreteDist, seed: int) -> Coupling:
    """``random_joint_coupling`` as it was before pairs were solved in
    stacks: its own start matrix and its own Sinkhorn loop."""
    p, q = mu.probs, nu.probs
    p_pos, q_pos = p > 0.0, q > 0.0
    rng = rng_from_seed(seed)
    mass = -np.log(uniform_open(rng, (len(p), len(q)))) * np.outer(p_pos, q_pos)
    return Coupling(mu.points, nu.points, sinkhorn_per_pair(p, q, mass))


def hockey_stick_scalar(mu: DiscreteDist, nu: DiscreteDist, eps: float) -> float:
    """``hockey_stick`` at one eps, as it was before it took a sequence:
    one 1-D sum of the positive parts."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    _, p, q = aligned_masses(mu, nu)
    zero_q = q == 0.0
    out = float(p[zero_q].sum())
    if not math.isinf(eps):
        out += float(np.maximum(p[~zero_q] - exp_times(eps, q[~zero_q]), 0.0).sum())
    return min(out, 1.0)


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


def render_rows_per_cell(rows) -> list[str]:
    """CSV table lines with one ``format_cell`` call per cell, row by row:
    what ``cli._render_csv`` did before it formatted column by column."""
    return [",".join(format_cell(cell) for cell in row) for row in rows]
