"""Exact divergences on finite supports, closed-form Renyi divergences for the
noise families, a 1-D quadrature Renyi oracle, and infinity-Wasserstein
distance on finite supports.

Density-ratio convention throughout: 0/0 = 0, and p/0 = +infinity for p > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._quadrature import QuadratureError, integrate, require_negligible_ends
from .distributions import PROB_ATOL, DiscreteDist

__all__ = [
    "RdpPoint",
    "DpGuarantee",
    "QuadratureError",
    "hockey_stick",
    "hockey_stick_via_min",
    "tv",
    "renyi_discrete",
    "renyi_gaussian",
    "log_laplace_g",
    "renyi_numeric_log",
    "renyi_numeric_1d",
    "w_inf_discrete",
    "w_inf_optimal_coupling",
    "aligned_masses",
]

# W-infinity transport is complete once the unrouted mass is at most this.
FLOW_ATOL = 1e-12

# Largest argument at which math.exp and math.expm1 are finite.
EXP_ARG_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True)
class RdpPoint:
    """Renyi-DP point: divergence bound ``epsilon`` at order ``alpha``."""

    alpha: float
    epsilon: float

    def __post_init__(self):
        if not self.alpha > 1:
            raise ValueError("alpha must be > 1 or +inf")
        if math.isnan(self.epsilon):
            # A closed form gives NaN only where its arithmetic left the
            # float range, e.g. a product of an underflowed 0 and an inf.
            raise ArithmeticError("epsilon is NaN")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")


@dataclass(frozen=True)
class DpGuarantee:
    """Approximate-DP pair (epsilon, delta)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")


def aligned_masses(mu: DiscreteDist, nu: DiscreteDist) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Mass vectors of ``mu`` and ``nu`` over the union of their supports."""
    if mu.points == nu.points:
        return mu.points, mu.probs, nu.probs
    union = list(mu.points)
    seen = set(union)
    for q in nu.points:
        if q not in seen:
            union.append(q)
            seen.add(q)
    mu_map = dict(zip(mu.points, mu.probs))
    nu_map = dict(zip(nu.points, nu.probs))
    p = np.array([mu_map.get(pt, 0.0) for pt in union])
    q = np.array([nu_map.get(pt, 0.0) for pt in union])
    return tuple(union), p, q


def exp_times(eps: float, q: np.ndarray) -> np.ndarray:
    """``e^eps * q`` for finite ``eps`` and ``q >= 0``.  Past ``EXP_ARG_MAX`` it is
    ``exp(eps + log q)``: right for subnormal ``q``, and 0 (not NaN) at ``q = 0``."""
    if eps <= EXP_ARG_MAX:
        return math.exp(eps) * q
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(eps + np.log(q))


def hockey_stick(mu: DiscreteDist, nu: DiscreteDist, eps):
    """Hockey-stick divergence: sum of [p_mu - e^eps * p_nu]_+ over the support.

    At eps = 0 this is the total variation distance; at eps = +inf it is the
    mass of mu outside nu's support.  A sequence of eps values gives a list
    with one divergence per value: the finite ones are rows of one array,
    each summed along its contiguous axis, so every value is ``==`` the
    scalar call's.
    """
    scalar = np.ndim(eps) == 0
    eps_values = [eps] if scalar else list(eps)
    if any(e < 0 for e in eps_values):
        raise ValueError("eps must be non-negative")
    _, p, q = aligned_masses(mu, nu)
    zero_q = q == 0.0
    outside = float(p[zero_q].sum())
    finite = [e for e in eps_values if not math.isinf(e)]
    if finite:
        p_pos, q_pos = p[~zero_q], q[~zero_q]
        scaled = np.stack([exp_times(e, q_pos) for e in finite])
        excess = iter(np.maximum(p_pos - scaled, 0.0).sum(axis=1).tolist())
    out = [min(outside if math.isinf(e) else outside + next(excess), 1.0) for e in eps_values]
    return out[0] if scalar else out


def hockey_stick_via_min(mu: DiscreteDist, nu: DiscreteDist, eps: float) -> float:
    """Same divergence computed as 1 - sum of min(p_mu, e^eps * p_nu)."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    _, p, q = aligned_masses(mu, nu)
    pos_q = q > 0.0
    if math.isinf(eps):
        overlap = float(p[pos_q].sum())
    else:
        overlap = float(np.minimum(p[pos_q], exp_times(eps, q[pos_q])).sum())
    return 1.0 - overlap


def tv(mu: DiscreteDist, nu: DiscreteDist) -> float:
    """Total variation distance (hockey-stick at eps = 0)."""
    return hockey_stick(mu, nu, 0.0)


def _logsumexp(t: np.ndarray) -> float:
    """log(sum(exp(t))) for a 1-D array, in scipy's form: the ``k`` entries
    equal to the max are taken out, and the result is
    ``log1p(sum(exp(rest - max)) / k) + log(k) + max``."""
    top = t.max()
    ties = t == top
    k = ties.sum(dtype=np.float64)
    s = np.exp(np.where(ties, -np.inf, t) - top).sum()
    if s != 0.0:
        s = s / k
    return float(np.log1p(s) + np.log(k) + top)


def renyi_discrete(mu: DiscreteDist, nu: DiscreteDist, alpha: float) -> float:
    """Renyi divergence of order ``alpha`` between finite distributions.

    Returns +inf when mu is not absolutely continuous w.r.t. nu; alpha = +inf
    gives the max divergence log max(p_mu / p_nu).
    """
    if not (alpha > 1 or math.isinf(alpha)):
        raise ValueError("alpha must be > 1 or +inf")
    _, p, q = aligned_masses(mu, nu)
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return math.inf
    p, q = p[support], q[support]
    if math.isinf(alpha):
        return max(0.0, float(np.max(np.log(p) - np.log(q))))
    terms = alpha * np.log(p) + (1.0 - alpha) * np.log(q)
    return max(0.0, _logsumexp(terms) / (alpha - 1.0))


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


def log_laplace_g(z: float, alpha: float) -> float:
    """log of the Laplace Renyi moment g_alpha(z), evaluated stably."""
    if z < 0:
        raise ValueError("z must be non-negative")
    if not (alpha > 1 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and > 1")
    a = math.log(alpha / (2.0 * alpha - 1.0)) + z * (alpha - 1.0)
    b = math.log((alpha - 1.0) / (2.0 * alpha - 1.0)) - z * alpha
    return float(np.logaddexp(a, b))


def renyi_numeric_log(
    log_p: Callable[[np.ndarray], np.ndarray],
    log_q: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    domain: tuple[float, float],
    tol: float = 1e-8,
    max_evals: int = 10**6,
    breakpoints: Sequence[float] = (),
) -> float:
    """Quadrature estimate of the order-``alpha`` Renyi divergence of densities
    given by their logs.

    ``log_p`` and ``log_q`` map a 1-D array of points to the log-densities
    there (``distributions.log_density`` with a family bound, for instance):
    ``-inf`` is an exact zero, and NaN marks a density that is not
    representable.  The moment p^alpha * q^(1-alpha) is integrated over
    ``domain`` with the log-space Simpson engine (``_quadrature.integrate``) as
    alpha * log p + (1-alpha) * log q.  ``tol`` is the absolute error target on
    the divergence itself, which becomes the relative target
    ``tol * (alpha - 1) / 2`` on the moment (the moment is >= 1 and can be
    astronomically large).  A point where either log is NaN contributes 0 only
    while every representable node of a panel touching it stays below that
    relative target times the running moment over the domain length, checked
    on every sweep.  The moment is an integral over the whole line, so the
    integrand must also be below that level at both ends of ``domain``.

    Raises :class:`QuadratureError` when the integrand is not negligible next
    to such a point or at a domain end (typically: the tilted mass lies past
    ``domain``), when q is an exact zero where p is not, when the evaluation
    budget ``max_evals`` runs out, or when the moment vanishes.
    """
    if not (alpha > 1 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and > 1")

    def log_integrand(x: np.ndarray) -> np.ndarray:
        lp, lq = log_p(x), log_q(x)
        # Where p is an exact zero so is the integrand, also where q is (0/0 = 0).
        with np.errstate(invalid="ignore"):
            return np.where(lp == -math.inf, -math.inf, alpha * lp + (1.0 - alpha) * lq)

    a, b = domain
    rtol = 0.5 * tol * (alpha - 1.0)
    log_moment = integrate(log_integrand, a, b, rtol=rtol, max_evals=max_evals,
                           breakpoints=breakpoints)
    if log_moment == -math.inf:
        raise QuadratureError("moment integral vanished")
    require_negligible_ends(log_integrand, a, b, rtol, log_moment)
    return max(0.0, log_moment / (alpha - 1.0))


def renyi_numeric_1d(
    p: Callable[[float], float],
    q: Callable[[float], float],
    alpha: float,
    domain: tuple[float, float],
    tol: float = 1e-8,
    max_evals: int = 10**6,
    breakpoints: Sequence[float] = (),
) -> float:
    """:func:`renyi_numeric_log` for scalar density callables, called once per
    point.  A density that is not positive (it may have underflowed) has a NaN
    log, so it counts as 0 only where the integrand around it is negligible.
    Both densities must be positive almost everywhere on ``domain``."""

    def log_of(density: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
        def log_values(x: np.ndarray) -> np.ndarray:
            values = np.fromiter(map(density, x.tolist()), np.float64, len(x))
            out = np.full(len(x), np.nan)
            positive = values > 0.0
            out[positive] = np.log(values[positive])
            return out
        return log_values

    return renyi_numeric_log(log_of(p), log_of(q), alpha, domain, tol, max_evals, breakpoints)


def _start_threshold(dist: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """A pairwise distance below which no threshold can complete the transport.

    An atom with mass moves it to a partner with mass on the other side, so
    below its nearest such partner it is stranded.  Routing may leave
    ``FLOW_ATOL`` of the mass unrouted, and masses may sum to 1 + ``PROB_ATOL``:
    the threshold is the largest nearest-partner distance at which the atoms
    that far from every partner hold more than both together.  Zero-mass atoms
    hold nothing, so they never set it.
    """
    start = -math.inf
    for nearest, mass in ((dist[:, q > 0.0].min(axis=1), p), (dist[p > 0.0].min(axis=0), q)):
        order = np.argsort(nearest)[::-1]
        stranded = np.cumsum(mass[order]) > FLOW_ATOL + PROB_ATOL
        start = max(start, nearest[order[stranded.argmax()]])
    return start


def _line_pass(within: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[list, float]:
    """Greedy transport on the line along the pairs that ``within`` admits.

    Sources and targets are in increasing coordinate order, so each source's
    admissible targets form an interval whose two ends never decrease.  Each
    source fills the leftmost targets that still have room; a target it
    passes is full or out of reach of every later source, which makes the
    routed mass maximal.  Returns the ``(i, j, amount)`` moves and the mass
    routed.
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


def _w_inf_line(x: np.ndarray, y: np.ndarray, dist: np.ndarray, p: np.ndarray,
                q: np.ndarray, start: float) -> tuple[float, np.ndarray]:
    """Bottleneck transport on the line by binary search over the distances.

    The candidate thresholds are the distinct entries of ``dist`` from
    ``start`` up, and each is decided by one :func:`_line_pass` under the
    search's stopping rule, so the value is the smallest candidate that
    leaves at most ``FLOW_ATOL`` of the mass unrouted.
    """
    ox, oy = np.argsort(x), np.argsort(y)
    ordered, p, q = dist[np.ix_(ox, oy)], p[ox], q[oy]
    thresholds = np.unique(dist[dist >= start])
    lo, hi, best = 0, len(thresholds) - 1, None
    while lo <= hi:
        mid = (lo + hi) // 2
        moves, routed = _line_pass(ordered <= thresholds[mid], p, q)
        if 1.0 - routed <= FLOW_ATOL:
            best, hi = (thresholds[mid], moves), mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise RuntimeError("transport infeasible at the maximal distance")
    rows, cols, amounts = zip(*best[1])
    flow = np.zeros_like(dist)
    flow[ox[list(rows)], oy[list(cols)]] = amounts
    return float(best[0]), flow


def _w_inf_search(mu: DiscreteDist, nu: DiscreteDist) -> tuple[float, np.ndarray]:
    """Bottleneck transport: the W-infinity value and a flow that attains it.

    ``flow`` only uses pairs with ``dist <= w``, and ``w`` is at least the
    lower bound of :func:`_start_threshold`.  On the line the search is
    :func:`_w_inf_line`.  In higher dimensions it is one augmenting-path pass
    that starts at that bound.  A BFS from the sources with mass
    left follows such pairs forward and pairs carrying flow backward; a path
    to a target with room left is augmented by its bottleneck.  When the BFS
    reaches no new target, the reached nodes form a cut that no threshold
    below the nearest unreached target can cross, so ``w`` rises to that
    distance and the same BFS goes on from every reached source: ``w`` only
    grows and the flow has not changed, so what it reached stays reachable.
    """
    x, y = mu.coords(), nu.coords()
    if x.shape[1] != y.shape[1]:
        raise ValueError("supports live in different dimensions")
    # Each pair's differences are scaled exactly, by a power of two that puts
    # the largest in [1/2, 1), before squaring: no distance underflows to 0 or
    # overflows to inf where the differences themselves are finite and nonzero.
    # A difference beyond the float range is inf, and so is its pair's distance.
    with np.errstate(over="ignore"):
        diff = np.abs(x[:, None, :] - y[None, :, :])
        exp = np.frexp(diff.max(axis=2))[1]
        dist = np.ldexp(np.sqrt(np.sum(np.ldexp(diff, -exp[..., None]) ** 2, axis=2)), exp)
    start = _start_threshold(dist, mu.probs, nu.probs)
    if x.shape[1] == 1:
        return _w_inf_line(x[:, 0], y[:, 0], dist, mu.probs, nu.probs, start)
    supply, demand = mu.probs.copy(), nu.probs.copy()
    flow = np.zeros_like(dist)
    w, routed = start, 0.0
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
        parent_s, parent_t = by_s.tolist(), by_t.tolist()
        while j >= 0:
            fi.append(parent_s[j])
            fj.append(j)
            j = parent_t[fi[-1]]
        # Forward pairs (i_k, j_k) gain flow; backward pairs (i_k, j_k+1) give it up.
        fi, fj = np.array(fi), np.array(fj)
        amount = min(supply[fi[-1]], demand[sink], flow[fi[:-1], fj[1:]].min(initial=np.inf))
        flow[fi, fj] += amount
        flow[fi[:-1], fj[1:]] -= amount
        supply[fi[-1]] -= amount
        demand[sink] -= amount
        routed += amount
    return float(w), flow


def w_inf_discrete(mu: DiscreteDist, nu: DiscreteDist) -> float:
    """Exact infinity-Wasserstein distance between coordinate-carrying supports.

    The smallest pairwise distance ``w`` such that all but ``FLOW_ATOL`` of
    the mass can be moved along pairs at distance ``<= w``; distances are
    compared exactly.  On the line it is found by a binary search over the
    distances, deciding each by one monotone greedy pass; in two or more
    dimensions by one bottleneck augmenting-path pass.  Non-finite
    coordinates raise ``ValueError``.
    """
    return _w_inf_search(mu, nu)[0]


def w_inf_optimal_coupling(mu: DiscreteDist, nu: DiscreteDist) -> tuple[float, DiscreteDist]:
    """W-infinity value together with a witnessing coupling.

    The coupling is returned as a joint distribution on pairs
    ``(mu point, nu point)``, holding only the pairs with positive mass.  It
    is the flow of the search that :func:`w_inf_discrete` describes: on the
    line, the greedy pass at the value, which moves mass monotonically.
    """
    w, joint = _w_inf_search(mu, nu)
    rows, cols = np.nonzero(joint > 0.0)
    probs = joint[rows, cols]
    points = [(mu.points[i], nu.points[j]) for i, j in zip(rows.tolist(), cols.tolist())]
    return w, DiscreteDist(points, probs / sum(probs.tolist()))
