"""Exact divergences on finite supports, a 1-D quadrature Renyi oracle, and
infinity-Wasserstein distance on finite supports.

Density-ratio convention throughout: 0/0 = 0, and p/0 = +infinity for p > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from ._quadrature import QuadratureError, _ends_rule, _single, _Stack, _value, integrate
from .distributions import PROB_ATOL, DiscreteDist, _trusted

__all__ = [
    "RdpPoint",
    "DpGuarantee",
    "QuadratureError",
    "hockey_stick",
    "tv",
    "renyi_discrete",
    "renyi_numeric_log",
    "renyi_numeric_1d",
    "w_inf_discrete",
    "w_inf_optimal_coupling",
    "aligned_masses",
]

# W-infinity transport is complete once the routed mass is within this of the
# smaller of the two laws' totals (a law may hold as little as 1 - PROB_ATOL).
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
        # Written so that NaN fails too.
        if not self.epsilon >= 0:
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
    ``exp(eps + log q)``: right for subnormal ``q``, and 0 (not NaN) at ``q = 0``.
    At eps = +inf it is +inf where q is positive."""
    if eps <= EXP_ARG_MAX:
        return math.exp(eps) * q
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(eps + np.log(q))


def _exp_times_stack(eps: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``exp_times(eps[i, j], q[i])`` at ``[i, j]``, for a ``(k, e)`` array of
    ``eps`` and a stack ``q`` of ``k`` arrays of one shape: e^eps is
    ``math.exp``'s, as numpy's vector exp need not give the same bits."""
    flat = eps.ravel().tolist()
    factors = np.array([math.exp(e) if e <= EXP_ARG_MAX else 0.0 for e in flat])
    out = factors.reshape(eps.shape + (1,) * (q.ndim - 1)) * q[:, None]
    for index, e in enumerate(flat):
        if e > EXP_ARG_MAX:
            i, j = divmod(index, eps.shape[1])
            out[i, j] = exp_times(e, q[i])
    return out


def _padded(values: Sequence[float], depth: int) -> list[float]:
    """``values`` (0.0 if empty) with its first entry repeated up to ``depth`` entries."""
    values = list(values) or [0.0]
    return values + values[:1] * (depth - len(values))


def hockey_stick(mu: DiscreteDist, nu: DiscreteDist, eps: float) -> float:
    """Hockey-stick divergence: sum of [p_mu - e^eps * p_nu]_+ over the support.

    At eps = 0 this is the total variation distance; at eps = +inf it is the
    mass of mu outside nu's support.
    """
    _, p, q = aligned_masses(mu, nu)
    return _hockey_sticks(p[None], q[None], [[eps]])[0][0]


def _hockey_sticks(p: np.ndarray, q: np.ndarray, eps: Sequence[Sequence[float]]) -> list[list[float]]:
    """:func:`hockey_stick` of each pair of rows ``(p[i], q[i])`` of two
    ``(k, n)`` stacks, at each eps of the list ``eps[i]``; lists may differ in
    length.  Shorter lists repeat their first entry up to the longest, and
    the repeats are dropped from the result.  At eps = +inf, e^eps * q is
    +inf wherever q is positive, so the excess there is 0 and the value is
    the mass outside q's support.
    """
    if not all(e >= 0 for values in eps for e in values):
        raise ValueError("eps must be non-negative")
    depth = max(map(len, eps), default=0)
    padded = np.array([_padded(values, depth) for values in eps], dtype=np.float64)
    out = np.empty(padded.shape)
    for rows, outside, p_pos, q_pos in _positive_parts(p, q):
        excess = np.maximum(p_pos[:, None] - _exp_times_stack(padded[rows], q_pos), 0.0)
        out[rows] = outside + excess.sum(axis=2)
    return [row[:len(values)] for row, values in zip(np.minimum(out, 1.0).tolist(), eps)]


def _positive_parts(p: np.ndarray, q: np.ndarray):
    """The rows of the ``(k, n)`` stacks ``p`` and ``q``, grouped by the zero
    pattern of ``q``: ``(rows, outside, p_pos, q_pos)`` per group, ``outside``
    the sums of p where q is 0 and ``p_pos``, ``q_pos`` the entries where q is
    positive.  So each sum runs over the same entries, in the same order, as
    on one pair; compress, not a boolean index, keeps them C-contiguous."""
    zero_q = q == 0.0
    if not zero_q.any():
        yield slice(None), 0.0, p, q
        return
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(zero_q):
        groups.setdefault(row.tobytes(), []).append(i)
    for rows in groups.values():
        pos = ~zero_q[rows[0]]
        p_rows = p[rows]
        yield (rows, p_rows.compress(~pos, axis=1).sum(axis=1)[:, None],
               p_rows.compress(pos, axis=1), q[rows].compress(pos, axis=1))


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


def renyi_numeric_log(
    log_p: Callable[[np.ndarray], np.ndarray],
    log_q: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    domain: tuple[float, float],
    tol: float = 1e-8,
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
    budget ``_quadrature.MAX_EVALS`` runs out, or when the moment vanishes.
    Raises ``ValueError`` unless alpha is finite and > 1 and ``tol`` > 0, and
    where :func:`_quadrature.integrate` rejects ``domain``.
    """
    return _renyi_numeric(lambda x: (log_p(x), log_q(x)), alpha, domain, tol, breakpoints)


def _renyi_numeric(log_pq: Callable[[np.ndarray], tuple], alpha: float, domain: tuple[float, float],
                   tol: float, breakpoints: Sequence[float]) -> float:
    """:func:`renyi_numeric_log` with ``log_pq(x)`` giving the logs of p and q at ``x``."""
    if not (alpha > 1 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and > 1")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")

    def log_integrand(x: np.ndarray) -> np.ndarray:
        return _renyi_log_integrand(*log_pq(x), alpha)

    rtol = 0.5 * tol * (alpha - 1.0)
    log_moment = integrate(log_integrand, *domain, rtol=rtol, breakpoints=breakpoints)
    stack = _Stack(_single(log_integrand), [domain], [rtol], [breakpoints])
    return _value(_renyi_results(stack, [alpha], [log_moment])[0])


def _renyi_log_integrand(lp: np.ndarray, lq: np.ndarray, alpha) -> np.ndarray:
    """Log of the moment integrand p^alpha * q^(1-alpha) from the logs of p and
    q, for one alpha or an alpha per point."""
    # Where p is an exact zero so is the integrand, also where q is (0/0 = 0).
    with np.errstate(invalid="ignore"):
        return np.where(lp == -math.inf, -math.inf, alpha * lp + (1.0 - alpha) * lq)


def _renyi_stack(log_p, log_q, alphas: Sequence[float], domains: Sequence[tuple[float, float]],
                 tols: Sequence[float], breakpoints: Sequence[Sequence[float]]) -> _Stack:
    """The moment integrals of :func:`renyi_numeric_log` as one stack: ``log_p``
    and ``log_q`` are stacked log-densities ``(x, which) -> logs``, and
    integral ``i`` is that of ``alphas[i]`` on ``domains[i]`` to ``tols[i]``."""
    alpha = np.array(alphas, dtype=np.float64)
    return _Stack(lambda x, which: _renyi_log_integrand(log_p(x, which), log_q(x, which), alpha[which]),
                  domains, [0.5 * tol * (a - 1.0) for a, tol in zip(alphas, tols)], breakpoints)


def _renyi_results(stack: _Stack, alphas: Sequence[float], log_moments: list) -> list:
    """Per integral of a :func:`_renyi_stack`, the divergence from its log-moment,
    or the ``QuadratureError`` that :func:`renyi_numeric_log` raises."""
    vanished = [QuadratureError("moment integral vanished") if m == -math.inf else m for m in log_moments]
    return [m if isinstance(m, QuadratureError) else max(0.0, m / (alpha - 1.0))
            for m, alpha in zip(_ends_rule(stack, vanished), alphas)]


def renyi_numeric_1d(
    p: Callable[[float], float],
    q: Callable[[float], float],
    alpha: float,
    domain: tuple[float, float],
    tol: float = 1e-8,
    breakpoints: Sequence[float] = (),
) -> float:
    """:func:`renyi_numeric_log` for scalar density callables, called once per
    point.  A density that is not positive (it may have underflowed) has a NaN
    log, so it counts as 0 only where the integrand around it is negligible.
    Both densities must be positive almost everywhere on ``domain``."""

    def log_pq(x: np.ndarray) -> np.ndarray:  # the logs of p and q as two rows
        points = x.tolist()
        values = np.fromiter(chain(map(p, points), map(q, points)), np.float64, 2 * len(points))
        return np.log(np.where(values > 0.0, values, np.nan)).reshape(2, -1)

    return _renyi_numeric(log_pq, alpha, domain, tol, breakpoints)


def _start_threshold(dist: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """A pairwise distance below which no threshold can complete the transport.

    An atom with mass moves it to a partner with mass on the other side, so
    below its nearest such partner it is stranded.  Routing may leave
    ``FLOW_ATOL`` of the smaller total unrouted, and the two totals may differ
    by ``2 * PROB_ATOL``: the threshold is the largest nearest-partner distance
    at which the atoms that far from every partner hold more than that
    margin.  Zero-mass atoms hold nothing, so they never set it.
    """
    start = -math.inf
    for nearest, mass in ((dist[:, q > 0.0].min(axis=1), p), (dist[p > 0.0].min(axis=0), q)):
        order = np.argsort(nearest)[::-1]
        stranded = np.cumsum(mass[order]) > FLOW_ATOL + 2 * PROB_ATOL
        start = max(start, nearest[order[stranded.argmax()]])
    return start


def _line_passes(p: list, q: list, first: list, stop: list) -> tuple[np.ndarray, list]:
    """Greedy transport on the line for each pair ``(p[k], q[k])`` of a stack of
    mass lists, source ``i`` moving mass to the targets ``first[i] <= j < stop[i]``.

    Sources and targets are in increasing coordinate order, so the two ends of
    each source's interval never decrease.  Each source fills the leftmost
    targets that still have room; a target it passes is full or out of reach
    of every later source, which makes the routed mass maximal.  With every
    pair admissible it is the northwest-corner rule.  Returns the ``(k, n, m)``
    masses moved, at most one move per cell, and the mass routed per pair,
    summed in the order of the moves, which is row-major.
    """
    n, m = len(first), len(q[0])
    moved = np.zeros((len(p), n, m))
    # Each move is written through a flat float64 view of ``moved``, which costs
    # less than collecting the moves in lists and scattering them afterwards.
    cells, routes, base = memoryview(moved).cast("B").cast("d"), [], -m
    for row_p, row_q in zip(p, q):
        room, routed, j = list(row_q), 0.0, 0
        for lo, hi, left in zip(first, stop, row_p):
            base += m
            if not left > 0.0:
                continue
            if j < lo:
                j = lo
            while j < hi:
                have = room[j]
                # The move is min(left, have).  Where it is have, the target
                # fills and is never reached again, and left stays positive.
                if have < left:
                    if have > 0.0:
                        cells[base + j] = have
                        left -= have
                        routed += have
                    j += 1
                else:
                    cells[base + j] = left
                    routed += left
                    room[j] = have = have - left
                    if not have > 0.0:
                        j += 1
                    break
        routes.append(routed)
    return moved, routes


def _w_inf_line(x: np.ndarray, y: np.ndarray, dist: np.ndarray, p: np.ndarray,
                q: np.ndarray, start: float, total: float) -> tuple[float, np.ndarray]:
    """Bottleneck transport on the line by binary search over the distances.

    The candidate thresholds are the distinct entries of ``dist`` from
    ``start`` up, and each is decided by one :func:`_line_passes` under the
    search's stopping rule, so the value is the smallest candidate at which
    the routed mass is within ``FLOW_ATOL`` of ``total``.
    """
    ox, oy = np.argsort(x), np.argsort(y)
    ordered, p, q = dist[np.ix_(ox, oy)], [p[ox].tolist()], [q[oy].tolist()]
    thresholds = np.unique(dist[dist >= start])
    lo, hi, best = 0, len(thresholds) - 1, None
    while lo <= hi:
        mid = (lo + hi) // 2
        within = ordered <= thresholds[mid]
        # A source with no target in reach gets the empty interval [0, 0).
        stop = np.where(within.any(axis=1), len(oy) - within[:, ::-1].argmax(axis=1), 0)
        moved, (routed,) = _line_passes(p, q, within.argmax(axis=1).tolist(), stop.tolist())
        if total - routed <= FLOW_ATOL:
            best, hi = (thresholds[mid], moved[0]), mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise RuntimeError("transport infeasible at the maximal distance")
    flow = np.zeros_like(dist)
    flow[np.ix_(ox, oy)] = best[1]
    return float(best[0]), flow


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``x`` and the rows of ``y``.

    Each pair's differences are scaled exactly, by a power of two that puts
    the largest in [1/2, 1), before squaring: no distance underflows to 0 or
    overflows to inf where the differences themselves are finite and nonzero.
    A difference beyond the float range is inf, and so is its pair's distance.
    """
    with np.errstate(over="ignore"):
        diff = np.abs(x[:, None, :] - y[None, :, :])
        exp = np.frexp(diff.max(axis=2))[1]
        return np.ldexp(np.sqrt(np.sum(np.ldexp(diff, -exp[..., None]) ** 2, axis=2)), exp)


def _members(bits: int):
    """Indices of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _w_inf_search(mu: DiscreteDist, nu: DiscreteDist) -> tuple[float, np.ndarray]:
    """Bottleneck transport: the W-infinity value and a flow that attains it.

    ``flow`` only uses pairs with ``dist <= w``, and ``w`` is at least the
    lower bound of :func:`_start_threshold`.  On the line the search is
    :func:`_w_inf_line`.  In higher dimensions it is a max-flow in blocking-flow
    phases (Dinic) that starts at that bound, with each node's pairs within
    ``w`` and its pairs carrying flow held as Python ints, bitsets over the
    other side.  A phase's BFS from the sources with mass left follows pairs
    within ``w`` forward and pairs carrying flow backward, layer by layer, up
    to the first layer with a target that has room; a DFS back from each such
    target augments along the shortest paths by their bottlenecks and drops the
    nodes it finds dead.  When the BFS reaches no target with room, the flow
    is maximal at ``w``, and the reached nodes form the same cut for every
    maximal flow: ``w`` rises to the nearest pair from a reached source to an
    unreached target, and the pairs up to that distance join the bitsets.
    """
    x, y = mu.coords(), nu.coords()
    if x.shape[1] != y.shape[1]:
        raise ValueError("supports live in different dimensions")
    dist = _distances(x, y)
    start = _start_threshold(dist, mu.probs, nu.probs)
    total = min(math.fsum(mu.probs.tolist()), math.fsum(nu.probs.tolist()))
    if x.shape[1] == 1:
        return _w_inf_line(x[:, 0], y[:, 0], dist, mu.probs, nu.probs, start, total)
    n, m = dist.shape
    supply, demand = mu.probs.tolist(), nu.probs.tolist()
    flow = [[0.0] * m for _ in range(n)]
    # to_t[i]: the targets within w of source i; to_s[j]: the sources within w
    # of target j; sends[i], gets[j]: the same for the pairs carrying flow.
    to_t, to_s, sends, gets = [0] * n, [0] * m, [0] * n, [0] * m
    lit_s = sum(1 << i for i, mass in enumerate(supply) if mass > 0.0)
    lit_t = sum(1 << j for j, mass in enumerate(demand) if mass > 0.0)
    # Flat pair indices by distance; pairs[:admitted] are within w.
    order = np.argsort(dist, axis=None, kind="stable")
    pairs, ranked, admitted = memoryview(order), memoryview(dist.ravel()[order]), 0
    w, routed = start, 0.0
    while total - routed > FLOW_ATOL:
        while admitted < len(pairs) and ranked[admitted] <= w:
            i, j = divmod(pairs[admitted], m)
            to_t[i] |= 1 << j
            to_s[j] |= 1 << i
            admitted += 1
        # levels[k]: the sources and the targets that the BFS reaches first in layer k.
        frontier, seen_s, seen_t, levels = lit_s, lit_s, 0, []
        while frontier:
            reach = 0
            for i in _members(frontier):
                reach |= to_t[i]
            reach &= ~seen_t
            seen_t |= reach
            levels.append([frontier, reach])
            if reach & lit_t:
                break
            frontier = 0
            for j in _members(reach):
                frontier |= gets[j]
            frontier &= ~seen_s
            seen_s |= frontier
        else:
            # The pairs from a reached source to an unreached target are all beyond w.
            for cut in range(admitted, len(pairs)):
                i, j = divmod(pairs[cut], m)
                if seen_s >> i & 1 and not seen_t >> j & 1:
                    break
            else:
                raise RuntimeError("transport infeasible at the maximal distance")
            w = ranked[cut]
            continue
        top = len(levels) - 1
        for t in _members(levels[top][1] & lit_t):
            path = [t]  # j_top, i_top, j_top-1, ..., j_0, i_0: target k is sent to by source k
            while path and demand[t] > 0.0:
                node, depth = path[-1], len(path)
                k = top - (depth - 1) // 2
                if depth % 2:
                    options = to_s[node] & levels[k][0]
                elif k:
                    options = sends[node] & levels[k - 1][1]
                else:
                    # Forward pairs (i_k, j_k) gain the amount; backward pairs (i_k, j_k-1) give it up.
                    sources, targets = path[1::2], path[::2]
                    amount = min(supply[node], demand[t], *(flow[i][j] for i, j in zip(sources, targets[1:])))
                    for i, j in zip(sources, targets):
                        flow[i][j] += amount
                        sends[i] |= 1 << j
                        gets[j] |= 1 << i
                    for i, j in zip(sources, targets[1:]):
                        flow[i][j] -= amount
                        if not flow[i][j] > 0.0:
                            sends[i] &= ~(1 << j)
                            gets[j] &= ~(1 << i)
                    supply[node] -= amount
                    demand[t] -= amount
                    routed += amount
                    if not supply[node] > 0.0:
                        lit_s &= ~(1 << node)
                        levels[0][0] &= ~(1 << node)
                    path = [t]
                    continue
                if options:
                    path.append((options & -options).bit_length() - 1)
                else:
                    levels[k][depth % 2] &= ~(1 << path.pop())
            if not demand[t] > 0.0:
                lit_t &= ~(1 << t)
    return float(w), np.array(flow)


def w_inf_discrete(mu: DiscreteDist, nu: DiscreteDist) -> float:
    """Exact infinity-Wasserstein distance between coordinate-carrying supports.

    The smallest pairwise distance ``w`` such that all but ``FLOW_ATOL`` of
    the smaller of the two laws' totals can be moved along pairs at distance
    ``<= w``; distances are compared exactly.  On the line it is found by a
    binary search over the distances, deciding each by one monotone greedy
    pass; in two or more dimensions by blocking-flow phases over bitsets of
    the pairs within the threshold, raising it across each maximal flow's
    cut.  Non-finite coordinates and points of unequal dimension raise
    ``ValueError``.
    """
    return _w_inf_search(mu, nu)[0]


def w_inf_optimal_coupling(mu: DiscreteDist, nu: DiscreteDist) -> tuple[float, DiscreteDist]:
    """W-infinity value together with a witnessing coupling.

    The coupling is returned as a joint distribution on pairs
    ``(mu point, nu point)``, holding only the pairs with positive mass.  It
    is the flow of the search that :func:`w_inf_discrete` describes: on the
    line, the greedy pass at the value, which moves mass monotonically; in
    higher dimensions, the flow after the last blocking-flow phase.  Another
    maximal flow would be as good a witness: the value does not depend on
    which one the phases find.
    """
    w, joint = _w_inf_search(mu, nu)
    rows, cols = np.nonzero(joint > 0.0)
    probs = joint[rows, cols]
    points = tuple((mu.points[i], nu.points[j]) for i, j in zip(rows.tolist(), cols.tolist()))
    # Distinct pairs of canonical points, with positive masses summing to 1.
    return w, _trusted(DiscreteDist, points, probs / sum(probs.tolist()))
