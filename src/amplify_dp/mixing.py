"""Discrete Markov operators, uniform-mixing coefficients, the four
amplification rules they induce on (epsilon, delta) guarantees, and the
transport-operator / overlapping-mixture constructions as testable operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._rng import rng_from_seed, uniform_open
from .distributions import DiscreteDist, PROB_ATOL, _canonical_point, _trusted
from .divergences import (
    EXP_ARG_MAX,
    DpGuarantee,
    _exp_times_stack,
    _line_passes,
    _padded,
    aligned_masses,
    exp_times,
)

__all__ = [
    "Coupling",
    "DiscreteKernel",
    "MixtureDecomposition",
    "pushforward",
    "dobrushin_coeff",
    "eps_dobrushin_coeff",
    "doeblin_coeff",
    "ultra_coeff",
    "eps_tilde",
    "amplify",
    "amplify_with_kernel",
    "transport_operator",
    "mixture_decompose",
    "independent_coupling",
    "greedy_coupling",
    "random_joint_coupling",
]

AMPLIFY_CONDITIONS = ("dobrushin", "eps_dobrushin", "doeblin", "ultra")

# Pairwise row arrays are built in tiles of at most this many float64 entries
# (512 KiB, so a tile stays in cache), or one row against all rows where that
# is more.  A stack of kernels is cut into windows of consecutive kernels whose
# tiles fit, so sixteen 16x16 kernels share one tile, and a window of one
# kernel is cut into row blocks.  eps-Dobrushin's tiles count one layer per
# distinct eps, +inf as any other, and a kernel past one tile is screened
# instead (see _screened_worst).  Sinkhorn stacks share the bound, each
# coupling counted at its zero-padded summation widths (_summation_width).
PAIR_BLOCK_ENTRIES = 2**16

# Sinkhorn stops once every row sum is within SINKHORN_ATOL of its target
# (the columns are exact after each sweep), or after SINKHORN_MAX_SWEEPS.
SINKHORN_ATOL = 1e-15
SINKHORN_MAX_SWEEPS = 400


def _labeled_matrix(values, first_points, second_points, what: str) -> tuple:
    """Read-only float copy of ``values``, non-negative and shaped like the supports,
    and the supports canonical and pairwise distinct, as in :class:`DiscreteDist`."""
    mat = np.array(values, dtype=np.float64)
    xs, ys = tuple(map(_canonical_point, first_points)), tuple(map(_canonical_point, second_points))
    if mat.shape != (len(xs), len(ys)):
        raise ValueError(f"{what} shape {mat.shape} does not match supports ({len(xs)}, {len(ys)})")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError(f"{what} support points must be pairwise distinct")
    if not np.all(mat >= 0):
        raise ValueError(f"{what} entries must be non-negative numbers")
    mat.flags.writeable = False
    return mat, xs, ys


@dataclass(frozen=True, eq=False)
class DiscreteKernel:
    """Row-stochastic matrix acting as a Markov operator on finite supports."""

    rows: np.ndarray
    input_points: tuple
    output_points: tuple

    def __init__(self, rows, input_points: Sequence, output_points: Sequence):
        mat, in_pts, out_pts = _labeled_matrix(rows, input_points, output_points, "kernel")
        sums = mat.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > PROB_ATOL)[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"row {i} sums to {float(sums[i])!r}, not 1")
        object.__setattr__(self, "rows", mat)
        object.__setattr__(self, "input_points", in_pts)
        object.__setattr__(self, "output_points", out_pts)

    @classmethod
    def from_matrix(cls, rows) -> "DiscreteKernel":
        mat = np.asarray(rows, dtype=np.float64)
        return cls(
            mat,
            [f"x{i}" for i in range(mat.shape[0])],
            [f"y{j}" for j in range(mat.shape[1])],
        )


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint law on two finite supports as a labeled mass matrix: ``mass[i, j]``
    is the probability of ``(first_points[i], second_points[j])``."""

    first_points: tuple
    second_points: tuple
    mass: np.ndarray

    def __init__(self, first_points: Sequence, second_points: Sequence, mass):
        mat, xs, ys = _labeled_matrix(mass, first_points, second_points, "coupling")
        if abs(float(mat.sum()) - 1.0) > PROB_ATOL:
            raise ValueError(f"coupling masses sum to {float(mat.sum())!r}, not 1")
        object.__setattr__(self, "first_points", xs)
        object.__setattr__(self, "second_points", ys)
        object.__setattr__(self, "mass", mat)

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column sums as contiguous copies, each added in index order."""
        return _marginals(self.mass)


def _marginals(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`Coupling.marginals` of each coupling of the ``(..., n, m)`` stack
    ``mass``: cumulative sums, so each row and column adds in index order, copied
    out contiguous (a product with a strided marginal may differ in the last bit)."""
    return np.cumsum(mass, axis=-1)[..., -1].copy(), np.cumsum(mass, axis=-2)[..., -1, :].copy()


def pushforward(mu: DiscreteDist, kernel: DiscreteKernel) -> DiscreteDist:
    """Distribution of the kernel output when the input is drawn from ``mu``."""
    if mu.points != kernel.input_points:
        raise ValueError("support of mu does not match the kernel input support")
    return _trusted(DiscreteDist, kernel.output_points, _pushforward_stack([(mu.probs, kernel.rows)])[0])


def _pushforward_stack(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """:func:`pushforward` of each ``(probs, rows)`` of ``pairs``: one vector-matrix
    product per law, the stack of them normalized by their sums."""
    out = np.array([probs @ rows for probs, rows in pairs])
    out /= out.sum(axis=1, keepdims=True)
    return out


def _row_blocks(rows: np.ndarray, stack: int = 1):
    """Slices of consecutive rows, each small enough that ``stack`` stacked
    tile-by-all-rows pairwise arrays hold at most max(``PAIR_BLOCK_ENTRIES``,
    stack * n * m) entries: memory is O(stack * n * m), never O(n^2 * m)."""
    step = max(1, PAIR_BLOCK_ENTRIES // (stack * rows.size))
    for start in range(0, rows.shape[0], step):
        yield slice(start, start + step)


def _windows(r: np.ndarray, stack: int = 1):
    """Windows of consecutive kernels of the ``(k, n, m)`` stack ``r``, each
    with its row blocks: a window's pairwise arrays, ``stack`` deep, fit in
    ``PAIR_BLOCK_ENTRIES`` entries, and a window of one kernel (which may not
    fit) has the tiles of :func:`_row_blocks`."""
    size = max(1, PAIR_BLOCK_ENTRIES // (stack * r.shape[1] * r[0].size))
    for start in range(0, len(r), size):
        yield slice(start, start + size), _row_blocks(r[0], stack * size)


def dobrushin_coeff(kernel: DiscreteKernel) -> float:
    """Worst-case total variation between two rows, capped at 1 against rounding."""
    return float(_dobrushin_coeffs(kernel.rows[None])[0])


def _dobrushin_coeffs(r: np.ndarray) -> np.ndarray:
    """:func:`dobrushin_coeff` of each kernel of the ``(k, n, m)`` stack ``r``.

    A kernel may repeat its first row to fill the stack's n rows: a repeated
    row adds no new pair value.  A block is compared only with the rows from
    its own start on: the distance is symmetric, so earlier blocks already
    covered the other pairs.
    """
    worst = np.zeros(len(r))
    for w, blocks in _windows(r):
        for b in blocks:
            tile = 0.5 * np.abs(r[w, b, None] - r[w, None, b.start:]).sum(axis=3)
            np.maximum(worst[w], tile.max(axis=(1, 2)), out=worst[w])
    return np.minimum(worst, 1.0)


def eps_dobrushin_coeff(kernel: DiscreteKernel, eps):
    """Worst-case hockey-stick divergence over ordered row pairs.

    At eps = +inf e^eps * q is +inf on q's support and 0 off it, so the
    divergence is the mass of one row outside the other's support.  A
    sequence of eps gives a list, each value ``==`` the scalar call's.

    On a kernel too large for one tile (n * n * m > ``PAIR_BLOCK_ENTRIES``)
    the pairs are screened first: [p - s]_+ <= p^2 / (4 s), with s = e^eps * q,
    bounds every pair at once by two matrix products, where an entry p or s
    below ``SCREEN_TINY`` (2^-500) takes the trivial bound p.  The exact sum
    runs only where the bound, times a rounding margin of 1 + 4 (m + 4) 2^-53,
    exceeds the largest exact sum so far, so each value is still ``==`` the
    all-pairs loop's (see :func:`_pair_bounds`).
    """
    scalar = np.ndim(eps) == 0
    (out,) = _eps_dobrushin_coeffs(kernel.rows[None], [[eps] if scalar else list(eps)])
    return out[0] if scalar else out


def _eps_dobrushin_coeffs(r: np.ndarray, eps: Sequence[Sequence[float]]) -> list[list[float]]:
    """:func:`eps_dobrushin_coeff` of each kernel ``r[w]`` of the ``(k, n, m)``
    stack at each eps of the list ``eps[w]``; lists may differ in length, and a
    kernel may repeat its first row (which adds no new pair value).

    e^eps * q is :func:`exp_times`' at each kernel's distinct eps, +inf as any
    other: it is 0 wherever q is 0, so such an entry contributes all of p.
    Where n * n * m > ``PAIR_BLOCK_ENTRIES`` each kernel and distinct eps goes
    to :func:`_screened_worst`.  Otherwise a window of kernels' distinct eps
    are read in one stacked pass of tiles (one ``_exp_times_stack``), shorter
    lists repeating their first entry; each pair is summed along its
    contiguous axis.
    """
    if not all(e >= 0 for values in eps for e in values):
        raise ValueError("eps must be non-negative")
    distinct = [list(dict.fromkeys(values)) for values in eps]
    if r.shape[1] ** 2 * r.shape[2] > PAIR_BLOCK_ENTRIES:
        worst = [{e: _screened_worst(rows, exp_times(e, rows)) for e in d} for rows, d in zip(r, distinct)]
    else:
        worst = [{} for _ in eps]
        depth = max(map(len, distinct))
        for w, blocks in _windows(r, depth) if depth else ():
            values = np.array([_padded(d, depth) for d in distinct[w]], dtype=np.float64)
            excess = _worst_excess(r[w], _exp_times_stack(values, r[w]), blocks).tolist()
            worst[w] = [dict(zip(d, row)) for d, row in zip(distinct[w], excess)]
    return [[min(seen[e], 1.0) for e in values] for seen, values in zip(worst, eps)]


def _worst_excess(r: np.ndarray, scaled: np.ndarray, blocks) -> np.ndarray:
    """Largest sum of [r[w, i] - scaled[w, s, j]]_+ over row pairs (i, j), for
    each kernel w of the window ``r`` and each s, one row block at a time."""
    worst = np.zeros(scaled.shape[:2])
    for b in blocks:
        excess = r[:, None, b, None] - scaled[:, :, None]
        tile = np.maximum(excess, 0.0, out=excess).sum(axis=4).max(axis=(2, 3))
        np.maximum(worst, tile, out=worst)
    return worst


# Kernel and scaled entries below SCREEN_TINY take the trivial bound p in
# _pair_bounds, so that every squared entry and every 1 / (4 s) is a normal float.
SCREEN_TINY = 2.0**-500


def _screened_worst(p: np.ndarray, s: np.ndarray) -> float:
    """Largest sum of [p[i] - s[k]]_+ over ordered row pairs (i, k), ``==``
    the tiles' maximum: each pair it sums is summed as a tile sums it, and a
    pair it skips has a computed sum no larger than one it has summed.

    A first pass over row blocks gives each row's largest :func:`_pair_bounds`
    value.  The exact sum runs for the pair of largest bound, then row by row
    in descending order of each row's largest bound, on the pairs whose bound
    exceeds the largest exact sum so far; a row whose largest bound does not
    ends the search.  A block holds at most max(``PAIR_BLOCK_ENTRIES``, n * m)
    bounds, so memory is O(n * m) at any shape: one block of all rows is kept
    from the first pass, smaller blocks of the descending order are bounded
    again as the search reaches them.
    """
    n = len(p)
    step = max(1, max(PAIR_BLOCK_ENTRIES, p.size) // n)
    bounds = _pair_bounds(p, s)
    top, col = np.empty(n), np.empty(n, dtype=np.intp)
    for start in range(0, n, step):
        reach = bounds(slice(start, start + step))
        top[start:start + step], col[start:start + step] = reach.max(axis=1), reach.argmax(axis=1)
    if step >= n:
        bounds = None  # frees the n x m arrays of s it reads before the search
    i = int(top.argmax())
    best = float(np.maximum(p[i] - s[col[i]], 0.0).sum())
    order = np.argsort(-top, kind="stable").tolist()
    for start in range(0, n, step):
        rows = order[start:start + step]
        if top[rows[0]] <= best:
            break
        if step < n:
            reach = bounds(rows)
        for t, i in enumerate(rows):
            if top[i] <= best:
                break
            excess = p[i] - s[reach[t if step < n else i] > best]
            best = max(best, float(np.maximum(excess, 0.0, out=excess).sum(axis=1).max()))
    return best


def _pair_bounds(p: np.ndarray, s: np.ndarray):
    """A function of a selection ``rows`` of p's rows that gives, at ``[t, k]``,
    an upper bound on the computed sum of [p[rows][t, j] - s[k, j]]_+ over j,
    the tiles' rounding included: a bound on the real sum by two matrix
    products, times a margin.  The n x m arrays it reads of s are formed once.

    The bound: for p >= 0 and s > 0, [p - s]_+ <= p^2 / (4 s), as it is 0
    where p <= s, and elsewhere 4 s (p - s) <= p^2 is (p - 2 s)^2 >= 0.
    Kernel entries are at most about 1; ``sigma`` is the largest.  Each term is
    bounded by
      - p, where p < ``SCREEN_TINY`` or s < ``SCREEN_TINY`` (s = 0 included,
        where the term is p);
      - 0, where s > sigma >= p (s = +inf included), as the term is 0 there;
      - p^2 / (4 s) elsewhere: p^2 >= 2^-1000, and 1 / (4 s) lies between
        1 / (4 sigma) and 2^498, so no term underflows or overflows.
    No entry is NaN: p is finite and s lies in [0, +inf].  Either product is
    skipped where no s is in its range, as the second is at eps = +inf.

    The margin: with u = 2^-53, a pair's computed sum of m rounded terms is at
    most (1 + u)^m times its real sum, so at most (1 + u)^m times the real
    bound.  The computed bound is at least (1 - u)^(m + 4) times the real one:
    a square and a reciprocal, m products and sums in any order, and two
    additions.  The product with the margin loses one more factor (1 - u).
    A margin of 1 + 4 (m + 4) u exceeds (1 + u)^m / (1 - u)^(m + 5), about
    1 + (2m + 5) u, for any m far below 1 / u.  Every term and partial sum is
    a non-negative normal float or exact, so no underflow spoils these factors.
    """
    outside = (s < SCREEN_TINY).astype(np.float64).T
    outside = outside if outside.any() else None
    mid = (s >= SCREEN_TINY) & (s <= p.max())
    inverse = np.divide(0.25, s, out=np.zeros_like(s), where=mid).T if mid.any() else None
    margin = 1.0 + 4.0 * (p.shape[1] + 4) * 2.0**-53

    def bounds(rows) -> np.ndarray:
        block = p[rows]
        big = block >= SCREEN_TINY
        q = np.where(big, block, 0.0)
        bound = np.zeros((len(block), len(s))) if outside is None else q @ outside
        if inverse is not None:
            q *= q
            bound += q @ inverse
        bound += np.where(big, 0.0, block).sum(axis=1)[:, None]
        bound *= margin
        return bound

    return bounds


def doeblin_coeff(kernel: DiscreteKernel) -> tuple[float, DiscreteDist | None]:
    """Minimal Doeblin coefficient and its witness.

    The column-wise minimum attains the smallest gamma with
    ``K(x) >= (1 - gamma) * omega``; the witness is that minimum normalized,
    absent when the minimum vanishes everywhere (gamma = 1).
    """
    gamma, colmin, mass = _doeblin_coeffs(kernel.rows[None])
    if mass[0] <= 0.0:
        return 1.0, None
    return float(gamma[0]), _trusted(DiscreteDist, kernel.output_points, colmin[0] / mass[0])


def _doeblin_coeffs(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`doeblin_coeff`'s gamma for each kernel of the ``(k, n, m)`` stack
    ``r``, with the column minima and their sums (which are >= 0, so gamma
    is at most 1, and 1 where the sum is 0)."""
    colmin = r.min(axis=1)
    mass = colmin.sum(axis=1)
    return np.maximum(1.0 - mass, 0.0), colmin, mass


def ultra_coeff(kernel: DiscreteKernel) -> float:
    """Ultra-mixing coefficient: one minus the smallest pairwise row ratio.

    0/0 imposes no constraint; a positive mass over a zero entry breaks
    absolute continuity and forces gamma = 1.  Column by column, the smallest
    ratio is the column minimum over the column maximum: rounded division is
    monotone, so this is exactly the smallest of the pairwise quotients.
    """
    return float(_ultra_coeffs(kernel.rows[None])[0])


def _ultra_coeffs(r: np.ndarray) -> np.ndarray:
    """:func:`ultra_coeff` of each kernel of the ``(k, n, m)`` stack ``r``: a
    column is positive everywhere iff its minimum is, and somewhere iff its
    maximum is."""
    colmin, colmax = r.min(axis=1), r.max(axis=1)
    full = colmin > 0.0
    ratios = np.divide(colmin, colmax, out=np.ones_like(colmin), where=full)
    gamma = 1.0 - ratios.min(axis=1)
    gamma[((colmax > 0.0) & ~full).any(axis=1)] = 1.0
    return gamma


def eps_tilde(guarantee: DpGuarantee) -> float:
    """Divergence order at which the eps-Dobrushin coefficient must be read.

    Equals log(1 + (e^eps - 1) / delta); +inf when delta = 0, where the
    coefficient is measured with the support-based max divergence.  Where the
    quotient overflows: log(delta + e^eps - 1) - log(delta), without e^eps.
    """
    eps, delta = guarantee.epsilon, guarantee.delta
    if delta == 0.0:
        return math.inf
    if eps <= EXP_ARG_MAX:
        ratio = math.expm1(eps) / delta
        if ratio < math.inf:
            return math.log1p(ratio)
    log_delta = math.log(delta)
    return float(np.logaddexp(log_delta, eps + math.log(-math.expm1(-eps)))) - log_delta


def amplify(guarantee: DpGuarantee, condition: str, gamma: float) -> DpGuarantee:
    """Guarantee of the post-processed mechanism under a mixing condition.

    Dobrushin-type conditions shrink delta only; Doeblin and ultra-mixing also
    shrink epsilon to log(1 + gamma*(e^eps - 1)).  For ``eps_dobrushin`` the
    supplied gamma must be measured at ``eps_tilde(guarantee)``.
    """
    if condition not in AMPLIFY_CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return DpGuarantee(*_amplify_step(guarantee.epsilon, guarantee.delta, condition, gamma))


def _amplify_step(eps: float, delta: float, condition: str, gamma: float) -> tuple[float, float]:
    """:func:`amplify`'s (eps', delta') of a valid (eps, delta), condition and gamma."""
    if condition in ("dobrushin", "eps_dobrushin"):
        return eps, gamma * delta
    # beta = e^(eps' - eps) in closed form, immune to overflow; so past e^eps's
    # overflow point eps' = log(1 + gamma*(e^eps - 1)) is eps + log(beta).
    beta = gamma + (1.0 - gamma) * math.exp(-eps)
    eps_prime = 0.0 if gamma == 0.0 else math.log1p(gamma * math.expm1(eps)) if eps < 700.0 else eps + math.log(beta)
    if condition == "doeblin":
        delta_prime = gamma * (1.0 - beta * (1.0 - delta))
    else:
        delta_prime = gamma * delta * beta
    return eps_prime, min(max(delta_prime, 0.0), 1.0)


def amplify_with_kernel(
    kernel: DiscreteKernel, guarantees: Sequence[DpGuarantee]
) -> list[dict[str, tuple[float, DpGuarantee]]]:
    """Measure the mixing coefficients of ``kernel`` and amplify each guarantee.

    Dobrushin, Doeblin and ultra-mixing are measured once; eps-Dobrushin in
    one call for all guarantees, each at exactly eps_tilde(guarantee).  Returns
    one ``{condition: (gamma, amplified guarantee)}`` per guarantee, in order.
    """
    gamma_dob = dobrushin_coeff(kernel)
    gamma_doe, _ = doeblin_coeff(kernel)
    gamma_ultra = ultra_coeff(kernel)
    gammas_eps = eps_dobrushin_coeff(kernel, [eps_tilde(g) for g in guarantees])
    return [{cond: (gamma, DpGuarantee(eps, delta)) for cond, gamma, eps, delta in rows}
            for rows in _amplified(guarantees, gamma_dob, gammas_eps, gamma_doe, gamma_ultra)]


def _amplify_stack(r: np.ndarray, guarantees: Sequence[Sequence[DpGuarantee]]) -> list:
    """:func:`amplify_with_kernel` for each kernel ``r[w]`` of the ``(k, n, m)``
    stack and its guarantees ``guarantees[w]``, each coefficient measured on
    the whole stack, as :func:`_amplified` floats.  A kernel may repeat its
    first row to fill the n rows."""
    gammas_eps = _eps_dobrushin_coeffs(r, [[eps_tilde(g) for g in gs] for gs in guarantees])
    return list(map(_amplified, guarantees, _dobrushin_coeffs(r).tolist(), gammas_eps,
                    _doeblin_coeffs(r)[0].tolist(), _ultra_coeffs(r).tolist()))


def _amplified(guarantees: Sequence[DpGuarantee], gamma_dob: float, gammas_eps: Sequence[float],
               gamma_doe: float, gamma_ultra: float) -> list[list[tuple[str, float, float, float]]]:
    """Each guarantee's ``(condition, gamma, eps', delta')`` under the four
    conditions, eps-Dobrushin at its own gamma; measured gammas lie in [0, 1]."""
    return [[(cond, g, *_amplify_step(guarantee.epsilon, guarantee.delta, cond, g))
             for cond, g in zip(AMPLIFY_CONDITIONS, (gamma_dob, gamma_eps, gamma_doe, gamma_ultra))]
            for guarantee, gamma_eps in zip(guarantees, gammas_eps)]


def transport_operator(pi: Coupling) -> DiscreteKernel:
    """Markov operator built from a coupling: rows are conditional laws.

    The kernel is defined on the support of the first marginal (zero-mass
    rows are omitted) and pushes that marginal to the second one.
    """
    rows, keep = _operator_rows(pi.mass)
    return _trusted(DiscreteKernel, rows[keep], tuple(x for x, k in zip(pi.first_points, keep) if k),
                    pi.second_points)


def _operator_rows(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of :func:`transport_operator` for each coupling of the ``(..., n, m)``
    stack ``mass``, each row over its sum, and the mask of the rows it keeps: a row
    of no mass (NaN here) is dropped, with its atom."""
    row_mass = mass.sum(axis=-1)
    with np.errstate(invalid="ignore"):  # 0/0 on the rows of no mass
        return mass / row_mass[..., None], row_mass > 0.0


@dataclass(frozen=True)
class MixtureDecomposition:
    """Overlapping mixture decomposition of a pair (mu, nu) at level eps.

    mu = (1 - theta) * omega + theta * mu_prime and
    nu = ((1 - theta)/e^eps) * omega + (1 - (1 - theta)/e^eps) * nu_prime,
    with mu_prime and nu_prime supported on the disjoint regions where the
    density ratio exceeds (respectively falls below) e^eps.  A part of no
    mass (omega, or nu_prime where no atom has p < e^eps * q) is None.
    """

    theta: float
    omega: DiscreteDist | None
    mu_prime: DiscreteDist | None
    nu_prime: DiscreteDist | None


def mixture_decompose(mu: DiscreteDist, nu: DiscreteDist, eps: float) -> MixtureDecomposition:
    if not eps >= 0 or math.isinf(eps):
        raise ValueError("eps must be finite and non-negative")
    points, p, q = aligned_masses(mu, nu)
    theta, parts, has = _mixture_decomposes(p[None], q[None], [eps])
    return MixtureDecomposition(float(theta[0]), *(_trusted(DiscreteDist, points, part.copy()) if h else None
                                                   for part, h in zip(parts[0], has[0].tolist())))


def _mixture_decomposes(p: np.ndarray, q: np.ndarray, eps: Sequence[float]) -> tuple:
    """:func:`mixture_decompose` of the rows ``p[i]``, ``q[i]`` of two ``(k, n)`` stacks
    at ``eps[i]``: the thetas, the ``(k, 3, n)`` stack of omega, mu_prime and nu_prime
    (0 where a part has no mass) and the ``(k, 3)`` flags of the parts with mass."""
    eq = _exp_times_stack(np.array(eps, dtype=np.float64)[:, None], q)[:, 0]
    mask_mu = p > eq
    # Where mu is dominated by e^eps * nu everywhere, theta = 0 and nothing splits.
    split = mask_mu.any(axis=1)
    overlap, mu_res = np.minimum(p, eq), np.where(mask_mu, p - eq, 0.0)
    theta = 1.0 - overlap.sum(axis=1)
    # Rounding may push the min-sum past 1; the residual form is exact there.
    theta = np.where(theta <= 0.0, mu_res.sum(axis=1), theta)
    # Past EXP_ARG_MAX, e^-eps is subnormal: p * e^-eps is exact to its spacing,
    # and below a subnormal q it may round to q + 5e-324: clip that to 0.
    p_shrunk = (p / np.array([math.exp(e) if e <= EXP_ARG_MAX else 1.0 for e in eps])[:, None]
                * np.array([1.0 if e <= EXP_ARG_MAX else math.exp(-e) for e in eps])[:, None])
    nu_res = np.where(p < eq, np.maximum(q - p_shrunk, 0.0), 0.0)
    parts = np.stack([overlap, mu_res, nu_res], axis=1)
    sums = parts.sum(axis=2, keepdims=True)
    has = (sums > 0.0) & split[:, None, None]
    parts = np.divide(parts, sums, out=np.zeros_like(parts), where=has)
    return np.where(split, np.minimum(theta, 1.0), 0.0), parts, has[:, :, 0]


def independent_coupling(mu: DiscreteDist, nu: DiscreteDist) -> Coupling:
    """Product coupling mu (x) nu."""
    return _trusted(Coupling, mu.points, nu.points, _independent_masses(mu.probs[None], nu.probs[None])[0])


def _independent_masses(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The product couplings of the rows of two stacks, each normalized by its contiguous sum."""
    mass = p[:, :, None] * q[:, None, :]
    return mass / mass.reshape(len(mass), -1).sum(axis=1)[:, None, None]


def greedy_coupling(mu: DiscreteDist, nu: DiscreteDist) -> Coupling:
    """Northwest-corner coupling: match mass greedily in support order.  It is
    the one-pair call of :func:`_greedy_masses`, W-infinity's line pass
    (``divergences._line_passes``) with every pair admissible."""
    return _trusted(Coupling, mu.points, nu.points, _greedy_masses(mu.probs[None], nu.probs[None])[0])


def _greedy_masses(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`greedy_coupling` of each row of the ``(k, n)`` and ``(k, m)`` stacks ``p``
    and ``q``: one line pass over the stack with every pair admissible, each
    coupling divided by the mass it routed."""
    n, m = p.shape[1], q.shape[1]
    mass, routed = _line_passes(p.tolist(), q.tolist(), [0] * n, [m] * n)
    mass /= np.array(routed)[:, None, None]
    return mass


def _sinkhorn_stack(p: np.ndarray, q: np.ndarray, mass: np.ndarray) -> None:
    """Sinkhorn sweeps, in place, on a stack of ``k`` start matrices of one shape.

    ``p`` is ``(k, n)``, ``q`` is ``(k, m)`` and ``mass`` is ``(k, n, m)``.  A
    trial whose row sums are within ``SINKHORN_ATOL`` of ``p`` is written back
    and leaves the stack, so later sweeps run on the live trials only; every
    trial stops after ``SINKHORN_MAX_SWEEPS``.  Row and column sums run along
    the same axes, in the same order, as on one matrix.  A trial may be padded
    with zero atoms (zeros in ``p``, ``q`` and their rows and columns of
    ``mass``) up to its :func:`_summation_width` in each dimension: a padded
    row sum is ``==`` the unpadded one, a column sum adds +0.0 per padded row,
    a padded atom's residual is 0 and it never gets a scale, so the unpadded
    block of the result is the trial solved alone.
    """
    # A scale entry is written only where its row or column sum is positive:
    # zero-mass atoms keep 0, and a sum that underflowed to 0 scales no mass.
    live = np.arange(len(mass))
    sub = mass
    row_scale, col_scale = np.zeros_like(p), np.zeros_like(q)
    for _ in range(SINKHORN_MAX_SWEEPS):
        row_sums = sub.sum(axis=2)
        done = np.abs(row_sums - p).max(axis=1) <= SINKHORN_ATOL
        if done.any():
            mass[live[done]] = sub[done]
            keep = ~done
            live, sub, p, q = live[keep], sub[keep], p[keep], q[keep]
            row_sums, row_scale, col_scale = row_sums[keep], row_scale[keep], col_scale[keep]
            if not live.size:
                return
        np.divide(p, row_sums, out=row_scale, where=row_sums > 0.0)
        sub *= row_scale[:, :, None]
        col_sums = sub.sum(axis=1)
        np.divide(q, col_sums, out=col_scale, where=col_sums > 0.0)
        sub *= col_scale[:, None, :]
    if sub is not mass:
        mass[live] = sub


def _summation_width(n: int) -> int:
    """The widest zero padding of ``n`` float64 entries whose contiguous numpy sum
    is ``==`` the unpadded one.  Below 128 entries numpy adds a row in eight
    accumulators over whole 8-entry blocks (one running sum below 8) and then
    the tail in order, so trailing zeros that start no new block change no bit;
    from 128 on it splits the row in halves, so a row keeps its own width.
    Lengths of one width form a summation class."""
    return n | 7 if n < 128 else n


def _pair_windows(shapes: Sequence[tuple[int, int]]) -> list[dict[tuple[int, int], list[int]]]:
    """Indices of consecutive couplings of support shapes ``shapes`` in windows,
    grouped by summation class: ``{(width_n, width_m): indices}``, the widths
    those of :func:`_summation_width`.  A window holds at least one coupling,
    and at most ``PAIR_BLOCK_ENTRIES`` entries with each coupling counted at its
    widths, so a class stack padded to its largest shape fits too."""
    windows, entries = [{}], 0
    for i, (n, m) in enumerate(shapes):
        widths = _summation_width(n), _summation_width(m)
        if entries + widths[0] * widths[1] > PAIR_BLOCK_ENTRIES and windows[-1]:
            windows.append({})
            entries = 0
        entries += widths[0] * widths[1]
        windows[-1].setdefault(widths, []).append(i)
    return windows


def _stream_exponentials(seeds: Sequence[int], counts: Sequence[int]) -> np.ndarray:
    """For each seed, one draw of ``counts[i]`` uniforms from its own stream, as
    standard exponentials, end to end.  A stream's shorter draw is the head of
    its longer one."""
    return -np.log(np.concatenate([uniform_open(rng_from_seed(s), c) for s, c in zip(seeds, counts)]))


def random_joint_coupling(mu: DiscreteDist, nu: DiscreteDist, seed: int) -> Coupling:
    """Random coupling with the marginals ``mu`` and ``nu``, via Sinkhorn scaling.

    The start matrix is drawn from the seed's stream, zero only on the rows and
    columns of zero-mass atoms.  Its rows and columns are rescaled in turn until
    the row sums match ``mu`` to ``SINKHORN_ATOL``; the column sums match ``nu``
    to a few ulps.  It is a stack of one for :func:`_sinkhorn_stack`.
    """
    p, q = mu.probs[None], nu.probs[None]
    mass = _stream_exponentials([seed], [p.size * q.size]).reshape(1, p.size, q.size)
    mass *= (p > 0.0)[:, :, None] & (q > 0.0)[:, None, :]
    _sinkhorn_stack(p, q, mass)
    return _trusted(Coupling, mu.points, nu.points, mass[0])
