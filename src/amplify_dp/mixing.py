"""Discrete Markov operators, uniform-mixing coefficients, the four
amplification rules they induce on (epsilon, delta) guarantees, and the
transport-operator / overlapping-mixture constructions as testable operations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._rng import rng_from_seed, uniform_open
from .distributions import DiscreteDist, PROB_ATOL
from .divergences import EXP_ARG_MAX, DpGuarantee, aligned_masses, exp_times

__all__ = [
    "Coupling",
    "DiscreteKernel",
    "MixingCoefficients",
    "MixtureDecomposition",
    "pushforward",
    "dobrushin_coeff",
    "eps_dobrushin_coeff",
    "doeblin_coeff",
    "ultra_coeff",
    "measure_coefficients",
    "eps_tilde",
    "amplify",
    "amplify_with_kernel",
    "transport_operator",
    "mixture_decompose",
    "independent_coupling",
    "identity_coupling",
    "greedy_coupling",
    "random_joint_coupling",
]

AMPLIFY_CONDITIONS = ("dobrushin", "eps_dobrushin", "doeblin", "ultra")

# Pairwise row arrays are built block by block, at most this many float64
# entries (32 MiB) at a time; kernels up to 16x16 are a single block.
PAIR_BLOCK_ENTRIES = 2**22

# Sinkhorn stops once every row sum is within SINKHORN_ATOL of its target
# (the columns are exact after each sweep), or after SINKHORN_MAX_SWEEPS.
SINKHORN_ATOL = 1e-15
SINKHORN_MAX_SWEEPS = 400


def _labeled_matrix(values, first_points, second_points, what: str) -> tuple:
    """Read-only float copy of ``values``, non-negative and shaped like the supports."""
    mat = np.array(values, dtype=np.float64)
    xs, ys = tuple(first_points), tuple(second_points)
    if mat.shape != (len(xs), len(ys)):
        raise ValueError(f"{what} shape {mat.shape} does not match supports ({len(xs)}, {len(ys)})")
    if not np.all(mat >= 0):
        raise ValueError(f"{what} entries must be non-negative numbers")
    mat.flags.writeable = False
    return mat, xs, ys


@dataclass(frozen=True)
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

    @classmethod
    def identity(cls, points: Sequence) -> "DiscreteKernel":
        return cls(np.eye(len(points)), points, points)

    @classmethod
    def constant(cls, input_points: Sequence, omega: DiscreteDist) -> "DiscreteKernel":
        rows = np.tile(omega.probs, (len(input_points), 1))
        return cls(rows, input_points, omega.points)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape

    def to_json(self) -> str:
        return json.dumps(
            {
                "input_points": list(self.input_points),
                "output_points": list(self.output_points),
                "rows": [[float(v) for v in row] for row in self.rows],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscreteKernel":
        obj = json.loads(text)
        return cls(obj["rows"], obj["input_points"], obj["output_points"])


@dataclass(frozen=True)
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
        """Row and column sums, each added in index order (Python's ``sum``)."""
        return sum(self.mass.T), sum(self.mass)


def pushforward(mu: DiscreteDist, kernel: DiscreteKernel) -> DiscreteDist:
    """Distribution of the kernel output when the input is drawn from ``mu``."""
    if mu.points != kernel.input_points:
        raise ValueError("support of mu does not match the kernel input support")
    out = mu.probs @ kernel.rows
    return DiscreteDist(kernel.output_points, out / out.sum())


def _row_blocks(rows: np.ndarray):
    """Consecutive row blocks, each small enough that a block-by-all-rows
    pairwise array holds at most ``PAIR_BLOCK_ENTRIES`` entries."""
    step = max(1, PAIR_BLOCK_ENTRIES // rows.size)
    for start in range(0, rows.shape[0], step):
        yield rows[start:start + step, None, :]


def dobrushin_coeff(kernel: DiscreteKernel) -> float:
    """Worst-case total variation between two rows, capped at 1 against rounding."""
    r = kernel.rows
    return min(float(max((0.5 * np.abs(p - r[None]).sum(axis=2)).max()
                         for p in _row_blocks(r))), 1.0)


def eps_dobrushin_coeff(kernel: DiscreteKernel, eps: float) -> float:
    """Worst-case hockey-stick divergence over ordered row pairs.

    At eps = +inf the divergence degenerates to the mass of one row outside
    the other's support.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    r = kernel.rows
    q = r[None, :, :]
    worst = 0.0
    for p in _row_blocks(r):
        if math.isinf(eps):
            contrib = np.where(q == 0.0, p, 0.0)
        else:
            contrib = np.where(q == 0.0, p, np.maximum(p - exp_times(eps, q), 0.0))
        worst = max(worst, contrib.sum(axis=2).max())
    return float(min(worst, 1.0))


def doeblin_coeff(kernel: DiscreteKernel) -> tuple[float, DiscreteDist | None]:
    """Minimal Doeblin coefficient and its witness.

    The column-wise minimum attains the smallest gamma with
    ``K(x) >= (1 - gamma) * omega``; the witness is that minimum normalized,
    absent when the minimum vanishes everywhere (gamma = 1).
    """
    colmin = kernel.rows.min(axis=0)
    mass = float(colmin.sum())
    gamma = min(max(1.0 - mass, 0.0), 1.0)
    if mass <= 0.0:
        return 1.0, None
    return gamma, DiscreteDist(kernel.output_points, colmin / mass)


def ultra_coeff(kernel: DiscreteKernel) -> float:
    """Ultra-mixing coefficient: one minus the smallest pairwise row ratio.

    0/0 imposes no constraint; a positive mass over a zero entry breaks
    absolute continuity and forces gamma = 1.  Column by column, the smallest
    ratio is the column minimum over the column maximum: rounded division is
    monotone, so this is exactly the smallest of the pairwise quotients.
    """
    r = kernel.rows
    pos = r > 0.0
    full = pos.all(axis=0)
    if np.any(pos.any(axis=0) & ~full):
        return 1.0
    ratios = r[:, full].min(axis=0) / r[:, full].max(axis=0)
    return 1.0 - float(ratios.min(initial=1.0))


@dataclass(frozen=True)
class MixingCoefficients:
    """The four uniform-mixing coefficients of one kernel.

    ``eps_dobrushin`` maps each requested eps to its coefficient.  The
    ordering dobrushin <= doeblin <= ultra and eps_dobrushin(eps) <= dobrushin
    is guaranteed by the implications between the conditions.
    """

    dobrushin: float
    eps_dobrushin: Mapping[float, float]
    doeblin: float
    doeblin_witness: DiscreteDist | None
    ultra: float

    def __post_init__(self):
        tol = PROB_ATOL
        if not (self.dobrushin <= self.doeblin + tol <= self.ultra + 2 * tol):
            raise ValueError("coefficient ordering violated")
        if any(v > self.dobrushin + tol for v in self.eps_dobrushin.values()):
            raise ValueError("eps-Dobrushin coefficient exceeds Dobrushin")


def measure_coefficients(
    kernel: DiscreteKernel, eps_grid: Sequence[float] = ()
) -> MixingCoefficients:
    gamma_doe, omega = doeblin_coeff(kernel)
    return MixingCoefficients(
        dobrushin=dobrushin_coeff(kernel),
        eps_dobrushin={float(e): eps_dobrushin_coeff(kernel, e) for e in eps_grid},
        doeblin=gamma_doe,
        doeblin_witness=omega,
        ultra=ultra_coeff(kernel),
    )


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


def _amplified_eps(eps: float, gamma: float) -> float:
    # log(1 + gamma*(e^eps - 1)), stable for eps past the overflow point.
    if gamma == 0.0:
        return 0.0
    if eps < 700.0:
        return math.log1p(gamma * math.expm1(eps))
    return eps + math.log(gamma + (1.0 - gamma) * math.exp(-eps))


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
    eps, delta = guarantee.epsilon, guarantee.delta
    if condition in ("dobrushin", "eps_dobrushin"):
        return DpGuarantee(eps, gamma * delta)
    eps_prime = _amplified_eps(eps, gamma)
    # beta = e^(eps' - eps) in closed form, immune to overflow.
    beta = gamma + (1.0 - gamma) * math.exp(-eps)
    if condition == "doeblin":
        delta_prime = gamma * (1.0 - beta * (1.0 - delta))
    else:
        delta_prime = gamma * delta * beta
    return DpGuarantee(eps_prime, min(max(delta_prime, 0.0), 1.0))


def amplify_with_kernel(
    kernel: DiscreteKernel, guarantee: DpGuarantee
) -> dict[str, tuple[float, DpGuarantee]]:
    """Measure each mixing coefficient of ``kernel`` and amplify ``guarantee``.

    The eps-Dobrushin coefficient is measured at exactly eps_tilde(guarantee).
    Returns ``{condition: (gamma, amplified guarantee)}``.
    """
    results: dict[str, tuple[float, DpGuarantee]] = {}
    g = dobrushin_coeff(kernel)
    results["dobrushin"] = (g, amplify(guarantee, "dobrushin", g))
    g = eps_dobrushin_coeff(kernel, eps_tilde(guarantee))
    results["eps_dobrushin"] = (g, amplify(guarantee, "eps_dobrushin", g))
    g, _ = doeblin_coeff(kernel)
    results["doeblin"] = (g, amplify(guarantee, "doeblin", g))
    g = ultra_coeff(kernel)
    results["ultra"] = (g, amplify(guarantee, "ultra", g))
    return results


def transport_operator(pi: Coupling) -> DiscreteKernel:
    """Markov operator built from a coupling: rows are conditional laws.

    The kernel is defined on the support of the first marginal (zero-mass
    rows are omitted) and pushes that marginal to the second one.
    """
    row_mass = pi.mass.sum(axis=1)
    keep = row_mass > 0.0
    rows = pi.mass[keep] / row_mass[keep, None]
    return DiscreteKernel(rows, [x for x, k in zip(pi.first_points, keep) if k], pi.second_points)


@dataclass(frozen=True)
class MixtureDecomposition:
    """Overlapping mixture decomposition of a pair (mu, nu) at level eps.

    mu = (1 - theta) * omega + theta * mu_prime and
    nu = ((1 - theta)/e^eps) * omega + (1 - (1 - theta)/e^eps) * nu_prime,
    with mu_prime and nu_prime supported on the disjoint regions where the
    density ratio exceeds (respectively falls below) e^eps.
    """

    theta: float
    omega: DiscreteDist | None
    mu_prime: DiscreteDist | None
    nu_prime: DiscreteDist | None


def mixture_decompose(mu: DiscreteDist, nu: DiscreteDist, eps: float) -> MixtureDecomposition:
    if eps < 0 or math.isinf(eps):
        raise ValueError("eps must be finite and non-negative")
    points, p, q = aligned_masses(mu, nu)
    eq = exp_times(eps, q)
    mask_mu = p > eq
    if not np.any(mask_mu):
        # mu is dominated by e^eps * nu everywhere: theta = 0, nothing to split.
        return MixtureDecomposition(0.0, None, None, None)
    overlap = np.minimum(p, eq)
    mu_res = np.where(mask_mu, p - eq, 0.0)
    theta = 1.0 - float(overlap.sum())
    if theta <= 0.0:
        # Rounding pushed the min-sum past 1; the residual form is exact here.
        theta = float(mu_res.sum())

    omega = None
    if overlap.sum() > 0.0:
        omega = DiscreteDist(points, overlap / overlap.sum())

    mu_prime = DiscreteDist(points, mu_res / mu_res.sum())
    # Past EXP_ARG_MAX, e^-eps is subnormal: p * e^-eps is exact to its spacing.
    p_shrunk = p / math.exp(eps) if eps <= EXP_ARG_MAX else p * math.exp(-eps)
    nu_res = np.where(p < eq, q - p_shrunk, 0.0)
    nu_prime = DiscreteDist(points, nu_res / nu_res.sum())
    return MixtureDecomposition(min(theta, 1.0), omega, mu_prime, nu_prime)


def independent_coupling(mu: DiscreteDist, nu: DiscreteDist) -> Coupling:
    """Product coupling mu (x) nu."""
    mass = np.outer(mu.probs, nu.probs)
    return Coupling(mu.points, nu.points, mass / mass.sum())


def identity_coupling(mu: DiscreteDist) -> Coupling:
    """Coupling of mu with itself along the diagonal."""
    return Coupling(mu.points, mu.points, np.diag(mu.probs))


def greedy_coupling(mu: DiscreteDist, nu: DiscreteDist) -> Coupling:
    """Northwest-corner coupling: match mass greedily in support order."""
    i = j = 0
    remain_p = mu.probs.copy()
    remain_q = nu.probs.copy()
    mass = np.zeros((len(remain_p), len(remain_q)))
    while i < len(remain_p) and j < len(remain_q):
        m = min(remain_p[i], remain_q[j])
        mass[i, j] = m
        remain_p[i] -= m
        remain_q[j] -= m
        if remain_p[i] <= 0:
            i += 1
        if j < len(remain_q) and remain_q[j] <= 0:
            j += 1
    # The path moves right or down only: cumsum adds the masses in match order.
    return Coupling(mu.points, nu.points, mass / np.cumsum(mass)[-1])


def random_joint_coupling(mu: DiscreteDist, nu: DiscreteDist, seed: int) -> Coupling:
    """Random coupling with the given marginals, via Sinkhorn scaling.

    Starts from a random matrix, zero only on the rows and columns of zero-mass
    atoms, and rescales its rows and columns in turn until the row sums match
    ``mu`` to ``SINKHORN_ATOL``; the column sums match ``nu`` to a few ulps.
    """
    p, q = mu.probs, nu.probs
    p_pos, q_pos = p > 0.0, q > 0.0
    rng = rng_from_seed(seed)
    mass = -np.log(uniform_open(rng, (len(p), len(q)))) * np.outer(p_pos, q_pos)
    # The scale entries of zero-mass atoms are never written, so they stay 0.
    row_scale, col_scale = np.zeros_like(p), np.zeros_like(q)
    for _ in range(SINKHORN_MAX_SWEEPS):
        row_sums = mass.sum(axis=1)
        if np.abs(row_sums - p).max() <= SINKHORN_ATOL:
            break
        mass *= np.divide(p, row_sums, out=row_scale, where=p_pos)[:, None]
        col_sums = mass.sum(axis=0)
        mass *= np.divide(q, col_sums, out=col_scale, where=q_pos)[None, :]
    return Coupling(mu.points, nu.points, mass)
