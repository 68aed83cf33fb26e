"""Diffusion-mechanism accounting: Brownian/Gaussian semigroup RDP, the
Ornstein-Uhlenbeck mechanism (transition law, RDP, sampling, planner), and the
mean squared errors of OU and of the privacy-matched Gaussian mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import GaussianDist, sample as sample_family
from .divergences import RdpPoint

__all__ = [
    "OuParams",
    "BrownianParams",
    "brownian_rdp",
    "ou_transition",
    "ou_intrinsic_sensitivity",
    "ou_rdp",
    "ou_mse",
    "gm_mse",
    "pgm_mse_bound",
    "plan_ou",
    "ou_sample",
]


@dataclass(frozen=True)
class OuParams:
    """Ornstein-Uhlenbeck mechanism parameters.

    ``theta`` is the mean-reversion rate, ``rho`` the diffusion scale, ``t``
    the release time, ``delta`` the L2-sensitivity of the query, ``R`` a norm
    bound on the query output, and ``d`` the output dimension.
    """

    theta: float
    rho: float
    t: float
    delta: float
    R: float
    d: int

    def __post_init__(self):
        if not (self.theta > 0 and self.rho > 0 and self.t > 0):
            raise ValueError("theta, rho and t must be positive")
        if self.delta < 0 or self.R < 0:
            raise ValueError("delta and R must be non-negative")
        if self.d < 1:
            raise ValueError("d must be >= 1")


@dataclass(frozen=True)
class BrownianParams:
    """Brownian-motion mechanism parameters (Gaussian with variance 2t)."""

    t: float
    delta: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("t must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")


def brownian_rdp(p: BrownianParams, alpha: float) -> RdpPoint:
    """RDP of the Brownian mechanism: alpha * delta^2 / (4t).

    Identical to the Gaussian mechanism with variance 2t.
    """
    if not alpha > 1:
        raise ValueError("alpha must be > 1")
    return RdpPoint(alpha, alpha * p.delta**2 / (4.0 * p.t))


def ou_transition(x, p: OuParams) -> GaussianDist:
    """Law of the OU process at time t started from ``x``.

    Gaussian with mean e^(-theta t) x and isotropic variance
    (rho^2/theta)(1 - e^(-2 theta t)); converges to the invariant measure
    N(0, rho^2/theta) as t grows.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if xv.shape != (p.d,):
        raise ValueError(f"x has shape {xv.shape}, expected ({p.d},)")
    mean = math.exp(-p.theta * p.t) * xv
    variance = (p.rho**2 / p.theta) * (-math.expm1(-2.0 * p.theta * p.t))
    return GaussianDist(mean, variance)


def ou_intrinsic_sensitivity(p: OuParams) -> float:
    """Time-integrated sensitivity of the OU mechanism:
    theta * delta^2 / (2 rho^2 (e^(2 theta t) - 1))."""
    return p.theta * p.delta**2 / (2.0 * p.rho**2 * math.expm1(2.0 * p.theta * p.t))


def ou_rdp(p: OuParams, alpha: float) -> RdpPoint:
    """RDP of the OU mechanism; decays at rate e^(-2 theta t) in time."""
    if not alpha > 1:
        raise ValueError("alpha must be > 1")
    return RdpPoint(alpha, alpha * ou_intrinsic_sensitivity(p))


def ou_mse(p: OuParams, f_norm: float) -> float:
    """Mean squared error of the OU release for a query of norm ``f_norm``.

    Squared bias (1 - e^(-theta t))^2 ||f||^2 plus total variance
    d (rho^2/theta)(1 - e^(-2 theta t)); increasing in ``f_norm``.
    """
    if f_norm < 0:
        raise ValueError("f_norm must be non-negative")
    bias = -math.expm1(-p.theta * p.t)
    var = (p.d * p.rho**2 / p.theta) * (-math.expm1(-2.0 * p.theta * p.t))
    return bias * bias * f_norm * f_norm + var


def matched_gaussian_variance(p: OuParams) -> float:
    """Variance of the Gaussian mechanism with the same RDP curve as the OU
    mechanism: rho^2 (e^(2 theta t) - 1) / theta."""
    return p.rho**2 * math.expm1(2.0 * p.theta * p.t) / p.theta


def gm_mse(p: OuParams) -> float:
    """MSE of the privacy-matched (unbiased) Gaussian mechanism: d * sigma~^2."""
    return p.d * matched_gaussian_variance(p)


def pgm_mse_bound(p: OuParams) -> float:
    """MSE bound for the optimally rescaled Gaussian mechanism on bounded inputs.

    The best scalar multiplier under ||f(D)|| <= R yields
    gm_mse / (1 + d sigma~^2 / R^2).
    """
    if not p.R > 0:
        raise ValueError("R must be positive")
    g = gm_mse(p)
    return g / (1.0 + g / p.R**2)


def plan_ou(epsilon: float, delta: float, R: float, d: int) -> OuParams:
    """OU parameters hitting RDP slope ``epsilon`` at t = 1 with minimal error.

    theta = log(1 + d delta^2/(2 epsilon R^2)) and
    rho^2 = theta delta^2/(2 epsilon (e^(2 theta) - 1)) give (alpha, alpha
    epsilon)-RDP at t = 1 and an OU/Gaussian MSE ratio of at most
    (1 + d delta^2/(2 epsilon R^2))^(-1).  Raises ``OverflowError`` where
    theta or rho^2 leaves the float range.
    """
    if not (epsilon > 0 and delta > 0 and R > 0 and d >= 1):
        raise ValueError("epsilon, delta and R must be positive and d >= 1")
    x = d * delta**2 / (2.0 * epsilon * R**2)
    theta = math.log1p(x)
    rho2 = theta * delta**2 / (2.0 * epsilon * math.expm1(2.0 * theta))
    if not (math.isfinite(theta) and math.isfinite(rho2)):
        raise OverflowError(f"theta = {theta!r}, rho^2 = {rho2!r}")
    return OuParams(theta=theta, rho=math.sqrt(rho2), t=1.0, delta=delta, R=R, d=d)


def ou_sample(x, p: OuParams, seed: int, n: int) -> np.ndarray:
    """``n`` i.i.d. draws from the OU transition law started at ``x``."""
    return sample_family(ou_transition(x, p), seed, n)
