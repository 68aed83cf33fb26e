"""Coupling-based RDP amplification for noisy Lipschitz maps: path bounds
driven by infinity-Wasserstein increments, their closed form for uniformly
contractive chains, and the strongly convex noisy-SGD per-index accountant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergences import RdpPoint

__all__ = [
    "IterationChain",
    "SgdConfig",
    "winf_path_bound",
    "winf_contractive_bound",
    "contraction_coeff",
    "sgd_rdp_at_index",
]


@dataclass(frozen=True)
class IterationChain:
    """A run of r projected noisy Lipschitz steps with common noise scale."""

    r: int
    lipschitz: tuple
    sigma: float
    delta0: float

    def __init__(self, r: int, lipschitz, sigma: float, delta0: float):
        if r < 1:
            raise ValueError("r must be >= 1")
        ls = tuple(float(l) for l in (lipschitz if isinstance(lipschitz, (list, tuple, np.ndarray)) else [lipschitz] * r))
        if len(ls) != r:
            raise ValueError(f"expected {r} Lipschitz constants, got {len(ls)}")
        # Written so that NaN fails too.
        if not all(l > 0 for l in ls):
            raise ValueError("Lipschitz constants must be positive")
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        if not delta0 >= 0:
            raise ValueError("delta0 must be non-negative")
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "lipschitz", ls)
        object.__setattr__(self, "sigma", float(sigma))
        object.__setattr__(self, "delta0", float(delta0))


@dataclass(frozen=True)
class SgdConfig:
    """Hyperparameters of projected noisy SGD on a smooth strongly convex loss."""

    n: int
    C: float
    beta: float
    rho: float
    eta: float
    sigma: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (0 < self.rho <= self.beta):
            raise ValueError("need 0 < rho <= beta")
        if not (0 < self.eta <= 2.0 / (self.beta + self.rho)):
            raise ValueError("need 0 < eta <= 2/(beta + rho)")
        if not self.C > 0:
            raise ValueError("C must be positive")
        # Written so that NaN fails too.
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


def winf_path_bound(chain: IterationChain, path_distances: Sequence[float],
                    alpha: float) -> RdpPoint:
    """RDP bound from per-step W-infinity increments along an interpolating path.

    Each increment is contracted by every downstream Lipschitz factor before
    being absorbed by that step's Gaussian noise:
    epsilon = (alpha / (2 sigma^2)) * sum_i (prod_{j >= i} L_j)^2 * d_i^2.
    """
    if len(path_distances) != chain.r:
        raise ValueError(f"expected {chain.r} path increments, got {len(path_distances)}")
    # Written so that NaN fails too.
    if not all(d >= 0 for d in path_distances):
        raise ValueError("path increments must be non-negative")
    if not any(path_distances):
        # Identical starting points: divergence 0 at every order, alpha = inf too.
        return RdpPoint(alpha, 0.0)
    ls = np.asarray(chain.lipschitz)
    # suffix[i] = L_i * L_{i+1} * ... * L_r
    suffix = np.cumprod(ls[::-1])[::-1]
    total = float(np.sum(suffix**2 * np.asarray(path_distances, dtype=np.float64) ** 2))
    return RdpPoint(alpha, alpha * total / (2.0 * chain.sigma**2))


def winf_contractive_bound(chain: IterationChain, sensitivity: float,
                           alpha: float) -> RdpPoint:
    """Closed-form path bound for uniformly contractive chains (L <= 1).

    epsilon = alpha * sensitivity^2 * L^(r+1) / (2 r sigma^2); at L = 1 this
    is the familiar 1/r amplification-by-iteration rate.
    """
    ls = set(chain.lipschitz)
    if len(ls) != 1:
        raise ValueError("chain must have a uniform Lipschitz constant")
    lip = ls.pop()
    if lip > 1.0:
        raise ValueError("closed form requires L <= 1 (the sum diverges otherwise)")
    # Written so that NaN fails too.
    if not sensitivity >= 0:
        raise ValueError("sensitivity must be non-negative")
    if sensitivity == 0.0:
        # Identical starting points: divergence 0 at every order, alpha = inf too.
        return RdpPoint(alpha, 0.0)
    eps = alpha * sensitivity**2 * lip ** (chain.r + 1) / (2.0 * chain.r * chain.sigma**2)
    return RdpPoint(alpha, eps)


def contraction_coeff(beta: float, rho: float, eta: float) -> float:
    """Lipschitz modulus of the gradient step x -> x - eta * grad f(x).

    For a beta-smooth, rho-strongly convex f and eta <= 2/(beta + rho) the
    step is a strict contraction with modulus sqrt(1 - 2 eta beta rho/(beta + rho)).
    """
    if not (0 < rho <= beta):
        raise ValueError("need 0 < rho <= beta")
    if not (0 < eta <= 2.0 / (beta + rho)):
        raise ValueError("need 0 < eta <= 2/(beta + rho)")
    return math.sqrt(max(1.0 - 2.0 * eta * beta * rho / (beta + rho), 0.0))


def sgd_rdp_at_index(cfg: SgdConfig, i: int, alpha: float) -> RdpPoint:
    """Per-index RDP of projected noisy SGD with a strongly convex loss.

    The record at index i is followed by n - i contracting steps, giving
    eps_i = (2 C^2 / ((n - i) sigma^2)) * L^(n - i + 1); the last record gets
    the un-amplified eps_n = 2 C^2 / sigma^2.
    """
    if not 1 <= i <= cfg.n:
        raise ValueError(f"index {i} outside 1..{cfg.n}")
    if not (alpha > 1 or math.isinf(alpha)):
        raise ValueError("alpha must be > 1")
    if i == cfg.n:
        eps_i = 2.0 * cfg.C**2 / cfg.sigma**2
    else:
        lip = contraction_coeff(cfg.beta, cfg.rho, cfg.eta)
        eps_i = 2.0 * cfg.C**2 / ((cfg.n - i) * cfg.sigma**2) * lip ** (cfg.n - i + 1)
    return RdpPoint(alpha, alpha * eps_i)
