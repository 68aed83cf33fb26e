"""Finite discrete distributions and the closed-form continuous noise families.

The discrete type is the substrate for all exact oracles; the continuous
families (isotropic Gaussian and Laplace) are the noise models whose densities
the quadrature oracles integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

# Not called here: bench/tracing.py wraps this name where distributions looks it up.
from ._rng import rng_from_seed  # noqa: F401

__all__ = [
    "DiscreteDist",
    "GaussianDist",
    "LaplaceDist",
    "density",
    "log_density",
]

PROB_ATOL = 1e-12

# Half-width of quadrature_domain in units of the family's scale.
QUAD_DOMAIN_SCALES = 40.0

Point = Union[str, int, tuple]


def _is_coordinate_entry(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_coordinate(point) -> bool:
    return isinstance(point, tuple) and len(point) > 0 and all(map(_is_coordinate_entry, point))


def _canonical_point(point) -> Point:
    if type(point) is str:
        return point
    if isinstance(point, (list, tuple)):
        return tuple(float(c) if _is_coordinate_entry(c) else _canonical_point(c) for c in point)
    return point


def _trusted(cls, *values):
    """``cls(*values)`` with nothing copied or checked, for the library's own results,
    valid by construction.  Each array must be fresh, float64 and C-contiguous."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    for value in values:
        if type(value) is np.ndarray:
            value.setflags(write=False)
    return obj


@dataclass(frozen=True, eq=False)
class DiscreteDist:
    """Probability distribution on a finite set of labeled points.

    Points are opaque labels (str or int) or coordinate tuples in R^d; only
    geometric operations (W-infinity, projections) require coordinates.
    """

    points: tuple
    probs: np.ndarray

    def __init__(self, points: Sequence[Point], probs: Sequence[float]):
        pts = tuple(map(_canonical_point, points))
        # A private C-contiguous copy: the caller's array stays writeable and
        # cannot rewrite it, and strided input rounds like contiguous input.
        pr = np.array(probs, dtype=np.float64, order="C")
        if pr.ndim != 1 or len(pts) != pr.shape[0]:
            raise ValueError("points and probs must be 1-D of equal length")
        if len(set(pts)) != len(pts):
            raise ValueError("support points must be pairwise distinct")
        if not (pr >= 0).all():
            raise ValueError("probabilities must be non-negative numbers")
        if abs(float(pr.sum()) - 1.0) > PROB_ATOL:
            raise ValueError(f"probabilities sum to {float(pr.sum())!r}, not 1")
        pr.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    @property
    def has_coords(self) -> bool:
        return all(_is_coordinate(p) for p in self.points)

    def coords(self) -> np.ndarray:
        """Support coordinates as an (n, d) array; rejects coordinate-free points,
        points of unequal dimension, and NaN or infinite coordinates."""
        if not self.has_coords:
            raise ValueError("distribution carries no coordinates")
        if len(set(map(len, self.points))) > 1:
            raise ValueError("coordinate points must all have the same dimension")
        arr = np.array(self.points, dtype=np.float64)
        if not np.isfinite(arr).all():
            # A NaN distance is never <= a W-infinity threshold, and inf - inf is NaN.
            raise ValueError("coordinates must be finite")
        return arr


@dataclass(frozen=True)
class GaussianDist:
    """Isotropic Gaussian N(mean, variance * I) on R^d."""

    mean: tuple
    variance: float

    def __init__(self, mean, variance: float):
        m = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        if m.ndim != 1:
            raise ValueError("mean must be a vector")
        if not variance > 0:
            raise ValueError("variance must be positive")
        object.__setattr__(self, "mean", tuple(float(x) for x in m))
        object.__setattr__(self, "variance", float(variance))
        # The density divides by (2 pi v)^(d/2), which must be a positive
        # finite float: Python's float ** raises OverflowError past the range.
        two_pi_v = 2.0 * math.pi * self.variance
        try:
            norm = two_pi_v ** (len(m) / 2.0)
        except OverflowError:
            norm = math.inf
        if not 0.0 < norm < math.inf:
            raise ValueError("the normalizer (2 pi variance)^(dim/2) "
                             + ("underflows to 0" if norm == 0.0 else "overflows"))
        # A 1-D law's constants for density and log_density: its mean, 2v,
        # 1/2 log(2 pi v) and sqrt(2 pi v), by ``math.log`` and ``** 0.5`` (``np.log``
        # and ``math.sqrt`` differ from them in the last bit now and then).
        v = self.variance
        object.__setattr__(self, "_terms", (self.mean[0], 2.0 * v, 0.5 * math.log(2.0 * math.pi * v),
                                            (2.0 * math.pi * v) ** 0.5) if len(m) == 1 else None)

    @property
    def dim(self) -> int:
        return len(self.mean)


@dataclass(frozen=True)
class LaplaceDist:
    """Laplace distribution with location ``loc`` and scale ``scale``."""

    loc: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "_terms", (2.0 * self.scale, math.log(2.0 * self.scale)))


NoiseFamily = Union[GaussianDist, LaplaceDist]


def _gaussian_density(d: GaussianDist, x) -> float:
    """:func:`density` of a Gaussian at an array or a point in more dimensions."""
    raw = np.asarray(x)
    if raw.dtype == object:
        # float64 conversion would read None as NaN.
        raise TypeError(f"x must be numeric, got {x!r}")
    xv = np.atleast_1d(raw.astype(np.float64))
    if xv.shape != (d.dim,):
        raise ValueError(f"x has dimension {xv.shape}, family expects ({d.dim},)")
    sq = float(np.sum((xv - np.asarray(d.mean)) ** 2))
    return math.exp(-sq / (2.0 * d.variance)) / (2.0 * math.pi * d.variance) ** (d.dim / 2.0)


def density(family: NoiseFamily, x) -> float:
    """Closed-form density of the family at ``x``.

    A 1-D family takes a number; a Gaussian takes a point of its dimension as
    a sequence or array, and a 1-D Gaussian also a number.  A number or a
    one-number sequence is evaluated in float arithmetic, an array or a
    point in more dimensions with numpy.
    """
    if isinstance(family, GaussianDist):
        terms = family._terms
        v = x[0] if isinstance(x, (list, tuple)) and len(x) == 1 else x
        if terms is not None and isinstance(v, (float, int)):
            mean, scale, _, norm = terms
            diff = float(v) - mean
            return math.exp(-(diff * diff) / scale) / norm
        return _gaussian_density(family, x)
    if isinstance(family, LaplaceDist):
        z = abs(float(x) - family.loc)
        return math.exp(-z / family.scale) / family._terms[0]
    raise TypeError(f"unsupported family {type(family).__name__}")


def log_density(family: NoiseFamily, x) -> np.ndarray:
    """Log of the closed-form density at every point of the 1-D array ``x``.

    Finite wherever the density is positive, also where ``density`` underflows
    to 0.  Gaussians must be 1-D.
    """
    xv = np.asarray(x, dtype=np.float64)
    if isinstance(family, GaussianDist):
        return _gaussian_log_density(xv, *_gaussian_terms(family))
    if isinstance(family, LaplaceDist):
        return -np.abs(xv - family.loc) / family.scale - family._terms[1]
    raise TypeError(f"unsupported family {type(family).__name__}")


def _gaussian_terms(law: GaussianDist) -> tuple[float, float, float]:
    """A 1-D Gaussian's mean, twice its variance and its log normalizer."""
    if law._terms is None:
        raise ValueError("log_density is 1-D only")
    return law._terms[:3]


def _gaussian_log_density(x: np.ndarray, mean, scale, norm) -> np.ndarray:
    """The Gaussian log-density at ``x``, from :func:`_gaussian_terms` of one
    law or of each point's law."""
    return -((x - mean) ** 2) / scale - norm


def _gaussian_log_densities(laws: Sequence[GaussianDist]) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The Gaussian :func:`log_density` of a stack of 1-D laws: the returned
    ``log_f(x, which)`` is the log-density at each point of ``x`` of its law
    ``laws[which]``."""
    means, scales, norms = np.array([_gaussian_terms(law) for law in laws], dtype=np.float64).T
    return lambda x, which: _gaussian_log_density(x, means[which], scales[which], norms[which])


def quadrature_domain(family: NoiseFamily) -> tuple[float, float]:
    """Interval carrying all but < 1e-300 of the family's mass (1-D only):
    ``QUAD_DOMAIN_SCALES`` scales on either side of the center."""
    if isinstance(family, GaussianDist):
        if family.dim != 1:
            raise ValueError("quadrature domain is 1-D only")
        center, scale = family.mean[0], math.sqrt(family.variance)
    elif isinstance(family, LaplaceDist):
        center, scale = family.loc, family.scale
    else:
        raise TypeError(f"unsupported family {type(family).__name__}")
    return center - QUAD_DOMAIN_SCALES * scale, center + QUAD_DOMAIN_SCALES * scale
