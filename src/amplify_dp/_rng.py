"""Seeded random number generation.

All randomness in the package flows through one counter-based generator:
Philox 4x64 keyed by ``numpy.random.SeedSequence([seed, *substream])``.
Uniform variates are drawn as 53-bit integers in ``[1, 2**53)`` scaled to the
open interval ``(0, 1)``, and every non-uniform variate is produced from those
uniforms by an explicit inverse-CDF transform.  This makes sample streams a
pure, documented function of ``(seed, substream)``.
"""

from __future__ import annotations

import numpy as np

_U53 = float(2**53)


def rng_from_seed(seed: int, *substream: int) -> np.random.Generator:
    """Philox generator for the given seed and optional substream indices."""
    ss = np.random.SeedSequence(entropy=[int(seed), *map(int, substream)])
    return np.random.Generator(np.random.Philox(seed=ss))


def uniform_open(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws in the open interval (0, 1); endpoints never occur."""
    return rng.integers(1, 2**53, size=shape).astype(np.float64) / _U53


def normal_open(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws: ``statistics.NormalDist().inv_cdf`` of ``uniform_open``."""
    # Imported on first use: statistics loads fractions and decimal.
    from statistics import NormalDist

    u = uniform_open(rng, shape)
    z = np.fromiter(map(NormalDist().inv_cdf, memoryview(u.ravel())), np.float64, u.size)
    return z.reshape(u.shape)
