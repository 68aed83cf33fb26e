"""Privacy amplification by stochastic post-processing.

Computes and empirically certifies amplification bounds: uniform-mixing
bounds for discrete Markov operators, coupling/iteration bounds for noisy
Lipschitz maps (including a noisy-SGD per-index accountant), and diffusion
mechanisms (Brownian and Ornstein-Uhlenbeck) with their mean-squared-error
trade-offs.
"""

import os as _os
import sys as _sys

# The variables OpenBLAS reads for its thread count; where one is set, or numpy
# is already loaded, numpy starts as it would without this package.
_BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in _sys.modules and not _BLAS_THREAD_VARS & _os.environ.keys():
    # The library's BLAS calls are small (a gemv, and the eps-Dobrushin
    # screen's gemm of n x m matrices), and OpenBLAS's worker thread
    # spin-waits against the importing thread (60-70 ms of start-up).
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401 (loaded for its thread count only)
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .distributions import *
from .divergences import *
from .mixing import *
from .iteration import *
from .diffusion import *
from .verify import *

__version__ = "0.1.0"
