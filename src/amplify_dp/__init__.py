"""Privacy amplification by stochastic post-processing.

Computes and empirically certifies amplification bounds: uniform-mixing
bounds for discrete Markov operators, coupling/iteration bounds for noisy
Lipschitz maps (including a noisy-SGD per-index accountant), and diffusion
mechanisms (Brownian and Ornstein-Uhlenbeck) with their mean-squared-error
trade-offs.
"""

from .distributions import *
from .divergences import *
from .mixing import *
from .iteration import *
from .diffusion import *
from .verify import *

__version__ = "0.1.0"
