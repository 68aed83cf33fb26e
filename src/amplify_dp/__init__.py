"""Privacy amplification by stochastic post-processing.

Computes and empirically certifies amplification bounds: uniform-mixing
bounds for discrete Markov operators, coupling/iteration bounds for noisy
Lipschitz maps (including a noisy-SGD per-index accountant), and diffusion
mechanisms (Brownian and Ornstein-Uhlenbeck) with their mean-squared-error
trade-offs.
"""

from .distributions import (
    DiscreteDist,
    GaussianDist,
    Lap2Dist,
    LaplaceDist,
    density,
    log_density,
    sample,
)
from .divergences import (
    DpGuarantee,
    QuadratureError,
    RdpPoint,
    hockey_stick,
    hockey_stick_via_min,
    renyi_discrete,
    renyi_gaussian,
    renyi_numeric_1d,
    renyi_numeric_log,
    tv,
    w_inf_discrete,
)
from .mixing import (
    Coupling,
    DiscreteKernel,
    amplify,
    amplify_with_kernel,
    dobrushin_coeff,
    doeblin_coeff,
    eps_dobrushin_coeff,
    eps_tilde,
    mixture_decompose,
    pushforward,
    transport_operator,
    ultra_coeff,
)
from .iteration import (
    IterationChain,
    SgdConfig,
    contraction_coeff,
    iterated_gaussian_bound,
    iterated_laplace_bound,
    lipschitz_kernel_bound,
    noisy_proj_sgd,
    pure_dp_iterated_laplace,
    sgd_rdp_at_index,
    winf_contractive_bound,
    winf_path_bound,
)
from .diffusion import (
    BrownianParams,
    OuParams,
    brownian_rdp,
    gm_mse,
    mse_dominance_check,
    ou_mse,
    ou_rdp,
    ou_sample,
    ou_transition,
    pgm_mse_bound,
    plan_ou,
)
from .verify import (
    TrialReport,
    certify_diffusion,
    certify_theorem1,
    certify_transport_and_decompose,
    random_instance,
)

__version__ = "0.1.0"
