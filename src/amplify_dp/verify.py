"""Randomized oracle harness.

Generates random discrete instances, measures exact divergences before and
after post-processing, and certifies the amplification bounds against them.
The diffusion suite certifies its RDP and MSE closed forms by quadrature
only: it draws no samples, so its rows do not depend on the seed.
Violations are reported, never raised: a failing row is the caller's signal.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

import numpy as np

from ._quadrature import integrate, require_negligible_ends
from ._rng import rng_from_seed, uniform_open
from .distributions import DiscreteDist, GaussianDist, log_density, quadrature_domain
from .divergences import DpGuarantee, aligned_masses, hockey_stick, renyi_numeric_log
from .diffusion import BrownianParams, OuParams, brownian_rdp, ou_mse, ou_rdp, ou_transition
from .mixing import (
    PAIR_BLOCK_ENTRIES,
    Coupling,
    DiscreteKernel,
    amplify_with_kernel,
    greedy_coupling,
    independent_coupling,
    mixture_decompose,
    pushforward,
    random_joint_couplings,
    transport_operator,
)
# Not called here: bench/tracing.py wraps these names where verify looks them up.
from .diffusion import ou_sample  # noqa: F401
from .divergences import renyi_numeric_1d  # noqa: F401
from .mixing import (  # noqa: F401
    dobrushin_coeff,
    doeblin_coeff,
    eps_dobrushin_coeff,
    random_joint_coupling,
    ultra_coeff,
)

__all__ = [
    "TrialReport",
    "random_instance",
    "certify_theorem1",
    "certify_transport_and_decompose",
    "certify_diffusion",
    "mse_numeric",
    "reports_summary",
]

EXACT_TOL = 1e-12
QUAD_TOL = 1e-8
# Relative tolerance of the OU second-moment quadrature in mse_numeric.
MSE_RTOL = 1e-10
# Shift between the two diffusion laws that certify_diffusion compares.
DIFFUSION_SENSITIVITY = 1.0
# certify_diffusion's grids: theta*rho*t*alpha OU Renyi rows, t*alpha Brownian
# Renyi rows and theta*t OU MSE rows.
DIFFUSION_GRID = {"theta": (0.5, 1.0), "rho": (0.8, 1.25), "t": (0.25, 1.0, 3.0),
                  "alpha": (1.5, 2.0)}


class TrialReport(NamedTuple):
    """One certified check: ``passed`` iff ``slack = bound - measured`` is not
    below ``-tolerance``.  A tuple, so a report is its own CSV row."""

    trial_id: int
    case: str
    descriptor: str
    delta_before: float
    coefficient: float
    measured: float
    bound: float
    tolerance: float
    passed: bool
    slack: float


CSV_COLUMNS = TrialReport._fields


def _report(trial_id, case, descriptor, measured, bound, tolerance,
            delta_before=math.nan, coefficient=math.nan) -> TrialReport:
    slack = bound - measured
    return TrialReport(trial_id, case, descriptor, delta_before, coefficient,
                       measured, bound, tolerance, bool(slack >= -tolerance), slack)


@lru_cache(maxsize=64)
def _labels(prefix: str, n: int) -> tuple[str, ...]:
    """``prefix0 .. prefix{n-1}``, built once per size for all trials."""
    return tuple(f"{prefix}{i}" for i in range(n))


def _random_pair(rng: np.random.Generator, n: int) -> tuple[DiscreteDist, DiscreteDist]:
    """The first draw of :func:`random_instance`: mu and nu on ``n`` points."""
    raw = -np.log(uniform_open(rng, (2, n)))
    points = _labels("x", n)
    return DiscreteDist(points, raw[0] / raw[0].sum()), DiscreteDist(points, raw[1] / raw[1].sum())


def random_instance(nx: int, ny: int, seed: int) -> tuple[DiscreteDist, DiscreteDist, DiscreteKernel]:
    """Random full-support pair (mu, nu) on nx points and an nx-by-ny kernel.

    Masses are normalized standard exponentials (inverse-CDF of seeded
    uniforms), i.e. flat-Dirichlet draws, so every coefficient is finite.
    """
    if nx < 2 or ny < 2:
        raise ValueError("support sizes must be >= 2")
    rng = rng_from_seed(seed)
    mu, nu = _random_pair(rng, nx)
    rows = -np.log(uniform_open(rng, (nx, ny)))
    kernel = DiscreteKernel(rows / rows.sum(axis=1, keepdims=True), mu.points, _labels("y", ny))
    return mu, nu, kernel


def _trial_seeds(seed: int, trials: int) -> np.ndarray:
    master = rng_from_seed(seed, 1)
    return master.integers(0, 2**62, size=trials)


def _trial_sizes(seed: int, trials: int, sizes: tuple[int, int]) -> np.ndarray:
    master = rng_from_seed(seed, 2)
    lo, hi = sizes
    return master.integers(lo, hi + 1, size=(trials, 2))


def certify_theorem1(
    trials: int,
    sizes: tuple[int, int],
    eps_grid: Sequence[float],
    seed: int,
) -> list[TrialReport]:
    """Check all four mixing amplification rules against exact divergences.

    For each trial and eps, the measured pre-divergence plays the role of the
    mechanism's delta; the amplified pair (eps', delta') must dominate the
    exact post-processed divergence.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    inst_seeds = _trial_seeds(seed, trials)
    inst_sizes = _trial_sizes(seed, trials, sizes)
    reports: list[TrialReport] = []
    for t in range(trials):
        iseed = int(inst_seeds[t])
        nx, ny = map(int, inst_sizes[t])
        mu, nu, kernel = random_instance(nx, ny, iseed)
        mu_k = pushforward(mu, kernel)
        nu_k = pushforward(nu, kernel)
        guarantees = [DpGuarantee(eps, delta)
                      for eps, delta in zip(eps_grid, hockey_stick(mu, nu, eps_grid))]
        amplified = amplify_with_kernel(kernel, guarantees)
        # The post-processed divergence at each distinct eps', in one call.
        eps_primes = list(dict.fromkeys(out.epsilon for by_cond in amplified
                                        for _, out in by_cond.values()))
        measured = dict(zip(eps_primes, hockey_stick(mu_k, nu_k, eps_primes)))
        for eps, guarantee, by_cond in zip(eps_grid, guarantees, amplified):
            desc = f"nx={nx},ny={ny},seed={iseed},eps={eps}"
            for cond, (gamma, out) in by_cond.items():
                reports.append(_report(
                    t, f"theorem1_{cond}", desc,
                    measured=measured[out.epsilon],
                    bound=out.delta,
                    tolerance=EXACT_TOL,
                    delta_before=guarantee.delta,
                    coefficient=gamma,
                ))
    return reports


def certify_transport_and_decompose(
    trials: int,
    sizes: tuple[int, int],
    seed: int,
) -> list[TrialReport]:
    """Certify the transport-operator identity and the overlapping mixture
    decomposition on random instances."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    inst_seeds = _trial_seeds(seed, trials)
    inst_sizes = _trial_sizes(seed, trials, sizes)
    eps_rng = rng_from_seed(seed, 3)
    eps_values = uniform_open(eps_rng, trials) * 2.0
    reports: list[TrialReport] = []
    for window in _coupling_windows(inst_sizes[:, 0]):
        ns, iseeds = inst_sizes[window, 0].tolist(), inst_seeds[window].tolist()
        pairs = [_random_pair(rng_from_seed(iseed), n) for n, iseed in zip(ns, iseeds)]
        random_joint = random_joint_couplings(pairs, iseeds)
        for t, n, iseed, (mu, nu), pi in zip(window, ns, iseeds, pairs, random_joint):
            eps = float(eps_values[t])
            reports += _transport_rows(t, f"n={n},seed={iseed},eps={eps!r}", eps, mu, nu, pi)
    return reports


def _coupling_windows(sizes: np.ndarray):
    """Ranges of consecutive trials whose ``n x n`` couplings hold at most
    ``PAIR_BLOCK_ENTRIES`` entries together (at least one trial each)."""
    start, entries = 0, 0
    for t, n in enumerate(sizes.tolist()):
        if entries + n * n > PAIR_BLOCK_ENTRIES and t > start:
            yield range(start, t)
            start, entries = t, 0
        entries += n * n
    yield range(start, len(sizes))


def _transport_rows(t: int, desc: str, eps: float, mu: DiscreteDist, nu: DiscreteDist,
                    pi_random: Coupling) -> list[TrialReport]:
    """The transport and decomposition rows of one trial, given its random coupling."""
    reports = []
    couplings = {
        "independent": independent_coupling(mu, nu),
        "greedy": greedy_coupling(mu, nu),
        "random_joint": pi_random,
    }
    for name, pi in couplings.items():
        op = transport_operator(pi)
        first, second = pi.marginals()
        pushed = pushforward(DiscreteDist(pi.first_points, first), op)
        err = float(max(np.abs(pushed.probs - second).max(), np.abs(second - nu.probs).max()))
        reports.append(_report(t, f"transport_{name}", desc,
                               measured=err, bound=0.0, tolerance=EXACT_TOL))

    theta_exact = hockey_stick(mu, nu, eps)
    dec = mixture_decompose(mu, nu, eps)
    reports.append(_report(t, "decompose_theta", desc,
                           measured=abs(dec.theta - theta_exact),
                           bound=0.0, tolerance=EXACT_TOL,
                           delta_before=theta_exact))
    if dec.theta > 0.0:
        # The decomposition's laws live on the aligned support of (mu, nu).
        _, p, q = aligned_masses(mu, nu)
        omega = dec.omega.probs if dec.omega is not None else np.zeros_like(p)
        mu_p, nu_p = dec.mu_prime.probs, dec.nu_prime.probs
        w_nu = 1.0 - (1.0 - dec.theta) * math.exp(-eps)
        err_mu = np.abs((1.0 - dec.theta) * omega + dec.theta * mu_p - p).max()
        err_nu = np.abs((1.0 - dec.theta) * math.exp(-eps) * omega + w_nu * nu_p - q).max()
        overlap = float(np.minimum(mu_p, nu_p).sum())
        reports.append(_report(t, "decompose_reconstruction", desc,
                               measured=float(max(err_mu, err_nu)),
                               bound=0.0, tolerance=EXACT_TOL,
                               delta_before=theta_exact))
        reports.append(_report(t, "decompose_overlap", desc,
                               measured=overlap, bound=0.0, tolerance=0.0,
                               delta_before=theta_exact))
    return reports


def certify_diffusion() -> list[TrialReport]:
    """Certify the diffusion RDP closed forms and the OU MSE by quadrature
    (1-D cases) on ``DIFFUSION_GRID``.  The rows are deterministic: no
    sampling, no seed."""
    theta_grid, rho_grid, t_grid, alpha_grid = (
        DIFFUSION_GRID[k] for k in ("theta", "rho", "t", "alpha"))
    # (case, descriptor, law0, law1, closed form, its params) per quadrature check.
    entries = []
    for theta in theta_grid:
        for rho in rho_grid:
            for t in t_grid:
                p = OuParams(theta=theta, rho=rho, t=t, delta=DIFFUSION_SENSITIVITY, R=1.0, d=1)
                entries.append(("ou_rdp_quadrature", f"theta={theta},rho={rho},t={t}",
                                ou_transition([0.0], p), ou_transition([DIFFUSION_SENSITIVITY], p),
                                ou_rdp, p))
    for t in t_grid:
        entries.append(("brownian_rdp_quadrature", f"t={t}",
                        GaussianDist([0.0], 2.0 * t), GaussianDist([DIFFUSION_SENSITIVITY], 2.0 * t),
                        brownian_rdp, BrownianParams(t=t, delta=DIFFUSION_SENSITIVITY)))

    reports: list[TrialReport] = []
    trial = 0
    for case, desc, law0, law1, rdp, params in entries:
        lo = min(quadrature_domain(law0)[0], quadrature_domain(law1)[0])
        hi = max(quadrature_domain(law0)[1], quadrature_domain(law1)[1])
        for alpha in alpha_grid:
            closed = rdp(params, alpha).epsilon
            quad = renyi_numeric_log(partial(log_density, law1), partial(log_density, law0),
                                     alpha, (lo, hi))
            reports.append(_report(
                trial, case, f"{desc},alpha={alpha}",
                measured=abs(quad - closed), bound=0.0, tolerance=QUAD_TOL,
                coefficient=closed))
            trial += 1

    for theta in theta_grid:
        for t in t_grid:
            p = OuParams(theta=theta, rho=1.0, t=t, delta=DIFFUSION_SENSITIVITY, R=1.0, d=1)
            x0 = 1.0
            closed = ou_mse(p, abs(x0))
            quad = mse_numeric(ou_transition([x0], p), x0)
            reports.append(_report(
                trial, "ou_mse_quadrature", f"theta={theta},t={t}",
                measured=abs(quad - closed), bound=0.0, tolerance=QUAD_TOL,
                coefficient=closed))
            trial += 1
    return reports


def mse_numeric(law: GaussianDist, x0: float) -> float:
    """Quadrature estimate of E(X - x0)^2 for X ~ ``law`` (1-D), to relative
    tolerance ``MSE_RTOL``.

    The log-integrand 2 log|x - x0| + log p(x) is integrated over
    ``quadrature_domain(law)`` by the log-space Simpson engine, with a
    breakpoint at ``x0``.  Raises :class:`QuadratureError` where the integrand
    is not negligible at a domain end, as the Renyi oracle does.
    """
    def log_integrand(x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.abs(x - x0)) + log_density(law, x)

    a, b = quadrature_domain(law)
    log_moment = integrate(log_integrand, a, b, rtol=MSE_RTOL, breakpoints=(x0,))
    require_negligible_ends(log_integrand, a, b, MSE_RTOL, log_moment)
    return math.exp(log_moment)


def format_cell(value) -> str:
    """One CSV cell: shortest round-trip floats, lowercase booleans, RFC-4180 quoting."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def reports_summary(reports: Sequence[TrialReport]) -> dict:
    """Per-case aggregate: trial count, violations, worst slack deficit."""
    summary: dict[str, dict] = {}
    for r in reports:
        entry = summary.setdefault(r.case, {"trials": 0, "violations": 0,
                                            "max_slack_deficit": 0.0})
        entry["trials"] += 1
        if not r.passed:
            entry["violations"] += 1
        deficit = max(0.0, -(r.slack + r.tolerance))
        entry["max_slack_deficit"] = max(entry["max_slack_deficit"], deficit)
    return summary
