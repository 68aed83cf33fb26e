"""Randomized oracle harness.

Generates random discrete instances, measures exact divergences before and
after post-processing, and certifies the amplification bounds against them;
quadrature and Monte-Carlo certification for the diffusion mechanisms.
Violations are reported, never raised: a failing row is the caller's signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Sequence

import numpy as np

from ._rng import rng_from_seed, uniform_open
from .distributions import DiscreteDist, GaussianDist, log_density, quadrature_domain
from .divergences import DpGuarantee, aligned_masses, hockey_stick, renyi_numeric_log
# Not called here: bench/tracing.py wraps the name where verify looks it up.
from .divergences import renyi_numeric_1d  # noqa: F401
from .diffusion import BrownianParams, OuParams, brownian_rdp, ou_mse, ou_rdp, ou_sample, ou_transition
from .mixing import (
    DiscreteKernel,
    amplify,
    dobrushin_coeff,
    doeblin_coeff,
    eps_dobrushin_coeff,
    eps_tilde,
    greedy_coupling,
    independent_coupling,
    mixture_decompose,
    pushforward,
    random_joint_coupling,
    transport_operator,
    ultra_coeff,
)

__all__ = [
    "TrialReport",
    "random_instance",
    "certify_theorem1",
    "certify_transport_and_decompose",
    "certify_diffusion",
    "reports_to_csv",
    "reports_summary",
]

EXACT_TOL = 1e-12
QUAD_TOL = 1e-6
# Shift between the two diffusion laws that certify_diffusion compares.
DIFFUSION_SENSITIVITY = 1.0


@dataclass(frozen=True)
class TrialReport:
    """One certified check: ``passed`` iff ``slack = bound - measured`` is not
    below ``-tolerance``."""

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


CSV_COLUMNS = tuple(f.name for f in fields(TrialReport))


def _report(trial_id, case, descriptor, measured, bound, tolerance,
            delta_before=math.nan, coefficient=math.nan) -> TrialReport:
    slack = bound - measured
    return TrialReport(
        trial_id=trial_id,
        case=case,
        descriptor=descriptor,
        delta_before=delta_before,
        coefficient=coefficient,
        measured=measured,
        bound=bound,
        tolerance=tolerance,
        passed=bool(slack >= -tolerance),
        slack=slack,
    )


def random_instance(nx: int, ny: int, seed: int) -> tuple[DiscreteDist, DiscreteDist, DiscreteKernel]:
    """Random full-support pair (mu, nu) on nx points and an nx-by-ny kernel.

    Masses are normalized standard exponentials (inverse-CDF of seeded
    uniforms), i.e. flat-Dirichlet draws, so every coefficient is finite.
    """
    if nx < 2 or ny < 2:
        raise ValueError("support sizes must be >= 2")
    rng = rng_from_seed(seed)
    raw = -np.log(uniform_open(rng, (2, nx)))
    rows = -np.log(uniform_open(rng, (nx, ny)))
    points_in = [f"x{i}" for i in range(nx)]
    mu = DiscreteDist(points_in, raw[0] / raw[0].sum())
    nu = DiscreteDist(points_in, raw[1] / raw[1].sum())
    kernel = DiscreteKernel(rows / rows.sum(axis=1, keepdims=True),
                            points_in, [f"y{j}" for j in range(ny)])
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
    sizes: tuple[int, int] = (2, 16),
    eps_grid: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    seed: int = 0,
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
        gamma_dob = dobrushin_coeff(kernel)
        gamma_doe, _ = doeblin_coeff(kernel)
        gamma_ultra = ultra_coeff(kernel)
        for eps in eps_grid:
            delta = hockey_stick(mu, nu, eps)
            guarantee = DpGuarantee(eps, delta)
            gammas = {
                "dobrushin": gamma_dob,
                "eps_dobrushin": eps_dobrushin_coeff(kernel, eps_tilde(guarantee)),
                "doeblin": gamma_doe,
                "ultra": gamma_ultra,
            }
            for cond, gamma in gammas.items():
                amplified = amplify(guarantee, cond, gamma)
                measured = hockey_stick(mu_k, nu_k, amplified.epsilon)
                reports.append(_report(
                    t, f"theorem1_{cond}",
                    f"nx={nx},ny={ny},seed={iseed},eps={eps}",
                    measured=measured,
                    bound=amplified.delta,
                    tolerance=EXACT_TOL,
                    delta_before=delta,
                    coefficient=gamma,
                ))
    return reports


def certify_transport_and_decompose(
    trials: int,
    sizes: tuple[int, int] = (2, 16),
    seed: int = 0,
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
    for t in range(trials):
        iseed = int(inst_seeds[t])
        n = int(inst_sizes[t][0])
        eps = float(eps_values[t])
        # mu and nu come from the first draw, so the kernel size is immaterial.
        mu, nu, _ = random_instance(n, 2, iseed)
        desc = f"n={n},seed={iseed},eps={eps!r}"

        couplings = {
            "independent": independent_coupling(mu, nu),
            "greedy": greedy_coupling(mu, nu),
            "random_joint": random_joint_coupling(mu, nu, iseed),
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


def certify_diffusion(
    theta_grid: Sequence[float] = (0.5, 1.0),
    rho_grid: Sequence[float] = (0.8, 1.25),
    t_grid: Sequence[float] = (0.25, 1.0, 3.0),
    alpha_grid: Sequence[float] = (1.5, 2.0),
    mc_samples: int = 200_000,
    seed: int = 0,
) -> list[TrialReport]:
    """Certify the diffusion RDP closed forms by quadrature and the OU MSE by
    Monte Carlo (1-D cases)."""
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
            draws = ou_sample([x0], p, seed + trial, mc_samples)
            sq_err = (draws - x0) ** 2
            mc = float(sq_err.mean())
            se = float(sq_err.std(ddof=1)) / math.sqrt(mc_samples)
            closed = ou_mse(p, abs(x0))
            reports.append(_report(
                trial, "ou_mse_monte_carlo", f"theta={theta},t={t},n={mc_samples}",
                measured=abs(mc - closed), bound=0.0, tolerance=3.0 * se,
                coefficient=closed))
            trial += 1
    return reports


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


def reports_to_csv(reports: Sequence[TrialReport]) -> str:
    """Render reports as RFC-4180 CSV, one row per trial-and-check."""
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        lines.append(",".join(format_cell(getattr(r, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


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
