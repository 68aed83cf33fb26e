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
from .distributions import DiscreteDist, GaussianDist, _trusted, log_density, quadrature_domain
from .divergences import DpGuarantee, _hockey_sticks, aligned_masses, hockey_stick, renyi_numeric_log
from .diffusion import BrownianParams, OuParams, brownian_rdp, ou_mse, ou_rdp, ou_transition
from .mixing import (
    Coupling,
    DiscreteKernel,
    _amplify_stack,
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
    return tuple(_trusted(DiscreteDist, points, row / row.sum()) for row in raw)


def random_instance(nx: int, ny: int, seed: int) -> tuple[DiscreteDist, DiscreteDist, DiscreteKernel]:
    """Random full-support pair (mu, nu) on nx points and an nx-by-ny kernel.

    Masses are normalized standard exponentials (inverse-CDF of seeded
    uniforms), i.e. flat-Dirichlet draws, so every coefficient is finite.
    """
    if nx < 2 or ny < 2:
        raise ValueError("support sizes must be >= 2")
    laws, kernels = _instance_stacks([(nx, ny)], [seed])
    points = _labels("x", nx)
    mu, nu = (_trusted(DiscreteDist, points, law.copy()) for law in laws[nx][1][0])
    return mu, nu, _trusted(DiscreteKernel, kernels[ny][1][0].copy(), points, _labels("y", ny))


def _instance_stacks(shapes: Sequence[tuple[int, int]], seeds: Sequence[int]) -> tuple[dict, dict]:
    """The masses of ``random_instance(nx, ny, seed)`` for each ``(nx, ny)`` of
    ``shapes`` and seed of ``seeds``, grouped by size.

    Returns ``{nx: (trials, laws)}``, ``laws[j]`` the ``(2, nx)`` masses of
    mu and nu of trial ``trials[j]``, and ``{ny: (trials, kernels)}``,
    ``kernels[j]`` that trial's kernel rows, padded to the group's largest row
    count by repeating its first row.  A trial's uniforms are one draw of
    ``2 nx + nx ny`` from its own stream: mu, nu, then the kernel rows.  Each
    row is normalized in a stack of rows of one length, so its sum runs along
    its contiguous axis, as on the row alone.
    """
    draws = [uniform_open(rng_from_seed(s), nx * (ny + 2)) for (nx, ny), s in zip(shapes, seeds)]
    raw = -np.log(np.concatenate(draws))
    starts = np.cumsum([0] + [len(d) for d in draws[:-1]])
    by_nx: dict[int, list[int]] = {}
    by_ny: dict[int, list[int]] = {}
    for t, (nx, ny) in enumerate(shapes):
        by_nx.setdefault(nx, []).append(t)
        by_ny.setdefault(ny, []).append(t)
    laws = {}
    for nx, trials in by_nx.items():
        stack = raw[starts[trials, None] + np.arange(2 * nx)].reshape(-1, 2, nx)
        laws[nx] = (trials, stack / stack.sum(axis=2, keepdims=True))
    kernels = {}
    for ny, trials in by_ny.items():
        nxs = np.array([shapes[t][0] for t in trials])
        rows = np.arange(nxs.max())
        rows = np.where(rows < nxs[:, None], rows, 0)
        stack = raw[(starts[trials] + 2 * nxs)[:, None, None] + rows[:, :, None] * ny + np.arange(ny)]
        kernels[ny] = (trials, stack / stack.sum(axis=2, keepdims=True))
    return laws, kernels


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
    exact post-processed divergence.  Each step runs once per support size,
    on the stack of the trials of that size: pre-divergences by nx, and the
    coefficients, pushed laws and post-divergences by ny.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    inst_seeds = _trial_seeds(seed, trials).tolist()
    inst_sizes = _trial_sizes(seed, trials, sizes).tolist()
    eps_grid = list(eps_grid)
    laws_by_nx, kernels_by_ny = _instance_stacks(inst_sizes, inst_seeds)
    laws: list = [None] * trials
    guarantees: list = [None] * trials
    for group, stack in laws_by_nx.values():
        deltas = _hockey_sticks(stack[:, 0], stack[:, 1], [eps_grid] * len(group))
        for t, law, row in zip(group, stack, deltas):
            laws[t] = law
            guarantees[t] = [DpGuarantee(eps, delta) for eps, delta in zip(eps_grid, row)]
    amplified: list = [None] * trials
    measured: list = [None] * trials
    for group, stack in kernels_by_ny.values():
        for t, by_eps in zip(group, _amplify_stack(stack, [guarantees[t] for t in group])):
            amplified[t] = by_eps
        # pushforward's product, one per law, normalized as a stack.
        pushed = np.array([law @ rows[:inst_sizes[t][0]]
                           for t, rows in zip(group, stack) for law in laws[t]]).reshape(len(group), 2, -1)
        pushed /= pushed.sum(axis=2, keepdims=True)
        # The post-processed divergence at each distinct eps' of a trial.
        eps_primes = [list(dict.fromkeys(out.epsilon for by_cond in amplified[t]
                                         for _, out in by_cond.values())) for t in group]
        for t, values, post in zip(group, eps_primes, _hockey_sticks(pushed[:, 0], pushed[:, 1], eps_primes)):
            measured[t] = dict(zip(values, post))
    reports: list[TrialReport] = []
    for t in range(trials):
        nx, ny = inst_sizes[t]
        for eps, guarantee, by_cond in zip(eps_grid, guarantees[t], amplified[t]):
            desc = f"nx={nx},ny={ny},seed={inst_seeds[t]},eps={eps}"
            for cond, (gamma, out) in by_cond.items():
                reports.append(_report(
                    t, f"theorem1_{cond}", desc,
                    measured=measured[t][out.epsilon],
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
    iseeds = _trial_seeds(seed, trials).tolist()
    ns = _trial_sizes(seed, trials, sizes)[:, 0].tolist()
    eps_values = (uniform_open(rng_from_seed(seed, 3), trials) * 2.0).tolist()
    pairs = [_random_pair(rng_from_seed(iseed), n) for n, iseed in zip(ns, iseeds)]
    # The couplings come one window at a time, each dropped once its rows are made.
    trial_data = zip(range(trials), ns, iseeds, eps_values, pairs, random_joint_couplings(pairs, iseeds))
    reports: list[TrialReport] = []
    for t, n, iseed, eps, (mu, nu), pi in trial_data:
        reports += _transport_rows(t, f"n={n},seed={iseed},eps={eps!r}", eps, mu, nu, pi)
    return reports


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
        # The operator is defined on the first points with mass only.
        pushed = pushforward(_trusted(DiscreteDist, op.input_points, first[first > 0.0]), op)
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
        mu_p = dec.mu_prime.probs
        nu_p = dec.nu_prime.probs if dec.nu_prime is not None else np.zeros_like(p)
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


def _quote(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def format_cell(value) -> str:
    """One CSV cell: shortest round-trip floats, lowercase booleans, RFC-4180 quoting."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return _quote(str(value))


# What format_cell gives a cell of exactly this type, without its dispatch.
CELL_FORMAT_BY_TYPE = {float: float.__repr__, int: int.__repr__, bool: ("false", "true").__getitem__,
                       str: _quote}


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
