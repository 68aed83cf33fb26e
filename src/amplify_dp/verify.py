"""Randomized oracle harness.

Generates random discrete instances, measures exact divergences before and
after post-processing, and certifies the amplification bounds against them.
The diffusion suite certifies its RDP and MSE closed forms by quadrature
only: it draws no samples, so its rows do not depend on the seed.
Violations are reported, never raised: a failing row is the caller's signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._quadrature import QuadratureError, _ends_rule, _integrate_stack, _single, _Stack, _value, integrate
from ._rng import rng_from_seed, uniform_open
from .distributions import (DiscreteDist, GaussianDist, _gaussian_log_densities, _trusted, log_density,
                            quadrature_domain)
from .divergences import DpGuarantee, _hockey_sticks, _renyi_results, _renyi_stack
from .diffusion import BrownianParams, OuParams, brownian_rdp, ou_mse, ou_rdp, ou_transition
from .mixing import (AMPLIFY_CONDITIONS, DiscreteKernel, _amplify_stack, _greedy_masses, _independent_masses,
                     _marginals, _mixture_decomposes, _operator_rows, _pair_windows, _pushforward_stack,
                     _sinkhorn_stack, _stream_exponentials)
# Not called here: bench/tracing.py wraps these names where verify looks them up.
from .diffusion import ou_sample  # noqa: F401
from .divergences import hockey_stick, renyi_numeric_1d  # noqa: F401
from .mixing import (dobrushin_coeff, doeblin_coeff, eps_dobrushin_coeff, mixture_decompose,  # noqa: F401
                     pushforward, random_joint_coupling, transport_operator, ultra_coeff)

__all__ = [
    "TrialReport",
    "TrialDraws",
    "draw_trials",
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


def random_instance(nx: int, ny: int, seed: int) -> tuple[DiscreteDist, DiscreteDist, DiscreteKernel]:
    """Random full-support pair (mu, nu) on nx points and an nx-by-ny kernel.

    Masses are normalized standard exponentials (inverse-CDF of seeded
    uniforms), i.e. flat-Dirichlet draws, so every coefficient is finite.
    """
    if nx < 2 or ny < 2:
        raise ValueError("support sizes must be >= 2")
    laws, kernels = _instance_stacks([(nx, ny)], _stream_exponentials([seed], [nx * (ny + 2)]), np.zeros(1, int))
    points = tuple(f"x{i}" for i in range(nx))
    mu, nu = (_trusted(DiscreteDist, points, law.copy()) for law in laws[nx][1][0])
    return mu, nu, _trusted(DiscreteKernel, kernels[ny][1][0].copy(), points, tuple(f"y{j}" for j in range(ny)))


def _instance_stacks(shapes: Sequence[tuple[int, int]], exponentials: np.ndarray,
                     offsets: np.ndarray) -> tuple[dict, dict]:
    """The masses of ``random_instance(nx, ny, seed)`` for each ``(nx, ny)`` of
    ``shapes``, whose trial's draw from its own stream starts at its entry of
    ``offsets`` in ``exponentials``, grouped by size.

    Returns ``{nx: (trials, laws)}``, ``laws[j]`` the ``(2, nx)`` masses of
    mu and nu of trial ``trials[j]``, and ``{ny: (trials, kernels)}``,
    ``kernels[j]`` that trial's kernel rows, padded to the group's largest row
    count by repeating its first row.  A trial reads the first ``2 nx + nx ny``
    of its draw: mu, nu, then the kernel rows.  Each row is normalized in a
    stack of rows of one length, so its sum runs along its contiguous axis, as
    on the row alone.
    """
    by_nx: dict[int, list[int]] = {}
    by_ny: dict[int, list[int]] = {}
    for t, (nx, ny) in enumerate(shapes):
        by_nx.setdefault(nx, []).append(t)
        by_ny.setdefault(ny, []).append(t)
    laws = {}
    for nx, trials in by_nx.items():
        stack = exponentials[offsets[trials, None] + np.arange(2 * nx)].reshape(-1, 2, nx)
        laws[nx] = (trials, stack / stack.sum(axis=2, keepdims=True))
    kernels = {}
    for ny, trials in by_ny.items():
        nxs = np.array([shapes[t][0] for t in trials])
        rows = np.arange(nxs.max())
        rows = np.where(rows < nxs[:, None], rows, 0)
        stack = exponentials[(offsets[trials] + 2 * nxs)[:, None, None] + rows[:, :, None] * ny + np.arange(ny)]
        kernels[ny] = (trials, stack / stack.sum(axis=2, keepdims=True))
    return laws, kernels


def _trial_seeds(seed: int, trials: int) -> np.ndarray:
    master = rng_from_seed(seed, 1)
    return master.integers(0, 2**62, size=trials)


def _trial_sizes(seed: int, trials: int, sizes: tuple[int, int]) -> np.ndarray:
    master = rng_from_seed(seed, 2)
    lo, hi = sizes
    return master.integers(lo, hi + 1, size=(trials, 2))


@dataclass(frozen=True, eq=False)
class TrialDraws:
    """The seeded trials of the theorem1 and transport suites, made by
    :func:`draw_trials`.  Trial ``t`` has the stream seed ``seeds[t]`` and the
    sizes ``shapes[t] = (nx, ny)``.  A shared record also holds each trial's
    one draw, the ``nx * max(ny + 2, nx)`` standard exponentials of
    ``exponentials`` from ``offsets[t]`` on (read-only arrays); otherwise both
    are None, and each suite draws what it reads when it reads it."""

    seed: int
    seeds: tuple[int, ...]
    shapes: tuple[tuple[int, int], ...]
    exponentials: np.ndarray | None = None
    offsets: np.ndarray | None = None


def draw_trials(trials: int, sizes: tuple[int, int], seed: int, shared: bool = False) -> TrialDraws:
    """Draw ``trials`` seeded trials with support sizes in ``[lo, hi]`` at ``seed``.

    Each trial's stream seed and sizes come from two substreams of ``seed``.
    A trial's uniforms come from its own stream, and a stream's shorter draw
    is the head of its longer one: theorem1 reads the first ``nx * (ny + 2)``
    (its instance) and the transport suite the first ``nx * nx`` (its pair and
    Sinkhorn start).  With ``shared``, each trial's stream is drawn once, here,
    long enough for both suites, which then hold ``nx * max(ny + 2, nx)`` floats
    per trial; without, each suite draws its own head of the stream, theorem1
    for all trials at once and the transport suite one window at a time, so
    that it alone holds at most about ``PAIR_BLOCK_ENTRIES`` drawn floats.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lo, hi = sizes
    if lo < 2:
        raise ValueError("support sizes must be >= 2")
    if lo > hi:
        raise ValueError(f"support sizes need lo <= hi, got {tuple(sizes)}")
    seeds = tuple(_trial_seeds(seed, trials).tolist())
    shapes = tuple(map(tuple, _trial_sizes(seed, trials, sizes).tolist()))
    if not shared:
        return TrialDraws(seed, seeds, shapes)
    counts = [nx * max(ny + 2, nx) for nx, ny in shapes]
    exponentials = _stream_exponentials(seeds, counts)
    offsets = np.cumsum([0] + counts[:-1])
    exponentials.flags.writeable = offsets.flags.writeable = False
    return TrialDraws(seed, seeds, shapes, exponentials, offsets)


def _trial_exponentials(draws: TrialDraws, trials: Sequence[int],
                        counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Exponentials and, for each trial ``trials[j]`` of ``draws``, the offset
    of its draw of at least ``counts[j]`` in them: the shared draw, or a new
    draw of ``counts[j]`` from each trial's stream."""
    if draws.exponentials is not None:
        return draws.exponentials, draws.offsets[list(trials)]
    return (_stream_exponentials([draws.seeds[t] for t in trials], counts),
            np.cumsum([0, *counts[:-1]]))


def certify_theorem1(draws: TrialDraws, eps_grid: Sequence[float]) -> list[TrialReport]:
    """Check all four mixing amplification rules against exact divergences on
    the trials of ``draws``.

    For each trial and eps, the measured pre-divergence plays the role of the
    mechanism's delta; the amplified pair (eps', delta') must dominate the
    exact post-processed divergence.  Each step runs once per support size,
    on the stack of the trials of that size: pre-divergences by nx, and the
    coefficients, pushed laws and post-divergences by ny.
    """
    inst_seeds, inst_sizes = draws.seeds, draws.shapes
    trials = len(inst_seeds)
    eps_grid = list(eps_grid)
    laws_by_nx, kernels_by_ny = _instance_stacks(inst_sizes, *_trial_exponentials(
        draws, range(trials), [nx * (ny + 2) for nx, ny in inst_sizes]))
    laws: list = [None] * trials
    guarantees: list = [None] * trials
    for group, stack in laws_by_nx.values():
        deltas = _hockey_sticks(stack[:, 0], stack[:, 1], [eps_grid] * len(group))
        for t, law, row in zip(group, stack, deltas):
            laws[t] = law
            guarantees[t] = [DpGuarantee(eps, delta) for eps, delta in zip(eps_grid, row)]
    cases = {cond: f"theorem1_{cond}" for cond in AMPLIFY_CONDITIONS}
    by_trial: list = [None] * trials
    # Rows are built one group at a time: freed short tuples stay on the
    # interpreter's free list (2000 per length), so only a group's are kept.
    for group, stack in kernels_by_ny.values():
        amplified = _amplify_stack(stack, [guarantees[t] for t in group])
        pushed = _pushforward_stack([(law, rows[:inst_sizes[t][0]]) for t, rows in zip(group, stack)
                                     for law in laws[t]]).reshape(len(group), 2, -1)
        # The post-processed divergence at each distinct eps' of a trial.
        eps_primes = [list(dict.fromkeys(eps for rows in by_eps for _, _, eps, _ in rows)) for by_eps in amplified]
        posts = _hockey_sticks(pushed[:, 0], pushed[:, 1], eps_primes)
        for t, by_eps, values, post in zip(group, amplified, eps_primes, posts):
            measured = dict(zip(values, post))
            nx, ny = inst_sizes[t]
            reports = by_trial[t] = []
            for eps, guarantee, rows in zip(eps_grid, guarantees[t], by_eps):
                desc = f"nx={nx},ny={ny},seed={inst_seeds[t]},eps={eps}"
                reports += [_report(t, cases[c], desc, measured[eps_p], delta_p, EXACT_TOL, guarantee.delta, gamma)
                            for c, gamma, eps_p, delta_p in rows]
    return [report for reports in by_trial for report in reports]


def certify_transport_and_decompose(draws: TrialDraws) -> list[TrialReport]:
    """Certify the transport-operator identity and the overlapping mixture
    decomposition on the trials of ``draws``.

    A trial on ``n = nx`` points reads the first ``n * n`` of its draw: the
    first ``2n`` give its pair (mu, nu), and all of them the start of its
    random coupling's Sinkhorn scaling, as :func:`random_joint_coupling` draws
    it.  Trials are cut into the windows of ``mixing._pair_windows`` (at most
    ``PAIR_BLOCK_ENTRIES`` padded coupling entries each).  Sinkhorn runs once
    per summation class in a window, on the stack of its trials padded with
    zero atoms to the class's largest n, which changes no bit of a coupling;
    each trial is then cut back to its n points, and every other step, the
    greedy pass included, runs once per support size in a window, on the stack
    of its trials.  ``random_joint_coupling``, ``greedy_coupling``,
    ``transport_operator``, ``Coupling.marginals``, ``pushforward`` and
    ``mixture_decompose`` are the one-item calls of these stacked steps, so
    each row is the one that the trial alone gives.
    """
    ns = [nx for nx, _ in draws.shapes]
    eps_values = (uniform_open(rng_from_seed(draws.seed, 3), len(ns)) * 2.0).tolist()
    reports: list[TrialReport] = []
    for window in _pair_windows([(n, n) for n in ns]):
        rows = {}
        for group in window.values():
            laws, masses = _transport_draws(draws, group)
            # Sinkhorn scales each start matrix, in place, into its trial's random coupling.
            _sinkhorn_stack(laws[:, 0], laws[:, 1], masses)
            # The other steps run per exact n: the pushforward is a BLAS product and the
            # independent coupling sums the flattened n * n block, so padding would change bits.
            by_n: dict[int, list[int]] = {}
            for j, t in enumerate(group):
                by_n.setdefault(ns[t], []).append(j)
            for n, picks in by_n.items():
                trials = [group[j] for j in picks]
                descs = [f"n={n},seed={draws.seeds[t]},eps={eps_values[t]!r}" for t in trials]
                rows.update(zip(trials, _transport_stack_rows(
                    trials, descs, [eps_values[t] for t in trials], laws[picks, 0, :n], laws[picks, 1, :n],
                    masses[picks, :n, :n])))
        reports += [report for t in sorted(rows) for report in rows[t]]
    return reports


def _transport_draws(draws: TrialDraws, trials: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(k, 2, w)`` masses of mu and nu and the ``(k, w, w)`` Sinkhorn
    starts of the transport trials ``trials`` of ``draws``, one summation class,
    each padded with zeros from its ``n = nx`` points to the largest, ``w``: a
    trial's start is the first ``n * n`` of its draw, and its pair the start's
    first two rows, each normalized by its padded sum, which is the unpadded one."""
    ns = np.array([draws.shapes[t][0] for t in trials])
    exponentials, offsets = _trial_exponentials(draws, trials, (ns * ns).tolist())
    at = np.arange(ns.max())
    inside = at < ns[:, None]
    cells = inside[:, :, None] & inside[:, None, :]
    index = offsets[:, None, None] + at[:, None] * ns[:, None, None] + at
    start = np.where(cells, exponentials[np.where(cells, index, 0)], 0.0)
    return start[:, :2] / start[:, :2].sum(axis=2, keepdims=True), start


def _transport_stack_rows(trials: Sequence[int], descs: Sequence[str], eps: Sequence[float],
                          p: np.ndarray, q: np.ndarray, random_masses: np.ndarray) -> list[list[TrialReport]]:
    """The transport and decomposition rows of each trial ``trials[j]``: mu and nu are
    ``p[j]`` and ``q[j]`` on the same points, ``eps[j]`` is its level, and its random
    coupling is ``random_masses[j]``."""
    couplings = np.stack([_independent_masses(p, q), _greedy_masses(p, q), random_masses])
    pushed, seconds = _pushforwards(couplings)
    pushed_err, nu_err = np.abs(pushed - seconds).max(axis=2), np.abs(seconds - q).max(axis=2)
    # Python's max(a, b), NaN included: b where b > a, else a.
    transport_err = np.where(nu_err > pushed_err, nu_err, pushed_err).T.tolist()
    theta_exact = [row[0] for row in _hockey_sticks(p, q, [[e] for e in eps])]
    theta, parts, _ = _mixture_decomposes(p, q, eps)
    # The parts live on the points of (mu, nu); a part of no mass is all 0.
    omega, mu_p, nu_p = parts[:, 0], parts[:, 1], parts[:, 2]
    shrink = (1.0 - theta) * np.array([math.exp(-e) for e in eps])
    err_mu = np.abs((1.0 - theta)[:, None] * omega + theta[:, None] * mu_p - p).max(axis=1)
    err_nu = np.abs(shrink[:, None] * omega + (1.0 - shrink)[:, None] * nu_p - q).max(axis=1)
    reconstruction = np.where(err_nu > err_mu, err_nu, err_mu).tolist()
    overlap = np.minimum(mu_p, nu_p).sum(axis=1).tolist()
    out = []
    for t, desc, errs, exact, th, rec, over in zip(trials, descs, transport_err, theta_exact,
                                                     theta.tolist(), reconstruction, overlap):
        rows = [_report(t, f"transport_{name}", desc, err, 0.0, EXACT_TOL)
                for name, err in zip(("independent", "greedy", "random_joint"), errs)]
        rows.append(_report(t, "decompose_theta", desc, abs(th - exact), 0.0, EXACT_TOL, exact))
        if th > 0.0:
            rows.append(_report(t, "decompose_reconstruction", desc, rec, 0.0, EXACT_TOL, exact))
            rows.append(_report(t, "decompose_overlap", desc, over, 0.0, 0.0, exact))
        out.append(rows)
    return out


def _pushforwards(couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each coupling of the ``(..., n, m)`` stack's first marginal pushed
    through its transport operator, and its second marginal: the stacked steps
    of ``transport_operator`` (a row of no mass is dropped, with its atom),
    ``Coupling.marginals`` and ``pushforward``."""
    n, m = couplings.shape[-2:]
    ops, keep = _operator_rows(couplings)
    firsts, seconds = _marginals(couplings)
    full = keep.all(axis=-1).ravel().tolist()
    pushed = _pushforward_stack((first, op) if f else (first[k], op[k]) for first, op, k, f in zip(
        firsts.reshape(-1, n), ops.reshape(-1, n, m), keep.reshape(-1, n), full))
    return pushed.reshape(couplings.shape[:-2] + (m,)), seconds


def certify_diffusion() -> list[TrialReport]:
    """Certify the diffusion RDP closed forms and the OU MSE by quadrature
    (1-D cases) on ``DIFFUSION_GRID``.  The rows are deterministic: no
    sampling, no seed.  The Renyi rows' integrals run in one stacked
    quadrature call and the MSE rows' in another; a row whose integral raises
    ``QuadratureError`` has ``measured`` inf, so it fails, and the other rows
    are unchanged."""
    theta_grid, rho_grid, t_grid, alpha_grid = (
        DIFFUSION_GRID[k] for k in ("theta", "rho", "t", "alpha"))
    # (case, descriptor, law0, law1, closed form, its params) per pair of laws.
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
    # (case, descriptor, closed form) per row, with the Renyi rows' laws and
    # domains, and the MSE rows' laws.
    rows, laws0, laws1, alphas, domains = [], [], [], [], []
    for case, desc, law0, law1, rdp, params in entries:
        lo = min(quadrature_domain(law0)[0], quadrature_domain(law1)[0])
        hi = max(quadrature_domain(law0)[1], quadrature_domain(law1)[1])
        for alpha in alpha_grid:
            rows.append((case, f"{desc},alpha={alpha}", rdp(params, alpha).epsilon))
            laws0.append(law0)
            laws1.append(law1)
            alphas.append(alpha)
            domains.append((lo, hi))
    mse_laws, x0 = [], 1.0
    for theta in theta_grid:
        for t in t_grid:
            p = OuParams(theta=theta, rho=1.0, t=t, delta=DIFFUSION_SENSITIVITY, R=1.0, d=1)
            rows.append(("ou_mse_quadrature", f"theta={theta},t={t}", ou_mse(p, abs(x0))))
            mse_laws.append(ou_transition([x0], p))

    renyi = _renyi_stack(_gaussian_log_densities(laws1), _gaussian_log_densities(laws0), alphas, domains,
                         [QUAD_TOL] * len(alphas), [()] * len(alphas))
    mse = _mse_stack(mse_laws, [x0] * len(mse_laws))
    quads = _renyi_results(renyi, alphas, _integrate_stack(renyi)) + _mse_results(mse, _integrate_stack(mse))
    return [_report(trial, case, desc, bound=0.0, tolerance=QUAD_TOL, coefficient=closed,
                    measured=math.inf if isinstance(quad, QuadratureError) else abs(quad - closed))
            for trial, ((case, desc, closed), quad) in enumerate(zip(rows, quads))]


def mse_numeric(law: GaussianDist, x0: float) -> float:
    """Quadrature estimate of E(X - x0)^2 for X ~ ``law`` (1-D), to relative
    tolerance ``MSE_RTOL``.

    The log-integrand 2 log|x - x0| + log p(x) is integrated over
    ``quadrature_domain(law)`` by the log-space Simpson engine, with a
    breakpoint at ``x0``.  Raises :class:`QuadratureError` where the integrand
    is not negligible at a domain end, as the Renyi oracle does.
    """
    def log_integrand(x: np.ndarray) -> np.ndarray:
        return _mse_log_integrand(x, x0, log_density(law, x))

    a, b = quadrature_domain(law)
    log_moment = integrate(log_integrand, a, b, rtol=MSE_RTOL, breakpoints=(x0,))
    stack = _Stack(_single(log_integrand), [(a, b)], [MSE_RTOL], [(x0,)])
    return _value(_mse_results(stack, [log_moment])[0])


def _mse_log_integrand(x: np.ndarray, x0, log_p: np.ndarray) -> np.ndarray:
    """Log of the second-moment integrand (x - x0)^2 * p(x) from the log of p
    at ``x``, for one ``x0`` or an ``x0`` per point."""
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(np.abs(x - x0)) + log_p


def _mse_stack(laws: Sequence[GaussianDist], x0s: Sequence[float]) -> _Stack:
    """The second-moment integrals of :func:`mse_numeric` for ``laws[i]`` about ``x0s[i]``, as one stack."""
    log_p, x0 = _gaussian_log_densities(laws), np.array(x0s, dtype=np.float64)
    return _Stack(lambda x, which: _mse_log_integrand(x, x0[which], log_p(x, which)),
                  [quadrature_domain(law) for law in laws], [MSE_RTOL] * len(laws),
                  [(v,) for v in x0s])


def _mse_results(stack: _Stack, log_moments: list) -> list:
    """Per integral of an :func:`_mse_stack`, the second moment from its log,
    or the ``QuadratureError`` that :func:`mse_numeric` raises."""
    return [m if isinstance(m, QuadratureError) else math.exp(m) for m in _ends_rule(stack, log_moments)]


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
