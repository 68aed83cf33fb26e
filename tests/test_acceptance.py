"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import itertools
import math
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from amplify_dp._rng import rng_from_seed, uniform_open
from amplify_dp.distributions import (
    GaussianDist,
    Lap2Dist,
    density,
    quadrature_domain,
)
from amplify_dp.diffusion import BrownianParams, OuParams, brownian_rdp, gm_mse, ou_mse, ou_rdp, ou_transition, plan_ou
from amplify_dp.divergences import renyi_numeric_1d
from amplify_dp.iteration import (
    SgdConfig,
    contraction_coeff,
    sgd_rdp_at_index,
)
from amplify_dp.mixing import dobrushin_coeff, doeblin_coeff, eps_dobrushin_coeff, ultra_coeff
from amplify_dp.verify import (
    certify_theorem1,
    certify_transport_and_decompose,
    draw_trials,
    random_instance,
)
from reference_impls import project_to_ball

EXACT_TOL = 1e-12
QUAD_TOL = 1e-6


def announce(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_theorem1_soundness():
    start = time.monotonic()
    reports = certify_theorem1(draw_trials(trials=500, sizes=(2, 16), seed=20240501),
                               eps_grid=(0.0, 0.5, 1.0, 2.0))
    elapsed = time.monotonic() - start
    violations = [r for r in reports if not r.passed]
    per_case = len(reports) // 4
    ok = not violations and per_case >= 500 and elapsed < 10.0
    announce(1, "all four mixing amplification rules dominate exact divergences",
             ok, f"{len(reports)} checks, {len(violations)} violations, {elapsed:.2f}s")


def test_criterion_2_coefficient_ordering():
    sizes = rng_from_seed(7, 0).integers(2, 17, size=(1000, 2))
    seeds = rng_from_seed(7, 1).integers(0, 2**62, size=1000)
    worst = 0.0
    for (nx, ny), seed in zip(sizes, seeds):
        _, _, kernel = random_instance(int(nx), int(ny), int(seed))
        dobrushin = dobrushin_coeff(kernel)
        doeblin, _ = doeblin_coeff(kernel)
        worst = max(worst,
                    dobrushin - doeblin,
                    doeblin - ultra_coeff(kernel),
                    max(eps_dobrushin_coeff(kernel, eps) - dobrushin for eps in (0.0, 0.5, 1.0)))
    ok = worst <= EXACT_TOL
    announce(2, "eps-Dobrushin <= Dobrushin <= Doeblin <= ultra on 1000 kernels",
             ok, f"worst ordering gap {worst:.2e}")


def test_criterion_3_gaussian_tightness():
    start = time.monotonic()
    worst = 0.0
    for delta, sigma, alpha in itertools.product((0.5, 1.0, 2.0),
                                                 (0.8, 1.0, 1.5),
                                                 (1.5, 2.0, 4.0)):
        total_var = 2.0 * sigma**2  # sigma1 = sigma2 = sigma
        # Gaussian noise then Gaussian noise is the Brownian mechanism at t = total_var / 2.
        closed = brownian_rdp(BrownianParams(t=sigma**2, delta=delta), alpha).epsilon
        p = GaussianDist([delta], total_var)
        q = GaussianDist([0.0], total_var)
        lo = min(quadrature_domain(q)[0], quadrature_domain(p)[0])
        hi = max(quadrature_domain(q)[1], quadrature_domain(p)[1])
        numeric = renyi_numeric_1d(lambda x: density(p, [x]),
                                   lambda x: density(q, [x]), alpha, (lo, hi))
        worst = max(worst, abs(numeric - closed))
    elapsed = time.monotonic() - start
    ok = worst <= QUAD_TOL and elapsed < 5.0
    announce(3, "Gaussian-then-Gaussian Brownian closed form matches quadrature on 3x3x3 grid",
             ok, f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_ou_rdp_certification():
    worst = 0.0
    for theta, rho, t, alpha in itertools.product((0.5, 1.0), (0.8, 1.25),
                                                  (0.25, 1.0, 3.0), (1.5, 2.0)):
        p = OuParams(theta=theta, rho=rho, t=t, delta=1.0, R=1.0, d=1)
        closed = ou_rdp(p, alpha).epsilon
        law1 = ou_transition([1.0], p)
        law0 = ou_transition([0.0], p)
        lo = min(quadrature_domain(law0)[0], quadrature_domain(law1)[0])
        hi = max(quadrature_domain(law0)[1], quadrature_domain(law1)[1])
        numeric = renyi_numeric_1d(lambda x: density(law1, [x]),
                                   lambda x: density(law0, [x]), alpha, (lo, hi))
        worst = max(worst, abs(numeric - closed))
    ok = worst <= QUAD_TOL
    announce(4, "OU intrinsic-sensitivity RDP matches quadrature on 2x2x3x2 grid",
             ok, f"worst gap {worst:.2e}")


def test_criterion_5_ou_error_tradeoff():
    planned = plan_ou(1.0, 1.0, 1.0, 1)
    theta_ok = abs(planned.theta - math.log(1.5)) <= 1e-12
    ratio_t1 = ou_mse(planned, 1.0) / gm_mse(planned)
    ratio_ok = ratio_t1 <= 2.0 / 3.0 + 1e-9

    def ratios(theta, rho, d, big_r):
        # The worst-case OU/Gaussian MSE ratio, at ||f(D)|| = R, over the time grid.
        return [ou_mse(p, big_r) / gm_mse(p)
                for p in (OuParams(theta=theta, rho=rho, t=t, delta=0.0, R=big_r, d=d)
                          for t in np.linspace(0.01, 10.0, 1000))]

    dominance_ok = True
    for theta, rho, d, big_r in ((1.0, 1.0, 1, 1.0), (0.5, 1.0, 2, 1.5),
                                 (2.0, 1.0, 1, 1.0), (4.0, 1.0, 1, 1.0)):
        # theta R^2 <= 4 d rho^2 guarantees a ratio <= 1 at every t.
        if theta * big_r**2 <= 4.0 * d * rho**2 and max(ratios(theta, rho, d, big_r)) > 1.0 + 1e-12:
            dominance_ok = False
    final_ratio = ratios(1.0, 1.0, 1, 1.0)[-1]
    tail_ok = final_ratio < 1e-3

    ok = theta_ok and ratio_ok and dominance_ok and tail_ok
    announce(5, "OU planner hits the target privacy and beats the Gaussian MSE",
             ok, f"theta={planned.theta:.6f}, ratio(1)={ratio_t1:.6f}, "
                 f"ratio(10)={final_ratio:.2e}")


def test_criterion_6_sgd_structure_and_coupling():
    # Algebraic identity: strongly convex eps over the L -> 1 baseline is
    # exactly L^(n-i+1).
    identity_ok = True
    for n, eta, beta, rho in itertools.product((5, 12, 30), (0.1, 0.3),
                                               (2.0, 4.0), (0.5, 1.0)):
        cfg = SgdConfig(n=n, C=1.2, beta=beta, rho=rho, eta=eta, sigma=0.9)
        lip = contraction_coeff(beta, rho, eta)
        for i in range(1, n):
            strong = sgd_rdp_at_index(cfg, i, 2.0).epsilon
            baseline = 2.0 * 2.0 * cfg.C**2 / ((n - i) * cfg.sigma**2)
            if not math.isclose(strong / baseline, lip ** (n - i + 1), rel_tol=1e-12):
                identity_ok = False

    # Almost-sure shared-noise contraction through one projected noisy step.
    strength, eta, radius = 1.0, 0.25, 2.0
    lip = contraction_coeff(strength, strength, eta)
    rng = rng_from_seed(60)
    n = 10**5
    x = (uniform_open(rng, (n, 2)) - 0.5) * 2 * radius
    x_prime = (uniform_open(rng, (n, 2)) - 0.5) * 2 * radius
    record = (uniform_open(rng, (n, 2)) - 0.5) * 4.0
    noise = (uniform_open(rng, (n, 2)) - 0.5) * 8.0

    def step(v):
        return project_to_ball((1 - eta * strength) * v + eta * strength * record
                               + eta * noise, radius)

    before = np.linalg.norm(x - x_prime, axis=1)
    after = np.linalg.norm(step(x) - step(x_prime), axis=1)
    coupling_violations = int(np.sum(after > lip * before + 1e-12))

    ok = identity_ok and coupling_violations == 0
    announce(6, "per-index SGD accountant identity and W-infinity contraction",
             ok, f"coupling violations {coupling_violations}/{n}")


def test_criterion_7_lap2_branch_of_density():
    # Both branches against the independent convolution oracle.
    conv_ok = True
    worst_gap = 0.0
    for l1, l2 in ((1.0, 1.0), (2.0, 1.0)):
        d = Lap2Dist(0.0, l1, l2)
        span = 20.0 * max(l1, l2)
        for x in np.linspace(-span, span, 1000):
            def integrand(t):
                return (math.exp(-abs(x - t) / l1) / (2 * l1)
                        * math.exp(-abs(t) / l2) / (2 * l2))
            lim = 40.0 * (l1 + l2) + abs(x)
            oracle, _ = quad(integrand, -lim, lim, points=sorted({0.0, x}),
                             limit=200, epsabs=1e-10, epsrel=1e-10)
            gap = abs(density(d, x) - oracle)
            worst_gap = max(worst_gap, gap)
            if gap > QUAD_TOL:
                conv_ok = False

    # Tail log-ratio reaches the pure-DP level; scales chosen so that the
    # asymptote is resolved within |x| <= 50.
    ratio_ok = True
    for l1, l2, delta in ((0.4, 0.4, 1.0), (2.0, 1.0, 1.0)):
        d = Lap2Dist(0.0, l1, l2)
        xs = np.linspace(-50.0, 50.0, 2001)
        sup = max(math.log(density(d, x) / density(d, x + delta))
                  for x in xs)
        target = delta / max(l1, l2)
        if abs(sup - target) > 0.01 * target:
            ratio_ok = False

    ok = conv_ok and ratio_ok
    announce(7, "two-scale Laplace density matches convolution and pure-DP level",
             ok, f"worst convolution gap {worst_gap:.2e}")


def test_criterion_8_transport_and_decomposition():
    reports = certify_transport_and_decompose(draw_trials(trials=200, sizes=(2, 16), seed=20240502))
    violations = [r for r in reports if not r.passed]
    overlap_exact = all(r.measured == 0.0 for r in reports
                        if r.case == "decompose_overlap")
    ok = not violations and overlap_exact
    announce(8, "mixture decompositions reconstruct exactly and transports push "
                "the marginal", ok,
             f"{len(reports)} checks, {len(violations)} violations")


def test_benchmark_selftest_passes():
    # The benchmark's checks read the library's outputs (result keys, the
    # witness's points and probs): a change that breaks them fails here.
    script = pathlib.Path(__file__).resolve().parents[1] / "bench" / "selftest.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks behave" in proc.stdout
