import math

import numpy as np
import pytest

from amplify_dp._rng import rng_from_seed, uniform_open
from amplify_dp.iteration import (
    IterationChain,
    SgdConfig,
    contraction_coeff,
    sgd_rdp_at_index,
    winf_contractive_bound,
    winf_path_bound,
)
from reference_impls import project_to_ball


class TestWinfBounds:
    def test_single_step_is_gaussian(self):
        chain = IterationChain(1, 1.0, 2.0, 1.5)
        out = winf_path_bound(chain, [1.5], 2.0)
        assert out.epsilon == pytest.approx(2.0 * 1.5**2 / (2 * 4.0), abs=1e-15)

    def test_two_step_example(self):
        chain = IterationChain(2, 1.0, 1.0, 1.0)
        assert winf_path_bound(chain, [0.5, 0.5], 2.0).epsilon == pytest.approx(0.5)

    def test_zero_increments(self):
        chain = IterationChain(3, 0.9, 1.0, 0.0)
        assert winf_path_bound(chain, [0.0, 0.0, 0.0], 2.0).epsilon == 0.0

    def test_length_mismatch(self):
        chain = IterationChain(3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="increments"):
            winf_path_bound(chain, [0.5, 0.5], 2.0)

    def test_heterogeneous_weights(self):
        # Two steps with L = (2, 0.5): step-1 increment is contracted by both,
        # step-2 only by its own factor.
        chain = IterationChain(2, [2.0, 0.5], 1.0, 1.0)
        out = winf_path_bound(chain, [1.0, 1.0], 2.0)
        expected = (2.0 / 2.0) * ((2.0 * 0.5) ** 2 * 1.0 + 0.5**2 * 1.0)
        assert out.epsilon == pytest.approx(expected, abs=1e-15)

    def test_contractive_l1(self):
        chain = IterationChain(10, 1.0, 1.0, 1.0)
        assert winf_contractive_bound(chain, 1.0, 2.0).epsilon == pytest.approx(0.1)

    def test_contractive_half(self):
        chain = IterationChain(10, 0.5, 1.0, 1.0)
        assert winf_contractive_bound(chain, 1.0, 2.0).epsilon == pytest.approx(
            2 * 0.5**11 / 20, abs=1e-18)

    def test_contractive_single_step(self):
        chain = IterationChain(1, 1.0, 1.0, 1.0)
        assert winf_contractive_bound(chain, 1.0, 2.0).epsilon == pytest.approx(1.0)

    def test_expansive_rejected(self):
        chain = IterationChain(5, 1.2, 1.0, 1.0)
        with pytest.raises(ValueError, match="L <= 1"):
            winf_contractive_bound(chain, 1.0, 2.0)

    def test_closed_form_dominates_geometric_path(self):
        # The contractive closed form absorbs a (r * phi(L))^2 <= 1 factor, so
        # it must dominate the explicit geometric-path evaluation, whose
        # increments d_i = d_0 L^i sum to the sensitivity.
        for lip in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            for r in (2, 5, 11):
                d0 = (2.0 / lip) * (1.0 - lip) / (1.0 - lip**r)
                increments = [d0 * lip**i for i in range(1, r + 1)]
                assert math.fsum(increments) == pytest.approx(2.0, abs=1e-12)
                chain = IterationChain(r, lip, 1.3, 2.0)
                path = winf_path_bound(chain, increments, 2.0)
                closed = winf_contractive_bound(chain, 2.0, 2.0)
                assert closed.epsilon >= path.epsilon - 1e-15



UNIT_CHAIN = IterationChain(2, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("call,match", [
    (lambda: IterationChain(2, math.nan, 1.0, math.nan), "Lipschitz"),
    (lambda: IterationChain(2, [1.0, math.nan], 1.0, 1.0), "Lipschitz"),
    (lambda: IterationChain(2, 1.0, 1.0, math.nan), "delta0"),
    (lambda: winf_path_bound(UNIT_CHAIN, [math.nan, 0.5], 2.0), "increments"),
    (lambda: winf_contractive_bound(UNIT_CHAIN, math.nan, 2.0), "sensitivity"),
    (lambda: winf_contractive_bound(UNIT_CHAIN, -1.0, 2.0), "sensitivity"),
    (lambda: SgdConfig(n=5, C=1.0, beta=1.0, rho=1.0, eta=0.5, sigma=math.nan), "sigma"),
], ids=["chain-nan-lipschitz-and-delta0", "chain-nan-lipschitz-entry", "chain-nan-delta0",
        "path-nan-increment", "contractive-nan-sensitivity", "contractive-negative-sensitivity",
        "sgd-nan-sigma"])
def test_nan_and_negative_inputs_rejected(call, match):
    # A NaN fails every check (none is written as `x < 0`), so it is a
    # ValueError here and not an ArithmeticError in a bound later.
    with pytest.raises(ValueError, match=match):
        call()


class TestContractionCoeff:
    def test_full_contraction(self):
        assert contraction_coeff(1.0, 1.0, 1.0) == 0.0

    def test_example(self):
        assert contraction_coeff(3.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_small_eta_limit(self):
        assert contraction_coeff(2.0, 1.0, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            contraction_coeff(3.0, 1.0, 0.6)

    def test_rho_beta_order(self):
        with pytest.raises(ValueError):
            contraction_coeff(1.0, 2.0, 0.1)


CFG = SgdConfig(n=10, C=1.0, beta=3.0, rho=1.0, eta=0.5, sigma=1.0)


class TestSgdAccountant:
    def test_last_index(self):
        assert sgd_rdp_at_index(CFG, 10, 1.5).epsilon == pytest.approx(3.0)

    def test_second_to_last(self):
        # L = 0.5, exponent n-i+1 = 2: eps_9 = 2 * 0.25 = 0.5; alpha = 2.
        assert sgd_rdp_at_index(CFG, 9, 2.0).epsilon == pytest.approx(1.0)

    def test_convex_baseline_limit(self):
        # rho -> 0 pushes L -> 1 and the bound to 2C^2/((n-i) sigma^2).
        cfg = SgdConfig(n=10, C=1.0, beta=3.0, rho=1e-12, eta=0.5, sigma=1.0)
        got = sgd_rdp_at_index(cfg, 5, 2.0).epsilon
        assert got == pytest.approx(2.0 * 2.0 / 5.0, rel=1e-9)

    def test_exponential_improvement_identity(self):
        # eps_i(strongly convex) / eps_i(baseline) = L^(n-i+1) exactly.
        for n in (5, 20):
            for eta in (0.1, 0.4):
                cfg = SgdConfig(n=n, C=1.3, beta=4.0, rho=1.0, eta=eta, sigma=0.8)
                lip = contraction_coeff(cfg.beta, cfg.rho, cfg.eta)
                for i in range(1, n):
                    strong = sgd_rdp_at_index(cfg, i, 2.0).epsilon
                    baseline = 2.0 * 2.0 * cfg.C**2 / ((n - i) * cfg.sigma**2)
                    assert strong / baseline == pytest.approx(lip ** (n - i + 1), rel=1e-12)

    def test_index_validation(self):
        with pytest.raises(ValueError, match="index"):
            sgd_rdp_at_index(CFG, 0, 2.0)
        with pytest.raises(ValueError, match="index"):
            sgd_rdp_at_index(CFG, 11, 2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(n=10, C=1.0, beta=1.0, rho=2.0, eta=0.1, sigma=1.0)
        with pytest.raises(ValueError):
            SgdConfig(n=10, C=1.0, beta=3.0, rho=1.0, eta=0.6, sigma=1.0)

    def test_zero_sigma_rejected_by_accountant(self):
        # The accountant's bound is infinite at sigma = 0: its config rejects it.
        with pytest.raises(ValueError, match="sigma must be positive"):
            SgdConfig(n=5, C=1.0, beta=1.0, rho=1.0, eta=0.5, sigma=0.0)


class TestSimulator:
    def test_coupled_divergence_bound(self):
        # Two noise-free projected SGD runs on the quadratic loss
        # (strength/2)|x - z|^2, differing in record i, end within
        # 2 eta C L^(n-i) of each other: the gap the accountant's bound rests on.
        n, strength, eta, radius = 12, 1.0, 0.25, 4.0
        c = strength * (radius + radius)  # gradient-norm bound on the ball for |z| <= radius
        lip = contraction_coeff(strength, strength, eta)

        def last_iterate(records):
            x = np.zeros(2)
            for z in records:
                x = project_to_ball(x - eta * strength * (x - z), radius)
            return x

        rng = np.random.default_rng(3)
        data = rng.uniform(-1, 1, size=(n, 2))
        for i in (3, 8, 12):
            other = data.copy()
            other[i - 1] = rng.uniform(-1, 1, size=2)
            gap = np.linalg.norm(last_iterate(data) - last_iterate(other))
            assert gap <= 2 * eta * c * lip ** (n - i) + 1e-12


class TestSharedNoiseContraction:
    def test_one_step_coupling_almost_sure(self):
        # Shared-noise projected steps contract pairwise distances by L,
        # for every single draw.
        strength, eta, radius = 1.0, 0.25, 2.0
        lip = contraction_coeff(strength, strength, eta)
        rng = rng_from_seed(314)
        n = 10**4
        x = (uniform_open(rng, (n, 3)) - 0.5) * 2 * radius
        y = (uniform_open(rng, (n, 3)) - 0.5) * 2 * radius
        z = (uniform_open(rng, (n, 3)) - 0.5) * 4.0
        noise = (uniform_open(rng, (n, 3)) - 0.5) * 6.0
        step = lambda v: project_to_ball((1 - eta * strength) * v
                                         + eta * strength * z + eta * noise, radius)
        gap_before = np.linalg.norm(x - y, axis=1)
        gap_after = np.linalg.norm(step(x) - step(y), axis=1)
        assert np.all(gap_after <= lip * gap_before + 1e-12)

