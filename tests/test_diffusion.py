import math

import numpy as np
import pytest

from amplify_dp._quadrature import integrate
from amplify_dp._rng import normal_open, rng_from_seed
from amplify_dp.distributions import GaussianDist, density, quadrature_domain
from amplify_dp.diffusion import (
    BrownianParams,
    OuParams,
    brownian_rdp,
    gm_mse,
    matched_gaussian_variance,
    ou_intrinsic_sensitivity,
    ou_mse,
    ou_rdp,
    ou_sample,
    ou_transition,
    pgm_mse_bound,
    plan_ou,
)
from amplify_dp.divergences import renyi_numeric_1d
from reference_impls import renyi_gaussian


def quadrature_renyi_between(law_p: GaussianDist, law_q: GaussianDist, alpha: float) -> float:
    lo = min(quadrature_domain(law_p)[0], quadrature_domain(law_q)[0])
    hi = max(quadrature_domain(law_p)[1], quadrature_domain(law_q)[1])
    return renyi_numeric_1d(lambda x: density(law_p, [x]),
                            lambda x: density(law_q, [x]), alpha, (lo, hi))


class TestBrownian:
    def test_example_value(self):
        assert brownian_rdp(BrownianParams(t=0.5, delta=1.0), 2.0).epsilon == \
            pytest.approx(1.0, abs=1e-15)

    def test_zero_sensitivity(self):
        assert brownian_rdp(BrownianParams(t=0.5, delta=0.0), 2.0).epsilon == 0.0

    def test_long_time_decay(self):
        assert brownian_rdp(BrownianParams(t=1e9, delta=1.0), 2.0).epsilon < 1e-9

    def test_equals_gaussian_with_doubled_time_variance(self):
        for t in (0.1, 0.5, 2.0, 10.0):
            for alpha in (1.5, 2.0, 8.0):
                lhs = brownian_rdp(BrownianParams(t=t, delta=1.2), alpha).epsilon
                rhs = renyi_gaussian([1.2], [0.0], 2.0 * t, alpha)
                assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_quadrature_certification(self):
        bp = BrownianParams(t=0.5, delta=1.0)
        quad = quadrature_renyi_between(GaussianDist([1.0], 1.0), GaussianDist([0.0], 1.0), 2.0)
        assert quad == pytest.approx(brownian_rdp(bp, 2.0).epsilon, abs=1e-6)


OU1 = OuParams(theta=1.0, rho=1.0, t=1.0, delta=1.0, R=1.0, d=1)


class TestOuTransition:
    def test_example(self):
        law = ou_transition([1.0], OuParams(theta=1.0, rho=1.0, t=math.log(2),
                                            delta=1.0, R=1.0, d=1))
        assert law.mean == (0.5,)
        assert law.variance == pytest.approx(0.75, abs=1e-15)

    def test_short_time_identity(self):
        law = ou_transition([2.0], OuParams(theta=1.0, rho=1.0, t=1e-12,
                                            delta=1.0, R=1.0, d=1))
        assert law.mean[0] == pytest.approx(2.0, abs=1e-11)
        assert law.variance == pytest.approx(2e-12, rel=1e-6)

    def test_long_time_invariant_measure(self):
        p = OuParams(theta=2.0, rho=1.5, t=200.0, delta=1.0, R=1.0, d=1)
        law = ou_transition([7.0], p)
        assert law.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert law.variance == pytest.approx(1.5**2 / 2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ou_transition([1.0, 2.0], OU1)

    def test_semigroup_closure(self):
        # Running to time t then applying the s-step transition matches the
        # (s+t)-step transition in mean and variance.
        for theta, rho, s, t in ((1.0, 1.0, 0.5, 1.0), (0.3, 2.0, 2.0, 0.7)):
            x = 1.7
            p_t = OuParams(theta=theta, rho=rho, t=t, delta=1.0, R=1.0, d=1)
            p_s = OuParams(theta=theta, rho=rho, t=s, delta=1.0, R=1.0, d=1)
            p_st = OuParams(theta=theta, rho=rho, t=s + t, delta=1.0, R=1.0, d=1)
            first = ou_transition([x], p_t)
            # mean contracts again by e^(-theta s); variance recurses.
            composed_mean = math.exp(-theta * s) * first.mean[0]
            composed_var = math.exp(-2 * theta * s) * first.variance + \
                ou_transition([0.0], p_s).variance
            direct = ou_transition([x], p_st)
            assert composed_mean == pytest.approx(direct.mean[0], abs=1e-12)
            assert composed_var == pytest.approx(direct.variance, abs=1e-12)


class TestOuRdp:
    def test_lambda_example(self):
        assert ou_intrinsic_sensitivity(OU1) == pytest.approx(
            1 / (2 * (math.e**2 - 1)), abs=1e-15)

    def test_zero_sensitivity(self):
        p = OuParams(theta=1.0, rho=1.0, t=1.0, delta=0.0, R=1.0, d=1)
        assert ou_rdp(p, 2.0).epsilon == 0.0

    def test_decreasing_in_time(self):
        values = [ou_rdp(OuParams(theta=1.0, rho=1.0, t=t, delta=1.0, R=1.0, d=1),
                         2.0).epsilon for t in (0.1, 0.5, 1.0, 3.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_quadrature_certification_spot(self):
        alpha = 2.0
        closed = ou_rdp(OU1, alpha).epsilon
        quad = quadrature_renyi_between(ou_transition([1.0], OU1),
                                        ou_transition([0.0], OU1), alpha)
        assert quad == pytest.approx(closed, abs=1e-6)
        assert closed == pytest.approx(1 / (math.e**2 - 1), rel=1e-12)

    def test_integral_identity_for_kappa(self):
        # The time integral of e^(2 theta s)/(e^(2 theta s)-1)^2 from t to
        # infinity has the closed form 1/(2 theta (e^(2 theta t)-1)).
        for theta, t in ((1.0, 0.5), (0.7, 1.0), (2.0, 0.25)):
            upper = t + 40.0 / theta
            val = math.exp(integrate(
                lambda s: 2 * theta * s - 2 * np.log(np.expm1(2 * theta * s)),
                t, upper, rtol=1e-10))
            assert val == pytest.approx(1 / (2 * theta * math.expm1(2 * theta * t)),
                                        abs=1e-8)


class TestMse:
    def test_ou_mse_example(self):
        p = OuParams(theta=1.0, rho=1.0, t=math.log(2), delta=1.0, R=1.0, d=1)
        assert ou_mse(p, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_ou_mse_short_time(self):
        p = OuParams(theta=1.0, rho=1.0, t=1e-9, delta=1.0, R=1.0, d=1)
        assert ou_mse(p, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_ou_mse_long_time(self):
        p = OuParams(theta=1.0, rho=1.0, t=100.0, delta=1.0, R=2.0, d=3)
        assert ou_mse(p, 2.0) == pytest.approx(4.0 + 3.0, abs=1e-10)

    def test_gm_mse_example(self):
        assert gm_mse(OU1) == pytest.approx(math.e**2 - 1, abs=1e-12)

    def test_gm_mse_short_time(self):
        p = OuParams(theta=1.0, rho=1.0, t=1e-9, delta=1.0, R=1.0, d=1)
        assert gm_mse(p) == pytest.approx(0.0, abs=1e-8)

    def test_privacy_match_identity(self):
        # The matched Gaussian reproduces the OU RDP curve exactly.
        for theta in (0.5, 1.0, 2.0):
            for t in (0.2, 1.0, 4.0):
                for alpha in (1.5, 2.0, 8.0):
                    p = OuParams(theta=theta, rho=1.3, t=t, delta=0.7, R=1.0, d=2)
                    lhs = renyi_gaussian([p.delta], [0.0], matched_gaussian_variance(p), alpha)
                    assert lhs == pytest.approx(ou_rdp(p, alpha).epsilon, abs=1e-12)

    def test_pgm_example(self):
        assert pgm_mse_bound(OU1) == pytest.approx((math.e**2 - 1) / math.e**2, abs=1e-12)

    def test_pgm_limits(self):
        # Huge matched variance pushes the bound to R^2; tiny one to gm_mse.
        big = OuParams(theta=1.0, rho=1.0, t=20.0, delta=1.0, R=1.0, d=1)
        assert pgm_mse_bound(big) == pytest.approx(1.0, rel=1e-8)
        small = OuParams(theta=1.0, rho=1.0, t=1e-8, delta=1.0, R=1.0, d=1)
        assert pgm_mse_bound(small) == pytest.approx(gm_mse(small), rel=1e-7)

    def test_pgm_requires_radius(self):
        p = OuParams(theta=1.0, rho=1.0, t=1.0, delta=1.0, R=0.0, d=1)
        with pytest.raises(ValueError):
            pgm_mse_bound(p)


class TestPlanner:
    def test_reference_plan(self):
        p = plan_ou(1.0, 1.0, 1.0, 1)
        assert p.theta == pytest.approx(math.log(1.5), abs=1e-15)
        assert p.t == 1.0

    def test_planned_privacy_is_exact(self):
        for eps in (0.1, 1.0, 4.0):
            p = plan_ou(eps, 1.0, 2.0, 3)
            for alpha in (1.5, 2.0, 16.0):
                assert ou_rdp(p, alpha).epsilon == pytest.approx(alpha * eps, abs=1e-12)

    def test_planned_error_ratio_bound(self):
        for eps, delta, big_r, d in ((1.0, 1.0, 1.0, 1), (0.3, 0.5, 2.0, 4)):
            p = plan_ou(eps, delta, big_r, d)
            bound = 1.0 / (1.0 + d * delta**2 / (2 * eps * big_r**2))
            assert ou_mse(p, big_r) / gm_mse(p) <= bound + 1e-9

    def test_no_advantage_regime(self):
        # Vanishing d*delta^2/(2 eps R^2) drives theta to 0 and the bound to 1.
        p = plan_ou(1.0, 1e-6, 1.0, 1)
        assert p.theta == pytest.approx(5e-13, rel=1e-3)
        bound = 1.0 / (1.0 + 1e-12 / 2)
        assert bound > 1 - 1e-10

    def test_small_epsilon_limit(self):
        p = plan_ou(1e-8, 1.0, 1.0, 1)
        ratio_bound = 1.0 / (1.0 + 1.0 / (2e-8))
        assert ou_mse(p, 1.0) / gm_mse(p) <= ratio_bound + 1e-9
        assert ratio_bound < 1e-7

    def test_parameters_past_float_range_raise(self):
        with pytest.raises(OverflowError, match=r"^theta = inf, rho\^2 = nan$"):
            plan_ou(1e-310, 1.0, 1.0, 1)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            plan_ou(0.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            plan_ou(1.0, 1.0, 0.0, 1)


class TestDominance:
    def test_ratio_one_at_tiny_time(self):
        # At the worst case ||f|| = R the OU/Gaussian MSE ratio tends to 1 as t -> 0.
        p = OuParams(theta=1.0, rho=1.0, t=1e-6, delta=0.0, R=1.0, d=1)
        assert ou_mse(p, 1.0) / gm_mse(p) == pytest.approx(1.0, abs=1e-3)


class TestOuSampling:
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_draws_are_normal_open_of_the_seed(self, d, seed):
        # Standard normals from the seed's stream, scaled by the transition
        # law's standard deviation and shifted by its mean, bit for bit.
        x = [0.5 * (i + 1) for i in range(d)]
        p = OuParams(theta=0.7, rho=1.3, t=0.9, delta=1.0, R=1.0, d=d)
        law = ou_transition(x, p)
        z = normal_open(rng_from_seed(seed), (33, d)) * math.sqrt(law.variance) + np.asarray(law.mean)
        want = z if d > 1 else z[:, 0]
        got = ou_sample(x, p, seed, 33)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    def test_deterministic(self):
        a = ou_sample([1.0], OU1, 7, 50)
        b = ou_sample([1.0], OU1, 7, 50)
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_draws(self):
        p3 = OuParams(theta=1.0, rho=1.0, t=1.0, delta=1.0, R=1.0, d=3)
        for x, p in (([0.0], OU1), ([0.0, 1.0, 2.0], p3)):
            np.testing.assert_array_equal(ou_sample(x, p, 123, 5), ou_sample(x, p, 123, 5))

    def test_different_seeds_differ(self):
        assert not np.array_equal(ou_sample([0.0], OU1, 1, 5), ou_sample([0.0], OU1, 2, 5))

    def test_mean_clt(self):
        draws = ou_sample([0.0], OU1, 2024, 10**6)
        assert abs(draws.mean()) < 4e-3  # above 4 sigma / sqrt(n), as the variance is below 1

    def test_nd_shape_and_mean(self):
        p = OuParams(theta=1.0, rho=1.0, t=1.0, delta=1.0, R=1.0, d=3)
        draws = ou_sample([0.0, 1.0, 2.0], p, 5, 100)
        assert draws.shape == (100, 3)
        np.testing.assert_allclose(draws.mean(axis=0), ou_transition([0.0, 1.0, 2.0], p).mean, atol=0.5)

    def test_n_must_be_positive(self):
        # The start point is checked first, as ou_transition checks it.
        with pytest.raises(ValueError, match=r"^x has shape \(2,\), expected \(1,\)$"):
            ou_sample([1.0, 2.0], OU1, 1, 0)
        for n in (0, -1):
            with pytest.raises(ValueError, match="^n must be >= 1$"):
                ou_sample([1.0], OU1, 1, n)

    def test_small_time_concentrates(self):
        p = OuParams(theta=1.0, rho=1.0, t=1e-10, delta=1.0, R=1.0, d=1)
        draws = ou_sample([2.5], p, 3, 100)
        np.testing.assert_allclose(draws, 2.5, atol=1e-3)

    def test_monte_carlo_mse_within_three_sigma(self):
        n = 200_000
        x0 = 1.0
        draws = ou_sample([x0], OU1, 2024, n)
        sq = (draws - x0) ** 2
        se = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - ou_mse(OU1, x0)) <= 3 * se

    # The six draws that `amplify-dp verify --seed 0` made while its OU MSE
    # rows were Monte-Carlo estimates: sample seed = 30 + row, 200,000 draws
    # from x0 = 1 with rho = 1, accepted within three standard errors.
    @pytest.mark.parametrize("sample_seed,theta,t", [
        (30 + 3 * i + j, theta, t)
        for i, theta in enumerate((0.5, 1.0)) for j, t in enumerate((0.25, 1.0, 3.0))])
    def test_sampled_mse_within_three_standard_errors(self, sample_seed, theta, t):
        n, x0 = 200_000, 1.0
        p = OuParams(theta=theta, rho=1.0, t=t, delta=1.0, R=1.0, d=1)
        sq_err = (ou_sample([x0], p, sample_seed, n) - x0) ** 2
        se = float(sq_err.std(ddof=1)) / math.sqrt(n)
        assert abs(float(sq_err.mean()) - ou_mse(p, x0)) <= 3.0 * se

    def test_semigroup_composition_of_samples(self):
        # Re-noising t-samples with the s-transition matches (s+t)-samples in
        # distribution: compare moments at loose MC tolerance.
        theta, rho, s, t, x0 = 1.0, 1.0, 0.7, 0.5, 2.0
        p_t = OuParams(theta=theta, rho=rho, t=t, delta=1.0, R=1.0, d=1)
        p_s = OuParams(theta=theta, rho=rho, t=s, delta=1.0, R=1.0, d=1)
        p_st = OuParams(theta=theta, rho=rho, t=s + t, delta=1.0, R=1.0, d=1)
        n = 100_000
        stage = ou_sample([x0], p_t, 5, n)
        noise = ou_sample([0.0], p_s, 6, n)
        composed = math.exp(-theta * s) * stage + noise
        direct_law = ou_transition([x0], p_st)
        assert composed.mean() == pytest.approx(direct_law.mean[0], abs=0.02)
        assert composed.var() == pytest.approx(direct_law.variance, rel=0.03)
