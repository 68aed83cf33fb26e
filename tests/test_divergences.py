import ast
import itertools
import math
import os
import pathlib
import subprocess
import sys
import warnings
from functools import partial

import numpy as np
import pytest

from amplify_dp._quadrature import QuadratureError, integrate
from amplify_dp.diffusion import OuParams, ou_transition
from amplify_dp.distributions import DiscreteDist, GaussianDist, LaplaceDist, density, log_density
from amplify_dp.divergences import (
    DpGuarantee,
    _logsumexp,
    RdpPoint,
    hockey_stick,
    hockey_stick_via_min,
    log_laplace_g,
    renyi_discrete,
    renyi_gaussian,
    renyi_numeric_1d,
    renyi_numeric_log,
    tv,
    w_inf_discrete,
    w_inf_optimal_coupling,
)
from amplify_dp.verify import random_instance
from amplify_dp.mixing import pushforward
from reference_impls import renyi_numeric_1d_scalar, w_inf_max_flow_search, w_inf_restart_search


def brute_force_hockey_stick(p, q, eps):
    """Reference oracle: literal sum of [p - e^eps q]_+ per atom."""
    e = math.exp(eps)
    return sum(max(pi - e * qi, 0.0) for pi, qi in zip(p, q))


MU = DiscreteDist(["a", "b"], [0.5, 0.5])
NU = DiscreteDist(["a", "b"], [0.9, 0.1])


class TestGuaranteeTypes:
    def test_rdp_point_validation(self):
        RdpPoint(2.0, 0.0)
        RdpPoint(math.inf, 1.0)
        with pytest.raises(ValueError):
            RdpPoint(1.0, 0.5)
        with pytest.raises(ValueError, match="alpha"):
            RdpPoint(-math.inf, 1.0)
        with pytest.raises(ValueError):
            RdpPoint(2.0, -0.1)

    def test_rdp_point_rejects_nan(self):
        # NaN only comes out of a closed form whose arithmetic left the float range.
        with pytest.raises(ArithmeticError, match="NaN"):
            RdpPoint(2.0, math.nan)

    def test_dp_guarantee_validation(self):
        DpGuarantee(0.0, 0.0)
        with pytest.raises(ValueError):
            DpGuarantee(-1.0, 0.1)
        with pytest.raises(ValueError):
            DpGuarantee(1.0, 1.5)


class TestHockeyStick:
    def test_tv_example(self):
        assert hockey_stick(MU, NU, 0.0) == pytest.approx(0.4, abs=1e-15)

    def test_log2_example(self):
        # [0.5 - 1.8]_+ + [0.5 - 0.2]_+ = 0.3
        assert hockey_stick(MU, NU, math.log(2)) == pytest.approx(0.3, abs=1e-15)

    def test_identical_dists(self):
        for eps in (0.0, 1.0, math.inf):
            assert hockey_stick(MU, MU, eps) == 0.0

    def test_via_min_examples(self):
        assert hockey_stick_via_min(MU, NU, 0.0) == pytest.approx(0.4, abs=1e-15)
        assert hockey_stick_via_min(MU, MU, 0.0) == 0.0
        disjoint_a = DiscreteDist(["a", "b"], [1.0, 0.0])
        disjoint_b = DiscreteDist(["a", "b"], [0.0, 1.0])
        for eps in (0.0, 3.0, 100.0, math.inf):
            assert hockey_stick_via_min(disjoint_a, disjoint_b, eps) == 1.0

    def test_disjoint_supports_different_universes(self):
        a = DiscreteDist(["a"], [1.0])
        b = DiscreteDist(["b"], [1.0])
        assert hockey_stick(a, b, 2.0) == 1.0
        assert hockey_stick(a, b, math.inf) == 1.0

    def test_infinite_eps_support_mass(self):
        m = DiscreteDist(["a", "b", "c"], [0.2, 0.5, 0.3])
        n = DiscreteDist(["a", "b", "c"], [0.7, 0.3, 0.0])
        assert hockey_stick(m, n, math.inf) == pytest.approx(0.3, abs=1e-15)

    def test_eps_past_exp_overflow(self):
        m = DiscreteDist(["a", "b", "c"], [0.2, 0.5, 0.3])
        n = DiscreteDist(["a", "b", "c"], [0.7, 0.3, 0.0])
        for fn in (hockey_stick, hockey_stick_via_min):
            assert fn(m, n, 1000.0) == pytest.approx(0.3, abs=1e-15)
        # e^710 overflows, e^710 * 1e-310 = 0.0223 does not.
        m = DiscreteDist(["a", "b"], [0.5, 0.5])
        n = DiscreteDist(["a", "b"], [1.0 - 1e-310, 1e-310])
        expected = 0.5 - math.exp(710.0 + math.log(1e-310))
        for fn in (hockey_stick, hockey_stick_via_min):
            assert fn(m, n, 710.0) == pytest.approx(expected, abs=1e-15)

    def test_matches_brute_force_and_min_form(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = rng.integers(2, 9)
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            m1 = DiscreteDist.from_probs(p)
            m2 = DiscreteDist.from_probs(q)
            for eps in (0.0, 0.3, 1.0, 2.5):
                hs = hockey_stick(m1, m2, eps)
                assert hs == pytest.approx(brute_force_hockey_stick(p, q, eps), abs=1e-12)
                assert hs == pytest.approx(hockey_stick_via_min(m1, m2, eps), abs=1e-12)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(11)
        grid = [0.0, 0.1, 0.5, 1.0, 2.0, 4.0]
        for trial in range(100):
            n = rng.integers(2, 9)
            m1 = DiscreteDist.from_probs(rng.dirichlet(np.ones(n)))
            m2 = DiscreteDist.from_probs(rng.dirichlet(np.ones(n)))
            values = [hockey_stick(m1, m2, e) for e in grid]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_tv_alias(self):
        assert tv(MU, NU) == hockey_stick(MU, NU, 0.0)

    def test_data_processing(self):
        for seed in range(30):
            mu, nu, kernel = random_instance(5, 4, seed)
            mu_k, nu_k = pushforward(mu, kernel), pushforward(nu, kernel)
            for eps in (0.0, 0.5, 1.5):
                assert hockey_stick(mu_k, nu_k, eps) <= hockey_stick(mu, nu, eps) + 1e-12
            for alpha in (1.5, 2.0, 8.0):
                assert renyi_discrete(mu_k, nu_k, alpha) <= renyi_discrete(mu, nu, alpha) + 1e-9

    def test_joint_convexity(self):
        rng = np.random.default_rng(21)
        for trial in range(50):
            n = 5
            mu1, mu2 = (DiscreteDist.from_probs(rng.dirichlet(np.ones(n))) for _ in range(2))
            nu1, nu2 = (DiscreteDist.from_probs(rng.dirichlet(np.ones(n))) for _ in range(2))
            g = rng.uniform()
            mix_mu = DiscreteDist.from_probs(g * mu1.probs + (1 - g) * mu2.probs)
            mix_nu = DiscreteDist.from_probs(g * nu1.probs + (1 - g) * nu2.probs)
            for eps in (0.0, 0.7):
                lhs = hockey_stick(mix_mu, mix_nu, eps)
                rhs = g * hockey_stick(mu1, nu1, eps) + (1 - g) * hockey_stick(mu2, nu2, eps)
                assert lhs <= rhs + 1e-12

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            hockey_stick(MU, NU, -0.1)


class TestRenyiDiscrete:
    def test_two_atom_example(self):
        expected = math.log(0.25 / 0.9 + 0.25 / 0.1)
        assert renyi_discrete(MU, NU, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_identical(self):
        assert renyi_discrete(MU, MU, 2.0) == 0.0
        assert renyi_discrete(MU, MU, math.inf) == 0.0

    def test_max_divergence(self):
        m = DiscreteDist(["a", "b"], [1.0, 0.0])
        n = DiscreteDist(["a", "b"], [0.5, 0.5])
        assert renyi_discrete(m, n, math.inf) == pytest.approx(math.log(2), abs=1e-15)

    def test_absolute_continuity_failure(self):
        m = DiscreteDist(["a", "b"], [0.5, 0.5])
        n = DiscreteDist(["a", "b"], [1.0, 0.0])
        assert renyi_discrete(m, n, 2.0) == math.inf
        assert renyi_discrete(m, n, math.inf) == math.inf

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            renyi_discrete(MU, NU, 1.0)

    def test_logsumexp_equals_scipy(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(3)
        cases = [np.log(MU.probs), 2.0 * np.log(MU.probs) - np.log(NU.probs),
                 5000.0 * np.log(MU.probs) - 4999.0 * np.log(NU.probs),
                 np.array([0.0]), np.array([3.0, 3.0, -1.0]), np.array([-800.0, -800.0, -801.0])]
        for i in range(500):
            t = rng.normal(size=int(rng.integers(1, 20))) * 10 ** rng.uniform(-3, 3)
            if i % 3 == 0:
                t[: len(t) // 2] = t[0]
            cases.append(np.round(t) if i % 5 == 0 else t)
        for t in cases:
            assert _logsumexp(t) == float(logsumexp(t))

    def test_large_alpha_stable(self):
        # log-sum-exp keeps huge alpha finite.
        val = renyi_discrete(MU, NU, 5000.0)
        assert math.isfinite(val)
        assert val == pytest.approx(renyi_discrete(MU, NU, math.inf), rel=1e-2)


class TestRenyiGaussian:
    def test_closed_form_values(self):
        assert renyi_gaussian([1.0], [0.0], 2.0, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert renyi_gaussian([1.0], [1.0], 1.0, 3.0) == 0.0
        assert renyi_gaussian([1.0], [0.0], 1.0, 3.0) == pytest.approx(1.5, abs=1e-15)

    def test_vector_inputs(self):
        assert renyi_gaussian([1.0, 1.0], [0.0, 0.0], 1.0, 2.0) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            renyi_gaussian([1.0, 0.0], [0.0], 1.0, 2.0)

    def test_agrees_with_quadrature(self):
        for delta, s2, alpha in itertools.product((0.5, 1.0, 2.0), (0.5, 1.0, 3.0),
                                                  (1.5, 2.0, 4.0)):
            closed = renyi_gaussian([delta], [0.0], s2, alpha)
            p = GaussianDist([delta], s2)
            q = GaussianDist([0.0], s2)
            span = 40.0 * math.sqrt(s2)
            numeric = renyi_numeric_1d(
                lambda x: density(p, [x]), lambda x: density(q, [x]),
                alpha, (-span, delta + span))
            assert numeric == pytest.approx(closed, abs=1e-6)


class TestLaplaceG:
    def test_at_zero(self):
        # g(0) = 1.
        for alpha in (1.5, 2.0, 10.0):
            assert log_laplace_g(0.0, alpha) == pytest.approx(0.0, abs=1e-15)

    def test_value_example(self):
        expected = (2 / 3) * math.e + (1 / 3) * math.exp(-2)
        assert math.exp(log_laplace_g(1.0, 2.0)) == pytest.approx(expected, abs=1e-12)

    def test_log_convexity_spot(self):
        assert 2.0 * log_laplace_g(0.5, 2.0) <= log_laplace_g(1.0, 2.0)

    def test_log_version_no_overflow(self):
        assert log_laplace_g(1.0, 2000.0) == pytest.approx(1999.0 + math.log(2000 / 3999), rel=1e-9)


class TestRenyiNumeric:
    def test_equal_densities(self):
        g = GaussianDist([0.0], 1.0)
        val = renyi_numeric_1d(lambda x: density(g, [x]), lambda x: density(g, [x]),
                               2.0, (-40.0, 40.0))
        assert abs(val) < 1e-8

    def test_gaussian_pair(self):
        p, q = GaussianDist([1.0], 1.0), GaussianDist([0.0], 1.0)
        val = renyi_numeric_1d(lambda x: density(p, [x]), lambda x: density(q, [x]),
                               2.0, (-40.0, 41.0))
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_laplace_pair(self):
        p, q = LaplaceDist(1.0, 1.0), LaplaceDist(0.0, 1.0)
        val = renyi_numeric_1d(lambda x: density(p, x), lambda x: density(q, x),
                               2.0, (-41.0, 42.0), breakpoints=(0.0, 1.0))
        assert val == pytest.approx(log_laplace_g(1.0, 2.0), abs=1e-6)

    def test_budget_exhaustion_reported(self):
        p, q = GaussianDist([1.0], 1.0), GaussianDist([0.0], 1.0)
        with pytest.raises(QuadratureError):
            renyi_numeric_1d(lambda x: density(p, [x]), lambda x: density(q, [x]),
                             2.0, (-40.0, 41.0), tol=1e-14, max_evals=50)

    def test_overflow_reported(self):
        # The tilted moment peaks at x = 48, past the domain: the integrand is
        # far from negligible next to the points where q underflows to 0.
        p, q = GaussianDist([3.0], 1.0), GaussianDist([0.0], 1.0)
        with pytest.raises(QuadratureError, match="not negligible"):
            renyi_numeric_1d(lambda x: density(p, [x]), lambda x: density(q, [x]),
                             16.0, (-40.0, 43.0))


def counted(fn, calls):
    def wrapped(x):
        calls[0] += 1
        return fn(x)
    return wrapped


def gaussian_probe(shift, alpha, calls=None):
    """N(shift, 1) against N(0, 1) on the oracle-sweep domain (-40, 40 + shift)."""
    calls = [0] if calls is None else calls
    p, q = GaussianDist([shift], 1.0), GaussianDist([0.0], 1.0)
    return renyi_numeric_1d(counted(lambda x: density(p, [x]), calls),
                            counted(lambda x: density(q, [x]), calls),
                            alpha, (-40.0, 40.0 + shift))


def sound_reference_laws(seed=5, count=45):
    """Gaussian, Laplace (with breakpoints) and OU pairs on which the scalar
    reference oracle is sound: alpha <= 8 and (alpha - 1) * shift / sd <= 10.5.
    Yields (law_p, law_q, alpha, domain, breakpoints)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        alpha = float(rng.choice([1.5, 2.0, 3.0, 4.0, 6.0, 8.0]))
        max_shift = min(1.5, 10.5 / (alpha - 1.0))
        if i % 3 == 0:
            sd = rng.uniform(0.3, 3.0)
            shift = rng.uniform(0.1, max_shift) * sd
            yield (GaussianDist([shift], sd * sd), GaussianDist([0.0], sd * sd),
                   alpha, (-40.0 * sd, shift + 40.0 * sd), ())
        elif i % 3 == 1:
            b = rng.uniform(0.5, 2.0)
            shift = b * rng.uniform(0.2, 2.0)
            yield (LaplaceDist(shift, b), LaplaceDist(0.0, b),
                   alpha, (-40.0 * b, shift + 40.0 * b), (0.0, shift))
        else:
            theta, rho, t = rng.uniform((0.3, 0.5, 0.2), (2.0, 1.5, 2.0))
            unit = OuParams(theta=theta, rho=rho, t=t, delta=1.0, R=1.0, d=1)
            sd = math.sqrt(ou_transition([0.0], unit).variance)
            sens = rng.uniform(0.3, max_shift) * sd / math.exp(-theta * t)
            params = OuParams(theta=theta, rho=rho, t=t, delta=sens, R=1.0, d=1)
            law0, law1 = ou_transition([0.0], params), ou_transition([sens], params)
            m1 = law1.mean[0]
            yield (law1, law0, alpha, (min(0.0, m1) - 40.0 * sd, max(0.0, m1) + 40.0 * sd), ())


def scalar_density(law):
    return lambda x: density(law, x)


class TestLogSpaceOracle:
    @pytest.mark.parametrize("shift,alpha,expected", [(1.0, 24.0, 12.0), (1.0, 32.0, 16.0),
                                                      (3.0, 8.0, 36.0)])
    def test_large_alpha_probes_exact(self, shift, alpha, expected):
        # The 1e-100 cutoff of the scalar oracle under-reported these three.
        assert gaussian_probe(shift, alpha) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("shift,alpha", [(1.0, 64.0), (3.0, 16.0), (3.0, 24.0),
                                             (3.0, 32.0), (3.0, 64.0)])
    def test_tilted_mass_past_domain_raises_quickly(self, shift, alpha):
        # The moment peaks at x = alpha * shift, past the domain end 40 + shift.
        calls = [0]
        with pytest.raises(QuadratureError, match="not negligible"):
            gaussian_probe(shift, alpha, calls)
        assert calls[0] <= 1000

    def test_non_negligible_domain_end_raises(self):
        # The left tail underflows, and the right end cuts the moment off at x = 3.
        p, q = GaussianDist([1.0], 1.0), GaussianDist([0.0], 1.0)
        with pytest.raises(QuadratureError, match="domain end"):
            renyi_numeric_1d(lambda x: density(p, [x]), lambda x: density(q, [x]),
                             2.0, (-45.0, 3.0))

    def test_domain_end_cut_without_underflow_raises(self):
        # Nothing underflows on (-5, 3), yet the right end cuts the moment off:
        # the truncated integral gives 0.8272 where the divergence is 1.
        p, q = GaussianDist([1.0], 1.0), GaussianDist([0.0], 1.0)
        with pytest.raises(QuadratureError, match="domain end"):
            renyi_numeric_1d(lambda x: density(p, [x]), lambda x: density(q, [x]),
                             2.0, (-5.0, 3.0))

    def test_agrees_with_scalar_reference(self):
        tol = 1e-8
        for law_p, law_q, alpha, domain, breakpoints in sound_reference_laws():
            p, q = scalar_density(law_p), scalar_density(law_q)
            new = renyi_numeric_1d(p, q, alpha, domain, tol=tol, breakpoints=breakpoints)
            old = renyi_numeric_1d_scalar(p, q, alpha, domain, tol=tol, breakpoints=breakpoints)
            assert abs(new - old) <= tol

    def test_log_density_path_agrees_with_scalar_adapter(self):
        tol = 1e-8
        for law_p, law_q, alpha, domain, breakpoints in sound_reference_laws():
            family = renyi_numeric_log(partial(log_density, law_p), partial(log_density, law_q),
                                       alpha, domain, tol=tol, breakpoints=breakpoints)
            scalar = renyi_numeric_1d(scalar_density(law_p), scalar_density(law_q),
                                      alpha, domain, tol=tol, breakpoints=breakpoints)
            assert abs(family - scalar) <= tol

    @pytest.mark.parametrize("shift", [1.0, 3.0])
    @pytest.mark.parametrize("alpha", [24.0, 32.0, 64.0, 256.0])
    def test_log_density_path_exact_at_large_alpha(self, shift, alpha):
        # The moment is a Gaussian bump at x = alpha * shift.  On a domain that
        # covers it the family path is exact; on the oracle-sweep domain
        # (-40, 40 + shift) it raises wherever the bump lies past the end.
        log_p = partial(log_density, GaussianDist([shift], 1.0))
        log_q = partial(log_density, GaussianDist([0.0], 1.0))
        exact = renyi_gaussian([shift], [0.0], 1.0, alpha)
        covered = renyi_numeric_log(log_p, log_q, alpha, (-40.0, alpha * shift + 40.0))
        assert abs(covered - exact) <= 1e-9
        if alpha * shift < 40.0:
            assert abs(renyi_numeric_log(log_p, log_q, alpha, (-40.0, 40.0 + shift)) - exact) <= 1e-9
        else:
            with pytest.raises(QuadratureError, match="not negligible at a domain end"):
                renyi_numeric_log(log_p, log_q, alpha, (-40.0, 40.0 + shift))

    def test_log_path_exact_zeros(self):
        # p is the unit exponential law (an exact zero on x < 0) and q the
        # Laplace law at 1/2, cut to an exact zero on x < -1.  Where both are 0
        # the integrand is 0; the moment of p^2 / q over x >= 0 is
        # 2 e^(1/2) (1 - e^(-3/2)) / 3 + 2 / e.
        def log_p(x):
            return np.where(x < 0.0, -np.inf, -x)

        q = LaplaceDist(0.5, 1.0)

        def log_q(x):
            return np.where(x < -1.0, -np.inf, log_density(q, x))

        moment = 2.0 * math.exp(0.5) * (1.0 - math.exp(-1.5)) / 3.0 + 2.0 / math.e
        got = renyi_numeric_log(log_p, log_q, 2.0, (-5.0, 40.0), breakpoints=(-1.0, 0.0, 0.5))
        assert got == pytest.approx(math.log(moment), abs=1e-8)
        # q = 0 where p is not: the moment is infinite, which the engine reports.
        with pytest.raises(QuadratureError, match=r"\+inf"):
            renyi_numeric_log(partial(log_density, LaplaceDist(0.0, 1.0)), log_q, 2.0, (-5.0, 40.0))

    def test_engine_rejects_infinite_log_integrand(self):
        with pytest.raises(QuadratureError, match=r"\+inf"):
            integrate(lambda x: np.where(x > 0.5, np.inf, 0.0), 0.0, 1.0)

    def test_engine_remembers_worst_node_next_to_nan(self):
        # f(x) = x + 1e10 exp(-(x - 1/2)^2 / (2e-12)), NaN at x = 0.  The panel
        # next to 0 is exact (f is linear there) and accepted on the first
        # sweep, while a node on the spike still inflates the estimate; the
        # true integral (about 2.5e4) then makes that panel's node 1/32 far from
        # negligible, which only the remembered worst node shows.
        def log_f(x):
            with np.errstate(divide="ignore"):
                out = np.logaddexp(np.log(x), math.log(1e10) - (x - 0.5) ** 2 / 2e-12)
            return np.where(x <= 0.0, np.nan, out)

        with pytest.raises(QuadratureError, match="not representable"):
            integrate(log_f, 0.0, 1.0)

    def test_engine_nan_next_to_exact_zeros(self):
        # The panels touching the NaN points hold only exact zeros; the large
        # nodes of the panels away from them do not count against the rule.
        val = integrate(lambda x: np.where(x > 0.9, np.nan, np.where(x > 0.5, -np.inf, 0.0)),
                        0.0, 1.0)
        assert math.exp(val) == pytest.approx(0.5, rel=1e-8)

    def test_engine_log_result_past_overflow(self):
        # exp(1000 - x) on [0, 1] integrates to e^1000 (1 - e^-1), far past the
        # largest double; the engine returns its log.
        val = integrate(lambda x: 1000.0 - x, 0.0, 1.0, rtol=1e-12)
        assert val == pytest.approx(1000.0 + math.log(-math.expm1(-1.0)), abs=1e-10)


class TestWInf:
    def test_point_masses(self):
        a = DiscreteDist([(0.0, 0.0)], [1.0])
        b = DiscreteDist([(3.0, 4.0)], [1.0])
        assert w_inf_discrete(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_uniform_shift_example(self):
        # Brute force over both matchings: identity gives max move 0.5,
        # the swap gives 1.5, so the optimum is 0.5.
        a = DiscreteDist([(0.0,), (1.0,)], [0.5, 0.5])
        b = DiscreteDist([(0.5,), (1.5,)], [0.5, 0.5])
        assert w_inf_discrete(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_identical(self):
        a = DiscreteDist([(0.0,), (1.0,)], [0.3, 0.7])
        assert w_inf_discrete(a, a) == 0.0

    def test_coordinate_free_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            w_inf_discrete(MU, NU)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            dists = []
            for _ in range(3):
                pts = [tuple(c) for c in rng.normal(size=(n, 2))]
                dists.append(DiscreteDist(pts, rng.dirichlet(np.ones(n))))
            a, b, c = dists
            dab, dba = w_inf_discrete(a, b), w_inf_discrete(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert w_inf_discrete(a, c) <= dab + w_inf_discrete(b, c) + 1e-12

    def test_splitting_mass_beats_matching(self):
        # One atom must split between two targets; the bottleneck is the
        # farther of the two distances.
        a = DiscreteDist([(0.0,)], [1.0])
        b = DiscreteDist([(-1.0,), (2.0,)], [0.5, 0.5])
        assert w_inf_discrete(a, b) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("first, second", [
        ([(0.0,), (math.nan,)], [(0.0,), (1.0,)]),
        ([(math.inf,)], [(math.inf,)]),
        ([(0.0,)], [(-math.inf,)]),
        ([(0.0, 0.0)], [(math.nan, 1.0)]),
    ])
    def test_non_finite_coordinates_rejected(self, first, second):
        # A NaN distance is never within a threshold, and inf - inf is NaN.
        a = DiscreteDist(first, [1.0 / len(first)] * len(first))
        b = DiscreteDist(second, [1.0 / len(second)] * len(second))
        with pytest.raises(ValueError, match="coordinates must be finite"):
            w_inf_discrete(a, b)

    @pytest.mark.parametrize("first, second, expected", [
        ([(0.0,)], [(1e-200,)], 1e-200),
        ([(0.0, 0.0)], [(1e-200, 0.0)], 1e-200),
        ([(0.0, 0.0)], [(3e-160, 4e-160)], 5e-160),
        ([(-1e200,)], [(1e200,)], 2e200),
        ([(-1e200, 0.0)], [(1e200, 0.0)], 2e200),
        # Differences beyond the float range: the distance is inf, without a warning.
        ([(-1e308,)], [(1e308,)], math.inf),
        ([(-1e308, 0.0)], [(1e308, 0.0)], math.inf),
        ([(-1e308,), (1e308,)], [(-1e308,), (1e308,)], 0.0),
        ([(-1e308, 0.0), (1e308, 0.0)], [(-1e308, 0.0), (1e308, 0.0)], 0.0),
    ])
    def test_extreme_scales_exact(self, first, second, expected):
        # These differences square to a subnormal, to 0 or to inf.
        a = DiscreteDist(first, [1.0 / len(first)] * len(first))
        b = DiscreteDist(second, [1.0 / len(second)] * len(second))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = w_inf_discrete(a, b)
        assert w == expected

    def test_optimal_coupling_is_valid(self):
        a = DiscreteDist([(0.0,), (1.0,)], [0.5, 0.5])
        b = DiscreteDist([(0.5,), (1.5,)], [0.5, 0.5])
        w, pi = w_inf_optimal_coupling(a, b)
        assert w == pytest.approx(0.5)
        # Every pair in the coupling moves mass at most w.
        for (x, y), pr in zip(pi.points, pi.probs):
            move = math.dist(x, y)
            assert move <= w + 1e-12
        assert sum(pi.probs) == pytest.approx(1.0, abs=1e-12)


def coord_dist(points, probs):
    return DiscreteDist([tuple(pt) for pt in points], probs)


W_INF_KINDS = ["random1", "random2", "random3", "lattice", "identical", "one_point", "far_atom",
               "line", "line_lattice"]


def w_inf_instances(kind, count=12):
    """Pairs of coordinate-carrying laws for checking W-infinity.

    ``random<d>``: uniform supports of 1 to 12 points in d dimensions;
    ``lattice``: points of {0..3}^d with integer weights, so distances tie and
    some atoms carry no mass; ``identical``: a law against itself;
    ``one_point``: a point mass against a random law or another point mass;
    ``far_atom``: a point mass against itself, and laws on {0, 1} against a
    law with a far atom of no mass or of less mass than routing may leave
    unrouted, which must not raise the value, or of more, which must (fixed,
    ``count`` is ignored); ``line``: unsorted supports of 1 to 64 points on
    the line, starting with one-point laws on either side; ``line_lattice``:
    shuffled integer points of [0, 12) on the line with integer weights, so
    distances tie and atoms on both sides carry no mass.
    """
    if kind == "far_atom":
        point = coord_dist([[0.0]], [1.0])
        near = coord_dist([[0.0], [1.0]], [0.3, 0.7])
        pairs = [(point, point)]
        for far_mass in (0.0, 5e-13, 2e-12):
            far = coord_dist([[0.0], [1.0], [50.0]], [0.5, 0.5 - far_mass, far_mass])
            pairs += [(far, near), (near, far)]
        return pairs
    rng = np.random.default_rng(W_INF_KINDS.index(kind))
    pairs = []
    for k in range(count):
        if kind == "line":
            n, m = (int(v) for v in rng.integers(1, 65, size=2))
            n, m = [(1, 1), (1, m), (n, 1)][k] if k < 3 else (n, m)
            x, y = rng.normal(size=(n, 1)), rng.normal(size=(m, 1))
            pairs.append((coord_dist(x, rng.dirichlet(np.ones(n))), coord_dist(y, rng.dirichlet(np.ones(m)))))
            continue
        if kind == "line_lattice":
            x, y = (rng.permutation(12)[:int(rng.integers(1, 13))].astype(float)[:, None] for _ in "xy")
            p = rng.integers(0, 4, size=len(x)).astype(float)
            q = rng.integers(0, 4, size=len(y)).astype(float)
            p[0] += p.sum() == 0
            q[-1] += q.sum() == 0
            pairs.append((coord_dist(x, p / p.sum()), coord_dist(y, q / q.sum())))
            continue
        d = int(kind[-1]) if kind.startswith("random") else int(rng.integers(1, 4))
        n, m = (int(v) for v in rng.integers(1, 13, size=2))
        if kind == "lattice":
            x = np.unique(rng.integers(0, 4, size=(n, d)), axis=0).astype(float)
            y = np.unique(rng.integers(0, 4, size=(m, d)), axis=0).astype(float)
            p = rng.integers(0, 4, size=len(x)).astype(float)
            q = rng.integers(0, 4, size=len(y)).astype(float)
            p[0] += p.sum() == 0
            q[-1] += q.sum() == 0
            pairs.append((coord_dist(x, p / p.sum()), coord_dist(y, q / q.sum())))
            continue
        if kind == "one_point":
            n = 1
            m = 1 if len(pairs) % 2 else m
        x, y = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        mu = coord_dist(x, rng.dirichlet(np.ones(n)))
        nu = mu if kind == "identical" else coord_dist(y, rng.dirichlet(np.ones(m)))
        pairs.append((mu, nu))
    return pairs


def quantile_sup_distance(mu, nu):
    """sup over u in (0, 1) of |F^-1(u) - G^-1(u)| for laws on the line."""
    x, y = mu.coords()[:, 0], nu.coords()[:, 0]
    ox, oy = np.argsort(x), np.argsort(y)
    f, g = np.cumsum(mu.probs[ox]), np.cumsum(nu.probs[oy])
    f[-1] = g[-1] = 1.0
    cuts = np.unique(np.concatenate([[0.0], f, g]))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    i = np.minimum(np.searchsorted(f, mid), len(x) - 1)
    j = np.minimum(np.searchsorted(g, mid), len(y) - 1)
    return float(np.abs(x[ox][i] - y[oy][j]).max())


class TestWInfAgainstMaxFlow:
    @pytest.mark.parametrize("kind", W_INF_KINDS)
    def test_value_matches_reference(self, kind):
        for mu, nu in w_inf_instances(kind):
            reference, _ = w_inf_max_flow_search(mu, nu)
            assert abs(w_inf_discrete(mu, nu) - reference) <= 1e-12

    @pytest.mark.parametrize("kind", W_INF_KINDS)
    def test_witness_marginals_and_largest_move(self, kind):
        for mu, nu in w_inf_instances(kind, count=40):
            w, pi = w_inf_optimal_coupling(mu, nu)
            first = dict.fromkeys(mu.points, 0.0)
            second = dict.fromkeys(nu.points, 0.0)
            moves = []
            for (a, b), pr in zip(pi.points, pi.probs):
                first[a] += pr
                second[b] += pr
                moves.append(float(np.sqrt(np.sum((np.array(a) - np.array(b)) ** 2))))
            assert np.abs(np.array(list(first.values())) - mu.probs).max() <= 1e-12
            assert np.abs(np.array(list(second.values())) - nu.probs).max() <= 1e-12
            assert max(moves) == w

    @pytest.mark.parametrize("kind", W_INF_KINDS)
    def test_value_equals_restart_search(self, kind):
        # Starting at the stranded-mass bound and going on after a raise
        # must give the value of the search that started at the smallest
        # distance and restarted after every raise.
        for mu, nu in w_inf_instances(kind, count=40):
            assert w_inf_discrete(mu, nu) == w_inf_restart_search(mu, nu)[0]

    def test_one_dimensional_is_quantile_sup_distance(self):
        for mu, nu in w_inf_instances("random1", count=40):
            assert abs(w_inf_discrete(mu, nu) - quantile_sup_distance(mu, nu)) <= 1e-12

    def test_import_does_not_load_networkx(self):
        import amplify_dp

        src = pathlib.Path(amplify_dp.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = "import sys, amplify_dp, amplify_dp.cli; print('networkx' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, check=True)
        assert proc.stdout.strip() == "False"


def test_import_does_not_load_scipy():
    # Neither the import nor a normal draw in any sampler loads scipy.
    import amplify_dp

    src = pathlib.Path(amplify_dp.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "\n".join([
        "import sys, numpy as np, amplify_dp, amplify_dp.cli",
        "from amplify_dp import GaussianDist, sample",
        "from amplify_dp.diffusion import OuParams, ou_sample",
        "from amplify_dp.iteration import QuadraticLoss, SgdConfig, noisy_proj_sgd",
        "sample(GaussianDist([0.0], 1.0), 1, 10)",
        "ou_sample([1.0], OuParams(theta=1.0, rho=1.0, t=1.0, delta=1.0, R=1.0, d=1), 2, 10)",
        "cfg = SgdConfig(n=4, C=4.0, beta=1.0, rho=1.0, eta=0.25, sigma=1.0, dim=1, radius=1.0)",
        "noisy_proj_sgd(np.zeros(4), QuadraticLoss(1.0), cfg, seed=3)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_runtime_imports_are_stdlib_or_numpy():
    # numpy is the only runtime dependency; test oracles may import more.
    import amplify_dp

    for path in pathlib.Path(amplify_dp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", (path.name, name)
