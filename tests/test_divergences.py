import ast
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amplify_dp import _quadrature
from amplify_dp._quadrature import QuadratureError, integrate
from amplify_dp.diffusion import OuParams, ou_transition
from amplify_dp.distributions import DiscreteDist, GaussianDist, LaplaceDist, density, log_density
from amplify_dp.divergences import (
    DpGuarantee,
    _distances,
    _exp_times_stack,
    _hockey_sticks,
    _line_passes,
    _logsumexp,
    RdpPoint,
    exp_times,
    hockey_stick,
    renyi_discrete,
    renyi_numeric_1d,
    renyi_numeric_log,
    tv,
    w_inf_discrete,
    w_inf_optimal_coupling,
)
from amplify_dp.verify import random_instance
from amplify_dp.mixing import DiscreteKernel, eps_dobrushin_coeff, mixture_decompose, pushforward
from reference_impls import (
    hockey_stick_scalar,
    hockey_stick_via_min,
    line_pass,
    renyi_gaussian,
    renyi_laplace,
    renyi_numeric_1d_scalar,
    renyi_numeric_log_one,
    scalar_log_one,
    w_inf_bfs_search,
    w_inf_max_flow_search,
    w_inf_restart_search,
)


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


KERNEL_2X2 = DiscreteKernel.from_matrix([[0.7, 0.3], [0.4, 0.6]])


@pytest.mark.parametrize("call", [
    lambda: DpGuarantee(math.nan, 0.1),
    lambda: hockey_stick(MU, NU, math.nan),
    lambda: _hockey_sticks(MU.probs[None], NU.probs[None], [[0.5, math.nan]]),
    lambda: hockey_stick_via_min(MU, NU, math.nan),
    lambda: eps_dobrushin_coeff(KERNEL_2X2, math.nan),
    lambda: eps_dobrushin_coeff(KERNEL_2X2, [math.inf, math.nan]),
    lambda: mixture_decompose(MU, NU, math.nan),
], ids=["dp_guarantee", "hockey_stick", "hockey_stick_list", "hockey_stick_via_min",
        "eps_dobrushin", "eps_dobrushin_list", "mixture_decompose"])
def test_nan_eps_rejected(call):
    # A NaN eps fails every comparison, so a check written as eps < 0 let it
    # through: eps-Dobrushin read 0.0, mixture_decompose gave theta = 0.0 and
    # the hockey stick NaN.
    with pytest.raises(ValueError, match="eps"):
        call()


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

    def test_stacked_rows_equal_one_pair_calls(self):
        # Rows of q with three zero patterns, p with zeros of its own, and eps
        # lists of several lengths that reach +inf and exp_times' log branch.
        rng = np.random.default_rng(12)
        patterns = rng.uniform(size=(3, 9)) > 0.3
        patterns[0] = True
        p = rng.exponential(size=(40, 9)) * (rng.uniform(size=(40, 9)) > 0.2)
        q = rng.exponential(size=(40, 9)) * patterns[rng.integers(0, 3, size=40)]
        for m in (p, q):
            m[m.sum(axis=1) == 0.0, 0] = 1.0
            m /= m.sum(axis=1, keepdims=True)
        grid = [0.0, 0.5, math.inf, 710.0, 1e308]
        eps = [grid[:1 + i % len(grid)] for i in range(len(p))]
        got = _hockey_sticks(p, q, eps)
        for i, values in enumerate(eps):
            mu, nu = DiscreteDist.from_probs(p[i]), DiscreteDist.from_probs(q[i])
            assert got[i] == [hockey_stick(mu, nu, e) for e in values]
            assert got[i] == [hockey_stick_scalar(mu, nu, e) for e in values]

    def test_exp_times_at_infinite_eps(self):
        # e^eps * q at eps = +inf: exactly 0 where q is 0 and +inf on q's
        # support (a subnormal q included), alone and in a stack, with no warning.
        q = np.array([0.0, 5e-324, 0.25, 1.0, 0.0])
        want = [0.0, math.inf, math.inf, math.inf, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = exp_times(math.inf, q)
            stack = _exp_times_stack(np.array([[math.inf, 0.0], [1.0, math.inf]]), np.stack([q, q[::-1]]))
        assert alone.tolist() == want
        assert stack[0, 0].tolist() == want and stack[1, 1].tolist() == want[::-1]
        assert stack[0, 1].tolist() == q.tolist()
        assert stack[1, 0].tolist() == (math.exp(1.0) * q[::-1]).tolist()


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
        assert val == pytest.approx(renyi_laplace(1.0, 1.0, 2.0), abs=1e-6)

    def test_budget_exhaustion_reported(self, monkeypatch):
        p, q = GaussianDist([1.0], 1.0), GaussianDist([0.0], 1.0)
        monkeypatch.setattr(_quadrature, "MAX_EVALS", 50)
        with pytest.raises(QuadratureError):
            renyi_numeric_1d(lambda x: density(p, [x]), lambda x: density(q, [x]),
                             2.0, (-40.0, 41.0), tol=1e-14)

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


def oracle_outcome(fn, *args, **kwargs):
    """A float's bits, or a ``QuadratureError``'s type and message."""
    try:
        return fn(*args, **kwargs).hex()
    except QuadratureError as exc:
        return type(exc), str(exc)


def signed(density, negative):
    """``density`` made negative (not representable as a log) on the interval ``negative``."""
    lo, hi = negative
    return lambda x: -density(x) if lo <= x <= hi else density(x)


PROBES = [(shift, alpha) for shift in (1.0, 3.0) for alpha in (2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 64.0)]


class TestScalarAdapter:
    # renyi_numeric_1d takes one log pass over both densities; its values and
    # errors are those of the per-density adapters on the one-integral loop.
    def cases(self):
        for law_p, law_q, alpha, domain, breakpoints in sound_reference_laws(count=24):
            yield scalar_density(law_p), scalar_density(law_q), alpha, domain, breakpoints
        for shift, alpha in PROBES:  # densities underflow to 0 in both tails
            p, q = GaussianDist([shift], 1.0), GaussianDist([0.0], 1.0)
            yield (lambda x, p=p: density(p, [x])), (lambda x, q=q: density(q, [x])), alpha, (-40.0, 40.0 + shift), ()
        p, q = scalar_density(GaussianDist([1.0], 1.0)), scalar_density(GaussianDist([0.0], 1.0))
        # Negative where the integrand is negligible, then where it is not.
        yield signed(p, (25.0, 41.0)), q, 2.0, (-40.0, 41.0), ()
        yield p, signed(q, (-40.0, -20.0)), 4.0, (-40.0, 41.0), ()
        yield signed(p, (0.5, 0.6)), q, 2.0, (-40.0, 41.0), ()
        yield p, (lambda x: 0.0 if x > 2.0 else q(x)), 2.0, (-40.0, 41.0), ()

    def test_equals_per_density_adapters_on_one_integral_loop(self):
        errors = 0
        for p, q, alpha, domain, breakpoints in self.cases():
            want = oracle_outcome(renyi_numeric_log_one, scalar_log_one(p), scalar_log_one(q), alpha, domain,
                                  breakpoints=breakpoints)
            assert oracle_outcome(renyi_numeric_1d, p, q, alpha, domain, breakpoints=breakpoints) == want
            errors += isinstance(want, tuple)
        assert errors >= 7  # five probes, the non-negligible negative band and the zero cut

    @pytest.mark.parametrize("value", [0.0, -0.0, -1e-300, -1.0, math.nan])
    def test_not_positive_density_has_nan_log(self, value):
        # Not an exact zero (-inf, which makes the moment +inf) but a NaN log:
        # next to a non-negligible integrand it is an error.
        with pytest.raises(QuadratureError, match="where it is not representable$"):
            renyi_numeric_1d(lambda x: 1.0, lambda x: value if x > 0.5 else 1.0, 2.0, (0.0, 1.0))

    def test_work_counts(self, monkeypatch):
        # The oracle-sweep probes: one scalar call per density per point and
        # one log-integrand call per sweep, pinned so that no speed-up can come
        # from skipping evaluations.
        calls, evaluations = [0], []
        evaluate = _quadrature._evaluate
        monkeypatch.setattr(_quadrature, "_evaluate", lambda *args: evaluations.append(1) or evaluate(*args))
        for shift, alpha in PROBES:
            try:
                gaussian_probe(shift, alpha, calls)
            except QuadratureError:
                pass
        assert (calls[0], len(evaluations)) == (14088, 91)


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

    @pytest.mark.parametrize("a,b", [(-math.inf, 1.0), (0.0, math.inf), (-1e308, 1e308)])
    def test_engine_rejects_non_finite_domain(self, a, b):
        # A domain whose length is not finite used to end in a ValueError about
        # converting NaN to an integer, from the seeding.
        with pytest.raises(ValueError, match=r"domain \(.*\) must have a finite length"):
            integrate(lambda x: -x * x, a, b)
        with pytest.raises(ValueError, match="must have a finite length"):
            renyi_numeric_log(partial(log_density, GaussianDist([1.0], 1.0)),
                              partial(log_density, GaussianDist([0.0], 1.0)), 2.0, (a, b))

    @pytest.mark.parametrize("rtol", [math.nan, 0.0, -1.0])
    def test_engine_rejects_non_positive_rtol(self, rtol):
        # Such a tolerance used to spend the whole evaluation budget and then
        # blame convergence.
        calls = [0]

        def log_f(x):
            calls[0] += 1
            return -x * x

        with pytest.raises(ValueError, match="rtol must be > 0"):
            integrate(log_f, -1.0, 1.0, rtol=rtol)
        with pytest.raises(ValueError, match="tol must be > 0"):
            renyi_numeric_log(log_f, log_f, 2.0, (-1.0, 1.0), tol=rtol)
        assert calls[0] == 0

    def test_engine_log_result_past_overflow(self):
        # exp(1000 - x) on [0, 1] integrates to e^1000 (1 - e^-1), far past the
        # largest double; the engine returns its log.
        val = integrate(lambda x: 1000.0 - x, 0.0, 1.0, rtol=1e-12)
        assert val == pytest.approx(1000.0 + math.log(-math.expm1(-1.0)), abs=1e-10)


# Laws whose masses sum to 1 - 1e-12, with their W-infinity distances.
W_INF_SHORT_TOTALS = [
    (DiscreteDist([(0.951,), (0.819,), (0.531,), (0.746,)],
                  [0.48601050465858897, 0.33064387631857317, 0.07738209927871914, 0.10596351974311867]),
     DiscreteDist([(0.266,)], [1.0]), 0.6849999999999999),
    (DiscreteDist([(0.43, 0.92), (0.3, 0.27), (0.54, 0.69), (0.05, 0.13), (0.27, 0.86)],
                  [0.35232107146832503, 0.1741579007727549, 0.10763851409346532, 0.32733320740628247,
                   0.038549306258172336]),
     DiscreteDist([(0.62, 0.36), (0.69, 0.82), (0.17, 0.34)],
                  [0.484634605468442, 0.0030991118802675653, 0.5122662826512904]), 0.5913543776789009),
]


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

    @pytest.mark.parametrize("mu, nu, expected", W_INF_SHORT_TOTALS)
    def test_law_short_of_one(self, mu, nu, expected):
        # mu holds 1 - 1e-12, which DiscreteDist accepts: all of it is routed.
        assert 1.0 - math.fsum(mu.probs.tolist()) > 0.99e-12
        w, pi = w_inf_optimal_coupling(mu, nu)
        assert w == w_inf_discrete(nu, mu) == expected
        assert max(_distances(np.array([a]), np.array([b]))[0, 0] for a, b in pi.points) == w

    @pytest.mark.parametrize("d", [1, 2])
    def test_start_bound_allows_for_unequal_totals(self, d):
        # mu holds 1 + 0.99e-12 and nu 1 - 0.99e-12.  mu's far atom of 2.5e-12
        # need not move: without it, all but 0.52e-12 of nu's total is routed
        # at distance 0, so it must not raise the lower bound.
        far = 2.5e-12
        mu = DiscreteDist([(0.0,) * d, (100.0,) * d], [1.0 + 0.99e-12 - far, far])
        nu = DiscreteDist([(0.0,) * d], [1.0 - 0.99e-12])
        assert w_inf_discrete(mu, nu) == 0.0

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
               "line", "line_lattice", "wide"]


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
    distances tie and atoms on both sides carry no mass; ``wide``: supports
    of 65 to 128 and of 129 to 200 points, n != m, in 2 and 3 dimensions, so
    a side's bitsets cross one or two 64-bit word boundaries (fixed,
    ``count`` is ignored).
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
    if kind == "wide":
        for k, (lo, hi) in enumerate([(65, 129), (65, 129), (129, 201), (129, 201)]):
            n, m = (int(v) for v in rng.choice(np.arange(lo, hi), size=2, replace=False))
            x, y = rng.normal(size=(n, 2 + k % 2)), rng.normal(size=(m, 2 + k % 2))
            pairs.append((coord_dist(x, rng.dirichlet(np.ones(n))), coord_dist(y, rng.dirichlet(np.ones(m)))))
        return pairs
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
    # On a wide instance the reference runs about 17 networkx max-flows over
    # up to 40,000 pairs; the wide values are checked == the two numpy
    # searches below, which agree with it on every other kind.
    @pytest.mark.parametrize("kind", [kind for kind in W_INF_KINDS if kind != "wide"])
    def test_value_matches_reference(self, kind):
        for mu, nu in w_inf_instances(kind):
            reference, _ = w_inf_max_flow_search(mu, nu)
            assert w_inf_discrete(mu, nu) == reference

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

    def test_peak_memory_bounded_by_differences(self):
        # The search holds bitsets, a sorted pair list and the flow as lists;
        # none of them may outgrow the n x m x d differences it starts from.
        rng = np.random.default_rng(256)
        mu, nu = (coord_dist(rng.uniform(size=(256, 2)), rng.dirichlet(np.ones(256))) for _ in "xy")
        tracemalloc.start()
        try:
            w_inf_discrete(mu, nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 256 * 256 * 2 * 8

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


@st.composite
def w_inf_laws(draw, d, n):
    """A law on up to ``n`` points of R^d: lattice points of {0..3}^d (tied
    distances) or floats, masses with exact zeros and at most two atoms below
    FLOW_ATOL, so what those leave unrouted stays well below it."""
    coords = st.integers(0, 3).map(float) if draw(st.booleans()) else st.floats(-4.0, 4.0)
    points = draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=n, unique=True))
    k = len(points)
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=k, max_size=k))
    tiny = dict(draw(st.lists(st.tuples(st.integers(1, max(k - 1, 1)), st.sampled_from([1e-13, 3e-13])),
                              max_size=2 if k > 1 else 0)))
    big = np.array([0.0 if i in tiny else v for i, v in enumerate(weights)])
    big[0] += big.sum() == 0.0
    probs = big / big.sum() * (1.0 - sum(tiny.values()))
    probs[list(tiny)] = list(tiny.values())
    return DiscreteDist(points, probs)


@st.composite
def w_inf_pairs(draw):
    d, n = draw(st.integers(1, 3)), draw(st.sampled_from([1, 4, 12]))
    mu = draw(w_inf_laws(d, n))
    return mu, mu if draw(st.booleans()) and n > 1 else draw(w_inf_laws(d, n))


@settings(max_examples=300, deadline=None)
@given(w_inf_pairs())
@example((coord_dist([[0.0, 0.0]], [1.0]), coord_dist([[3.0, 4.0]], [1.0])))
@example((coord_dist([[0.0, 0.0], [1.0, 0.0], [50.0, 0.0]], [0.5, 0.5 - 3e-13, 3e-13]),
          coord_dist([[0.0, 1.0], [1.0, 1.0]], [0.3, 0.7])))
def test_w_inf_phases_equal_numpy_searches(pair):
    # The search (the line pass on the line, blocking-flow phases above) gives
    # the value of the one-path-per-BFS search and of the search that restarted
    # after every raise, and a witness whose marginals are right and whose
    # largest move is the value.
    mu, nu = pair
    w, pi = w_inf_optimal_coupling(mu, nu)
    assert w == w_inf_discrete(mu, nu) == w_inf_bfs_search(mu, nu)[0] == w_inf_restart_search(mu, nu)[0]
    first, second = dict.fromkeys(mu.points, 0.0), dict.fromkeys(nu.points, 0.0)
    for (a, b), pr in zip(pi.points, pi.probs):
        first[a] += pr
        second[b] += pr
    assert np.abs(np.array(list(first.values())) - mu.probs).max() <= 1e-12
    assert np.abs(np.array(list(second.values())) - nu.probs).max() <= 1e-12
    assert max(_distances(np.array([a]), np.array([b]))[0, 0] for a, b in pi.points) == w


LINE_MASS = st.one_of(st.just(0.0), st.just(-0.0), st.sampled_from([5e-324, 1e-310, 2.2e-308]),
                      st.floats(1e-3, 1.0))


@st.composite
def line_pass_instances(draw):
    """Sorted sources and targets on the line (lattice points, so ties, or
    floats), the pairs within a threshold drawn among their distances, and one
    to three rows of masses on each side with zeros, -0.0 and subnormals."""
    coords = st.integers(0, 6).map(float) if draw(st.booleans()) else st.floats(-4.0, 4.0)
    x, y = (np.sort(draw(st.lists(coords, min_size=1, max_size=8))) for _ in "xy")
    dist = np.abs(x[:, None] - y[None, :])
    within = dist <= draw(st.sampled_from(sorted(set(dist.ravel().tolist()))))
    k = draw(st.integers(1, 3))
    p, q = (draw(st.lists(st.lists(LINE_MASS, min_size=size, max_size=size), min_size=k, max_size=k))
            for size in within.shape)
    return within, p, q


@settings(max_examples=300, deadline=None)
@given(line_pass_instances())
@example((np.array([[True, True, False], [False, True, True]]),
          [[0.5, 0.5], [5e-324, 1.0]], [[-0.0, 0.5, 0.5], [1.0, 0.0, 5e-324]]))
@example((np.array([[False, False], [True, False], [False, True]]),
          [[0.25, 0.5, 0.25]], [[0.5, 0.5]]))
def test_line_passes_equal_per_pair_line_pass(instance):
    # The stacked pass makes, for each pair of mass rows, the moves of the
    # per-pair line pass it replaced, bit for bit, and routes the same mass,
    # summed in the same order.
    within, p, q = instance
    n, m = within.shape
    first, stop = [0] * n, [0] * n
    for i, row in enumerate(within.tolist()):
        if any(row):
            first[i], stop[i] = row.index(True), m - row[::-1].index(True)
    moved, routed = _line_passes(p, q, first, stop)
    assert moved.shape == (len(p), n, m)
    for k, (row_p, row_q) in enumerate(zip(p, q)):
        ref_moves, ref_routed = line_pass(within, np.array(row_p), np.array(row_q))
        # The moves run in row-major order, at most one per cell, and every other cell is +0.0.
        expected = np.zeros((n, m))
        for i, j, amount in ref_moves:
            expected[i, j] = amount
        assert moved[k].tobytes() == expected.tobytes()
        assert len(ref_moves) == np.count_nonzero(expected)
        assert routed[k].hex() == ref_routed.hex()


def test_import_does_not_load_scipy():
    # Neither the import nor a normal draw in any sampler loads scipy.
    import amplify_dp

    src = pathlib.Path(amplify_dp.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "\n".join([
        "import sys, amplify_dp, amplify_dp.cli",
        "from amplify_dp import GaussianDist, sample",
        "from amplify_dp.diffusion import OuParams, ou_sample",
        "sample(GaussianDist([0.0], 1.0), 1, 10)",
        "ou_sample([1.0], OuParams(theta=1.0, rho=1.0, t=1.0, delta=1.0, R=1.0, d=1), 2, 10)",
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
