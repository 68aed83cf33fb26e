import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from amplify_dp._quadrature import integrate
from amplify_dp._rng import normal_open, rng_from_seed, uniform_open
from amplify_dp.distributions import (
    DiscreteDist,
    GaussianDist,
    LaplaceDist,
    density,
    log_density,
    quadrature_domain,
)
from amplify_dp.mixing import DiscreteKernel, independent_coupling, mixture_decompose, pushforward
from amplify_dp.verify import draw_trials
from reference_impls import density_per_call, gaussian_density_numpy, log_density_per_call


def raises_exactly(text):
    """``pytest.raises`` for a ValueError whose whole message is ``text``."""
    return pytest.raises(ValueError, match=f"^{re.escape(text)}$")


class TestDiscreteDist:
    def test_valid_construction(self):
        d = DiscreteDist(["a", "b"], [0.25, 0.75])
        assert dict(zip(d.points, d.probs))["b"] == 0.75
        assert not d.has_coords

    def test_probs_must_sum_to_one(self):
        # The sum is printed as a Python float, whatever the numpy version;
        # 2e-12 is past PROB_ATOL.
        for probs, total in [([0.5, 0.4], 0.9), ([math.inf, 0.0], math.inf),
                             ([0.5, 0.5 + 2e-12], 0.5 + (0.5 + 2e-12))]:
            with raises_exactly(f"probabilities sum to {total!r}, not 1"):
                DiscreteDist(["a", "b"], probs)

    def test_negative_prob_rejected(self):
        for probs in ([1.5, -0.5], [-math.inf, 1.0], [math.inf, -math.inf]):
            with raises_exactly("probabilities must be non-negative numbers"):
                DiscreteDist(["a", "b"], probs)

    def test_nan_prob_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DiscreteDist(["a", "b"], [math.nan, 1.0])

    def test_duplicate_points_rejected(self):
        with raises_exactly("support points must be pairwise distinct"):
            DiscreteDist(["a", "a"], [0.5, 0.5])
        # A support that does not match probs in shape is rejected before that.
        for points, probs in [(["a", "b"], [[0.5, 0.5]]), (["a", "b"], [[0.5], [0.5]]),
                              (["a", "b", "c"], [0.5, 0.5]), (["a", "a"], [1.0])]:
            with raises_exactly("points and probs must be 1-D of equal length"):
                DiscreteDist(points, probs)

    def test_coords(self):
        d = DiscreteDist([(0.0, 1.0), (2.0, 3.0)], [0.5, 0.5])
        assert d.has_coords
        np.testing.assert_array_equal(d.coords(), [[0.0, 1.0], [2.0, 3.0]])

    def test_coordinate_free_rejected_by_coords(self):
        with pytest.raises(ValueError, match="no coordinates"):
            DiscreteDist(["a", "b"], [0.5, 0.5]).coords()

    def test_list_points_become_float_tuples(self):
        d = DiscreteDist([[0.0], [1.5]], [0.3, 0.7])
        assert d.points == ((0.0,), (1.5,))
        assert d.has_coords
        # A boolean is kept, not read as 1.0, and is no coordinate.
        d = DiscreteDist([[0.0], [True]], [0.3, 0.7])
        assert d.points == ((0.0,), (True,)) and type(d.points[1][0]) is bool
        assert not d.has_coords

    def test_value_types_compare_by_identity(self):
        # A generated __eq__ and __hash__ would compare and hash the numpy
        # arrays: == raised on ambiguous truth values, hash() on unhashable arrays.
        mu, nu = DiscreteDist(["a", "b"], [0.5, 0.5]), DiscreteDist(["a", "b"], [0.5, 0.5])
        assert (mu == nu) is False and (mu == mu) is True
        kernel = DiscreteKernel.from_matrix([[0.5, 0.5], [0.2, 0.8]])
        values = [mu, kernel, independent_coupling(mu, nu), mixture_decompose(mu, nu, 0.5),
                  draw_trials(2, (2, 3), 0, shared=True)]
        assert len(set(values)) == 5 and values[4] != draw_trials(2, (2, 3), 0, shared=True)

    def test_callers_array_stays_writeable(self):
        p = np.array([0.25, 0.75])
        d = DiscreteDist(["a", "b"], p)
        assert p.flags.writeable
        p[0] = 0.5
        assert d.probs[0] == 0.25
        assert not d.probs.flags.writeable

    def test_strided_input_stored_contiguous(self):
        matrix = np.array([[0.25, 0.1], [0.75, 0.9]])
        d = DiscreteDist(["a", "b"], matrix[:, 0])
        assert d.probs.flags.c_contiguous
        matrix[0, 0] = 0.0
        np.testing.assert_array_equal(d.probs, [0.25, 0.75])

    def test_pushforward_independent_of_input_layout(self):
        rng = np.random.default_rng(0)
        for n in range(2, 40):
            for m in (2, 5, 16):
                p = rng.exponential(size=n)
                p /= p.sum()
                k = rng.exponential(size=(n, m))
                kernel = DiscreteKernel.from_matrix(k / k.sum(axis=1, keepdims=True))
                points = list(kernel.input_points)
                strided = np.stack([p, p], axis=1)[:, 0]
                a = pushforward(DiscreteDist(points, p), kernel).probs
                b = pushforward(DiscreteDist(points, strided), kernel).probs
                assert a.tobytes() == b.tobytes()


class TestDensity:
    def test_standard_normal_at_mode(self):
        assert density(GaussianDist([0.0], 1.0), [0.0]) == pytest.approx(
            1 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_laplace_at_mode(self):
        assert density(LaplaceDist(0.0, 1.0), 0.0) == 0.5

    def test_gaussian_2d(self):
        assert density(GaussianDist([0.0, 0.0], 2.0), [0.0, 0.0]) == pytest.approx(
            1 / (4 * math.pi), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            density(GaussianDist([0.0, 0.0], 1.0), [0.0])
        with pytest.raises(ValueError, match="dimension"):
            density(GaussianDist([0.0], 1.0), [0.0, 1.0])

    def test_gaussian_rejects_non_numeric_point(self):
        # float64 conversion would read None as NaN.
        for x in (None, [None], [0.0, None]):
            with pytest.raises(TypeError, match="numeric"):
                density(GaussianDist([0.0], 1.0), x)
        with pytest.raises(TypeError, match="numeric"):
            density(GaussianDist([0.0, 0.0], 1.0), [0.0, None])

    def test_gaussian_1d_equals_numpy_form(self):
        # Float arithmetic on a 1-D point rounds exactly like the array form.
        rng = np.random.default_rng(5)
        for _ in range(2000):
            mean = float(rng.normal() * 10.0 ** rng.uniform(-3, 3))
            family = GaussianDist([mean], float(10.0 ** rng.uniform(-6, 6)))
            x = float(mean + rng.normal() * 10.0 ** rng.uniform(-3, 3))
            expected = gaussian_density_numpy(family, x)
            for point in (x, [x], (x,), np.array([x]), np.float64(x)):
                assert density(family, point) == expected

    @pytest.mark.parametrize("family", [
        GaussianDist([0.3], 1.7),
        LaplaceDist(-1.0, 0.8),
        LaplaceDist(0.0, 1e-3),
        GaussianDist([1.0], 1e3),
    ])
    def test_integrates_to_one(self, family):
        lo, hi = quadrature_domain(family)
        breaks = [family.loc] if not isinstance(family, GaussianDist) else []

        def f(x):
            return density(family, [x] if isinstance(family, GaussianDist) else x)

        def log_f(x):
            with np.errstate(divide="ignore"):
                return np.log([f(v) for v in x.tolist()])

        total = math.exp(integrate(log_f, lo, hi, rtol=1e-9, breakpoints=breaks))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianDist([0.0], 0.0)
        with pytest.raises(ValueError):
            LaplaceDist(0.0, -1.0)


class TestLogDensity:
    @pytest.mark.parametrize("family", [
        GaussianDist([0.3], 1.7),
        LaplaceDist(-1.0, 0.8),
        LaplaceDist(0.0, 1e-3),
        GaussianDist([1.0], 1e3),
        LaplaceDist(0.5, 1e3),
    ])
    def test_equals_log_of_density(self, family):
        # A few ulps wherever the density is a normal float.
        lo, hi = quadrature_domain(family)
        x = np.linspace(2.0 * lo, 2.0 * hi, 4001)
        values = np.array([density(family, v) for v in x.tolist()])
        normal = values >= np.finfo(np.float64).tiny
        assert normal.sum() > 1000
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(log_density(family, x[normal]), np.log(values[normal]),
                                   rtol=4 * eps, atol=4 * eps)

    def test_higher_dimensional_gaussian_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            log_density(GaussianDist([0.0, 0.0], 1.0), np.zeros(3))


def outcome(fn, *args):
    """A value's type and bytes, or an error's type and message."""
    try:
        value = fn(*args)
    except (TypeError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return type(value), np.asarray(value, dtype=np.float64).tobytes()


# Moderate values, where a change of rounding shows in the density, and any others.
reals = st.one_of(st.floats(-50.0, 50.0), st.floats(allow_nan=True, allow_infinity=True))
scales = st.one_of(st.floats(0.1, 10.0), st.floats(min_value=0.0, exclude_min=True))
numbers = st.one_of(reals, st.integers(), st.booleans())


@st.composite
def laws(draw):
    try:
        return draw_law(draw)
    except ValueError as exc:
        # A law whose normalizer underflows to 0 or overflows is rejected where
        # it is built (test_underflowing_normalizer_rejected and
        # test_overflowing_normalizer_rejected): it has no density to compare.
        if not str(exc).endswith(("underflows to 0", "overflows")):
            raise
        reject()


def draw_law(draw):
    kind = draw(st.sampled_from(["gauss", "gauss-d", "laplace"]))
    loc = draw(st.one_of(st.floats(-5.0, 5.0), st.floats(allow_nan=False), st.integers(-10**6, 10**6)))
    if kind == "gauss":
        return GaussianDist([loc], draw(scales))
    if kind == "gauss-d":
        return GaussianDist(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=4)), draw(scales))
    return LaplaceDist(loc, draw(st.one_of(scales, st.integers(1, 10**6))))


class TestDensityEqualsPerCallFormula:
    # The laws hold their constants; density and log_density keep the bits,
    # the result types and the errors of the formulas that recompute them.
    @settings(max_examples=400, deadline=None)
    @given(laws(), numbers)
    @example(GaussianDist([0.5], 7.573), -0.48)  # where (2 pi v) ** 0.5 and sqrt(2 pi v) give two densities
    def test_density_at_a_number(self, law, x):
        points = [x, np.float64(x) if isinstance(x, float) else np.int64(x) if -2**63 <= x < 2**63 else x]
        if isinstance(law, GaussianDist):
            points += [[x], (x,), np.array([x], dtype=object if isinstance(x, int) else np.float64)]
        with np.errstate(all="ignore"):
            for point in points:
                assert outcome(density, law, point) == outcome(density_per_call, law, point)

    @settings(max_examples=200, deadline=None)
    @given(laws(), st.lists(reals, min_size=1, max_size=5))
    def test_density_at_a_point_and_log_density(self, law, x):
        with np.errstate(all="ignore"):
            if isinstance(law, GaussianDist):
                for point in (x, tuple(x), np.array(x), x[:law.dim], [*x, 0.0]):
                    assert outcome(density, law, point) == outcome(density_per_call, law, point)
            assert outcome(log_density, law, np.array(x)) == outcome(log_density_per_call, law, np.array(x))

    def test_on_a_random_grid(self):
        # Many typical laws and points, where a change of rounding shows.
        rng = np.random.default_rng(11)
        for _ in range(400):
            loc, x = rng.normal(size=2) * 10.0 ** rng.uniform(-2.0, 2.0, 2)
            s1 = 10.0 ** rng.uniform(-3.0, 3.0)
            xs = loc + rng.normal(size=8) * s1
            for law in (GaussianDist([loc], s1), LaplaceDist(loc, s1)):
                for point in (x, *xs.tolist()):
                    assert outcome(density, law, point) == outcome(density_per_call, law, point)
                assert outcome(log_density, law, xs) == outcome(log_density_per_call, law, xs)

    @pytest.mark.parametrize("law", [GaussianDist([0.5], 2.0), GaussianDist([0.5, 1.0], 2.0),
                                     LaplaceDist(0.5, 2.0), GaussianDist([0.5, 1.0, 1.5], 2.0)])
    @pytest.mark.parametrize("x", [object(), None, [None], (None,), [0.0, None], [], [1.0, 2.0, 3.0],
                                   np.zeros((2, 2)), "1.5"])
    def test_errors_keep_type_and_message(self, law, x):
        want = outcome(density_per_call, law, x)
        assert outcome(density, law, x) == want
        assert outcome(log_density, law, x) == outcome(log_density_per_call, law, x)

    @pytest.mark.parametrize("make, message", [
        (lambda: GaussianDist([0.0, 0.0, 0.0], 5e-324), "the normalizer (2 pi variance)^(dim/2) underflows to 0"),
        (lambda: GaussianDist([0.0] * 40, 1e-20), "the normalizer (2 pi variance)^(dim/2) underflows to 0"),
    ])
    def test_underflowing_normalizer_rejected(self, make, message):
        # density would divide by 0; the law is refused where it is built.
        with raises_exactly(message):
            make()

    @pytest.mark.parametrize("mean, variance", [
        ([0.0] * 4, 1e300),  # (2 pi v)^2 leaves the range: Python's float ** raises OverflowError
        ([0.0] * 2, 1e308),  # 2 pi v is +inf
        ([0.0], 1e308),  # 2 pi v is +inf: density would be 0 and log_density -inf at every x
        ([0.0], 2.9e307),
    ])
    def test_overflowing_normalizer_rejected(self, mean, variance):
        with raises_exactly("the normalizer (2 pi variance)^(dim/2) overflows"):
            GaussianDist(mean, variance)

    def test_laws_at_the_edge_of_overflow_keep_a_density(self):
        # 2 pi 2.8e307 is finite: the 1-D density at the mean is 1 / sqrt(2 pi v).
        law = GaussianDist([0.0], 2.8e307)
        assert density(law, 0.0) == 1.0 / (2.0 * math.pi * 2.8e307) ** 0.5
        assert log_density(law, [0.0]).tolist() == [-0.5 * math.log(2.0 * math.pi * 2.8e307)]
        assert density(GaussianDist([0.0] * 4, 1e150), [0.0] * 4) > 0.0

    def test_laws_at_the_edge_of_underflow_keep_a_density(self):
        # A 2-D normalizer of 2 pi 5e-324 stays positive.
        assert density(GaussianDist([0.0, 0.0], 5e-324), [0.0, 0.0]) == math.inf

    def test_unsupported_family(self):
        for fn in (density, log_density, density_per_call, log_density_per_call):
            with pytest.raises(TypeError, match="^unsupported family DiscreteDist$"):
                fn(DiscreteDist(["a"], [1.0]), 0.0)


class FixedIntegers:
    """Stands in for a generator whose integer draws are given, so that
    ``uniform_open`` yields exactly ``k / 2**53``."""

    def __init__(self, k):
        self.k = np.asarray(k, dtype=np.int64)

    def integers(self, low, high, size):
        return self.k.reshape(size)


def ulps(got, ref):
    return np.abs(got - ref) / np.spacing(np.abs(ref))


class TestNormalOpen:
    @pytest.mark.parametrize("seed", [2024, 7])
    def test_within_8_ulps_of_ndtri(self, seed):
        got = normal_open(rng_from_seed(seed), 10**5)
        assert ulps(got, ndtri(uniform_open(rng_from_seed(seed), 10**5))).max() <= 8

    def test_edge_uniforms_match_ndtri(self):
        # 2^-53, 2^-52, 0.5, about 1e-10, about 1 - 1e-10 and 1 - 2^-53.
        tail = round(1e-10 * 2**53)
        k = [1, 2, 2**52, tail, 2**53 - tail, 2**53 - 1]
        got = normal_open(FixedIntegers(k), 6)
        assert got[2] == 0.0
        assert ulps(got, ndtri(np.array(k) / 2.0**53)).max() <= 8

    def test_within_5_ulps_of_mpmath(self):
        k = np.unique(np.rint(np.geomspace(1, 2**52, 150)).astype(np.int64))
        k = np.concatenate([k, 2**53 - k])
        got = normal_open(FixedIntegers(k), k.size)
        with mpmath.workdps(40):
            for kk, z in zip(k.tolist(), got.tolist()):
                ref = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(kk) / mpmath.mpf(2)**53 - 1)
                assert abs(mpmath.mpf(z) - ref) <= 5 * np.spacing(abs(float(ref)))

    def test_shape_preserved(self):
        flat = normal_open(rng_from_seed(3), 12)
        grid = normal_open(rng_from_seed(3), (4, 3))
        assert (flat.shape, grid.shape) == ((12,), (4, 3))
        np.testing.assert_array_equal(grid.ravel(), flat)
