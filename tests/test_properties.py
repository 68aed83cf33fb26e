"""Property-based checks of the algebraic invariants, and of the CLI on
well-typed configs."""

import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amplify_dp import cli
from amplify_dp.distributions import DiscreteDist
from amplify_dp.divergences import DpGuarantee, hockey_stick, hockey_stick_via_min, tv
from amplify_dp.iteration import IterationChain, winf_path_bound
from amplify_dp.mixing import AMPLIFY_CONDITIONS, amplify


def masses(min_size=2, max_size=8):
    return st.lists(st.floats(1e-6, 1.0), min_size=min_size, max_size=max_size)


def dist_pair():
    return st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n),
            st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n),
        )
    )


def normalize(weights):
    arr = np.asarray(weights, dtype=np.float64)
    return DiscreteDist.from_probs(arr / arr.sum())


@settings(max_examples=80, deadline=None)
@given(dist_pair(), st.floats(0.0, 5.0))
def test_hockey_stick_forms_agree(pair, eps):
    mu, nu = map(normalize, pair)
    assert abs(hockey_stick(mu, nu, eps) - hockey_stick_via_min(mu, nu, eps)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(dist_pair(), st.floats(0.0, 3.0), st.floats(0.0, 2.0))
def test_hockey_stick_monotone(pair, eps, bump):
    mu, nu = map(normalize, pair)
    assert hockey_stick(mu, nu, eps + bump) <= hockey_stick(mu, nu, eps) + 1e-12


@settings(max_examples=50, deadline=None)
@given(dist_pair())
def test_hockey_stick_at_zero_is_tv(pair):
    mu, nu = map(normalize, pair)
    assert hockey_stick(mu, nu, 0.0) == tv(mu, nu)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 20.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from(AMPLIFY_CONDITIONS))
def test_amplify_never_weakens(eps, delta, gamma, condition):
    out = amplify(DpGuarantee(eps, delta), condition, gamma)
    assert out.epsilon <= eps + 1e-12
    assert out.delta <= delta + 1e-9 or condition == "doeblin"
    assert 0.0 <= out.delta <= 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.floats(0.05, 1.0), st.floats(0.1, 3.0),
       st.floats(1.1, 64.0), st.floats(0.1, 2.0))
def test_path_bound_scaling(r, lipschitz, sigma, alpha, scale):
    # The bound is quadratic in the increments and linear in alpha.
    chain = IterationChain(r, lipschitz, sigma, 1.0)
    increments = [1.0 / (i + 1) for i in range(r)]
    base = winf_path_bound(chain, increments, alpha).epsilon
    scaled = winf_path_bound(chain, [scale * d for d in increments], alpha).epsilon
    assert math.isclose(scaled, scale**2 * base, rel_tol=1e-9, abs_tol=1e-15)
    doubled = winf_path_bound(chain, increments, 2 * alpha).epsilon
    assert math.isclose(doubled, 2 * base, rel_tol=1e-12, abs_tol=1e-15)


LABELS = ["a", "b", "c", "d", "e"]


def weights(n):
    # Masses with exact zeros mixed in; at least one entry is positive.
    return st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=n, max_size=n).filter(
        lambda w: sum(w) > 0.0)


def kernel_rows():
    return st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda nm: st.lists(weights(nm[1]), min_size=nm[0], max_size=nm[0]))


def dist_config():
    return st.integers(1, len(LABELS)).flatmap(
        lambda n: st.tuples(st.permutations(LABELS).map(lambda p: p[:n]), weights(n))
    ).map(lambda pw: {"points": list(pw[0]),
                      "probs": list(np.asarray(pw[1]) / np.sum(pw[1]))})


def run_cli_output(command, config, seed=None):
    """Exit code and written output of one CLI run on ``config``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out.csv")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        seed_args = [] if seed is None else ["--seed", str(seed)]
        code = cli.main([command, "--config", path, "--out", out, *seed_args])
        if not os.path.exists(out):
            return code, ""
        with open(out, encoding="utf-8") as fh:
            return code, fh.read()


def run_cli_config(command, config, seed=None):
    return run_cli_output(command, config, seed)[0]


def assert_finite_bounds_or_exit_2(command, config):
    # Every config value is finite, so a bound is either finite or rejected
    # with exit 2; numpy must not warn on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli_output(command, config)
    assert code in (0, 2)
    if code == 0:
        rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
        assert all(math.isfinite(float(row.rsplit(",", 1)[1])) for row in rows)


@settings(max_examples=150, deadline=None)
@given(kernel_rows(), st.floats(0.0, 1e6), st.floats(0.0, 1.0))
def test_mixing_command_never_raises(rows, eps, delta):
    kernel = [list(np.asarray(r) / np.sum(r)) for r in rows]
    config = {"kernel": kernel, "eps": eps, "delta": delta}
    assert run_cli_config("mixing", config) in (0, 2)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["hockey_stick", "hockey_stick_via_min", "tv", "renyi"]),
       dist_config(), dist_config(), st.floats(0.0, 1e6), st.floats(0.0, 1e6))
def test_divergence_command_never_raises(kind, mu, nu, eps, alpha):
    config = {"kind": kind, "mu": mu, "nu": nu, "eps": eps, "alpha": alpha}
    assert run_cli_config("divergence", config) in (0, 2)


def magnitudes(zero=False):
    # Positive floats over the whole double range, and 0 where the field allows it.
    positive = st.floats(5e-324, 1.7e308)
    return st.one_of(st.just(0.0), positive) if zero else positive


def ou_config():
    common = st.fixed_dictionaries({
        "delta": magnitudes(zero=True), "R": magnitudes(zero=True), "d": st.integers(1, 1000),
        "t_grid": st.lists(magnitudes(), min_size=1, max_size=4)})
    explicit = st.fixed_dictionaries({"theta": magnitudes(), "rho": magnitudes()})
    planned = st.fixed_dictionaries({"plan_epsilon": magnitudes()})
    return st.tuples(common, st.one_of(explicit, planned)).map(lambda cs: {**cs[0], **cs[1]})


@settings(max_examples=300, deadline=None)
@given(ou_config())
@example({"delta": 1.0, "R": 1.0, "d": 1, "t_grid": [1.0], "theta": 400.0, "rho": 1.0})
@example({"delta": 1.0, "R": 1.0, "d": 1, "t_grid": [1.0], "plan_epsilon": 1e-300})
def test_ou_command_never_raises(config):
    assert run_cli_config("ou", config) in (0, 2)


def optional(**fields):
    # A fixed dictionary in which every key may be left out.
    return st.fixed_dictionaries({}, optional=fields)


def iter_config():
    numbers = st.lists(magnitudes(), min_size=1, max_size=6)
    required = st.fixed_dictionaries({
        "r": st.integers(1, 6), "lipschitz": st.one_of(magnitudes(), numbers),
        "sigma": magnitudes(), "delta0": magnitudes(zero=True),
        "alpha": st.one_of(magnitudes(), numbers)})
    extra = optional(increments=st.lists(magnitudes(zero=True), min_size=1, max_size=6))
    return st.tuples(required, extra).map(lambda cs: {**cs[0], **cs[1]})


ITER_BASE = {"r": 1, "lipschitz": 1.0, "sigma": 1.0, "delta0": 1.0, "alpha": 2.0}


@settings(max_examples=300, deadline=None)
@given(iter_config())
@example({**ITER_BASE, "lipschitz": None})
@example({**ITER_BASE, "lipschitz": {"r": 1}})
@example({**ITER_BASE, "sigma": 1e-200, "delta0": 1e200})
@example({**ITER_BASE, "sigma": 4e-264})
@example({**ITER_BASE, "r": 2, "lipschitz": [1e-200, 1e-200], "increments": [1e300, 1.0]})
@example({**ITER_BASE, "r": 2, "lipschitz": 1e-200, "delta0": 1e150, "alpha": 1e300})
@example({**ITER_BASE, "delta0": 1e150, "alpha": 1e300})
@example({**ITER_BASE, "r": 2, "lipschitz": [1e200, 1e200], "increments": [1e200, 1.0]})
def test_iter_command_never_raises(config):
    assert_finite_bounds_or_exit_2("iter", config)


def sgd_config():
    required = st.fixed_dictionaries({
        "n": st.integers(1, 50), "C": magnitudes(), "sigma": magnitudes(zero=True),
        "beta": magnitudes(), "rho": magnitudes(), "eta": magnitudes(), "alpha": magnitudes()})
    extra = optional(dim=st.integers(1, 5), radius=magnitudes(),
                     indices=st.lists(st.one_of(st.integers(-1, 51), st.booleans()), max_size=4))
    return st.tuples(required, extra).map(lambda cs: {**cs[0], **cs[1]})


SGD_BASE = {"n": 3, "C": 1.0, "sigma": 1.0, "beta": 1.0, "rho": 1.0, "eta": 1.0, "alpha": 2.0}


@settings(max_examples=300, deadline=None)
@given(sgd_config())
@example({**SGD_BASE, "C": 1e200, "sigma": 1e-200})
@example({**SGD_BASE, "sigma": 4e-264})
@example({**SGD_BASE, "C": 1e200, "alpha": 1e300, "rho": 0.5})
@example({**SGD_BASE, "indices": [True]})
@example({**SGD_BASE, "C": 1e100, "alpha": 1e300})
def test_sgd_command_never_raises(config):
    assert_finite_bounds_or_exit_2("sgd", config)


def verify_config():
    sizes = st.tuples(st.integers(2, 16), st.integers(2, 16)).map(sorted)
    return st.fixed_dictionaries({
        "suites": st.sampled_from([["theorem1"], ["transport"], ["theorem1", "transport"]]),
        "trials": st.integers(1, 3), "sizes": sizes,
        "eps_grid": st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4)})


@settings(max_examples=150, deadline=None)
@given(verify_config(), st.integers(0, 2**32))
def test_verify_command_never_raises(config, seed):
    # The exact suites certify every bound on every instance: no violation either.
    assert run_cli_config("verify", config, seed) == 0
