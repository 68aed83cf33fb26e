"""Property-based checks of the algebraic invariants, and of the CLI on
well-typed configs."""

import json
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amplify_dp import cli, mixing
from amplify_dp.distributions import DiscreteDist
from amplify_dp.divergences import EXP_ARG_MAX, DpGuarantee, hockey_stick, hockey_stick_via_min, tv
from amplify_dp.iteration import IterationChain, winf_path_bound
from amplify_dp.mixing import (
    AMPLIFY_CONDITIONS,
    DiscreteKernel,
    amplify,
    amplify_with_kernel,
    dobrushin_coeff,
    doeblin_coeff,
    eps_dobrushin_coeff,
    eps_tilde,
    random_joint_couplings,
    ultra_coeff,
)
from reference_impls import (
    hockey_stick_scalar,
    random_joint_coupling_per_pair,
    render_rows_per_cell,
    sinkhorn_per_pair,
)


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


def guarantees():
    # eps = 0, eps = 800 (e^eps overflows) and delta = 0 (eps_tilde = inf) each
    # come up often.
    eps = st.one_of(st.sampled_from([0.0, 800.0]), st.floats(0.0, 1e3))
    delta = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    return st.lists(st.builds(DpGuarantee, eps, delta), max_size=5)


@settings(max_examples=150, deadline=None)
@given(kernel_rows(), guarantees())
@example([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]], [DpGuarantee(0.0, 0.0), DpGuarantee(800.0, 0.3)])
@example([[0.2, 0.8], [0.2, 0.8]], [DpGuarantee(1.0, 0.0), DpGuarantee(0.0, 0.5),
                                    DpGuarantee(800.0, 0.0)])
def test_amplify_with_kernel_sequence_form(rows, gs):
    # One call for many guarantees equals one call per guarantee, and equals
    # the coefficients measured directly and passed to amplify.
    kernel = DiscreteKernel.from_matrix([np.asarray(r) / np.sum(r) for r in rows])
    batch = amplify_with_kernel(kernel, gs)
    assert batch == [amplify_with_kernel(kernel, [g])[0] for g in gs]
    doeblin, _ = doeblin_coeff(kernel)
    for g, results in zip(gs, batch):
        gammas = {"dobrushin": dobrushin_coeff(kernel),
                  "eps_dobrushin": eps_dobrushin_coeff(kernel, eps_tilde(g)),
                  "doeblin": doeblin,
                  "ultra": ultra_coeff(kernel)}
        assert list(results) == list(AMPLIFY_CONDITIONS)
        assert results == {cond: (gamma, amplify(g, cond, gamma)) for cond, gamma in gammas.items()}


def support_pair():
    # mu on a0..a(n-1); nu on mu's first k points and `extra` points of its
    # own, so the supports may be disjoint (k = 0).  Zero masses on both sides.
    sizes = st.tuples(st.integers(1, 6), st.integers(0, 6), st.integers(0, 6)).filter(
        lambda s: s[1] <= s[0] and s[1] + s[2] >= 1)
    return sizes.flatmap(lambda s: st.tuples(weights(s[0]), weights(s[1] + s[2])).map(
        lambda w: (DiscreteDist([f"a{i}" for i in range(s[0])], np.asarray(w[0]) / np.sum(w[0])),
                   DiscreteDist([f"a{i}" for i in range(s[1])] + [f"b{j}" for j in range(s[2])],
                                np.asarray(w[1]) / np.sum(w[1])))))


EPS_EDGES = [0.0, EXP_ARG_MAX, 710.0, 800.0, 1e6, math.inf]


@settings(max_examples=200, deadline=None)
@given(support_pair(), st.lists(st.one_of(st.sampled_from(EPS_EDGES), st.floats(0.0, 50.0)),
                                max_size=8))
@example((DiscreteDist(["a0", "a1"], [0.5, 0.5]), DiscreteDist(["b0"], [1.0])), [0.0, 1.0, math.inf])
@example((DiscreteDist(["a0", "a1"], [0.25, 0.75]), DiscreteDist(["a0", "a1"], [0.0, 1.0])),
         EPS_EDGES)
def test_hockey_stick_sequence_form(pair, eps_values):
    # One call over a sequence of eps is == one call per eps, and == the
    # 1-D sum the scalar form used to take.
    mu, nu = pair
    batch = hockey_stick(mu, nu, eps_values)
    assert batch == [hockey_stick(mu, nu, eps) for eps in eps_values]
    assert batch == [hockey_stick_scalar(mu, nu, eps) for eps in eps_values]
    assert hockey_stick(mu, nu, tuple(eps_values)) == batch
    assert hockey_stick(mu, nu, np.asarray(eps_values, dtype=np.float64)) == batch


def test_hockey_stick_sequence_rejects_negative_eps():
    mu, nu = DiscreteDist(["a", "b"], [0.5, 0.5]), DiscreteDist(["a", "b"], [0.2, 0.8])
    with pytest.raises(ValueError, match="non-negative"):
        hockey_stick(mu, nu, [0.5, -1e-300, 1.0])
    with pytest.raises(ValueError, match="non-negative"):
        hockey_stick(mu, nu, -1.0)
    assert hockey_stick(mu, nu, []) == []


def coupling_specs():
    # Small shapes, so that pairs of one shape share a stack; `drift` scales
    # mu's masses by 1 + 5e-13, so the marginals disagree in their sums and
    # Sinkhorn runs to its sweep cap.
    return st.tuples(st.integers(1, 4), st.integers(1, 4), st.booleans()).flatmap(
        lambda s: st.tuples(weights(s[0]), weights(s[1]), st.just(s[2])))


def coupling_pair(w_mu, w_nu, drift=False):
    p = np.asarray(w_mu) / np.sum(w_mu) * (1.0 + 5e-13 if drift else 1.0)
    return (DiscreteDist([f"x{i}" for i in range(len(p))], p),
            DiscreteDist([f"y{j}" for j in range(len(w_nu))], np.asarray(w_nu) / np.sum(w_nu)))


def assert_couplings_equal_per_pair(pairs, seeds, block):
    with mock.patch.object(mixing, "PAIR_BLOCK_ENTRIES", block):
        batch = random_joint_couplings(pairs, seeds)
    assert len(batch) == len(pairs)
    for (mu, nu), seed, pi in zip(pairs, seeds, batch):
        ref = random_joint_coupling_per_pair(mu, nu, seed)
        assert (pi.first_points, pi.second_points) == (ref.first_points, ref.second_points)
        assert np.array_equal(pi.mass, ref.mass)


@settings(max_examples=120, deadline=None)
@given(st.lists(coupling_specs(), min_size=1, max_size=8), st.integers(0, 2**62),
       st.sampled_from([mixing.PAIR_BLOCK_ENTRIES, 1, 5, 12, 40]))
def test_random_joint_couplings_equal_per_pair_loop(specs, seed, block):
    # Stacked Sinkhorn gives masses == the one-pair loop, whatever the mix of
    # shapes, zero-mass atoms and stack splits.
    pairs = [coupling_pair(*spec) for spec in specs]
    assert_couplings_equal_per_pair(pairs, [seed + 3 * i for i in range(len(pairs))], block)


def test_random_joint_couplings_edge_cases():
    capped = coupling_pair([0.2, 0.3, 0.5], [0.6, 0.4], drift=True)
    # The drifted marginals never converge: the reference runs all 400 sweeps.
    ref = random_joint_coupling_per_pair(*capped, 5)
    assert np.abs(ref.mass.sum(axis=1) - capped[0].probs).max() > mixing.SINKHORN_ATOL
    pairs = [
        coupling_pair([0.2, 0.3, 0.5], [0.6, 0.4]),
        capped,
        coupling_pair([1.0], [0.25, 0.75]),              # 1-point first support
        coupling_pair([0.3, 0.7], [1.0]),                # 1-point second support
        coupling_pair([1.0], [1.0]),
        coupling_pair([0.0, 0.4, 0.6], [0.5, 0.0]),      # zero-mass atoms on both sides
        coupling_pair([0.1, 0.0, 0.9], [0.0, 1.0]),
        coupling_pair([0.6, 0.3, 0.1], [0.1, 0.9]),
        coupling_pair([0.5, 0.5, 0.0], [0.3, 0.7], drift=True),
    ]
    seeds = [5 * i + 1 for i in range(len(pairs))]
    for block in (mixing.PAIR_BLOCK_ENTRIES, 1, 6, 13):  # 3x2 stacks split at 6 and 13
        assert_couplings_equal_per_pair(pairs, seeds, block)


def test_sinkhorn_stack_freezes_converged_trials():
    # The first start meets its row marginals at sweep 0, though not its
    # column marginals; it must come out untouched while the other trials of
    # its stack keep sweeping, one of them to the cap.
    p = np.array([[0.25, 0.75], [0.4, 0.6], [0.4, 0.6 * (1.0 + 5e-13)]])
    q = np.array([[0.3, 0.7, 0.0], [0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
    rng = np.random.default_rng(3)
    start = np.stack([[[0.125, 0.125, 0.0], [0.375, 0.375, 0.0]],
                      rng.exponential(size=(2, 3)), rng.exponential(size=(2, 3))])
    assert np.abs(start[0].sum(axis=1) - p[0]).max() <= mixing.SINKHORN_ATOL
    mass = start.copy()
    mixing._sinkhorn_stack(p, q, mass)
    assert np.array_equal(mass[0], start[0])
    for k in range(3):
        assert np.array_equal(mass[k], sinkhorn_per_pair(p[k], q[k], start[k].copy()))
    assert np.abs(mass[2].sum(axis=1) - p[2]).max() > mixing.SINKHORN_ATOL


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


def render_per_cell(header, rows):
    """The CSV text with its table rendered by the per-cell reference."""
    head = cli._render_csv("verify", {}, None, header, [], [])
    return head + "".join(line + "\n" for line in render_rows_per_cell(rows))


FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
CELLS = {
    "float": FLOATS,
    "float64": FLOATS.map(np.float64),
    "int": st.integers(),
    "bool": st.booleans(),
    "str": st.text(st.sampled_from('ab ,"\n\r#')),
}


@st.composite
def csv_rows(draw):
    """Rows whose columns each mix one to three cell kinds; a column of one
    kind is all floats as often as any other."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    columns = []
    for _ in range(n_cols):
        kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=3))
        cells = st.one_of(*(CELLS[k] for k in kinds))
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    return [list(row) for row in zip(*columns)]


@settings(max_examples=300, deadline=None)
@given(csv_rows())
@example([])
@example([[math.nan, -0.0], [math.inf, 5e-324], [-math.inf, 0.0]])
@example([[1.0, np.float64(1.0)], [True, 'a,"b"\nc']])
def test_render_csv_matches_per_cell_reference(rows):
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
    assert cli._render_csv("verify", {}, None, header, rows, []) == render_per_cell(header, rows)


@pytest.mark.parametrize("seed", [1, 7, 30])
def test_render_csv_matches_per_cell_reference_on_verify_rows(seed):
    config = {"suites": ["theorem1", "transport", "diffusion"], "trials": 200}
    header, rows, _, code = cli.cmd_verify(config, seed)
    assert code == cli.EXIT_OK
    assert cli._render_csv("verify", {}, None, header, rows, []) == render_per_cell(header, rows)
