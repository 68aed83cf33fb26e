"""Property-based checks of the algebraic invariants, and of the CLI on
well-typed configs."""

import json
import math
import os
import tempfile
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amplify_dp import _quadrature, cli, mixing, verify
from amplify_dp._quadrature import QuadratureError
from amplify_dp.distributions import DiscreteDist, GaussianDist, LaplaceDist, log_density
from amplify_dp.divergences import (
    EXP_ARG_MAX,
    DpGuarantee,
    _hockey_sticks,
    aligned_masses,
    hockey_stick,
    tv,
    w_inf_optimal_coupling,
)
from amplify_dp.iteration import IterationChain, winf_path_bound
from amplify_dp.mixing import (
    AMPLIFY_CONDITIONS,
    Coupling,
    DiscreteKernel,
    amplify,
    amplify_with_kernel,
    dobrushin_coeff,
    doeblin_coeff,
    eps_dobrushin_coeff,
    eps_tilde,
    greedy_coupling,
    independent_coupling,
    mixture_decompose,
    pushforward,
    random_joint_coupling,
    transport_operator,
    ultra_coeff,
)
from reference_impls import (
    amplify_closed_forms,
    coupling_marginals_by_sum,
    dist_from_probs,
    eps_dobrushin_coeff_pairs,
    hockey_stick_scalar,
    hockey_stick_via_min,
    integrate_one,
    mixture_decompose_per_pair,
    northwest_corner_mass,
    random_joint_coupling_per_pair,
    render_rows_per_cell,
    sinkhorn_per_pair,
    sinkhorn_start_per_pair,
    stacked_transport_rows,
    transport_rows_per_trial,
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
    return dist_from_probs(arr / arr.sum())


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


@pytest.mark.parametrize("condition", AMPLIFY_CONDITIONS)
def test_amplify_step_equals_amplify(condition):
    # The private float step that theorem1 calls per row, the public amplify
    # and the closed forms as amplify wrote them out give the same bits.
    for gamma in (0.0, 0.3, 1.0):
        for eps in (0.0, 1.0, 699.0, 701.0, 1e3):
            for delta in (0.0, 0.5, 1.0):
                out = amplify(DpGuarantee(eps, delta), condition, gamma)
                step = mixing._amplify_step(eps, delta, condition, gamma)
                want = amplify_closed_forms(eps, delta, condition, gamma)
                assert [x.hex() for x in step] == [out.epsilon.hex(), out.delta.hex()] == [x.hex() for x in want]


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
    # One stacked call over a sequence of eps, on a stack of one pair, is ==
    # one call per eps, and == the 1-D sum the one-pair form used to take.
    mu, nu = pair
    _, p, q = aligned_masses(mu, nu)
    (batch,) = _hockey_sticks(p[None], q[None], [eps_values])
    assert batch == [hockey_stick(mu, nu, eps) for eps in eps_values]
    assert batch == [hockey_stick_scalar(mu, nu, eps) for eps in eps_values]
    assert _hockey_sticks(p[None], q[None], [tuple(eps_values)]) == [batch]
    assert _hockey_sticks(p[None], q[None], [np.asarray(eps_values, dtype=np.float64)]) == [batch]


def test_hockey_stick_sequence_rejects_negative_eps():
    mu, nu = DiscreteDist(["a", "b"], [0.5, 0.5]), DiscreteDist(["a", "b"], [0.2, 0.8])
    p, q = mu.probs[None], nu.probs[None]
    with pytest.raises(ValueError, match="non-negative"):
        _hockey_sticks(p, q, [[0.5, -1e-300, 1.0]])
    with pytest.raises(ValueError, match="non-negative"):
        hockey_stick(mu, nu, -1.0)
    assert _hockey_sticks(p, q, [[]]) == [[]]


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
    # Each pair through random_joint_coupling, and the pairs of one summation
    # class in a window of PAIR_BLOCK_ENTRIES = block as one Sinkhorn stack,
    # padded with zero atoms to its largest shape: both give the one-pair
    # loop's masses, and the padding stays 0.
    for (mu, nu), seed in zip(pairs, seeds):
        pi, ref = random_joint_coupling(mu, nu, seed), random_joint_coupling_per_pair(mu, nu, seed)
        assert (pi.first_points, pi.second_points) == (ref.first_points, ref.second_points)
        assert np.array_equal(pi.mass, ref.mass)
    with mock.patch.object(mixing, "PAIR_BLOCK_ENTRIES", block):
        windows = mixing._pair_windows([(len(mu.probs), len(nu.probs)) for mu, nu in pairs])
    for stack in (stack for window in windows for stack in window.values()):
        laws = [(pairs[i][0].probs, pairs[i][1].probs) for i in stack]
        n, m = (max(len(law[side]) for law in laws) for side in (0, 1))
        p, q, start = np.zeros((len(stack), n)), np.zeros((len(stack), m)), np.zeros((len(stack), n, m))
        for k, ((a, b), i) in enumerate(zip(laws, stack)):
            p[k, :a.size], q[k, :b.size] = a, b
            start[k, :a.size, :b.size] = sinkhorn_start_per_pair(a, b, seeds[i])
        mass = start.copy()
        mixing._sinkhorn_stack(p, q, mass)
        for k, (a, b) in enumerate(laws):
            solved = sinkhorn_per_pair(a, b, start[k, :a.size, :b.size].copy())
            assert np.array_equal(mass[k, :a.size, :b.size], solved)
            assert not mass[k, a.size:].any() and not mass[k, :, b.size:].any()


@settings(max_examples=120, deadline=None)
@given(st.lists(coupling_specs(), min_size=1, max_size=8), st.integers(0, 2**62),
       st.sampled_from([mixing.PAIR_BLOCK_ENTRIES, 1, 5, 6, 12, 13, 40]))
def test_random_joint_couplings_equal_per_pair_loop(specs, seed, block):
    # Sinkhorn, alone or stacked, gives masses == the one-pair loop, whatever
    # the mix of shapes, zero-mass atoms and stack splits.
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


def greedy_law(n):
    # Masses with exact zeros and subnormals mixed in, normalized.
    mass = st.one_of(st.just(0.0), st.just(5e-324), st.floats(1e-320, 1e-300), st.floats(1e-6, 1.0))
    return st.lists(mass, min_size=n, max_size=n).filter(lambda w: sum(w) > 1e-6).map(
        lambda w: DiscreteDist([f"z{i}" for i in range(n)], np.asarray(w) / np.sum(w)))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
    lambda nm: st.tuples(greedy_law(nm[0]), greedy_law(nm[1]))))
@example((DiscreteDist(["a", "b", "c"], [0.5, 5e-324, 0.5]), DiscreteDist(["u", "v", "w"], [5e-324, 1.0, 0.0])))
@example((DiscreteDist(["a", "b"], [0.0, 1.0]), DiscreteDist(["u", "v"], [0.0, 1.0])))
def test_greedy_coupling_equals_northwest_corner_loop(pair):
    # The line pass with every pair admissible gives the masses of the
    # northwest-corner loop it replaced, == entry by entry, zeros included.
    mu, nu = pair
    pi = greedy_coupling(mu, nu)
    assert (pi.first_points, pi.second_points) == (mu.points, nu.points)
    assert pi.mass.tobytes() == northwest_corner_mass(mu, nu).tobytes()


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
@given(st.sampled_from(["hockey_stick", "tv", "renyi", "w_inf"]),
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
@example({"delta": 1.0, "R": 1.0, "d": 1, "t_grid": [1e-320], "theta": 1.0, "rho": 1.0})
@example({"delta": 1.0, "R": 1.0, "d": 1, "t_grid": [1.0], "theta": 1e-320, "rho": 1.0})
@example({"delta": 1.0, "R": 0.0, "d": 1, "t_grid": [1.0], "theta": 1.0, "rho": 1.0})
def test_ou_command_never_raises(config):
    # Every config value is finite, so each cell is finite or the run exits
    # 2; only mse_pgm_bound may be NaN, and only at R = 0.
    code, text = run_cli_output("ou", config)
    assert code in (0, 2)
    if code == 0:
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
        for row in rows[1:]:
            cells = dict(zip(rows[0], map(float, row)))
            if config["R"] == 0.0:
                assert math.isnan(cells.pop("mse_pgm_bound"))
            assert all(map(math.isfinite, cells.values()))


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
# More rows than one rendered block: signed zeros, NaNs of both signs, a tiny
# value and repeats in one float column; float and np.float64 mixed in one
# column, and in another only past the first block.
@example([[[0.0, -0.0, math.nan, -math.nan, 1e-12, 1e-12, -0.0][i % 7],
           (float if i % 3 else np.float64)(i % 5 / 3),
           float(i % 11) if i < cli.CSV_BLOCK_ROWS else np.float64(i % 11), f"d,{i % 4}"]
          for i in range(cli.CSV_BLOCK_ROWS + 77)])
def test_render_csv_matches_per_cell_reference(rows):
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
    assert cli._render_csv("verify", {}, None, header, rows, []) == render_per_cell(header, rows)


@pytest.mark.parametrize("seed", [1, 7, 30])
def test_render_csv_matches_per_cell_reference_on_verify_rows(seed):
    config = {"suites": ["theorem1", "transport", "diffusion"], "trials": 200}
    header, rows, _, code = cli.cmd_verify(config, seed)
    assert code == cli.EXIT_OK
    assert cli._render_csv("verify", {}, None, header, rows, []) == render_per_cell(header, rows)


# Masses with exact zeros and subnormals mixed in; each draw has positive mass.
SUBNORMALS = [5e-324, 1e-310, 2.2e-308]
EDGE_MASS = st.one_of(st.just(0.0), st.sampled_from(SUBNORMALS), st.floats(1e-3, 1.0))


def edge_weights(n):
    return st.lists(EDGE_MASS, min_size=n, max_size=n).filter(lambda w: sum(w) > 0.0)


@st.composite
def greedy_class_stacks(draw):
    """Pairs of mass vectors for one stacked greedy pass: their lengths n and
    m each of one summation class (1 to 7 or 8 to 15), masses with zeros and
    subnormals, normalized."""
    n_class, m_class = draw(st.sampled_from([(1, 7), (8, 15)])), draw(st.sampled_from([(1, 7), (8, 15)]))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        n, m = draw(st.integers(*n_class)), draw(st.integers(*m_class))
        pairs.append(tuple(np.asarray(w) / np.sum(w) for w in (draw(edge_weights(n)), draw(edge_weights(m)))))
    return pairs


@settings(max_examples=300, deadline=None)
@given(greedy_class_stacks())
@example([(np.array([1.0]), np.array([1.0])), (np.array([0.0, 1.0]), np.array([1.0, 0.0, 0.0]))])
@example([(np.array([0.5, 5e-324, 0.5 - 5e-324]), np.array([5e-324, 1.0 - 5e-324])),
          (np.array([0.25, 0.0, 0.75, 0.0]), np.array([0.0, 0.75, 0.25]))])
# A -0.0 atom: the move of no mass to it must leave its cell +0.0.
@example([(np.array([0.5, 0.5]), np.array([0.5, -0.0, 0.5]))])
# The last row keeps a rounding leftover once every column is full.
@example([(np.array([0.5, 0.5 + 2**-53]), np.array([1.0])), (np.array([0.3, 0.7]), np.array([0.6, 0.4]))])
def test_greedy_stack_equals_line_pass_and_northwest_corner_loop(pairs):
    # The pass on the zero-padded stack gives, for each pair, the masses of the
    # all-admissible line pass and of the northwest-corner loop, == entry by
    # entry, and leaves the padding 0.
    n, m = max(p.size for p, _ in pairs), max(q.size for _, q in pairs)
    p_stack, q_stack = np.zeros((len(pairs), n)), np.zeros((len(pairs), m))
    for k, (p, q) in enumerate(pairs):
        p_stack[k, :p.size], q_stack[k, :q.size] = p, q
    mass = mixing._greedy_masses(p_stack, q_stack)
    for k, (p, q) in enumerate(pairs):
        mu = DiscreteDist([f"x{i}" for i in range(p.size)], p)
        nu = DiscreteDist([f"y{j}" for j in range(q.size)], q)
        got = mass[k, :p.size, :q.size]
        assert got.tobytes() == greedy_coupling(mu, nu).mass.tobytes() == northwest_corner_mass(mu, nu).tobytes()
        assert not mass[k, p.size:].any() and not mass[k, :, q.size:].any()


@st.composite
def edge_instances(draw):
    """(mu, nu, kernel): laws on n points, n and m from 1, masses with zeros
    and subnormals; the kernel's rows are all equal about a third of the time."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    mu, nu = (DiscreteDist([f"x{i}" for i in range(n)], np.asarray(w) / np.sum(w))
              for w in (draw(edge_weights(n)), draw(edge_weights(n))))
    rows = draw(st.lists(edge_weights(m), min_size=1 if draw(st.booleans()) else n, max_size=n))
    rows = (rows * n)[:n]
    kernel = DiscreteKernel(np.asarray(rows) / np.sum(rows, axis=1, keepdims=True),
                            mu.points, [f"y{j}" for j in range(m)])
    return mu, nu, kernel


def assert_passes_public_checks(obj):
    """``obj`` comes out of the public constructor unchanged: points equal,
    arrays equal to the byte, and its arrays float64, C-contiguous and read-only."""
    cls = type(obj)
    ref = {DiscreteDist: lambda d: DiscreteDist(d.points, d.probs),
           DiscreteKernel: lambda k: DiscreteKernel(k.rows, k.input_points, k.output_points),
           Coupling: lambda c: Coupling(c.first_points, c.second_points, c.mass)}[cls](obj)
    for name in cls.__dataclass_fields__:
        got, want = getattr(obj, name), getattr(ref, name)
        if isinstance(got, np.ndarray):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
            assert got.flags.c_contiguous and not got.flags.writeable, name
        else:
            assert type(got) is tuple and got == want, name


EDGE_EPS = [0.0, EXP_ARG_MAX, 800.0, math.inf]


@settings(max_examples=200, deadline=None)
@given(edge_instances(), st.one_of(st.sampled_from(EDGE_EPS[:-1]), st.floats(0.0, 5.0)),
       st.integers(0, 2**62))
@example((DiscreteDist(["x0", "x1", "x2"], [0.5, 0.5, 0.0]), DiscreteDist(["x0", "x1", "x2"], [0.2, 0.3, 0.5]),
          None), 0.5, 3)
@example((DiscreteDist(["x0", "x1"], [0.6, 0.4]), DiscreteDist(["x0", "x1"], [0.6 - 1e-13, 0.4]), None), 0.0, 5)
def test_transport_rows_equal_per_trial_reference(instance, eps, seed):
    # The stacked rows of one trial are the one-coupling, one-pair calls'
    # rows, on zero and subnormal masses, zero-mass rows of a coupling and
    # levels where e^eps overflows; and the stacked decomposition is the
    # one-pair construction it replaced.
    mu, nu, _ = instance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pi = random_joint_coupling(mu, nu, seed)
        got = stacked_transport_rows(0, "edge", eps, mu, nu, pi)
        dec = mixture_decompose(mu, nu, eps)
    assert list(map(repr, got)) == list(map(repr, transport_rows_per_trial(0, "edge", eps, mu, nu, pi)))
    theta, *parts = mixture_decompose_per_pair(mu, nu, eps)
    assert dec.theta == theta
    for part, ref in zip((dec.omega, dec.mu_prime, dec.nu_prime), parts):
        assert (part is None) == (ref is None)
        assert part is None or part.probs.tobytes() == ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(edge_instances(), st.one_of(st.sampled_from(EDGE_EPS), st.floats(0.0, 5.0)),
       st.integers(0, 2**62))
@example((DiscreteDist(["x0"], [1.0]), DiscreteDist(["x0"], [1.0]),
          DiscreteKernel([[1.0]], ["x0"], ["y0"])), 0.0, 1)
@example((DiscreteDist(["x0", "x1"], [1.0 - 1e-310, 1e-310]), DiscreteDist(["x0", "x1"], [0.0, 1.0]),
          DiscreteKernel([[0.5, 0.5], [0.5, 0.5]], ["x0", "x1"], ["y0", "y1"])), EXP_ARG_MAX, 2)
@example((DiscreteDist(["x0", "x1"], [0.6, 0.4]), DiscreteDist(["x0", "x1"], [0.6 - 1e-13, 0.4]),
          DiscreteKernel([[5e-324, 1.0], [0.0, 1.0]], ["x0", "x1"], ["y0", "y1"])), 0.0, 3)
@example((DiscreteDist(["x0", "x1", "x2"], [0.253228034163217, 0.0, 1.0 - 0.253228034163217]),
          DiscreteDist(["x0", "x1", "x2"], [6.326693742485e-311, 1.0 - 6.326693742485e-311, 0.0]),
          DiscreteKernel(np.eye(3), ["x0", "x1", "x2"], [[0], [1], (2, 0.5)])), 712.8857212616125, 4)
def test_library_results_pass_the_public_checks(instance, eps, seed):
    # Every law, kernel and coupling the library builds without the public
    # checks would pass them: the checks it skips could never fail.
    mu, nu, kernel = instance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [pushforward(mu, kernel), pushforward(nu, kernel), doeblin_coeff(kernel)[1]]
        # The three couplings, Sinkhorn's included, and their transport operators.
        couplings = [independent_coupling(mu, nu), greedy_coupling(mu, nu)]
        couplings += [random_joint_coupling(mu, nu, seed), random_joint_coupling(nu, mu, seed + 1)]
        results += couplings + [transport_operator(pi) for pi in couplings]
        if math.isinf(eps):
            with pytest.raises(ValueError):
                mixture_decompose(mu, nu, eps)
        else:
            dec = mixture_decompose(mu, nu, eps)
            results += [dec.omega, dec.mu_prime, dec.nu_prime]
        n = len(mu.points)
        for d in (1, 2):
            # The witness of W-infinity between the same masses on points of the line and the plane.
            points = [(float(i), float(i % 2))[:d] for i in range(n)]
            results.append(w_inf_optimal_coupling(DiscreteDist(points, mu.probs),
                                                  DiscreteDist(points[::-1], nu.probs))[1])
        if n >= 2:
            results += verify.random_instance(n, 2 + seed % 3, seed)
    for obj in results:
        if obj is not None:
            assert_passes_public_checks(obj)


@settings(max_examples=200, deadline=None)
@given(edge_instances(),
       st.lists(st.one_of(st.sampled_from(EPS_EDGES), st.floats(0.0, 50.0)), max_size=8),
       st.sampled_from([mixing.PAIR_BLOCK_ENTRIES, 1, 7, 40]))
@example((None, None, DiscreteKernel([[1.0 - 1e-310, 1e-310], [1e-310, 1.0 - 1e-310]],
                                     ["x0", "x1"], ["y0", "y1"])),
         [0.0, 0.0, EXP_ARG_MAX, 710.0, 800.0, 1e6, math.inf, math.inf, 710.0], 1)
@example((None, None, DiscreteKernel([[0.25, 0.0, 0.75]], ["x0"], ["y0", "y1", "y2"])),
         EPS_EDGES + EPS_EDGES, 1)
def test_eps_dobrushin_sequence_form(instance, eps_values, block):
    # One call over a sequence of eps is == one call per eps, also where the
    # stacked tiles are split into single rows, and == the full pair array
    # wherever that can form e^eps.
    kernel = instance[2]
    with mock.patch.object(mixing, "PAIR_BLOCK_ENTRIES", block):
        batch = eps_dobrushin_coeff(kernel, eps_values)
        assert batch == [eps_dobrushin_coeff(kernel, eps) for eps in eps_values]
        assert eps_dobrushin_coeff(kernel, tuple(eps_values)) == batch
        assert eps_dobrushin_coeff(kernel, np.asarray(eps_values, dtype=np.float64)) == batch
    for eps, gamma in zip(eps_values, batch):
        if eps <= EXP_ARG_MAX or math.isinf(eps):
            assert gamma == eps_dobrushin_coeff_pairs(kernel.rows, eps)


def test_eps_dobrushin_sequence_rejects_negative_eps():
    kernel = DiscreteKernel.from_matrix([[0.7, 0.3], [0.4, 0.6]])
    with pytest.raises(ValueError, match="non-negative"):
        eps_dobrushin_coeff(kernel, [0.5, -1e-300])
    assert eps_dobrushin_coeff(kernel, []) == []


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda nm: st.lists(edge_weights(nm[1]), min_size=nm[0], max_size=nm[0])))
@example([[1.0]])
@example([[0.0, 0.0], [5e-324, 1.0]])
def test_coupling_marginals_equal_sequential_sum(rows):
    # The cumulative sums add each row and column in index order, as Python's
    # sum did, and come back as contiguous arrays of their own.
    mass = np.asarray(rows) / np.sum(rows)
    pi = Coupling([f"x{i}" for i in range(mass.shape[0])], [f"y{j}" for j in range(mass.shape[1])], mass)
    first, second = pi.marginals()
    ref_first, ref_second = coupling_marginals_by_sum(pi)
    assert np.array_equal(first, ref_first) and np.array_equal(second, ref_second)
    for marginal in (first, second):
        assert marginal.flags.c_contiguous and marginal.flags.owndata


class LogIntegrand:
    """A test log-integrand: a Gaussian or Laplace log-density of ``center``
    and ``scale``, with optional bands where it is an exact zero (-inf), not
    representable (NaN) or infinite (+inf), in that order of precedence."""

    def __init__(self, kind, center, scale, zero=None, nan=None, inf=None):
        self.kind, self.center, self.scale = kind, center, scale
        self.bands = [(band, value) for band, value in ((zero, -math.inf), (nan, math.nan), (inf, math.inf))
                      if band is not None]

    def __call__(self, x):
        z = (x - self.center) / self.scale
        out = -0.5 * z * z if self.kind == "gauss" else -np.abs(z) - math.log(2.0 * self.scale)
        for (lo, hi), value in self.bands:
            out = np.where((x >= lo) & (x <= hi), value, out)
        return out


def stacked(log_fs):
    """The stacked form of per-integral log-integrands."""
    def log_f(x, which):
        out = np.empty(len(x))
        for j in np.unique(which).tolist():
            mine = which == j
            out[mine] = log_fs[j](x[mine])
        return out
    return log_f


@st.composite
def integrals(draw):
    a = draw(st.floats(-30.0, 10.0))
    b = a + draw(st.floats(0.5, 60.0))
    center, scale = draw(st.floats(a - 5.0, b + 5.0)), draw(st.floats(0.05, 5.0))

    def band(chance):
        if draw(st.integers(0, chance - 1)):
            return None
        lo = draw(st.floats(a - 1.0, b))
        return lo, lo + draw(st.floats(0.0, (b - a) / 4.0))

    log_f = LogIntegrand(draw(st.sampled_from(["gauss", "laplace"])), center, scale,
                         zero=band(2), nan=band(2), inf=band(6))
    breakpoints = tuple(draw(st.lists(st.floats(a - 1.0, b + 1.0), max_size=3)))
    rtol = draw(st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.3]))
    return log_f, (a, b), rtol, breakpoints


def outcome(fn, *args, **kwargs):
    """A float's bits, or an exception's type and message."""
    try:
        return fn(*args, **kwargs).hex()
    except QuadratureError as exc:
        return type(exc), str(exc)


def stack_outcomes(specs):
    log_fs, domains, rtols, breakpoints = zip(*specs)
    got = _quadrature._integrate_stack(_quadrature._Stack(stacked(log_fs), domains, rtols, breakpoints))
    return [outcome(lambda: _quadrature._value(g)) for g in got]


@settings(max_examples=80, deadline=None)
@given(st.lists(integrals(), min_size=1, max_size=6), st.sampled_from([10**6, 4000, 600, 60]))
def test_integrate_stack_equals_one_integral_loop(specs, budget):
    # Each integral of a stack gets the value of the one-integral loop it
    # replaced, ==, or its error, of the same type with the same message:
    # a +inf log, a budget spent, or a NaN next to a non-negligible node.
    with mock.patch.object(_quadrature, "MAX_EVALS", budget):
        want = [outcome(integrate_one, log_f, a, b, rtol, breakpoints)
                for log_f, (a, b), rtol, breakpoints in specs]
        assert stack_outcomes(specs) == want
        assert [outcome(_quadrature.integrate, log_f, a, b, rtol, breakpoints)
                for log_f, (a, b), rtol, breakpoints in specs] == want


def test_integrate_stack_keeps_each_integrals_error():
    # One integral of each outcome in one stack: the failing ones leave with
    # their own errors, the others keep their bits.
    specs = [
        (LogIntegrand("gauss", 0.0, 1.0), (-40.0, 40.0), 1e-8, ()),
        (LogIntegrand("gauss", 0.0, 1.0, inf=(0.49, 0.51)), (-1.0, 1.0), 1e-8, ()),
        (LogIntegrand("gauss", 0.0, 1.0, nan=(0.2, 0.3)), (-5.0, 5.0), 1e-8, ()),
        (LogIntegrand("laplace", 0.3, 1.0), (-30.0, 30.0), 1e-14, ()),
        (LogIntegrand("laplace", 0.0, 2.0, zero=(-100.0, 100.0)), (-5.0, 5.0), 1e-8, ()),
        (LogIntegrand("laplace", 0.0, 1.0, nan=(35.0, 40.0)), (-40.0, 40.0), 1e-8, (0.0,)),
    ]
    with mock.patch.object(_quadrature, "MAX_EVALS", 4000):
        got = stack_outcomes(specs)
        assert got == [outcome(integrate_one, log_f, a, b, rtol, breakpoints)
                       for log_f, (a, b), rtol, breakpoints in specs]
    errors = [None, "log-integrand is +inf at x=", "integrand is not negligible next to x=",
              "quadrature exceeded 4000 evaluations", None, None]
    for g, error in zip(got, errors):
        assert isinstance(g, str) if error is None else (g[0] is QuadratureError and g[1].startswith(error))
    assert got[4] == (-math.inf).hex()


def test_lone_integrate_equals_one_integral_loop():
    # The oracle-sweep probes' moments alpha log p + (1 - alpha) log q for
    # N(s, 1) against N(0, 1), converged or failing, and a kinked Laplace moment.
    log_q = partial(log_density, GaussianDist([0.0], 1.0))
    specs = []
    for shift in (1.0, 3.0):
        log_p = partial(log_density, GaussianDist([shift], 1.0))
        for alpha in (2.0, 8.0, 24.0, 64.0):
            log_f = (lambda x, log_p=log_p, alpha=alpha: alpha * log_p(x) + (1.0 - alpha) * log_q(x))
            specs.append((log_f, (-40.0, 40.0 + shift), 0.5e-8 * (alpha - 1.0), ()))
    laplace = partial(log_density, LaplaceDist(1.0, 0.5))
    specs.append((lambda x: 2.0 * laplace(x) - log_density(LaplaceDist(0.0, 0.5), x), (-20.0, 21.0), 1e-8, (0.0, 1.0)))
    for budget in (10**6, 2000):
        with mock.patch.object(_quadrature, "MAX_EVALS", budget):
            for log_f, (a, b), rtol, breakpoints in specs:
                assert (outcome(_quadrature.integrate, log_f, a, b, rtol, breakpoints)
                        == outcome(integrate_one, log_f, a, b, rtol, breakpoints))
