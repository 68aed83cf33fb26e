import csv
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest

import amplify_dp
from amplify_dp import cli, distributions, mixing, verify
from amplify_dp.diffusion import OuParams, ou_mse, ou_transition
from amplify_dp.distributions import DiscreteDist, GaussianDist, log_density
from amplify_dp.divergences import QuadratureError, renyi_numeric_log
from amplify_dp.divergences import DpGuarantee, hockey_stick
from amplify_dp.mixing import (
    Coupling,
    DiscreteKernel,
    amplify_with_kernel,
    doeblin_coeff,
    dobrushin_coeff,
    pushforward,
    transport_operator,
    ultra_coeff,
)
from amplify_dp.verify import (
    DIFFUSION_GRID,
    QUAD_TOL,
    TrialReport,
    certify_diffusion,
    certify_theorem1,
    certify_transport_and_decompose,
    draw_trials,
    mse_numeric,
    random_instance,
    reports_summary,
)
from reference_impls import (
    certify_diffusion_per_integral,
    certify_theorem1_per_trial,
    certify_transport_per_trial,
    mse_numeric_one,
    random_instance_per_trial,
    stacked_transport_rows,
)


def outcome(fn, *args):
    """A float's bits, or a ``QuadratureError``'s type and message."""
    try:
        return fn(*args).hex()
    except QuadratureError as exc:
        return type(exc), str(exc)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(4, 5, 99)
        b = random_instance(4, 5, 99)
        np.testing.assert_array_equal(a[0].probs, b[0].probs)
        np.testing.assert_array_equal(a[1].probs, b[1].probs)
        np.testing.assert_array_equal(a[2].rows, b[2].rows)

    def test_full_support(self):
        for seed in range(50):
            mu, nu, kernel = random_instance(2, 2, seed)
            assert np.all(mu.probs > 0) and np.all(nu.probs > 0)
            assert np.all(kernel.rows > 0)

    def test_coefficients_finite_and_ordered(self):
        for seed in range(100):
            _, _, kernel = random_instance(3, 4, seed)
            g_dob = dobrushin_coeff(kernel)
            g_doe, omega = doeblin_coeff(kernel)
            g_ultra = ultra_coeff(kernel)
            assert 0.0 <= g_dob <= g_doe + 1e-12
            assert g_doe <= g_ultra + 1e-12
            assert g_ultra < 1.0  # full support keeps ultra-mixing finite
            assert omega is not None

    def test_size_validation(self):
        with pytest.raises(ValueError):
            random_instance(1, 4, 0)

    def test_equals_per_trial_draws(self):
        # One draw of 2 nx + nx ny uniforms reads the same stream prefix as
        # the two draws, and rows normalized in a stack keep their bits.
        for seed in range(20):
            for nx, ny in ((2, 2), (2, 16), (16, 2), (7, 11), (16, 16)):
                got, ref = random_instance(nx, ny, seed), random_instance_per_trial(nx, ny, seed)
                assert got[0].probs.tobytes() == ref[0].probs.tobytes()
                assert got[1].probs.tobytes() == ref[1].probs.tobytes()
                assert got[2].rows.tobytes() == ref[2].rows.tobytes()
                assert (got[0].points, got[2].output_points) == (ref[0].points, ref[2].output_points)


@pytest.mark.parametrize("sizes,match", [
    ((1, 2), "must be >= 2"),
    ((0, 2), "must be >= 2"),
    ((3, 2), "lo <= hi"),
], ids=["lo-1", "lo-0", "lo-above-hi"])
def test_draw_trials_rejects_bad_sizes(sizes, match):
    # Unchecked, these sizes ended in an IndexError, a reshape ValueError or
    # numpy's "low >= high" inside the suites.
    with pytest.raises(ValueError, match=match):
        draw_trials(3, sizes, 0)


class TestCertifyTheorem1:
    def test_no_violations(self):
        reports = certify_theorem1(draw_trials(100, (2, 8), 5), (0.0, 0.5, 1.0, 2.0))
        assert len(reports) == 100 * 4 * 4
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("sizes", [(2, 2), (2, 16), (16, 16)])
    @pytest.mark.parametrize("eps_grid", [[0.0, 0.5, 1.0, 2.0], [0.0], [0.0, 710.0, 1e308]])
    def test_stacks_equal_per_trial_reference(self, sizes, eps_grid):
        # Every row, NaN cells included, is the per-trial loop's.  The last
        # grid reaches exp_times' log branch and delta_before == 0, where
        # eps-Dobrushin is read at eps_tilde = +inf.
        zero_deltas = 0
        for seed in range(10):
            got = certify_theorem1(draw_trials(40, sizes, seed), eps_grid)
            assert list(map(repr, got)) == list(map(repr, certify_theorem1_per_trial(40, sizes, eps_grid, seed)))
            zero_deltas += sum(r.delta_before == 0.0 for r in got)
        if 1e308 in eps_grid:
            assert zero_deltas > 0

    def test_reproducible(self):
        a = certify_theorem1(draw_trials(20, (2, 6), 3), (0.0, 1.0))
        b = certify_theorem1(draw_trials(20, (2, 6), 3), (0.0, 1.0))
        assert a == b

    def test_different_seed_differs(self):
        a = certify_theorem1(draw_trials(5, (2, 6), 1), (0.5,))
        b = certify_theorem1(draw_trials(5, (2, 6), 2), (0.5,))
        assert a != b

    def test_identity_kernel_keeps_guarantee(self):
        # gamma = 1 for every condition: the bound degenerates to the original
        # guarantee and still dominates the exact divergence.
        mu = DiscreteDist(["x0", "x1"], [0.5, 0.5])
        nu = DiscreteDist(["x0", "x1"], [0.9, 0.1])
        kernel = DiscreteKernel(np.eye(2), ["x0", "x1"], ["x0", "x1"])
        guarantees = [DpGuarantee(eps, hockey_stick(mu, nu, eps)) for eps in (0.0, 0.5, 1.0)]
        for results in amplify_with_kernel(kernel, guarantees):
            for cond, (gamma, out) in results.items():
                assert gamma == 1.0
                post = hockey_stick(pushforward(mu, kernel),
                                    pushforward(nu, kernel), out.epsilon)
                assert post <= out.delta + 1e-12

    def test_constant_kernel_collapses_divergence(self):
        omega = DiscreteDist(["y0", "y1"], [0.3, 0.7])
        kernel = DiscreteKernel(np.tile(omega.probs, (2, 1)), ["x0", "x1"], omega.points)
        mu = DiscreteDist(["x0", "x1"], [1.0, 0.0])
        nu = DiscreteDist(["x0", "x1"], [0.0, 1.0])
        assert dobrushin_coeff(kernel) == 0.0
        assert hockey_stick(pushforward(mu, kernel), pushforward(nu, kernel), 0.0) == 0.0

    def test_report_fields(self):
        (report,) = certify_theorem1(draw_trials(1, (2, 2), 0), (0.5,))[:1]
        assert isinstance(report, TrialReport)
        assert report.case.startswith("theorem1_")
        assert report.slack == report.bound - report.measured
        assert report.passed == (report.slack >= -report.tolerance)


class TestCertifyTransport:
    def test_no_violations(self):
        reports = certify_transport_and_decompose(draw_trials(60, (2, 10), 11))
        assert all(r.passed for r in reports)
        cases = {r.case for r in reports}
        assert {"transport_independent", "transport_greedy",
                "transport_random_joint", "decompose_theta"} <= cases

    def test_overlap_rows_exact(self):
        reports = certify_transport_and_decompose(draw_trials(40, (2, 10), 2))
        overlap_rows = [r for r in reports if r.case == "decompose_overlap"]
        assert overlap_rows
        assert all(r.measured == 0.0 for r in overlap_rows)

    def test_theta_matches_divergence(self):
        reports = certify_transport_and_decompose(draw_trials(40, (2, 10), 8))
        for r in reports:
            if r.case == "decompose_theta":
                assert r.measured <= 1e-12

    @pytest.mark.parametrize("sizes", [(2, 2), (2, 16), (16, 16), (2, 40), (7, 9), (120, 136)])
    def test_stacks_equal_per_trial_reference(self, sizes):
        # Every row is the per-trial suite's, at the default windows, at
        # windows of one trial each and at windows of a few trials, from the
        # suite's own draws, and on ten seeds from the shared ones at the
        # default windows.  (7, 9) spans two summation classes; (120, 136)
        # pads to 127 below 128 and solves exact-n stacks from 128 on, on
        # fewer seeds to bound runtime.
        for seed in range(3 if sizes[0] >= 100 else 40):
            want = list(map(repr, certify_transport_per_trial(12, sizes, seed)))
            if seed < 10:
                shared = draw_trials(12, sizes, seed, shared=True)
                assert list(map(repr, certify_transport_and_decompose(shared))) == want
            for block in (mixing.PAIR_BLOCK_ENTRIES, 1, 40, 300):
                with mock.patch.object(mixing, "PAIR_BLOCK_ENTRIES", block):
                    assert list(map(repr, certify_transport_and_decompose(draw_trials(12, sizes, seed)))) == want

    @pytest.mark.parametrize("seed", [0, 11, 30])
    def test_one_sinkhorn_stack_per_class(self, monkeypatch, seed):
        # 200 trials on 2..16 points fit one window and fall into three
        # summation classes: n < 8, 8 <= n < 16 and n = 16.
        calls, solve = [], verify._sinkhorn_stack
        monkeypatch.setattr(verify, "_sinkhorn_stack", lambda p, q, mass: calls.append(mass.shape) or solve(p, q, mass))
        certify_transport_and_decompose(draw_trials(200, (2, 16), seed))
        assert sorted(shape[1:] for shape in calls) == [(7, 7), (15, 15), (16, 16)]
        assert sum(shape[0] for shape in calls) == 200

    @pytest.mark.parametrize("block", [1, 40, 300, mixing.PAIR_BLOCK_ENTRIES])
    def test_class_stacks_stay_within_the_block(self, monkeypatch, block):
        # A class stack, padded to its largest trial, holds at most
        # max(PAIR_BLOCK_ENTRIES, one padded trial) entries.
        shapes, solve = [], verify._sinkhorn_stack
        monkeypatch.setattr(verify, "_sinkhorn_stack", lambda p, q, mass: shapes.append(mass.shape) or solve(p, q, mass))
        monkeypatch.setattr(mixing, "PAIR_BLOCK_ENTRIES", block)
        for trials, sizes in ((60, (2, 10)), (30, (2, 40)), (6, (100, 140))):
            certify_transport_and_decompose(draw_trials(trials, sizes, 5))
        assert any(k > 1 for k, _, _ in shapes) == (block > 40)
        assert all(k * n * m <= max(block, n * m) for k, n, m in shapes)

    def test_one_draw_gives_the_pair_and_the_sinkhorn_start(self, monkeypatch):
        # A trial's one shared draw of nx * max(ny + 2, nx) exponentials: its
        # first 2 nx + nx ny are random_instance's mu, nu and kernel, and its
        # first nx * nx the start that random_joint_coupling draws for that
        # pair, which is also what the transport suite draws on its own.
        starts, solve = [], mixing._sinkhorn_stack
        monkeypatch.setattr(mixing, "_sinkhorn_stack",
                            lambda p, q, mass: starts.append(mass.copy()) or solve(p, q, mass))
        for sizes in ((2, 16), (7, 9)):
            draws, own = draw_trials(10, sizes, 1, shared=True), draw_trials(10, sizes, 1)
            assert own.exponentials is None and own.offsets is None
            assert not draws.exponentials.flags.writeable and not draws.offsets.flags.writeable
            ends = list(draws.offsets[1:]) + [draws.exponentials.size]
            for t, (seed, (nx, ny)) in enumerate(zip(draws.seeds, draws.shapes)):
                draw = draws.exponentials[draws.offsets[t]:ends[t]]
                assert draw.size == nx * max(ny + 2, nx)
                pair = draw[:2 * nx].reshape(2, nx)
                pair = pair / pair.sum(axis=1, keepdims=True)
                rows = draw[2 * nx:nx * (ny + 2)].reshape(nx, ny)
                mu, nu, kernel = random_instance(nx, ny, seed)
                assert pair[0].tobytes() == mu.probs.tobytes() and pair[1].tobytes() == nu.probs.tobytes()
                assert (rows / rows.sum(axis=1, keepdims=True)).tobytes() == kernel.rows.tobytes()
                starts.clear()
                verify.random_joint_coupling(mu, nu, seed)
                assert starts[0][0].tobytes() == draw[:nx * nx].reshape(nx, nx).tobytes()
                for record in (draws, own):
                    laws, start = verify._transport_draws(record, [t])
                    assert laws[0].tobytes() == pair.tobytes() and start[0].tobytes() == starts[0][0].tobytes()

    @pytest.mark.parametrize("suites", [["theorem1"], ["transport"], ["theorem1", "transport"]])
    def test_each_trial_stream_drawn_once(self, monkeypatch, suites):
        # verify draws each seeded trial's stream once, whichever seeded
        # suites run: both suites read one shared draw.
        streams, make = [], mixing.rng_from_seed
        monkeypatch.setattr(mixing, "rng_from_seed", lambda seed: streams.append(seed) or make(seed))
        cli.cmd_verify({"suites": suites, "trials": 30, "sizes": [2, 16]}, 4)
        assert sorted(streams) == sorted(draw_trials(30, (2, 16), 4).seeds)

    def test_pushed_laws_equal_pushforward(self):
        # Each stacked first marginal is a strided column of a cumulative sum;
        # a product with that view differs from pushforward's in the last bit
        # on some of these laws, so the stack must push a contiguous copy.
        start = mixing._stream_exponentials(range(20), [100] * 20).reshape(20, 10, 10)
        laws = start[:, :2] / start[:, :2].sum(axis=2, keepdims=True)
        couplings = mixing._independent_masses(laws[:, 0], laws[:, 1])
        pushed, seconds = verify._pushforwards(couplings)
        points, strided_differs = [f"x{i}" for i in range(10)], False
        for mass, got, second in zip(couplings, pushed, seconds):
            op = transport_operator(Coupling(points, points, mass))
            first, want_second = Coupling(points, points, mass).marginals()
            assert got.tobytes() == pushforward(DiscreteDist(points, first), op).probs.tobytes()
            assert second.tobytes() == want_second.tobytes()
            strided = np.cumsum(mass, axis=1)[:, -1]
            strided_differs |= strided.tobytes() == first.tobytes() and not np.array_equal(
                strided @ op.rows, first @ op.rows)
        assert strided_differs

    def test_rows_of_near_equal_laws(self):
        # nu_prime is None here (no atom has p < q); its weight is
        # 1 - (1 - theta) = theta ~ 1e-13, so nu is rebuilt from omega alone.
        mu = DiscreteDist(["x0", "x1"], [0.6, 0.4])
        nu = DiscreteDist(["x0", "x1"], [0.6 - 1e-13, 0.4])
        pi = verify.random_joint_coupling(mu, nu, 5)
        reports = stacked_transport_rows(0, "near-equal", 0.0, mu, nu, pi)
        assert [r.case for r in reports][-3:] == [
            "decompose_theta", "decompose_reconstruction", "decompose_overlap"]
        assert all(r.passed for r in reports)

    def test_rows_with_a_zero_mass_first_atom(self):
        # The transport operator drops the zero-mass row, so the law it
        # pushes must drop that atom too.
        mu = DiscreteDist(["x0", "x1", "x2"], [0.5, 0.5, 0.0])
        nu = DiscreteDist(["x0", "x1", "x2"], [0.2, 0.3, 0.5])
        pi = verify.random_joint_coupling(mu, nu, 3)
        reports = stacked_transport_rows(0, "zero atom", 0.5, mu, nu, pi)
        assert [r.case for r in reports][:3] == [
            "transport_independent", "transport_greedy", "transport_random_joint"]
        assert all(r.passed for r in reports)


class TestCertifyDiffusion:
    def test_no_violations_small(self):
        reports = certify_diffusion()
        assert all(r.passed for r in reports)
        cases = {r.case for r in reports}
        assert cases == {"ou_rdp_quadrature", "brownian_rdp_quadrature",
                         "ou_mse_quadrature"}

    def test_reproducible(self):
        assert certify_diffusion() == certify_diffusion()

    def test_renyi_rows_meet_oracle_tolerance(self):
        # The Renyi oracle's own tol is 1e-8 on the divergence.
        rows = [r for r in certify_diffusion() if r.case.endswith("_rdp_quadrature")]
        assert len(rows) == 30
        worst = max(rows, key=lambda r: r.measured)
        assert worst.measured <= 1e-8, worst.descriptor

    def test_mse_rows(self):
        reports = [r for r in certify_diffusion() if r.case == "ou_mse_quadrature"]
        assert [r.trial_id for r in reports] == list(range(30, 36))
        assert [r.descriptor for r in reports] == [
            f"theta={theta},t={t}" for theta in (0.5, 1.0) for t in (0.25, 1.0, 3.0)]
        for r in reports:
            theta, t = (float(part.split("=")[1]) for part in r.descriptor.split(","))
            p = OuParams(theta=theta, rho=1.0, t=t, delta=1.0, R=1.0, d=1)
            assert r.coefficient == ou_mse(p, 1.0)
            assert (r.bound, r.tolerance) == (0.0, QUAD_TOL)
            assert r.measured <= 1e-11 * r.coefficient

    def test_equals_per_integral_reference(self):
        # One stacked quadrature call gives every row the bits of its own
        # one-integral loop.
        assert repr(certify_diffusion()) == repr(certify_diffusion_per_integral())

    def test_failing_integral_fails_its_row(self, monkeypatch):
        # At alpha = 32 the tilted moment of the t = 0.25 pairs lies past the
        # suite's domain, so three integrals fail the domain-end rule.
        default = certify_diffusion()
        monkeypatch.setitem(DIFFUSION_GRID, "alpha", (1.5, 2.0, 32.0))
        reports = certify_diffusion()
        assert repr(reports) == repr(certify_diffusion_per_integral())
        failed = [r for r in reports if not r.passed]
        assert [r.descriptor for r in failed] == [
            "theta=0.5,rho=0.8,t=0.25,alpha=32.0", "theta=1.0,rho=0.8,t=0.25,alpha=32.0",
            "t=0.25,alpha=32.0"]
        assert all(r.measured == math.inf and r.slack == -math.inf for r in failed)
        # The other rows keep their bits; only the trial ids move.
        kept = [r[1:] for r in reports if not r.descriptor.endswith("alpha=32.0")]
        assert repr(kept) == repr([r[1:] for r in default])
        # The one-item oracle still raises for the failing Brownian pair.
        law0, law1 = GaussianDist([0.0], 0.5), GaussianDist([1.0], 0.5)
        domain = (distributions.quadrature_domain(law0)[0], distributions.quadrature_domain(law1)[1])
        with pytest.raises(QuadratureError, match="not negligible at a domain end"):
            renyi_numeric_log(partial(log_density, law1), partial(log_density, law0), 32.0, domain)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_integral_exits_3(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setitem(DIFFUSION_GRID, "alpha", (1.5, 2.0, 32.0))
        config, out = tmp_path / "diffusion.json", tmp_path / f"out.{fmt}"
        config.write_text(json.dumps({"suites": ["diffusion"]}))
        code = cli.main(["verify", "--config", str(config), "--seed", "0", "--out", str(out), "--format", fmt])
        assert code == 3
        text = out.read_text()
        if fmt == "json":
            payload = json.loads(text)
            assert payload["metadata"] == ["violations: 3"]
            assert sum(row["measured"] == math.inf for row in payload["rows"]) == 3
        else:
            assert "# violations: 3\n" in text
            rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
            assert [row["descriptor"] for row in rows if row["measured"] == "inf"] == [
                "theta=0.5,rho=0.8,t=0.25,alpha=32.0", "theta=1.0,rho=0.8,t=0.25,alpha=32.0",
                "t=0.25,alpha=32.0"]

    def test_mse_numeric_is_second_moment(self):
        law = GaussianDist([0.3], 2.5)
        assert mse_numeric(law, 0.3) == pytest.approx(2.5, rel=1e-10)
        assert mse_numeric(law, -1.0) == pytest.approx(2.5 + 1.3**2, rel=1e-10)

    def test_mse_numeric_equals_one_integral_loop(self, monkeypatch):
        # The suite's OU laws about x0 = 1, and laws about points inside,
        # at and past their tails; at the default domain and at one the
        # domain-end rule rejects.
        laws = [(ou_transition([1.0], OuParams(theta=theta, rho=rho, t=t, delta=1.0, R=1.0, d=1)), 1.0)
                for theta, rho, t in itertools.product((0.5, 1.0), (0.8, 1.5), (0.25, 1.0, 4.0))]
        laws += [(GaussianDist([0.3], 2.5), x0) for x0 in (0.3, -1.0, 40.0, 1e3)]
        for scales in (distributions.QUAD_DOMAIN_SCALES, 3.0):
            monkeypatch.setattr(distributions, "QUAD_DOMAIN_SCALES", scales)
            outcomes = [[outcome(fn, law, x0) for fn in (mse_numeric, mse_numeric_one)] for law, x0 in laws]
            assert all(got == want for got, want in outcomes)
            assert any(isinstance(got, tuple) for got, _ in outcomes) == (scales == 3.0)

    def test_mse_numeric_applies_domain_end_rule(self, monkeypatch):
        # On +-3 standard deviations the second moment's integrand is not
        # negligible at the ends: the oracle must raise, not under-report.
        monkeypatch.setattr(distributions, "QUAD_DOMAIN_SCALES", 3.0)
        with pytest.raises(QuadratureError, match="domain end"):
            mse_numeric(GaussianDist([0.0], 1.0), 1.0)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_do_not_depend_on_seed(self, tmp_path, fmt):
        # The suite draws nothing, so every seed gives the same passing rows
        # (seed 30 used to fail a Monte-Carlo row).
        config = tmp_path / "diffusion.json"
        config.write_text(json.dumps({"suites": ["diffusion"]}))
        tables = []
        for seed in (0, 1, 7, 30, 123):
            out = tmp_path / f"out{seed}.{fmt}"
            code = cli.main(["verify", "--config", str(config), "--seed", str(seed),
                             "--out", str(out), "--format", fmt])
            assert code == 0
            text = out.read_text()
            if fmt == "json":
                payload = json.loads(text)
                assert payload["metadata"] == ["violations: 0"]
                tables.append(payload["rows"])
            else:
                assert "# violations: 0\n" in text
                tables.append([line for line in text.splitlines() if not line.startswith("#")])
        assert all(table == tables[0] for table in tables)
        assert len(tables[0]) == 36 + (fmt == "csv")

    def test_mc_samples_is_inert(self, tmp_path):
        outputs = []
        for extra in ({}, {"mc_samples": 100}, {"mc_samples": 10**6}):
            config, out = tmp_path / "verify.json", tmp_path / "verify.csv"
            config.write_text(json.dumps({"suites": ["diffusion"], **extra}))
            assert cli.main(["verify", "--config", str(config), "--seed", "4", "--out", str(out)]) == 0
            outputs.append([line for line in out.read_text().splitlines()
                            if not line.startswith("# config")])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_verify_does_not_load_scipy(self, tmp_path):
        # The diffusion suite is quadrature only, so a verify run never
        # imports scipy.
        config = tmp_path / "diffusion.json"
        config.write_text(json.dumps({"suites": ["diffusion"]}))
        src = pathlib.Path(amplify_dp.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = ("import sys; from amplify_dp import cli; "
                 f"code = cli.main(['verify', '--config', {str(config)!r}, '--seed', '30', "
                 f"'--out', {str(tmp_path / 'out.csv')!r}]); "
                 "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, check=True)
        assert proc.stdout.strip() == "0 []"


class TestTransportWindows:
    def test_rows_do_not_depend_on_window_size(self, monkeypatch):
        # Couplings are solved a window of trials at a time; the rows must not
        # depend on where the windows split.
        full = certify_transport_and_decompose(draw_trials(30, (2, 9), 13))
        for block in (1, 40, 300):
            monkeypatch.setattr(mixing, "PAIR_BLOCK_ENTRIES", block)
            assert certify_transport_and_decompose(draw_trials(30, (2, 9), 13)) == full

    def test_windows(self, monkeypatch):
        # The Sinkhorn stacks that the transport suite solves, keyed by their
        # summation widths, as lists of trial indices: trial i couples two
        # laws on sizes[i] points.
        def windows(sizes):
            return mixing._pair_windows([(n, n) for n in sizes])

        # One window: each summation class is one stack.
        assert windows([3, 4, 2, 5, 6]) == [{(7, 7): [0, 1, 2, 3, 4]}]
        assert windows([3, 9, 7, 15, 16, 127, 128, 128]) == [
            {(7, 7): [0, 2], (15, 15): [1, 3], (23, 23): [4], (127, 127): [5], (128, 128): [6, 7]}]
        monkeypatch.setattr(mixing, "PAIR_BLOCK_ENTRIES", 500)
        # Each trial counts at its padded width: 15 * 15 = 225 from 8 to 15
        # points, 7 * 7 = 49 below 8.  225 + 225 + 49 fit and one more 49 does
        # not; a pair larger than the bound is a window of its own.
        assert windows([9, 10, 3, 2, 30, 2]) == [
            {(15, 15): [0, 1], (7, 7): [2]}, {(7, 7): [3]}, {(31, 31): [4]}, {(7, 7): [5]}]

    def test_couplings_not_held_across_trials(self):
        # A 200 x 200 coupling fills a window of its own, and each is dropped
        # once its trial's rows are made: 12 trials peak about where 3 do,
        # where holding all couplings at once would add 9 x 320 KB.  verify
        # alone, draw included, is measured: the suite draws its trials a
        # window at a time when it runs without theorem1.
        def run(trials):
            cli.cmd_verify({"suites": ["transport"], "trials": trials, "sizes": [200, 200]}, 3)

        run(1)
        peaks = []
        for trials in (3, 12):
            tracemalloc.start()
            try:
                run(trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


def theorem1_csv_lines(tmp_path, trials, sizes, eps_grid, seed):
    """Table lines (header first) of ``amplify-dp verify`` on the theorem1 suite."""
    config, out = tmp_path / "verify.json", tmp_path / "verify.csv"
    config.write_text(json.dumps({"suites": ["theorem1"], "trials": trials,
                                  "sizes": list(sizes), "eps_grid": list(eps_grid)}))
    code = cli.main(["verify", "--config", str(config), "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return [line for line in out.read_text().splitlines() if not line.startswith("#")]


class TestReportExport:
    def test_csv_shape(self, tmp_path):
        reports = certify_theorem1(draw_trials(2, (2, 4), 1), (0.5,))
        lines = theorem1_csv_lines(tmp_path, 2, (2, 4), (0.5,), seed=1)
        assert lines[0].startswith("trial_id,case,descriptor")
        assert len(lines) == 1 + len(reports)
        # quoted descriptor cells survive a round trip through csv
        parsed = list(csv.reader(lines))
        assert len(parsed[1]) == len(parsed[0])

    def test_csv_floats_round_trip(self, tmp_path):
        reports = certify_theorem1(draw_trials(1, (3, 3), 7), (0.5,))
        line = theorem1_csv_lines(tmp_path, 1, (3, 3), (0.5,), seed=7)[1]
        row = next(iter(csv.reader([line])))
        measured = float(row[5])
        assert measured == reports[0].measured  # repr round-trips exactly

    def test_cells_parse_back_per_rfc4180(self):
        # The bytes of each kind of cell, pinned; text with a comma, a quote
        # or a newline is quoted, with its quotes doubled, so csv reads back
        # every cell, whether one column holds one kind or several.
        assert [cli.format_cell(v) for v in (0.1, -0.0, math.nan, 7, True, False)] == [
            "0.1", "-0.0", "nan", "7", "true", "false"]
        texts = ['plain', 'a,b', 'say "hi"', 'two\nlines', '"', '']
        assert [cli.format_cell(t) for t in texts] == [
            'plain', '"a,b"', '"say ""hi"""', '"two\nlines"', '""""', '']
        for rows in ([[t] for t in texts], [[t, i, t == "", 0.5] for i, t in enumerate(texts)],
                     [[t] for t in texts] + [[1]]):
            text = cli._render_csv("verify", {}, None, [f"c{i}" for i in range(len(rows[0]))],
                                   rows, [])
            parsed = list(csv.reader(io.StringIO(text.split("\n", 2)[2])))[1:]
            # csv reads a line holding one empty cell as no cells at all.
            assert [row[0] if row else "" for row in parsed] == [str(row[0]) for row in rows]

    def test_summary(self):
        reports = certify_theorem1(draw_trials(3, (2, 4), 6), (0.0, 1.0))
        summary = reports_summary(reports)
        assert set(summary) == {"theorem1_dobrushin", "theorem1_eps_dobrushin",
                                "theorem1_doeblin", "theorem1_ultra"}
        for entry in summary.values():
            assert entry["trials"] == 6
            assert entry["violations"] == 0
            assert entry["max_slack_deficit"] == 0.0
        json.dumps(summary)  # serializable

    def test_summary_counts_violations(self):
        bad = TrialReport(0, "synthetic", "d", math.nan, math.nan,
                          measured=1.0, bound=0.5, tolerance=1e-12,
                          passed=False, slack=-0.5)
        summary = reports_summary([bad])
        assert summary["synthetic"]["violations"] == 1
        assert summary["synthetic"]["max_slack_deficit"] == pytest.approx(0.5)


def load_bench_tracing():
    """bench/tracing.py as a module, read from the source checkout."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_names_resolve():
    # The benchmark's tracer (bench/tracing.py) wraps library names where
    # their callers look them up; a renamed import would silently drop a span.
    tracing = load_bench_tracing()
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_benchmark_diffusion_count_matches_grid(monkeypatch):
    # bench/workloads.py hard-codes the diffusion suite's trial count; it must
    # stay the count that verify.DIFFUSION_GRID yields.
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    theta, rho, t, alpha = (len(DIFFUSION_GRID[k]) for k in ("theta", "rho", "t", "alpha"))
    from_grid = theta * rho * t * alpha + t * alpha + theta * t
    assert len(certify_diffusion()) == from_grid
    assert workloads.VerifyDefault.trials({"suites": ["diffusion"]}) == from_grid


def test_benchmark_tracer_installs_and_restores():
    # A traced benchmark run installs the tracer on the package: every wrapped
    # name must exist, theorem1 must be recorded as one span, and uninstall
    # must put the originals back.  theorem1 measures the coefficients on
    # stacks of kernels, so it makes no per-kernel coefficient call; the
    # mixing command's amplify_with_kernel makes one of each.
    tracing = load_bench_tracing()
    targets = [(importlib.import_module(module), attr) for module, attr, _ in tracing.WRAPPED]
    targets.append((DiscreteDist, "__init__"))
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    names = ("verify.theorem1", "mixing.dobrushin", "mixing.eps_dobrushin", "mixing.doeblin",
             "mixing.ultra")
    try:
        tracer.install()
        reports = cli.certify_theorem1(draw_trials(2, (2, 4), 3), (0.0, 1.0))
        theorem1_calls = {name: sum(1 for span in tracer.spans if span[2] == name) for name in names}
        cli.amplify_with_kernel(random_instance(3, 4, 1)[2], [DpGuarantee(0.5, 0.1)])
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in targets] == originals
    assert theorem1_calls == {"verify.theorem1": 1, "mixing.dobrushin": 0, "mixing.eps_dobrushin": 0,
                              "mixing.doeblin": 0, "mixing.ultra": 0}
    calls = {name: sum(1 for span in tracer.spans if span[2] == name) for name in names}
    assert calls == {"verify.theorem1": 1, "mixing.dobrushin": 1, "mixing.eps_dobrushin": 1,
                     "mixing.doeblin": 1, "mixing.ultra": 1}
    assert tracer.counts["verify.reports"] == len(reports) == 2 * 2 * 4
