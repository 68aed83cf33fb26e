import csv
import importlib
import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

from amplify_dp import cli
from amplify_dp.distributions import DiscreteDist
from amplify_dp.divergences import DpGuarantee, hockey_stick
from amplify_dp.mixing import (
    DiscreteKernel,
    amplify_with_kernel,
    doeblin_coeff,
    dobrushin_coeff,
    pushforward,
    ultra_coeff,
)
from amplify_dp.verify import (
    TrialReport,
    certify_diffusion,
    certify_theorem1,
    certify_transport_and_decompose,
    random_instance,
    reports_summary,
)


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


class TestCertifyTheorem1:
    def test_no_violations(self):
        reports = certify_theorem1(100, (2, 8), (0.0, 0.5, 1.0, 2.0), seed=5)
        assert len(reports) == 100 * 4 * 4
        assert all(r.passed for r in reports)

    def test_reproducible(self):
        a = certify_theorem1(20, (2, 6), (0.0, 1.0), seed=3)
        b = certify_theorem1(20, (2, 6), (0.0, 1.0), seed=3)
        assert a == b

    def test_different_seed_differs(self):
        a = certify_theorem1(5, (2, 6), (0.5,), seed=1)
        b = certify_theorem1(5, (2, 6), (0.5,), seed=2)
        assert a != b

    def test_identity_kernel_keeps_guarantee(self):
        # gamma = 1 for every condition: the bound degenerates to the original
        # guarantee and still dominates the exact divergence.
        mu = DiscreteDist(["x0", "x1"], [0.5, 0.5])
        nu = DiscreteDist(["x0", "x1"], [0.9, 0.1])
        kernel = DiscreteKernel.identity(["x0", "x1"])
        guarantees = [DpGuarantee(eps, hockey_stick(mu, nu, eps)) for eps in (0.0, 0.5, 1.0)]
        for results in amplify_with_kernel(kernel, guarantees):
            for cond, (gamma, out) in results.items():
                assert gamma == 1.0
                post = hockey_stick(pushforward(mu, kernel),
                                    pushforward(nu, kernel), out.epsilon)
                assert post <= out.delta + 1e-12

    def test_constant_kernel_collapses_divergence(self):
        omega = DiscreteDist(["y0", "y1"], [0.3, 0.7])
        kernel = DiscreteKernel.constant(["x0", "x1"], omega)
        mu = DiscreteDist(["x0", "x1"], [1.0, 0.0])
        nu = DiscreteDist(["x0", "x1"], [0.0, 1.0])
        assert dobrushin_coeff(kernel) == 0.0
        assert hockey_stick(pushforward(mu, kernel), pushforward(nu, kernel), 0.0) == 0.0

    def test_report_fields(self):
        (report,) = certify_theorem1(1, (2, 2), (0.5,), seed=0)[:1]
        assert isinstance(report, TrialReport)
        assert report.case.startswith("theorem1_")
        assert report.slack == report.bound - report.measured
        assert report.passed == (report.slack >= -report.tolerance)


class TestCertifyTransport:
    def test_no_violations(self):
        reports = certify_transport_and_decompose(60, (2, 10), seed=11)
        assert all(r.passed for r in reports)
        cases = {r.case for r in reports}
        assert {"transport_independent", "transport_greedy",
                "transport_random_joint", "decompose_theta"} <= cases

    def test_overlap_rows_exact(self):
        reports = certify_transport_and_decompose(40, (2, 10), seed=2)
        overlap_rows = [r for r in reports if r.case == "decompose_overlap"]
        assert overlap_rows
        assert all(r.measured == 0.0 for r in overlap_rows)

    def test_theta_matches_divergence(self):
        reports = certify_transport_and_decompose(40, (2, 10), seed=8)
        for r in reports:
            if r.case == "decompose_theta":
                assert r.measured <= 1e-12


class TestCertifyDiffusion:
    def test_no_violations_small(self):
        reports = certify_diffusion(theta_grid=(1.0,), rho_grid=(1.0,),
                                    t_grid=(0.5, 1.0), alpha_grid=(2.0,),
                                    mc_samples=20_000, seed=4)
        assert all(r.passed for r in reports)
        cases = {r.case for r in reports}
        assert cases == {"ou_rdp_quadrature", "brownian_rdp_quadrature",
                         "ou_mse_monte_carlo"}

    def test_reproducible(self):
        kwargs = dict(theta_grid=(1.0,), rho_grid=(1.0,), t_grid=(1.0,),
                      alpha_grid=(2.0,), mc_samples=5_000, seed=9)
        assert certify_diffusion(**kwargs) == certify_diffusion(**kwargs)


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
        reports = certify_theorem1(2, (2, 4), (0.5,), seed=1)
        lines = theorem1_csv_lines(tmp_path, 2, (2, 4), (0.5,), seed=1)
        assert lines[0].startswith("trial_id,case,descriptor")
        assert len(lines) == 1 + len(reports)
        # quoted descriptor cells survive a round trip through csv
        parsed = list(csv.reader(lines))
        assert len(parsed[1]) == len(parsed[0])

    def test_csv_floats_round_trip(self, tmp_path):
        reports = certify_theorem1(1, (3, 3), (0.5,), seed=7)
        line = theorem1_csv_lines(tmp_path, 1, (3, 3), (0.5,), seed=7)[1]
        row = next(iter(csv.reader([line])))
        measured = float(row[5])
        assert measured == reports[0].measured  # repr round-trips exactly

    def test_summary(self):
        reports = certify_theorem1(3, (2, 4), (0.0, 1.0), seed=6)
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


def test_benchmark_tracer_installs_and_restores():
    # A traced benchmark run installs the tracer on the package: every wrapped
    # name must exist, theorem1's coefficient calls must be recorded, and
    # uninstall must put the originals back.
    tracing = load_bench_tracing()
    targets = [(importlib.import_module(module), attr) for module, attr, _ in tracing.WRAPPED]
    targets.append((DiscreteDist, "__init__"))
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        reports = cli.certify_theorem1(2, (2, 4), (0.0, 1.0), seed=3)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in targets] == originals
    calls = {name: sum(1 for span in tracer.spans if span[2] == name)
             for name in ("verify.theorem1", "mixing.dobrushin", "mixing.eps_dobrushin",
                          "mixing.doeblin", "mixing.ultra")}
    assert calls == {"verify.theorem1": 1, "mixing.dobrushin": 2, "mixing.eps_dobrushin": 4,
                     "mixing.doeblin": 2, "mixing.ultra": 2}
    assert tracer.counts["verify.reports"] == len(reports) == 2 * 2 * 4
