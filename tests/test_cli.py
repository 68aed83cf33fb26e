import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import amplify_dp
from amplify_dp import cli
from amplify_dp.cli import main
from reference_impls import certify_transport_per_trial


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(args, env=None):
    """``python -m amplify_dp.cli`` in a fresh interpreter that imports the
    package this test imported, installed or not, in ``env`` (default this
    process's environment)."""
    env = os.environ if env is None else env
    src = os.path.dirname(os.path.dirname(amplify_dp.__file__))
    path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "amplify_dp.cli", *args],
                          capture_output=True, text=True, env={**env, "PYTHONPATH": path})


def parse_csv(text):
    lines = text.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data))))
    return meta, rows[0], rows[1:]


def run_cli_peak(args, capsys):
    """``run_cli`` and the peak bytes that Python allocated while it ran."""
    tracemalloc.start()
    try:
        result = run_cli(args, capsys)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIX_CONFIG = {"kernel": [[0.7, 0.3], [0.4, 0.6]], "eps": 1.0, "delta": 0.0}


class TestMixingCommand:
    def test_per_condition_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIX_CONFIG)
        code, out, _ = run_cli(["mixing", "--config", cfg], capsys)
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["condition", "gamma", "eps_prime", "delta_prime"]
        by_cond = {r[0]: r for r in rows}
        assert set(by_cond) == {"dobrushin", "eps_dobrushin", "doeblin", "ultra"}
        doeblin = by_cond["doeblin"]
        assert float(doeblin[1]) == pytest.approx(0.3, abs=1e-12)
        assert float(doeblin[2]) == pytest.approx(math.log1p(0.3 * math.expm1(1.0)), abs=1e-12)
        assert float(doeblin[3]) == pytest.approx(
            0.3 * (1 - (1 + 0.3 * math.expm1(1.0)) / math.e), abs=1e-12)

    def test_constant_kernel_all_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kernel": [[0.5, 0.5], [0.5, 0.5]],
                                      "eps": 1.0, "delta": 0.5})
        code, out, _ = run_cli(["mixing", "--config", cfg], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        for row in rows:
            assert float(row[1]) == 0.0
            assert float(row[3]) == 0.0

    def test_non_stochastic_kernel_exit_2_with_row_index(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kernel": [[0.7, 0.31], [0.4, 0.6]],
                                      "eps": 1.0, "delta": 0.0})
        code, _, err = run_cli(["mixing", "--config", cfg], capsys)
        assert code == 2
        assert "row 0" in err

    def test_nearly_stochastic_kernel_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kernel": [[0.7, 0.3 + 1e-10], [0.4, 0.6]],
                                      "eps": 1.0, "delta": 0.0})
        code, _, _ = run_cli(["mixing", "--config", cfg], capsys)
        assert code == 0

    def test_kernel_path_variant(self, tmp_path, capsys):
        kpath = tmp_path / "kernel.json"
        kpath.write_text(json.dumps([[0.7, 0.3], [0.4, 0.6]]), encoding="utf-8")
        cfg = write_config(tmp_path, {"kernel_path": str(kpath), "eps": 1.0,
                                      "delta": 0.0})
        code, out, _ = run_cli(["mixing", "--config", cfg], capsys)
        assert code == 0

    @pytest.mark.parametrize("kernel_path, contents, code, message", [
        (5, None, 2, "error: kernel_path: expected a file path"),
        ("missing.json", None, 1, "error: kernel_path: cannot read:"),
        ("kernel.json", "[[0.5, 0.5]", 2, "error: kernel_path: invalid JSON"),
        ("kernel.json", b"\xff[[1.0]]", 2, "error: kernel_path: invalid JSON"),
    ])
    def test_kernel_path_errors(self, tmp_path, capsys, kernel_path, contents, code, message):
        # Each ends in an exit code and one message, never a traceback.
        if isinstance(kernel_path, str):
            kernel_path = str(tmp_path / kernel_path)
        if isinstance(contents, str):
            (tmp_path / "kernel.json").write_text(contents, encoding="utf-8")
        elif contents is not None:
            (tmp_path / "kernel.json").write_bytes(contents)
        cfg = write_config(tmp_path, {"kernel_path": kernel_path, "eps": 1.0, "delta": 0.0})
        got, out, err = run_cli(["mixing", "--config", cfg], capsys)
        assert (got, out) == (code, "")
        assert err.startswith(message)

    @pytest.mark.parametrize("command, payload, field", [
        ("mixing", {"kernel": [["1"]], "eps": 1.0, "delta": 0.0}, "kernel"),
        ("mixing", {"kernel": [[True, False], [0.5, 0.5]], "eps": 1.0, "delta": 0.0}, "kernel"),
        ("mixing", {"kernel_path": [["0.5", 0.5], [0.5, 0.5]], "eps": 1.0, "delta": 0.0}, "kernel"),
        ("mixing", {"kernel_path": {"rows": [[None, 1.0]]}, "eps": 1.0, "delta": 0.0}, "kernel"),
        ("divergence", {"kind": "tv", "mu": {"points": ["a", "b"], "probs": ["0.5", 0.5]},
                        "nu": {"points": ["a", "b"], "probs": [0.5, 0.5]}}, "mu"),
        ("divergence", {"kind": "tv", "mu": {"points": ["a", "b"], "probs": [0.5, 0.5]},
                        "nu": {"points": ["a", "b"], "probs": [True, False]}}, "nu"),
        ("divergence", {"kind": "tv", "mu": {"points": ["a", "b"], "probs": {"a": 1.0}},
                        "nu": {"points": ["a", "b"], "probs": [0.5, 0.5]}}, "mu"),
        # A string would be split into the labels "a" and "b".
        ("divergence", {"kind": "tv", "mu": {"points": "ab", "probs": [0.5, 0.5]},
                        "nu": {"points": ["a", "b"], "probs": [0.9, 0.1]}}, "mu"),
        # A JSON object is no point label: it cannot be hashed.
        ("divergence", {"kind": "tv", "mu": {"points": [{"a": 1}, "b"], "probs": [0.5, 0.5]},
                        "nu": {"points": ["a", "b"], "probs": [0.9, 0.1]}}, "mu"),
        ("divergence", {"kind": "tv", "mu": {"points": ["a", "b"], "probs": [0.5, 0.5]},
                        "nu": {"points": [["a", {"b": 1}], "c"], "probs": [0.9, 0.1]}}, "nu"),
        # true is no coordinate, so the law carries none.
        ("divergence", {"kind": "w_inf", "mu": {"points": [[0.0], [True]], "probs": [0.5, 0.5]},
                        "nu": {"points": [[0.0], [1.0]], "probs": [0.5, 0.5]}}, "mu"),
    ])
    def test_non_number_entries_exit_2(self, tmp_path, capsys, command, payload, field):
        # np.asarray would read "1" and true as numbers; the CLI does not.
        if "kernel_path" in payload:
            kpath = tmp_path / "kernel.json"
            kpath.write_text(json.dumps(payload["kernel_path"]), encoding="utf-8")
            payload = dict(payload, kernel_path=str(kpath))
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("command, payload, field", [
        ("mixing", {"kernel": [[10**400, 1], [1, 1]], "eps": 1.0, "delta": 0.0}, "kernel"),
        ("mixing", {"kernel_path": [[10**400, 1], [1, 1]], "eps": 1.0, "delta": 0.0}, "kernel"),
        ("divergence", {"kind": "tv", "mu": {"points": ["a", "b"], "probs": [10**400, 0.5]},
                        "nu": {"points": ["a", "b"], "probs": [0.5, 0.5]}}, "mu"),
    ])
    def test_integer_past_float_range_exit_2(self, tmp_path, capsys, command, payload, field):
        # A JSON integer that no double can hold is a field error, not an OverflowError.
        if "kernel_path" in payload:
            kpath = tmp_path / "kernel.json"
            kpath.write_text(json.dumps(payload["kernel_path"]), encoding="utf-8")
            payload = dict(payload, kernel_path=str(kpath))
        cfg = write_config(tmp_path, payload)
        assert run_cli([command, "--config", cfg], capsys) == (
            2, "", f"error: {field}: the number leaves the float range\n")

    @pytest.mark.parametrize("bad", [True, "0.5"])
    def test_first_bad_kernel_entry_named_in_the_last_row(self, tmp_path, capsys, bad):
        # The loader reads the rows in one pass and names the first bad entry.
        kernel = [[0.5, 0.5]] * 3 + [[0.5, bad, None]]
        cfg = write_config(tmp_path, {"kernel": kernel, "eps": 1.0, "delta": 0.0})
        assert run_cli(["mixing", "--config", cfg], capsys) == (
            2, "", f"error: kernel: expected numbers, got {bad!r}\n")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(MIX_CONFIG, extra=1))
        code, _, err = run_cli(["mixing", "--config", cfg], capsys)
        assert code == 2
        assert "extra" in err

    def test_missing_config_file_exit_1(self, capsys):
        code, _, err = run_cli(["mixing", "--config", "/nonexistent/x.json"], capsys)
        assert code == 1

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff" + json.dumps(MIX_CONFIG).encode())
        code, out, err = run_cli(["mixing", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: config: invalid JSON:")


class TestSgdCommand:
    def test_rows_and_reference_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 10, "C": 1.0, "sigma": 1.0, "beta": 3.0,
                                      "rho": 1.0, "eta": 0.5, "alpha": 2.0})
        code, out, _ = run_cli(["sgd", "--config", cfg], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 10
        row9 = next(r for r in rows if r[0] == "9")
        assert float(row9[header.index("epsilon")]) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_eta_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 10, "C": 1.0, "sigma": 1.0, "beta": 3.0,
                                      "rho": 1.0, "eta": 0.9, "alpha": 2.0})
        code, _, err = run_cli(["sgd", "--config", cfg], capsys)
        assert code == 2
        assert "eta" in err

    @pytest.mark.parametrize("change,field", [
        ({"indices": [True]}, "indices"),
        ({"C": 1e200, "sigma": 1e-200}, "config"),   # C**2 overflows
        ({"sigma": 4e-264}, "config"),               # sigma**2 underflows to 0
        ({"C": 1e100, "alpha": 1e300}, "config"),    # the product overflows to inf
    ])
    def test_bad_config_exit_2(self, tmp_path, capsys, change, field):
        cfg = write_config(tmp_path, {"n": 3, "C": 1.0, "sigma": 1.0, "beta": 1.0,
                                      "rho": 1.0, "eta": 1.0, "alpha": 2.0, **change})
        code, out, err = run_cli(["sgd", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}: ")

    def test_integer_past_float_range_exit_2(self, tmp_path, capsys):
        # A JSON integer that no double can hold is a field error, not an OverflowError.
        cfg = write_config(tmp_path, {"n": 10, "C": 10**400, "sigma": 1.0, "beta": 3.0,
                                      "rho": 1.0, "eta": 0.5, "alpha": 2.0})
        assert run_cli(["sgd", "--config", cfg], capsys) == (2, "", "error: C: the number leaves the float range\n")

    @pytest.mark.parametrize("key,value", [("dim", 7), ("radius", 0.01)])
    def test_simulator_keys_rejected(self, tmp_path, capsys, key, value):
        # The accountant reads neither the dimension nor the projection radius.
        cfg = write_config(tmp_path, {"n": 10, "C": 1.0, "sigma": 1.0, "beta": 3.0,
                                      "rho": 1.0, "eta": 0.5, "alpha": 2.0, key: value})
        code, out, err = run_cli(["sgd", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {key}: unknown config key\n"

    def test_infinite_alpha_exit_2(self, tmp_path, capsys):
        # eps_i = epsilon / alpha is inf / inf; it must not be printed as nan.
        cfg = write_config(tmp_path, {"n": 3, "C": 1, "sigma": 1, "beta": 3, "rho": 1,
                                      "eta": 0.5, "alpha": math.inf})
        code, out, err = run_cli(["sgd", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: alpha: ")

    def test_negative_infinite_alpha_names_alpha(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 3, "C": 1, "sigma": 1, "beta": 3, "rho": 1,
                                      "eta": 0.5, "alpha": -math.inf})
        code, out, err = run_cli(["sgd", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert "alpha must be > 1" in err


    def test_too_many_rows_exit_2_before_allocating(self, tmp_path, capsys):
        # Without indices sgd prints one row per index, so n = 10**12 is
        # rejected before the list of indices is built; with indices, n is
        # a parameter of the closed form only.
        base = {"n": 10**12, "C": 1.0, "sigma": 1.0, "beta": 3.0, "rho": 1.0, "eta": 0.5, "alpha": 2.0}
        (code, out, err), peak = run_cli_peak(["sgd", "--config", write_config(tmp_path, base)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: n: must be <= {cli.MAX_STEPS} without indices (one row per index)\n"
        assert peak < 2**20
        cfg = write_config(tmp_path, {**base, "indices": [1, 10**12]})
        code, out, _ = run_cli(["sgd", "--config", cfg], capsys)
        assert code == 0 and len(parse_csv(out)[2]) == 2


class TestIterCommand:
    def test_contractive(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r": 10, "lipschitz": 1.0, "sigma": 1.0,
                                      "delta0": 1.0, "alpha": 2.0})
        code, out, _ = run_cli(["iter", "--config", cfg], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert float(rows[0][header.index("epsilon")]) == pytest.approx(0.1)

    def test_path_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r": 2, "lipschitz": 1.0, "sigma": 1.0,
                                      "delta0": 1.0, "alpha": [2.0, 4.0],
                                      "increments": [0.5, 0.5]})
        code, out, _ = run_cli(["iter", "--config", cfg], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 2
        assert float(rows[0][header.index("epsilon")]) == pytest.approx(0.5)

    def test_infinite_alpha_gives_infinite_bound(self, tmp_path, capsys):
        # Only a bound from finite config values must stay finite.
        cfg = write_config(tmp_path, {"r": 1, "lipschitz": 1.0, "sigma": 1.0,
                                      "delta0": 1.0, "alpha": math.inf})
        code, out, _ = run_cli(["iter", "--config", cfg], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert rows[0][header.index("epsilon")] == "inf"

    @pytest.mark.parametrize("extra", [{}, {"r": 2, "lipschitz": [1.0, 0.5], "increments": [0.0, 0.0]}])
    def test_identical_starts_have_zero_bound_at_infinite_alpha(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, {"r": 1, "lipschitz": 1, "sigma": 1, "delta0": 0,
                                      "alpha": math.inf, **extra})
        code, out, err = run_cli(["iter", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        _, header, rows = parse_csv(out)
        assert rows[0][header.index("epsilon")] == "0.0"

    def test_expansive_uniform_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r": 3, "lipschitz": 1.5, "sigma": 1.0,
                                      "delta0": 1.0, "alpha": 2.0})
        code, _, err = run_cli(["iter", "--config", cfg], capsys)
        assert code == 2

    @pytest.mark.parametrize("change,field", [
        ({"lipschitz": None}, "lipschitz"),
        ({"lipschitz": {"r": 1}}, "lipschitz"),
        ({"lipschitz": [1.0, None]}, "lipschitz"),
        ({"sigma": 1e-200, "delta0": 1e200}, "config"),   # delta0**2 overflows
        ({"sigma": 4e-264}, "config"),                    # sigma**2 underflows to 0
        # 0 * inf: the suffix products underflow, the squared increment overflows.
        ({"r": 2, "lipschitz": [1e-200, 1e-200], "increments": [1e300, 1.0]}, "config"),
        ({"delta0": 1e150, "alpha": 1e300}, "config"),    # the product overflows to inf
        # The suffix products overflow in numpy.
        ({"r": 2, "lipschitz": [1e200, 1e200], "increments": [1e200, 1.0]}, "config"),
    ])
    @pytest.mark.filterwarnings("error")  # numpy must not warn about the overflow
    def test_bad_config_exit_2(self, tmp_path, capsys, change, field):
        cfg = write_config(tmp_path, {"r": 1, "lipschitz": 1.0, "sigma": 1.0,
                                      "delta0": 1.0, "alpha": 2.0, **change})
        code, out, err = run_cli(["iter", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}: ")

    def test_negative_infinite_alpha_names_alpha(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r": 1, "lipschitz": 1, "sigma": 1, "delta0": 1,
                                      "alpha": -math.inf})
        code, out, err = run_cli(["iter", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert "alpha must be > 1" in err


    def test_too_many_steps_exit_2_before_allocating(self, tmp_path, capsys):
        # The chain holds one Lipschitz constant per step.
        cfg = write_config(tmp_path, {"r": 10**12, "lipschitz": 1.0, "sigma": 1.0, "delta0": 1.0, "alpha": 2.0})
        (code, out, err), peak = run_cli_peak(["iter", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", f"error: r: must be <= {cli.MAX_STEPS}\n")
        assert peak < 2**20


class TestOuCommand:
    def test_sweep_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"theta": 1.0, "rho": 1.0, "d": 1, "R": 1.0,
                                      "delta": 1.0, "t_grid": [0.5, 1.0, 2.0]})
        code, out, _ = run_cli(["ou", "--config", cfg], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["t", "lambda_t", "mse_ou", "mse_gm", "mse_pgm_bound", "ratio"]
        assert len(rows) == 3
        # theta R^2 <= 4 d rho^2 holds, so the ratio stays below 1.
        for row in rows:
            assert float(row[header.index("ratio")]) <= 1.0

    def test_planner_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plan_epsilon": 1.0, "d": 1, "R": 1.0,
                                      "delta": 1.0, "t_grid": [1.0]})
        code, out, _ = run_cli(["ou", "--config", cfg], capsys)
        assert code == 0
        meta, header, rows = parse_csv(out)
        theta_line = next(l for l in meta if l.startswith("# planned_theta"))
        assert float(theta_line.split(":")[1]) == pytest.approx(math.log(1.5), abs=1e-12)
        assert float(rows[0][header.index("ratio")]) <= 2 / 3 + 1e-9

    @pytest.mark.parametrize("change, t", [({"t_grid": [1e-320]}, "1e-320"), ({"theta": 1e-320}, "1.0")])
    def test_closed_forms_beyond_float_range_exit_2(self, tmp_path, capsys, change, t):
        # lambda_t overflows at the subnormal t; at the subnormal theta,
        # rho^2 / theta does, in mse_ou, mse_gm and the ratio.
        cfg = write_config(tmp_path, {"delta": 1.0, "R": 1.0, "d": 1, "t_grid": [1.0],
                                      "theta": 1.0, "rho": 1.0, **change})
        code, out, err = run_cli(["ou", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: t_grid: the closed forms leave the float range at t={t} (a product overflowed to inf)\n"

    @pytest.mark.parametrize("change, err", [
        ({"theta": math.inf}, "theta: must be finite: the closed forms are inf / inf at inf"),
        ({"rho": math.inf}, "rho: must be finite: the closed forms are inf / inf at inf"),
        # mse_pgm_bound is mse_gm / (1 + mse_gm / R^2) with mse_gm = inf.
        ({"t_grid": [math.inf]}, "t_grid: the closed forms leave the float range at t=inf (a closed form is NaN)"),
    ])
    def test_nan_cells_exit_2(self, tmp_path, capsys, change, err):
        cfg = write_config(tmp_path, {"delta": 1, "R": 1, "d": 1, "t_grid": [1.0],
                                      "theta": 1, "rho": 1, **change})
        assert run_cli(["ou", "--config", cfg], capsys) == (2, "", f"error: {err}\n")

    def test_pgm_bound_nan_at_zero_radius(self, tmp_path, capsys):
        # The documented NaN: the bound needs R > 0.
        cfg = write_config(tmp_path, {"delta": 1.0, "R": 0.0, "d": 1, "t_grid": [1.0],
                                      "theta": 1.0, "rho": 1.0})
        code, out, _ = run_cli(["ou", "--config", cfg], capsys)
        _, header, rows = parse_csv(out)
        assert code == 0
        assert [row[header.index("mse_pgm_bound")] for row in rows] == ["nan"]

    @pytest.mark.parametrize("change, field", [({"delta": 10**400}, "delta"),
                                               ({"t_grid": [1.0, 10**400]}, "t_grid")])
    def test_integer_past_float_range_exit_2(self, tmp_path, capsys, change, field):
        cfg = write_config(tmp_path, {"delta": 1.0, "R": 1.0, "d": 1, "t_grid": [1.0],
                                      "theta": 1.0, "rho": 1.0, **change})
        assert run_cli(["ou", "--config", cfg], capsys) == (2, "", f"error: {field}: the number leaves the float range\n")

    def test_planned_parameters_past_float_range_exit_2(self, tmp_path, capsys):
        # d delta^2 / (2 epsilon R^2) overflows to inf: theta is inf and rho^2 inf / inf.
        cfg = write_config(tmp_path, {"plan_epsilon": 1e-310, "d": 1, "R": 1.0, "delta": 1.0, "t_grid": [1.0]})
        assert run_cli(["ou", "--config", cfg], capsys) == (
            2, "", "error: plan_epsilon: the planned parameters leave the float range (theta = inf, rho^2 = nan)\n")

    def test_planner_conflicts_with_theta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plan_epsilon": 1.0, "theta": 1.0, "rho": 1.0,
                                      "d": 1, "R": 1.0, "delta": 1.0, "t_grid": [1.0]})
        code, _, _ = run_cli(["ou", "--config", cfg], capsys)
        assert code == 2


class TestDivergenceCommand:
    def test_hockey_stick(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "hockey_stick",
            "mu": {"points": ["a", "b"], "probs": [0.5, 0.5]},
            "nu": {"points": ["a", "b"], "probs": [0.9, 0.1]},
            "eps": 0.0})
        code, out, _ = run_cli(["divergence", "--config", cfg], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert float(rows[0][header.index("value")]) == pytest.approx(0.4, abs=1e-12)

    def test_w_inf_with_coordinates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "w_inf",
            "mu": {"points": [[0.0], [1.0]], "probs": [0.5, 0.5]},
            "nu": {"points": [[0.5], [1.5]], "probs": [0.5, 0.5]}})
        code, out, _ = run_cli(["divergence", "--config", cfg], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert float(rows[0][header.index("value")]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.filterwarnings("error")  # numpy must not warn about the overflow
    def test_w_inf_beyond_float_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "w_inf",
            "mu": {"points": [[-1e308]], "probs": [1.0]},
            "nu": {"points": [[1e308]], "probs": [1.0]}})
        code, out, err = run_cli(["divergence", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        assert out.endswith("kind,parameter,value\nw_inf,nan,inf\n")

    def test_w_inf_coordinate_free_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "w_inf",
            "mu": {"points": ["a", "b"], "probs": [0.5, 0.5]},
            "nu": {"points": ["a", "b"], "probs": [0.5, 0.5]}})
        code, _, _ = run_cli(["divergence", "--config", cfg], capsys)
        assert code == 2

    @pytest.mark.parametrize("mu, nu, expected", [
        ({"points": [[0.951], [0.819], [0.531], [0.746]],
          "probs": [0.48601050465858897, 0.33064387631857317, 0.07738209927871914, 0.10596351974311867]},
         {"points": [[0.266]], "probs": [1.0]}, "0.6849999999999999"),
        ({"points": [[0.43, 0.92], [0.3, 0.27], [0.54, 0.69], [0.05, 0.13], [0.27, 0.86]],
          "probs": [0.35232107146832503, 0.1741579007727549, 0.10763851409346532, 0.32733320740628247,
                    0.038549306258172336]},
         {"points": [[0.62, 0.36], [0.69, 0.82], [0.17, 0.34]],
          "probs": [0.484634605468442, 0.0030991118802675653, 0.5122662826512904]}, "0.5913543776789009"),
    ])
    def test_w_inf_law_short_of_one(self, tmp_path, capsys, mu, nu, expected):
        # mu's masses sum to 1 - 1e-12, within DiscreteDist's tolerance.
        cfg = write_config(tmp_path, {"kind": "w_inf", "mu": mu, "nu": nu})
        code, out, err = run_cli(["divergence", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        assert out.endswith(f"kind,parameter,value\nw_inf,nan,{expected}\n")

    def test_w_inf_ragged_points_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "w_inf",
            "mu": {"points": [[0.0], [1.0, 2.0]], "probs": [0.5, 0.5]},
            "nu": {"points": [[0.0]], "probs": [1.0]}})
        code, out, err = run_cli(["divergence", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err == "error: mu: coordinate points must all have the same dimension\n"

    @pytest.mark.parametrize("kind,key", [("tv", "eps"), ("renyi", "eps"), ("w_inf", "eps"),
                                          ("hockey_stick", "alpha"), ("tv", "alpha"), ("w_inf", "alpha")])
    def test_parameter_the_kind_does_not_read_exit_2(self, tmp_path, capsys, kind, key):
        # Only hockey_stick reads eps and only renyi reads alpha.
        laws = {"mu": {"points": [[0.0], [1.0]], "probs": [0.5, 0.5]},
                "nu": {"points": [[0.0], [1.0]], "probs": [0.9, 0.1]}}
        params = {"alpha": 2.0} if kind == "renyi" else {}
        cfg = write_config(tmp_path, {"kind": kind, **laws, **params, key: 0.5})
        code, out, err = run_cli(["divergence", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", f"error: {key}: unknown config key\n")

    def test_min_form_is_no_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "hockey_stick_via_min",
            "mu": {"points": ["a", "b"], "probs": [0.5, 0.5]},
            "nu": {"points": ["a", "b"], "probs": [0.9, 0.1]}})
        code, out, err = run_cli(["divergence", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", "error: kind: unknown divergence 'hockey_stick_via_min'\n")

    def test_invalid_distribution_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "tv",
            "mu": {"points": ["a", "b"], "probs": [0.5, 0.6]},
            "nu": {"points": ["a", "b"], "probs": [0.5, 0.5]}})
        code, _, err = run_cli(["divergence", "--config", cfg], capsys)
        assert code == 2
        assert "mu" in err


class TestNanRejected:
    TV_PAIR = {"mu": {"points": ["a", "b"], "probs": [0.5, 0.5]},
               "nu": {"points": ["a", "b"], "probs": [0.9, 0.1]}}

    @pytest.mark.parametrize("command, payload, field", [
        ("divergence", {"kind": "tv", "mu": {"points": ["a", "b"], "probs": [math.nan, 1.0]},
                        "nu": {"points": ["a", "b"], "probs": [0.5, 0.5]}}, "mu"),
        ("divergence", {"kind": "hockey_stick", "eps": math.nan, **TV_PAIR}, "eps"),
        ("mixing", {"kernel": [[math.nan, 1.0], [0.4, 0.6]], "eps": 1.0, "delta": 0.0},
         "kernel"),
        ("mixing", {"kernel": [[0.7, 0.3], [0.4, 0.6]], "eps": 1.0, "delta": math.nan},
         "delta"),
    ])
    def test_nan_config_exit_2(self, tmp_path, capsys, command, payload, field):
        # json writes and reads NaN as a bare literal.
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("mu_points, nu_points", [
        ([[0.0], [math.nan]], [[0.0], [1.0]]),
        ([[0.0], [math.inf]], [[0.0], [math.inf]]),
        ([[0.0, 0.0], [1.0, math.nan]], [[0.0, 1.0], [1.0, 0.0]]),
    ])
    def test_non_finite_w_inf_coordinates_exit_2(self, tmp_path, mu_points, nu_points):
        # A NaN distance is never within a threshold, so the search used to
        # run forever; the child gets a timeout so that a hang fails the test.
        cfg = write_config(tmp_path, {"kind": "w_inf",
                                      "mu": {"points": mu_points, "probs": [0.5, 0.5]},
                                      "nu": {"points": nu_points, "probs": [0.5, 0.5]}})
        src = os.path.dirname(os.path.dirname(amplify_dp.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "amplify_dp.cli", "divergence", "--config", cfg],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: mu: coordinates must be finite\n"


    @pytest.mark.parametrize("nu, message", [
        ({"points": [[0.0], [math.nan]], "probs": [0.5, 0.5]}, "coordinates must be finite"),
        ({"points": ["a", "b"], "probs": [0.5, 0.5]}, "distribution carries no coordinates"),
        ({"points": [[0.0, 0.0], [1.0, 0.0]], "probs": [0.5, 0.5]},
         "supports live in different dimensions"),
    ])
    def test_w_inf_errors_name_nu(self, tmp_path, capsys, nu, message):
        # mu is read first and fixes the dimension, so each of these is nu's fault.
        cfg = write_config(tmp_path, {"kind": "w_inf", "nu": nu,
                                      "mu": {"points": [[0.0], [1.0]], "probs": [0.5, 0.5]}})
        code, out, err = run_cli(["divergence", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", f"error: nu: {message}\n")


class TestVerifyCommand:
    def test_exit_zero_and_violation_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suites": ["theorem1"], "trials": 20})
        code, out, _ = run_cli(["verify", "--config", cfg, "--seed", "5"], capsys)
        assert code == 0
        assert "# violations: 0" in out

    def test_seed_mandatory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suites": ["theorem1"], "trials": 5})
        code, _, err = run_cli(["verify", "--config", cfg], capsys)
        assert code == 2
        assert "seed" in err

    def test_json_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suites": ["theorem1"], "trials": 5})
        code, out, _ = run_cli(["verify", "--config", cfg, "--seed", "1",
                                "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["theorem1_doeblin"]["violations"] == 0

    def test_unknown_suite_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suites": ["nonsense"]})
        code, _, _ = run_cli(["verify", "--config", cfg, "--seed", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("suites", [[["transport"]], [{"a": 1}], ["transport", None]])
    def test_unhashable_suite_exit_2(self, tmp_path, capsys, suites):
        # An unhashable entry is an unknown suite, not a TypeError.
        cfg = write_config(tmp_path, {"suites": suites, "trials": 2})
        code, out, err = run_cli(["verify", "--config", cfg, "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: suites: expected a non-empty subset of ['diffusion', 'theorem1', 'transport']\n"

    @pytest.mark.parametrize("bad, field", [
        ({"sizes": 5}, "sizes"),
        ({"sizes": [9, 3]}, "sizes"),
        ({"eps_grid": [-1.0]}, "eps_grid"),
        ({"sizes": [2, 2**63 - 1]}, "sizes"),  # hi + 1 leaves int64
        ({"sizes": [2, 2**63]}, "sizes"),
        ({"trials": 10**13}, "trials"),  # the draws would not fit in memory
        ({"trials": cli.MAX_TRIALS + 1}, "trials"),
        ({"sizes": [2**40, 2**40]}, "sizes"),
        ({"sizes": [2, cli.MAX_SUPPORT + 1]}, "sizes"),
    ])
    def test_bad_sizes_and_eps_grid_exit_2(self, tmp_path, capsys, bad, field):
        cfg = write_config(tmp_path, {"suites": ["theorem1"], "trials": 2, **bad})
        code, out, err = run_cli(["verify", "--config", cfg, "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}: ")

    def test_caps_are_accepted(self, tmp_path, capsys, monkeypatch):
        # trials and hi at their caps pass validation (the draw and the suites
        # are stubbed).
        calls = []
        monkeypatch.setattr(cli, "draw_trials", lambda *args, **kwargs: (args, kwargs))
        monkeypatch.setattr(cli, "certify_theorem1", lambda *args: calls.append(args) or [])
        cfg = write_config(tmp_path, {"suites": ["theorem1"], "trials": cli.MAX_TRIALS,
                                      "sizes": [2, cli.MAX_SUPPORT]})
        code, _, err = run_cli(["verify", "--config", cfg, "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        assert calls == [(((cli.MAX_TRIALS, (2, cli.MAX_SUPPORT), 1), {"shared": False}), [0.0, 0.5, 1.0, 2.0])]

    def test_violations_exit_3(self, tmp_path, capsys, monkeypatch):
        # Force a failing report through the wiring; theorems hold, so a real
        # violation cannot be provoked with honest inputs.
        from amplify_dp import cli as cli_mod
        from amplify_dp.verify import TrialReport

        def fake_certify(draws, eps_grid):
            return [TrialReport(0, "theorem1_dobrushin", "synthetic", 0.5, 0.5,
                                measured=1.0, bound=0.1, tolerance=1e-12,
                                passed=False, slack=-0.9)]

        monkeypatch.setattr(cli_mod, "certify_theorem1", fake_certify)
        cfg = write_config(tmp_path, {"suites": ["theorem1"], "trials": 1})
        code, out, _ = run_cli(["verify", "--config", cfg, "--seed", "1"], capsys)
        assert code == 3
        assert "# violations: 1" in out


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        # The third run is in a fresh interpreter, so no per-process cache can
        # carry state from one run into the next.
        cfg = write_config(tmp_path, {"suites": ["theorem1", "transport", "diffusion"],
                                      "trials": 10})
        for fmt in ("csv", "json"):
            args = ["verify", "--config", cfg, "--seed", "3", "--format", fmt]
            outs = [tmp_path / f"{name}.{fmt}" for name in "abc"]
            assert main([*args, "--out", str(outs[0])]) == 0
            assert main([*args, "--out", str(outs[1])]) == 0
            proc = run_module([*args, "--out", str(outs[2])])
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
            first = outs[0].read_bytes()
            assert outs[1].read_bytes() == first
            assert outs[2].read_bytes() == first
            assert b"\r" not in first  # LF endings

    def test_output_does_not_depend_on_blas_threads(self, tmp_path):
        # At these sizes the pushforwards' vector-matrix products pass
        # OpenBLAS's threading threshold; the bytes must not depend on it.
        cfg = write_config(tmp_path, {"suites": ["theorem1", "transport"], "trials": 3,
                                      "sizes": [96, 128]})
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            proc = run_module(["verify", "--config", cfg, "--seed", "3", "--out", str(out)],
                              env={**base, "OPENBLAS_NUM_THREADS": threads})
            assert (proc.returncode, proc.stderr) == (0, "")
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]

    def test_config_echo_round_trips(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIX_CONFIG)
        code, out, _ = run_cli(["mixing", "--config", cfg], capsys)
        meta, _, _ = parse_csv(out)
        echoed = next(l for l in meta if l.startswith("# config: "))
        payload = json.loads(echoed[len("# config: "):])
        cfg2 = write_config(tmp_path, payload, name="echoed.json")
        code2, out2, _ = run_cli(["mixing", "--config", cfg2], capsys)
        assert code2 == code
        assert out2 == out

    def test_json_format_parses(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIX_CONFIG)
        code, out, _ = run_cli(["mixing", "--config", cfg, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 4


def test_numpy_scalar_cells_print_their_value():
    # A numpy scalar is not of a type that CELL_FORMAT_BY_TYPE names: its
    # cell is its str, not its repr "np.float64(0.5)".
    assert [cli.format_cell(v) for v in (np.float64(0.5), np.float64(-0.0), np.int64(7))] == [
        "0.5", "-0.0", "7"]


class TestTransportByteIdentity:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("seed", ["1", "7", "30"])
    def test_output_equals_per_trial_suite(self, tmp_path, capsys, monkeypatch, fmt, seed):
        # verify's transport suite runs on stacks; its output must be the
        # per-trial suite's to the byte.
        cfg = write_config(tmp_path, {"suites": ["transport"], "trials": 60, "sizes": [2, 40]})
        args = ["verify", "--config", cfg, "--seed", seed, "--format", fmt]
        shipped = run_cli(args, capsys)
        monkeypatch.setattr(cli, "certify_transport_and_decompose",
                            lambda draws: certify_transport_per_trial(60, (2, 40), int(seed)))
        assert run_cli(args, capsys) == shipped
        assert shipped[0] == 0 and len(shipped[1]) > 10000


class TestEntryPoint:
    def test_parser_is_built_once_and_fails_the_same_each_call(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--seed", "1"])
            assert exc.value.code == 2
            assert "the following arguments are required: --config" in capsys.readouterr().err

    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path, MIX_CONFIG)
        proc = run_module(["mixing", "--config", cfg])
        assert proc.returncode == 0
        assert "condition,gamma,eps_prime,delta_prime" in proc.stdout
