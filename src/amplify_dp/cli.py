"""Command-line front end.

Commands: ``mixing``, ``iter``, ``sgd``, ``ou``, ``verify``, ``divergence``.
Every command reads one JSON config (``--config``), writes CSV or JSON
(``--format``) to ``--out`` or stdout, and is byte-reproducible from
(config, seed).  Exit codes: 0 ok, 1 I/O failure, 2 validation failure,
3 verification-harness violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .distributions import DiscreteDist
from .divergences import (
    DpGuarantee,
    hockey_stick,
    hockey_stick_via_min,
    renyi_discrete,
    tv,
    w_inf_discrete,
)
from .diffusion import OuParams, gm_mse, ou_intrinsic_sensitivity, ou_mse, pgm_mse_bound, plan_ou
from .iteration import IterationChain, SgdConfig, contraction_coeff, sgd_rdp_at_index, winf_contractive_bound, winf_path_bound
from .mixing import DiscreteKernel, amplify_with_kernel, eps_tilde
from .verify import (
    CSV_COLUMNS,
    certify_diffusion,
    certify_theorem1,
    certify_transport_and_decompose,
    format_cell,
    reports_summary,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3

KERNEL_ROW_ATOL = 1e-9


class ValidationFailure(Exception):
    """Config rejected; ``field`` names the offending key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class InputUnreadable(Exception):
    """A file that the config names cannot be read."""


def _require_keys(config: dict, required: Sequence[str], optional: Sequence[str] = ()):
    for key in required:
        if key not in config:
            raise ValidationFailure(key, "missing required key")
    unknown = set(config) - set(required) - set(optional)
    if unknown:
        raise ValidationFailure(sorted(unknown)[0], "unknown config key")


def _is_number(value) -> bool:
    # JSON's NaN literal parses to a float; it is not a usable number.
    if isinstance(value, float):
        return not math.isnan(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _number(config: dict, key: str, lo=None, hi=None) -> float:
    value = config[key]
    if not _is_number(value):
        raise ValidationFailure(key, f"expected a number, got {value!r}")
    value = float(value)
    if lo is not None and value < lo:
        raise ValidationFailure(key, f"must be >= {lo}")
    if hi is not None and value > hi:
        raise ValidationFailure(key, f"must be <= {hi}")
    return value


def _integer(config: dict, key: str, lo=None) -> int:
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationFailure(key, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValidationFailure(key, f"must be >= {lo}")
    return value


def _number_list(config: dict, key: str) -> list[float]:
    value = config[key]
    if not isinstance(value, list) or not value:
        raise ValidationFailure(key, "expected a non-empty list of numbers")
    out = []
    for v in value:
        if not _is_number(v):
            raise ValidationFailure(key, f"expected numbers, got {v!r}")
        out.append(float(v))
    return out


def _require_numbers(values: list, field: str) -> None:
    # np.asarray would read "0.5" and true as numbers; only JSON numbers pass
    # here, and NaN fails the range checks that follow.
    if not {type(v) for v in values} <= {float, int}:
        bad = next(v for v in values if type(v) not in (float, int))
        raise ValidationFailure(field, f"expected numbers, got {bad!r}")


def _read_kernel_file(path) -> object:
    if not isinstance(path, str):
        raise ValidationFailure("kernel_path", f"expected a file path, got {path!r}")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputUnreadable(f"kernel_path: cannot read: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValidationFailure("kernel_path", f"invalid JSON: {exc}") from exc
    return payload.get("rows") if isinstance(payload, dict) else payload


def _load_kernel(config: dict) -> DiscreteKernel:
    if ("kernel" in config) == ("kernel_path" in config):
        raise ValidationFailure("kernel", "provide exactly one of kernel, kernel_path")
    if "kernel_path" in config:
        matrix = _read_kernel_file(config["kernel_path"])
    else:
        matrix = config["kernel"]
    if not (isinstance(matrix, list) and all(isinstance(row, list) for row in matrix)):
        raise ValidationFailure("kernel", "must be a 2-D non-negative matrix")
    _require_numbers([v for row in matrix for v in row], "kernel")
    try:
        mat = np.asarray(matrix, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationFailure("kernel", f"not a numeric matrix: {exc}") from exc
    if mat.ndim != 2 or not np.all(mat >= 0):
        raise ValidationFailure("kernel", "must be a 2-D non-negative matrix")
    sums = mat.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > KERNEL_ROW_ATOL)[0]
    if bad.size:
        i = int(bad[0])
        raise ValidationFailure("kernel", f"row {i} sums to {float(sums[i])!r}, not 1")
    return DiscreteKernel.from_matrix(mat / sums[:, None])


def _dist_from_config(obj, key: str) -> DiscreteDist:
    if not isinstance(obj, dict) or "points" not in obj or "probs" not in obj:
        raise ValidationFailure(key, "expected an object with points and probs")
    if not isinstance(obj["points"], list):
        # DiscreteDist would split a string into one-character labels.
        raise ValidationFailure(key, "points: expected a list of points")
    if not isinstance(obj["probs"], list):
        raise ValidationFailure(key, "probs: expected a list of numbers")
    _require_numbers(obj["probs"], key)
    try:
        return DiscreteDist(obj["points"], obj["probs"])
    except ValueError as exc:
        raise ValidationFailure(key, str(exc)) from exc


def _out_of_range(exc: ArithmeticError) -> ValidationFailure:
    # The bounds are pure arithmetic on config values, so a math range error
    # (an overflow, or a square that underflows to 0 under a division) means
    # the config leaves the float range.
    return ValidationFailure("config", f"the bound leaves the float range ({exc})")


def _require_finite_bounds(config: dict, epsilons: Sequence[float]) -> None:
    # A float product overflows to inf silently, where ** raises: from a
    # validated config of finite numbers, an inf bound has left the float range.
    values = [v for x in config.values() for v in (x if isinstance(x, list) else [x])]
    if all(map(math.isfinite, values)) and not all(map(math.isfinite, epsilons)):
        raise OverflowError("a product overflowed to inf")


def cmd_mixing(config: dict, seed) -> tuple[list[str], list[list], list[str], int]:
    _require_keys(config, ["eps", "delta"], ["kernel", "kernel_path"])
    eps = _number(config, "eps", lo=0.0)
    delta = _number(config, "delta", lo=0.0, hi=1.0)
    kernel = _load_kernel(config)
    guarantee = DpGuarantee(eps, delta)
    (results,) = amplify_with_kernel(kernel, [guarantee])
    rows = [[cond, gamma, out.epsilon, out.delta]
            for cond, (gamma, out) in results.items()]
    extra = [f"# eps_tilde: {format_cell(eps_tilde(guarantee))}"]
    return ["condition", "gamma", "eps_prime", "delta_prime"], rows, extra, EXIT_OK


def cmd_divergence(config: dict, seed) -> tuple[list[str], list[list], list[str], int]:
    _require_keys(config, ["kind", "mu", "nu"], ["eps", "alpha"])
    kind = config["kind"]
    mu = _dist_from_config(config["mu"], "mu")
    nu = _dist_from_config(config["nu"], "nu")
    if kind in ("hockey_stick", "hockey_stick_via_min"):
        eps = _number(config, "eps", lo=0.0) if "eps" in config else 0.0
        fn = hockey_stick if kind == "hockey_stick" else hockey_stick_via_min
        value, param = fn(mu, nu, eps), eps
    elif kind == "renyi":
        if "alpha" not in config:
            raise ValidationFailure("alpha", "missing required key")
        alpha = _number(config, "alpha")
        try:
            value, param = renyi_discrete(mu, nu, alpha), alpha
        except ValueError as exc:
            raise ValidationFailure("alpha", str(exc)) from exc
    elif kind == "tv":
        value, param = tv(mu, nu), 0.0
    elif kind == "w_inf":
        try:
            mu.coords()
        except ValueError as exc:
            raise ValidationFailure("mu", str(exc)) from exc
        try:
            # mu is valid and fixes the dimension, so what remains is nu's fault.
            value, param = w_inf_discrete(mu, nu), math.nan
        except ValueError as exc:
            raise ValidationFailure("nu", str(exc)) from exc
    else:
        raise ValidationFailure("kind", f"unknown divergence {kind!r}")
    return ["kind", "parameter", "value"], [[kind, param, value]], [], EXIT_OK


def cmd_sgd(config: dict, seed) -> tuple[list[str], list[list], list[str], int]:
    _require_keys(config, ["n", "C", "sigma", "beta", "rho", "eta", "alpha"], ["indices"])
    try:
        cfg = SgdConfig(
            n=_integer(config, "n", lo=1),
            C=_number(config, "C"),
            beta=_number(config, "beta"),
            rho=_number(config, "rho"),
            eta=_number(config, "eta"),
            sigma=_number(config, "sigma"),
        )
    except ValueError as exc:
        raise ValidationFailure("config", str(exc)) from exc
    alpha = _number(config, "alpha")
    if alpha == math.inf:
        raise ValidationFailure("alpha", "must be finite: eps_i = epsilon / alpha is inf / inf at alpha = inf")
    indices = config.get("indices", list(range(1, cfg.n + 1)))
    if not isinstance(indices, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) and 1 <= i <= cfg.n for i in indices):
        raise ValidationFailure("indices", f"expected integers in 1..{cfg.n}")
    try:
        lip = contraction_coeff(cfg.beta, cfg.rho, cfg.eta)
        rows = []
        for i in indices:
            point = sgd_rdp_at_index(cfg, i, alpha)
            rows.append([i, lip, point.epsilon / alpha, alpha, point.epsilon])
        _require_finite_bounds(config, [row[-1] for row in rows])
    except ValueError as exc:
        raise ValidationFailure("config", str(exc)) from exc
    except ArithmeticError as exc:
        raise _out_of_range(exc) from exc
    return ["index", "lipschitz", "eps_i", "alpha", "epsilon"], rows, [], EXIT_OK


def cmd_iter(config: dict, seed) -> tuple[list[str], list[list], list[str], int]:
    _require_keys(config, ["r", "lipschitz", "sigma", "delta0", "alpha"],
                  ["increments"])
    alphas = (_number_list(config, "alpha") if isinstance(config["alpha"], list)
              else [_number(config, "alpha")])
    lipschitz = (_number_list(config, "lipschitz") if isinstance(config["lipschitz"], list)
                 else _number(config, "lipschitz"))
    try:
        chain = IterationChain(_integer(config, "r", lo=1), lipschitz,
                               _number(config, "sigma"), _number(config, "delta0"))
        # An overflow in the path bound's numpy products raises (a
        # FloatingPointError is an ArithmeticError) instead of warning.
        with np.errstate(over="raise"):
            if "increments" in config:
                increments = _number_list(config, "increments")
                rows = [[a, "path", winf_path_bound(chain, increments, a).epsilon]
                        for a in alphas]
            else:
                rows = [[a, "contractive",
                         winf_contractive_bound(chain, chain.delta0, a).epsilon]
                        for a in alphas]
        _require_finite_bounds(config, [row[-1] for row in rows])
    except ValueError as exc:
        raise ValidationFailure("config", str(exc)) from exc
    except ArithmeticError as exc:
        raise _out_of_range(exc) from exc
    return ["alpha", "mode", "epsilon"], rows, [], EXIT_OK


def cmd_ou(config: dict, seed) -> tuple[list[str], list[list], list[str], int]:
    _require_keys(config, ["delta", "R", "d", "t_grid"],
                  ["theta", "rho", "plan_epsilon"])
    delta = _number(config, "delta", lo=0.0)
    big_r = _number(config, "R", lo=0.0)
    d = _integer(config, "d", lo=1)
    t_grid = _number_list(config, "t_grid")
    extra: list[str] = []
    if "plan_epsilon" in config:
        if "theta" in config or "rho" in config:
            raise ValidationFailure("plan_epsilon", "incompatible with explicit theta/rho")
        try:
            planned = plan_ou(_number(config, "plan_epsilon"), delta, big_r, d)
        except ValueError as exc:
            raise ValidationFailure("plan_epsilon", str(exc)) from exc
        except ArithmeticError as exc:
            raise ValidationFailure(
                "plan_epsilon", f"the planned parameters leave the float range ({exc})") from exc
        theta, rho = planned.theta, planned.rho
        extra.append(f"# planned_theta: {format_cell(theta)}")
        extra.append(f"# planned_rho: {format_cell(rho)}")
    else:
        if "theta" not in config or "rho" not in config:
            raise ValidationFailure("theta", "theta and rho required without plan_epsilon")
        theta = _number(config, "theta")
        rho = _number(config, "rho")
    rows = []
    for t in t_grid:
        if t <= 0:
            raise ValidationFailure("t_grid", "times must be positive")
        try:
            p = OuParams(theta=theta, rho=rho, t=t, delta=delta, R=big_r, d=d)
        except ValueError as exc:
            raise ValidationFailure("theta", str(exc)) from exc
        # The closed forms are pure arithmetic on config values, so a math
        # range error means the config leaves the float range.
        try:
            mse_ou_v = ou_mse(p, big_r)
            mse_gm_v = gm_mse(p)
            rows.append([t, ou_intrinsic_sensitivity(p), mse_ou_v, mse_gm_v,
                         pgm_mse_bound(p) if big_r > 0 else math.nan,
                         mse_ou_v / mse_gm_v])
        except ArithmeticError as exc:
            raise ValidationFailure(
                "t_grid", f"the closed forms leave the float range at t={t!r} ({exc})") from exc
    return (["t", "lambda_t", "mse_ou", "mse_gm", "mse_pgm_bound", "ratio"],
            rows, extra, EXIT_OK)


def cmd_verify(config: dict, seed) -> tuple[list[str], list[list], list[str], int]:
    _require_keys(config, [], ["suites", "trials", "sizes", "eps_grid",
                               "mc_samples"])
    if seed is None:
        raise ValidationFailure("seed", "--seed is mandatory for verify")
    if seed < 0:
        raise ValidationFailure("seed", "must be a non-negative integer")
    suites = config.get("suites", ["theorem1", "transport", "diffusion"])
    known = {"theorem1", "transport", "diffusion"}
    if not isinstance(suites, list) or not set(suites) <= known or not suites:
        raise ValidationFailure("suites", f"expected a non-empty subset of {sorted(known)}")
    trials = _integer(config, "trials", lo=1) if "trials" in config else 200
    sizes = config.get("sizes", [2, 16])
    if not (isinstance(sizes, list) and len(sizes) == 2
            and all(isinstance(s, int) for s in sizes) and 2 <= sizes[0] <= sizes[1]):
        raise ValidationFailure("sizes", "expected [lo, hi] with 2 <= lo <= hi")
    sizes = tuple(sizes)
    eps_grid = (_number_list(config, "eps_grid") if "eps_grid" in config
                else [0.0, 0.5, 1.0, 2.0])
    if any(eps < 0 for eps in eps_grid):
        raise ValidationFailure("eps_grid", "entries must be >= 0")
    if "mc_samples" in config:
        # Validated but unused: the diffusion suite draws no samples.
        _integer(config, "mc_samples", lo=100)

    reports = []
    if "theorem1" in suites:
        reports += certify_theorem1(trials, sizes, eps_grid, seed)
    if "transport" in suites:
        reports += certify_transport_and_decompose(trials, sizes, seed)
    if "diffusion" in suites:
        reports += certify_diffusion()

    violations = sum(1 for r in reports if not r.passed)
    extra = [f"# violations: {violations}"]
    code = EXIT_VIOLATION if violations else EXIT_OK
    return list(CSV_COLUMNS), reports, extra, code


COMMANDS: dict[str, Callable] = {
    "mixing": cmd_mixing,
    "divergence": cmd_divergence,
    "sgd": cmd_sgd,
    "iter": cmd_iter,
    "ou": cmd_ou,
    "verify": cmd_verify,
}


def _render_csv(command: str, config: dict, seed, header: list[str],
                rows: list[list], extra: list[str]) -> str:
    lines = [f"# command: {command}",
             f"# config: {json.dumps(config, sort_keys=True, separators=(',', ':'))}"]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    lines.extend(extra)
    lines.append(",".join(header))
    # Column by column: a column of exact floats needs no per-cell dispatch,
    # and float.__repr__ is what format_cell gives a float.
    columns = [map(float.__repr__, col) if set(map(type, col)) == {float}
               else map(format_cell, col) for col in zip(*rows)]
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def _render_json(command: str, config: dict, seed, header: list[str],
                 rows: list[list], extra: list[str]) -> str:
    payload = {
        "command": command,
        "config": config,
        "seed": seed,
        "metadata": [line.lstrip("# ") for line in extra],
        "rows": [dict(zip(header, row)) for row in rows],
    }
    if command == "verify":
        payload["summary"] = reports_summary(rows)  # verify's rows are its TrialReports
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amplify-dp",
        description="Privacy amplification bounds and their empirical certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        print(f"error: config: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if not isinstance(config, dict):
        print("error: config: expected a JSON object", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        header, rows, extra, code = COMMANDS[args.command](config, args.seed)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InputUnreadable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    render = _render_csv if args.format == "csv" else _render_json
    text = render(args.command, config, args.seed, header, rows, extra)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
