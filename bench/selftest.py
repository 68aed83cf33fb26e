#!/usr/bin/env python3
"""Self-test of the benchmark's checks, on small sizes.

    python3 bench/selftest.py

Runs the library on small inputs and confirms that each check accepts the
real output and rejects a corrupted copy: a coefficient off by 1e-9, one
changed CSV byte, a flipped pass flag, a wrong Renyi value, and wrong
W-infinity values and witnesses.  Exits 0 when every check behaves.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailure  # noqa: E402
from amplify_dp import cli  # noqa: E402
from amplify_dp import divergences as dv  # noqa: E402
from amplify_dp.distributions import DiscreteDist, GaussianDist, density  # noqa: E402

failures: list[str] = []


def expect(name: str, accepted: bool, check, *args) -> None:
    try:
        check(*args)
        outcome = True
    except CheckFailure:
        outcome = False
    ok = outcome == accepted
    print(f"{'PASS' if ok else 'FAIL'} {name}: {'accepted' if outcome else 'rejected'}")
    if not ok:
        failures.append(name)


def table_row(text: str, row: int) -> dict[str, str]:
    body = [line for line in text.split("\n") if line and not line.startswith("#")]
    header, *rows = list(csv.reader(body))
    return dict(zip(header, rows[row]))


def replace_cell(text: str, row: int, column: str, value: str) -> str:
    """CSV text with one cell of the ``row``-th table row replaced."""
    lines = text.split("\n")
    at = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1 + row
    header = lines[at - 1 - row].split(",")
    cells = next(csv.reader([lines[at]]))
    cells[header.index(column)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    lines[at] = buf.getvalue()
    return "\n".join(lines)


def verify_cases(work: Path) -> None:
    config = {"suites": ["theorem1", "transport", "diffusion"], "trials": 3, "mc_samples": 2000}
    cfg, out = work / "verify.json", work / "verify.csv"
    cfg.write_text(json.dumps(config))
    code = cli.main(["verify", "--config", str(cfg), "--seed", "7", "--out", str(out)])
    text = out.read_text()
    may_fail = ("ou_mse_monte_carlo",)
    expect("verify output", True, checks.check_verify_output, text, config, 7, code, may_fail)

    first_row = table_row(text, 0)
    coefficient = float(first_row["coefficient"])
    expect("verify coefficient off by 1e-9", False, checks.check_verify_output,
           replace_cell(text, 0, "coefficient", repr(coefficient + 1e-9)), config, 7, code, may_fail)
    bound = float(first_row["bound"])
    expect("verify bound off by 1e-9", False, checks.check_verify_output,
           replace_cell(replace_cell(text, 0, "bound", repr(bound + 1e-9)), 0, "slack",
                        repr(bound + 1e-9 - float(first_row["measured"]))), config, 7, code, may_fail)
    expect("verify pass flag flipped", False, checks.check_verify_output,
           replace_cell(text, 0, "passed", "false"), config, 7, code, may_fail)

    again = bytearray(out.read_bytes())
    expect("same bytes, second run", True, checks.check_same_bytes, bytes(again), out.read_bytes(), "verify")
    digit = next(i for i in range(len(again) // 2, len(again)) if chr(again[i]).isdigit())
    again[digit] = ord("1") if again[digit] != ord("1") else ord("2")
    expect("one changed CSV byte", False, checks.check_same_bytes, out.read_bytes(), bytes(again), "verify")


def mixing_cases(work: Path) -> None:
    rng = np.random.default_rng(5)
    for zeros in (False, True):
        k = rng.exponential(size=(6, 5))
        if zeros:
            k[rng.random((6, 5)) < 0.3] = 0.0
            k[:, 0] += 0.1
        k /= k.sum(axis=1, keepdims=True)
        kpath, cfg, out = work / "kernel.json", work / "mixing.json", work / "mixing.csv"
        kpath.write_text(json.dumps(k.tolist()))
        config = {"kernel_path": str(kpath), "eps": 1.0, "delta": 1e-3 if zeros else 0.0}
        cfg.write_text(json.dumps(config))
        code = cli.main(["mixing", "--config", str(cfg), "--out", str(out)])
        loaded = np.asarray(json.loads(kpath.read_text()))
        ref = checks.kernel_coefficients(loaded / loaded.sum(axis=1)[:, None], 1.0, config["delta"])
        text = out.read_text()
        expect(f"mixing output (zeros={zeros})", True, checks.check_mixing_output, text, config, ref, code)
        for row, cond in enumerate(checks.MIXING_CONDITIONS):
            gamma = ref[cond] - 1e-9 if ref[cond] == 1.0 else ref[cond] + 1e-9
            expect(f"mixing {cond} coefficient off by 1e-9 (zeros={zeros})", False,
                   checks.check_mixing_output, replace_cell(text, row, "gamma", repr(gamma)),
                   config, ref, code)


def oracle_cases() -> None:
    g0, g1 = GaussianDist([0.0], 1.0), GaussianDist([1.0], 1.0)
    value = dv.renyi_numeric_1d(lambda x: density(g1, [x]), lambda x: density(g0, [x]), 4.0, (-40.0, 41.0))
    ref = checks.renyi_gaussian(1.0, 1.0, 4.0)
    expect("renyi value", True, checks.check_renyi, value, ref, "renyi")
    expect("renyi value off by 1e-5", False, checks.check_renyi, value - 1e-5, ref, "renyi")

    rng = np.random.default_rng(3)
    x, y = np.sort(rng.uniform(0.0, 1.0, (2, 12)), axis=1)
    p, q = rng.exponential(size=(2, 12))
    p, q = p / p.sum(), q / q.sum()
    w = dv.w_inf_discrete(DiscreteDist([(v,) for v in x], p), DiscreteDist([(v,) for v in y], q))
    expect("1-D W-infinity", True, checks.check_w_inf_1d, x, p, y, q, w)
    expect("1-D W-infinity off by 1e-9", False, checks.check_w_inf_1d, x, p, y, q, w + 1e-9)

    x, y = rng.uniform(0.0, 1.0, (2, 10, 2))
    mu = DiscreteDist([tuple(r) for r in x.tolist()], p[:10] / p[:10].sum())
    nu = DiscreteDist([tuple(r) for r in y.tolist()], q[:10] / q[:10].sum())
    w, coupling = dv.w_inf_optimal_coupling(mu, nu)
    args = (x, mu.probs, y, nu.probs)
    expect("2-D W-infinity and witness", True, checks.check_w_inf_coupling, *args, w, coupling, {}, 0)
    dist = checks.pairwise_distances(x, y)
    below = float(dist[dist < w].max())
    expect("2-D W-infinity: next smaller distance", False,
           checks.check_w_inf_coupling, *args, below, coupling, {}, 0)
    expect("2-D W-infinity off by 1e-9", False,
           checks.check_w_inf_coupling, *args, w * (1.0 + 1e-9), coupling, {}, 0)
    pairs = [(a, b) for a in mu.points for b in nu.points]
    product = DiscreteDist(pairs, np.outer(mu.probs, nu.probs).ravel())
    expect("2-D W-infinity: product coupling and its largest move", False,
           checks.check_w_inf_coupling, *args, float(dist.max()), product, {}, 0)


def main() -> int:
    work = BENCH / "out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        verify_cases(work)
        mixing_cases(work)
        oracle_cases()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} check(s) misbehaved" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
