"""Reference computations and output checks for the benchmark.

Nothing here calls the library code it checks.  Random instances are rebuilt
from the documented sampling contract (Philox keyed by ``SeedSequence``,
53-bit uniforms, inverse-CDF transforms), coefficients and amplified
guarantees come from the paper's formulas, Renyi divergences from their
closed forms, and W-infinity from quantile functions (1-D) or a
``scipy.optimize.linprog`` feasibility test (2-D).  Every check raises
:class:`CheckFailure` with a message naming what disagreed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

# Agreement required between an output and its reference recomputation.  A
# coefficient or bound off by 1e-9 must fail; float round-off must pass.
EXACT_TOL = 1e-12
# Agreement required between a quadrature estimate and its closed form; the
# library's own harness certifies quadrature at the same level.
QUAD_TOL = 1e-6
# Marginal agreement of a W-infinity coupling built from max-flow values.
MARGINAL_TOL = 1e-9
ROW_BLOCK = 16

VERIFY_COLUMNS = (
    "trial_id", "case", "descriptor", "delta_before", "coefficient",
    "measured", "bound", "tolerance", "passed", "slack",
)
MIXING_CONDITIONS = ("dobrushin", "eps_dobrushin", "doeblin", "ultra")


class CheckFailure(Exception):
    """An output disagreed with its reference computation or property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def require_close(got: float, want: float, tol: float, what: str) -> None:
    """``got`` within ``tol * max(1, |want|)`` of ``want`` (inf and nan match themselves)."""
    if got == want or (math.isnan(got) and math.isnan(want)):
        return
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckFailure(f"{what}: got {got!r}, reference {want!r}")


def canonical_config(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------- instances

def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy=[int(seed)])))


def open_uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(1, 2**53, size=shape).astype(np.float64) / float(2**53)


def random_instance(nx: int, ny: int, seed: int):
    """(mu, nu, kernel) of the harness's random instance, as plain arrays."""
    rng = philox(seed)
    raw = -np.log(open_uniforms(rng, (2, nx)))
    rows = -np.log(open_uniforms(rng, (nx, ny)))
    return raw[0] / raw[0].sum(), raw[1] / raw[1].sum(), rows / rows.sum(axis=1, keepdims=True)


# ------------------------------------------------------- paper's formulas

def hockey_stick(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    zero = q == 0.0
    out = float(p[zero].sum())
    if not math.isinf(eps):
        out += float(np.maximum(p[~zero] - math.exp(eps) * q[~zero], 0.0).sum())
    return min(out, 1.0)


def dobrushin(k: np.ndarray) -> float:
    """Largest total variation between two rows, over blocks of rows."""
    worst = 0.0
    for s in range(0, k.shape[0], ROW_BLOCK):
        tv = 0.5 * np.abs(k[s:s + ROW_BLOCK, None, :] - k[None, :, :]).sum(axis=2)
        worst = max(worst, float(tv.max()))
    return worst


def eps_dobrushin(k: np.ndarray, eps: float) -> float:
    """Largest hockey-stick divergence between ordered row pairs, over blocks."""
    q = k[None, :, :]
    worst = 0.0
    for s in range(0, k.shape[0], ROW_BLOCK):
        p = k[s:s + ROW_BLOCK, None, :]
        if math.isinf(eps):
            contrib = np.where(q == 0.0, p, 0.0)
        else:
            contrib = np.where(q == 0.0, p, np.maximum(p - math.exp(eps) * q, 0.0))
        worst = max(worst, float(contrib.sum(axis=2).max()))
    return min(worst, 1.0)


def doeblin(k: np.ndarray) -> float:
    """One minus the mass of the column minima."""
    mass = float(k.min(axis=0).sum())
    return 1.0 if mass <= 0.0 else min(max(1.0 - mass, 0.0), 1.0)


def ultra(k: np.ndarray) -> float:
    """Column-wise form: 1 - min over columns of min/max; 1 if a column mixes 0 and >0."""
    pos = k > 0.0
    if np.any(pos.any(axis=0) & ~pos.all(axis=0)):
        return 1.0
    full = pos.all(axis=0)
    ratio = min(1.0, float((k[:, full].min(axis=0) / k[:, full].max(axis=0)).min()))
    return min(max(1.0 - ratio, 0.0), 1.0)


def eps_tilde(eps: float, delta: float) -> float:
    return math.inf if delta == 0.0 else math.log1p(math.expm1(eps) / delta)


def amplified(condition: str, eps: float, delta: float, gamma: float) -> tuple[float, float]:
    """(eps', delta') that each mixing condition buys for an (eps, delta) guarantee."""
    if condition in ("dobrushin", "eps_dobrushin"):
        return eps, gamma * delta
    eps_p = math.log1p(gamma * math.expm1(eps))
    beta = math.exp(eps_p - eps)
    if condition == "doeblin":
        delta_p = gamma * (1.0 - beta * (1.0 - delta))
    else:
        delta_p = gamma * delta * beta
    return eps_p, min(max(delta_p, 0.0), 1.0)


def kernel_coefficients(k: np.ndarray, eps: float, delta: float) -> dict[str, float]:
    return {
        "dobrushin": dobrushin(k),
        "eps_dobrushin": eps_dobrushin(k, eps_tilde(eps, delta)),
        "doeblin": doeblin(k),
        "ultra": ultra(k),
    }


# --------------------------------------------------------- Renyi closed forms

def renyi_gaussian(shift: float, variance: float, alpha: float) -> float:
    return alpha * shift * shift / (2.0 * variance)


def renyi_laplace(shift: float, scale: float, alpha: float) -> float:
    z = abs(shift) / scale
    log_moment = np.logaddexp(math.log(alpha / (2.0 * alpha - 1.0)) + (alpha - 1.0) * z,
                              math.log((alpha - 1.0) / (2.0 * alpha - 1.0)) - alpha * z)
    return float(log_moment) / (alpha - 1.0)


def ou_law(x0: float, theta: float, rho: float, t: float) -> tuple[float, float]:
    """(mean, variance) of the Ornstein-Uhlenbeck transition law from x0."""
    return math.exp(-theta * t) * x0, rho * rho / theta * (-math.expm1(-2.0 * theta * t))


def check_renyi(value: float, reference: float, what: str) -> None:
    require_close(value, reference, QUAD_TOL, what)


# ------------------------------------------------------------- W-infinity

def w_inf_1d(x: np.ndarray, p: np.ndarray, y: np.ndarray, q: np.ndarray) -> float:
    """Sup-distance between the quantile functions of two sorted 1-D laws."""
    f, g = np.cumsum(p), np.cumsum(q)
    f[-1] = g[-1] = 1.0
    cuts = np.unique(np.concatenate([f, g]))
    lo = np.concatenate([[0.0], cuts[:-1]])
    mid = 0.5 * (lo + cuts)[cuts > lo]
    i = np.minimum(np.searchsorted(f, mid), len(x) - 1)
    j = np.minimum(np.searchsorted(g, mid), len(y) - 1)
    return float(np.abs(x[i] - y[j]).max())


def check_w_inf_1d(x: np.ndarray, p: np.ndarray, y: np.ndarray, q: np.ndarray, value: float) -> None:
    require_close(value, w_inf_1d(x, p, y, q), EXACT_TOL, "1-D W-infinity")


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))


def transport_feasible(p: np.ndarray, q: np.ndarray, allowed: np.ndarray) -> bool:
    """linprog feasibility: can p be moved onto q along the allowed pairs only?"""
    from scipy.optimize import linprog

    n, m = allowed.shape
    ii, jj = np.nonzero(allowed)
    a_eq = np.zeros((n + m, ii.size))
    a_eq[ii, np.arange(ii.size)] = 1.0
    a_eq[n + jj, np.arange(ii.size)] = 1.0
    res = linprog(np.zeros(ii.size), A_eq=a_eq, b_eq=np.concatenate([p, q]),
                  bounds=(0.0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    if res.status not in (0, 2):
        raise CheckFailure(f"feasibility LP did not finish: {res.message}")
    return res.status == 0


def check_w_inf_coupling(x, p, y, q, value: float, coupling, lp_cache: dict, key) -> None:
    """A 2-D W-infinity value and its witness: marginals, largest move, minimality."""
    xi = {tuple(pt): i for i, pt in enumerate(x.tolist())}
    yj = {tuple(pt): j for j, pt in enumerate(y.tolist())}
    mass = np.zeros((len(p), len(q)))
    for (a, b), pr in zip(coupling.points, coupling.probs):
        require(tuple(a) in xi and tuple(b) in yj, "coupling moves mass off the supports")
        mass[xi[tuple(a)], yj[tuple(b)]] += pr
    require(float(np.abs(mass.sum(axis=1) - p).max()) <= MARGINAL_TOL, "coupling: first marginal is wrong")
    require(float(np.abs(mass.sum(axis=0) - q).max()) <= MARGINAL_TOL, "coupling: second marginal is wrong")
    dist = pairwise_distances(x, y)
    require_close(float(dist[mass > 0.0].max()), value, EXACT_TOL, "largest distance moved by the coupling")
    smaller = dist[dist < value * (1.0 - EXACT_TOL)]
    if smaller.size and (key, value) not in lp_cache:
        lp_cache[(key, value)] = transport_feasible(p, q, dist <= smaller.max())
    require(not lp_cache.get((key, value), False),
            f"W-infinity {value!r} is not minimal: transport is feasible at a smaller distance")


# ------------------------------------------------------------ CLI outputs

def check_same_bytes(first: bytes, again: bytes, what: str) -> None:
    """Two runs of one (config, seed) must write identical bytes."""
    if first != again:
        at = next((i for i, (a, b) in enumerate(zip(first, again)) if a != b), min(len(first), len(again)))
        raise CheckFailure(f"{what}: output bytes differ between two runs of one (config, seed), "
                           f"first at byte {at}")


def _split_output(text: str) -> tuple[dict, list[list[str]]]:
    meta, body = {}, []
    for line in text.split("\n"):
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line:
            body.append(line)
    return meta, list(csv.reader(io.StringIO("\n".join(body) + "\n")))


def check_mixing_output(text: str, config: dict, ref: dict[str, float], exit_code: int) -> None:
    """`amplify-dp mixing` CSV against the kernel's reference coefficients ``ref``."""
    require(exit_code == 0, f"mixing exited with {exit_code}")
    meta, table = _split_output(text)
    require(meta.get("command") == "mixing", "mixing: wrong command line")
    require(meta.get("config") == canonical_config(config), "mixing: config not echoed canonically")
    eps, delta = float(config["eps"]), float(config["delta"])
    require_close(float(meta.get("eps_tilde", "nan")), eps_tilde(eps, delta), EXACT_TOL, "eps_tilde")
    require(table[0] == ["condition", "gamma", "eps_prime", "delta_prime"], "mixing: wrong header")
    require([r[0] for r in table[1:]] == list(MIXING_CONDITIONS), "mixing: wrong conditions")
    for cond, gamma, eps_p, delta_p in table[1:]:
        require_close(float(gamma), ref[cond], EXACT_TOL, f"{cond} coefficient")
        want_eps, want_delta = amplified(cond, eps, delta, ref[cond])
        require_close(float(eps_p), want_eps, EXACT_TOL, f"{cond} eps'")
        require_close(float(delta_p), want_delta, EXACT_TOL, f"{cond} delta'")


def _descriptor(text: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in text.split(","))


_SUITE_OF_CASE = re.compile(r"^(theorem1|transport|decompose|ou|brownian)_")


def _suite(case: str) -> str:
    m = _SUITE_OF_CASE.match(case)
    require(m is not None, f"unknown case {case!r}")
    return {"theorem1": "theorem1", "transport": "transport", "decompose": "transport"}.get(
        m.group(1), "diffusion")


def check_verify_output(text: str, config: dict, seed: int, exit_code: int,
                        may_fail: tuple[str, ...] = ()) -> tuple[int, int]:
    """`amplify-dp verify` CSV: metadata, row consistency, and every ``coefficient``,
    ``bound``, ``delta_before`` and theorem-1 ``measured`` value recomputed.

    Returns (trials attempted, trials failed).  A trial fails when any of its
    rows reports ``passed=false``; that is allowed only for cases in
    ``may_fail`` and must then show in ``# violations`` and exit code 3.
    """
    meta, table = _split_output(text)
    require(meta.get("command") == "verify", "verify: wrong command line")
    require(meta.get("config") == canonical_config(config), "verify: config not echoed canonically")
    require(meta.get("seed") == str(seed), "verify: wrong seed line")
    require(table and tuple(table[0]) == VERIFY_COLUMNS, "verify: wrong header")
    trials: dict[tuple[str, int], bool] = {}
    instances: dict[tuple[int, int, int], tuple] = {}
    violations = 0
    for cells in table[1:]:
        require(len(cells) == len(VERIFY_COLUMNS), "verify: ragged row")
        row = dict(zip(VERIFY_COLUMNS, cells))
        case, desc = row["case"], _descriptor(row["descriptor"])
        f = {c: float(row[c]) for c in ("delta_before", "coefficient", "measured",
                                        "bound", "tolerance", "slack")}
        require(row["passed"] in ("true", "false"), "verify: passed is not a boolean")
        passed = row["passed"] == "true"
        require(f["slack"] == f["bound"] - f["measured"], f"{case}: slack is not bound - measured")
        require(passed == (f["slack"] >= -f["tolerance"]), f"{case}: passed disagrees with slack")
        if not passed:
            violations += 1
            require(case in may_fail, f"{case} violated: {row['descriptor']}")
        key = (_suite(case), int(row["trial_id"]))
        trials[key] = trials.get(key, True) and passed

        if case.startswith("theorem1_"):
            nx, ny, iseed = int(desc["nx"]), int(desc["ny"]), int(desc["seed"])
            if (nx, ny, iseed) not in instances:
                mu, nu, k = random_instance(nx, ny, iseed)
                mu_k, nu_k = mu @ k, nu @ k
                instances[(nx, ny, iseed)] = (mu, nu, mu_k / mu_k.sum(), nu_k / nu_k.sum(), k, {
                    "dobrushin": dobrushin(k), "doeblin": doeblin(k), "ultra": ultra(k)})
            mu, nu, mu_k, nu_k, k, gammas = instances[(nx, ny, iseed)]
            eps, cond = float(desc["eps"]), case[len("theorem1_"):]
            delta = hockey_stick(mu, nu, eps)
            gamma = (eps_dobrushin(k, eps_tilde(eps, delta)) if cond == "eps_dobrushin"
                     else gammas[cond])
            eps_p, delta_p = amplified(cond, eps, delta, gamma)
            require_close(f["delta_before"], delta, EXACT_TOL, f"{case} delta_before")
            require_close(f["coefficient"], gamma, EXACT_TOL, f"{case} coefficient")
            require_close(f["bound"], delta_p, EXACT_TOL, f"{case} bound")
            require_close(f["measured"], hockey_stick(mu_k, nu_k, eps_p), EXACT_TOL, f"{case} measured")
            require(f["tolerance"] == EXACT_TOL, f"{case}: tolerance is not {EXACT_TOL}")
        elif key[0] == "transport":
            want_tol = 0.0 if case == "decompose_overlap" else EXACT_TOL
            require(f["bound"] == 0.0 and f["tolerance"] == want_tol, f"{case}: wrong bound or tolerance")
            if case.startswith("decompose_"):
                mu, nu, _ = random_instance(int(desc["n"]), 2, int(desc["seed"]))
                require_close(f["delta_before"], hockey_stick(mu, nu, float(desc["eps"])),
                              EXACT_TOL, f"{case} delta_before")
        else:
            alpha = float(desc.get("alpha", "nan"))
            t = float(desc["t"])
            if case == "ou_rdp_quadrature":
                theta, rho = float(desc["theta"]), float(desc["rho"])
                want = alpha * theta / (2.0 * rho * rho * math.expm1(2.0 * theta * t))
            elif case == "brownian_rdp_quadrature":
                want = renyi_gaussian(1.0, 2.0 * t, alpha)
            else:
                mean, var = ou_law(1.0, float(desc["theta"]), 1.0, t)
                want = (1.0 - mean) ** 2 + var
            require_close(f["coefficient"], want, EXACT_TOL, f"{case} coefficient")
            require(f["bound"] == 0.0, f"{case}: bound is not 0")
    require(meta.get("violations") == str(violations), "verify: # violations disagrees with the rows")
    require(exit_code == (3 if violations else 0), f"verify exited with {exit_code}")
    counts = {s: sum(1 for (suite, _) in trials if suite == s) for s in ("theorem1", "transport", "diffusion")}
    n_trials = config.get("trials", 200)
    for suite in config.get("suites", ("theorem1", "transport", "diffusion")):
        want = 36 if suite == "diffusion" else n_trials
        require(counts[suite] == want, f"verify: {suite} reported {counts[suite]} trials, not {want}")
    return len(trials), sum(1 for ok in trials.values() if not ok)
