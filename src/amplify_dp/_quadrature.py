"""Adaptive Simpson quadrature in log space with a hard evaluation budget.

Used as the numeric oracle that certifies closed-form divergences, so it
deliberately stays independent of every closed form in the package.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

# Uniform Simpson panels the domain starts with, shared out between the
# breakpoint segments by length.
INITIAL_PANELS = 32


class QuadratureError(RuntimeError):
    """Raised when the integrator cannot reach the tolerance within budget."""


def _seed_edges(a: float, b: float, breakpoints: Sequence[float]) -> np.ndarray:
    """Edges of ``INITIAL_PANELS`` uniform panels, shared out between the
    breakpoint segments by length, so narrow features away from segment ends
    are not missed."""
    cuts = sorted({float(a), float(b), *(float(x) for x in breakpoints if a < x < b)})
    edges = [cuts[0]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n = max(1, round(INITIAL_PANELS * (hi - lo) / (b - a)))
        edges.extend(lo + (hi - lo) * k / n for k in range(1, n + 1))
    return np.array(edges)


def integrate(
    log_f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rtol: float = 1e-8,
    max_evals: int = 10**6,
    breakpoints: Sequence[float] = (),
) -> float:
    """Log of the integral of ``exp(log_f)`` over ``[a, b]``, to relative tolerance ``rtol``.

    ``log_f`` maps an array of points to their log-integrand values: ``-inf``
    is an exact zero, and NaN marks a point where the integrand is not
    representable (for the Renyi moment, where a density underflowed to 0).
    A panel is its ends and the logs of its three Simpson nodes.  Every sweep
    bisects all open panels at once and forms the Simpson values from
    ``exp(log_f - M)`` for the running maximum ``M``.  A panel of width ``w``
    is accepted once its Richardson error satisfies
    ``|err| <= 15 * rtol * (|S| + estimate * w / (b - a))``, where ``S`` is its
    refined Simpson value and ``estimate`` the running integral.
    ``breakpoints`` pre-split the domain (pass kink locations of ``f``).
    Returns ``-inf`` when the integral comes out as 0.  The integrand's size
    at ``a`` and ``b`` is the caller's concern.

    NaN points count as 0 only while, on every sweep, each representable node
    of a panel that touches one stays at or below ``rtol * estimate / (b - a)``.
    Raises :class:`QuadratureError` when that rule fails (the integrand is not
    negligible next to an unrepresentable point), when ``log_f`` is ``+inf``
    somewhere, or when a sweep would take the evaluation count past
    ``max_evals``.
    """
    if not b > a:
        raise ValueError("domain must satisfy a < b")
    total = b - a
    evals = 0

    def evaluate(x: np.ndarray) -> np.ndarray:
        nonlocal evals
        if evals + len(x) > max_evals:
            raise QuadratureError(
                f"quadrature exceeded {max_evals} evaluations before converging"
            )
        evals += len(x)
        logs = np.asarray(log_f(x), dtype=np.float64)
        if np.any(logs == math.inf):
            raise QuadratureError(f"log-integrand is +inf at x={float(x[logs == math.inf][0])!r}")
        return logs

    edges = _seed_edges(a, b, breakpoints)
    x0, x1 = edges[:-1], edges[1:]
    n = len(x0)
    logs = evaluate(np.concatenate([edges, 0.5 * (x0 + x1)]))
    l0, l1, lm = logs[:n], logs[1:n + 1], logs[n + 1:]
    top, acc = -math.inf, 0.0  # running maximum M; accepted panels, in units of exp(M)
    # Log of the largest representable node of the panels that touched a NaN
    # point, and that panel's midpoint.
    worst, worst_at = -math.inf, None

    while len(x0):
        xm = 0.5 * (x0 + x1)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x1)
        n = len(x0)
        logs = evaluate(np.concatenate([xl, xr]))
        ll, lr = logs[:n], logs[n:]
        nodes = np.stack([l0, ll, lm, lr, l1])
        unknown = np.isnan(nodes)
        nodes[unknown] = -math.inf
        node_max = nodes.max(axis=0)
        new_top = float(node_max.max())
        if new_top > top:
            acc, top = acc * math.exp(top - new_top), new_top
        v0, vl, vm, vr, v1 = np.exp(nodes - top) if top > -math.inf else np.zeros_like(nodes)
        s = (x1 - x0) / 6.0 * (v0 + 4.0 * vm + v1)
        sl = (xm - x0) / 6.0 * (v0 + 4.0 * vl + vm)
        sr = (x1 - xm) / 6.0 * (vm + 4.0 * vr + v1)
        refined = sl + sr
        err = refined - s
        estimate = acc + float(refined.sum())
        near = np.where(unknown.any(axis=0), node_max, -math.inf)
        i = int(np.argmax(near))
        if near[i] > worst:
            worst, worst_at = float(near[i]), float(xm[i])
        if worst_at is not None and math.exp(worst - top) > rtol * estimate / total:
            raise QuadratureError(
                f"integrand is not negligible next to x={worst_at!r}, where it is not representable"
            )
        done = np.abs(err) <= 15.0 * rtol * (np.abs(refined) + estimate * (x1 - x0) / total)
        acc += float((refined[done] + err[done] / 15.0).sum())
        keep = ~done
        x0, x1 = np.concatenate([x0[keep], xm[keep]]), np.concatenate([xm[keep], x1[keep]])
        l0, lm, l1 = (np.concatenate([l0[keep], lm[keep]]), np.concatenate([ll[keep], lr[keep]]),
                      np.concatenate([lm[keep], l1[keep]]))
    return math.log(acc) + top if acc > 0.0 else -math.inf
