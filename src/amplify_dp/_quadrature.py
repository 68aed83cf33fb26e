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
    Every sweep bisects all open Simpson panels at once; node values are held
    as ``exp(log_f - M)`` for the running maximum ``M``.  A panel of width
    ``w`` is accepted once its Richardson error satisfies
    ``|err| <= 15 * rtol * (|S| + estimate * w / (b - a))``, where ``S`` is its
    refined Simpson value and ``estimate`` the running integral.
    ``breakpoints`` pre-split the domain (pass kink locations of ``f``).
    Returns ``-inf`` when the integral comes out as 0.

    NaN points count as 0 only while, on every sweep, each representable node
    of a panel that touches one, and both domain ends, stay at or below
    ``rtol * estimate / (b - a)``.  Raises :class:`QuadratureError` when that
    rule fails (the integrand is not negligible next to an unrepresentable
    point or at a domain end), when ``log_f`` is ``+inf`` somewhere, or when a
    sweep would take the evaluation count past ``max_evals``.
    """
    if not b > a:
        raise ValueError("domain must satisfy a < b")
    total = b - a
    edges = _seed_edges(a, b, breakpoints)
    x0, x1 = edges[:-1], edges[1:]
    xm = 0.5 * (x0 + x1)
    evals = 0
    top = -math.inf  # the running maximum M

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Node values ``exp(log_f - M)`` (0 where unknown), unknown flags, and
        the factor by which everything held so far must be rescaled."""
        nonlocal evals, top
        if evals + len(x) > max_evals:
            raise QuadratureError(
                f"quadrature exceeded {max_evals} evaluations before converging"
            )
        evals += len(x)
        logs = np.asarray(log_f(x), dtype=np.float64)
        if np.any(logs == math.inf):
            raise QuadratureError(f"log-integrand is +inf at x={float(x[logs == math.inf][0])!r}")
        unknown = np.isnan(logs)
        known = np.where(unknown, -math.inf, logs)
        new_top = float(known.max())
        scale = 1.0
        if new_top > top:
            scale, top = math.exp(top - new_top), new_top
        values = np.exp(known - top) if top > -math.inf else np.zeros(len(x))
        return values, unknown, scale

    values, unknown, _ = evaluate(np.concatenate([edges, xm]))
    n = len(xm)
    v0, v1, vm = values[:n], values[1:n + 1], values[n + 1:]
    u0, u1, um = unknown[:n], unknown[1:n + 1], unknown[n + 1:]
    end_values = values[[0, n]]
    s = (x1 - x0) / 6.0 * (v0 + 4.0 * vm + v1)
    acc = 0.0  # accepted panels, in units of exp(M)
    # Largest representable node of the panels that touched a NaN point, in
    # units of exp(M), and that panel's midpoint; the rule applies once one has.
    worst, worst_at = 0.0, None

    def check_underflow(estimate: float, touched: np.ndarray, node_max: np.ndarray,
                        mids: np.ndarray) -> None:
        nonlocal worst, worst_at
        if touched.any():
            i = int(np.argmax(np.where(touched, node_max, -1.0)))
            if worst_at is None or node_max[i] > worst:
                worst, worst_at = float(node_max[i]), float(mids[i])
        if worst_at is None:
            return
        limit = rtol * estimate / total
        if worst > limit:
            raise QuadratureError(
                f"integrand is not negligible next to x={worst_at!r}, where it is not representable"
            )
        if end_values.max() > limit:
            raise QuadratureError("integrand is not negligible at a domain end")

    check_underflow(float(s.sum()), u0 | um | u1, np.maximum(np.maximum(v0, vm), v1), xm)

    while len(x0):
        xm = 0.5 * (x0 + x1)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x1)
        n = len(x0)
        values, unknown, scale = evaluate(np.concatenate([xl, xr]))
        if scale != 1.0:
            v0, vm, v1, s = v0 * scale, vm * scale, v1 * scale, s * scale
            acc, worst, end_values = acc * scale, worst * scale, end_values * scale
        vl, vr, ul, ur = values[:n], values[n:], unknown[:n], unknown[n:]
        sl = (xm - x0) / 6.0 * (v0 + 4.0 * vl + vm)
        sr = (x1 - xm) / 6.0 * (vm + 4.0 * vr + v1)
        refined = sl + sr
        err = refined - s
        estimate = acc + float(refined.sum())
        node_max = np.maximum.reduce([v0, vl, vm, vr, v1])
        check_underflow(estimate, u0 | ul | um | ur | u1, node_max, xm)
        done = np.abs(err) <= 15.0 * rtol * (np.abs(refined) + estimate * (x1 - x0) / total)
        acc += float((refined[done] + err[done] / 15.0).sum())
        keep = ~done
        x0, x1 = np.concatenate([x0[keep], xm[keep]]), np.concatenate([xm[keep], x1[keep]])
        v0, vm, v1 = (np.concatenate([v0[keep], vm[keep]]), np.concatenate([vl[keep], vr[keep]]),
                      np.concatenate([vm[keep], v1[keep]]))
        u0, um, u1 = (np.concatenate([u0[keep], um[keep]]), np.concatenate([ul[keep], ur[keep]]),
                      np.concatenate([um[keep], u1[keep]]))
        s = np.concatenate([sl[keep], sr[keep]])
    return math.log(acc) + top if acc > 0.0 else -math.inf
