"""Adaptive Simpson quadrature with a hard evaluation budget.

Used as the numeric oracle that certifies closed-form divergences, so it
deliberately stays independent of every closed form in the package.
"""

from __future__ import annotations

from typing import Callable, Sequence

# Uniform Simpson panels the domain starts with, shared out between the
# breakpoint segments by length.
INITIAL_PANELS = 32


class QuadratureError(RuntimeError):
    """Raised when the integrator cannot reach the tolerance within budget."""


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-8,
    max_evals: int = 10**6,
    breakpoints: Sequence[float] = (),
    rtol: float = 0.0,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to tolerance ``tol + rtol * |integral|``.

    Adaptive bisection of Simpson panels with Richardson extrapolation.
    ``breakpoints`` pre-split the domain (pass kink locations of ``f``).
    The relative term is applied panel-wise, which bounds the global relative
    error for non-negative integrands.  Raises :class:`QuadratureError` once
    ``max_evals`` function evaluations are spent without reaching the local
    error targets.
    """
    if not b > a:
        raise ValueError("domain must satisfy a < b")

    cuts = sorted({float(a), float(b), *(float(x) for x in breakpoints if a < x < b)})
    evals = 0

    def fev(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > max_evals:
            raise QuadratureError(
                f"quadrature exceeded {max_evals} evaluations before converging"
            )
        return f(x)

    # Seed the work stack with uniform panels inside each breakpoint segment,
    # so narrow features away from segment ends are not missed.
    total = b - a
    stack: list[tuple[float, float, float, float, float, float, float]] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n = max(1, round(INITIAL_PANELS * (hi - lo) / total))
        edges = [lo + (hi - lo) * k / n for k in range(n + 1)]
        for x0, x1 in zip(edges[:-1], edges[1:]):
            xm = 0.5 * (x0 + x1)
            f0, fm, f1 = fev(x0), fev(xm), fev(x1)
            s = (x1 - x0) / 6.0 * (f0 + 4.0 * fm + f1)
            stack.append((x0, x1, f0, fm, f1, s, tol * (x1 - x0) / total))

    result = 0.0
    while stack:
        x0, x1, f0, fm, f1, s, tloc = stack.pop()
        xm = 0.5 * (x0 + x1)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x1)
        fl, fr = fev(xl), fev(xr)
        sl = (xm - x0) / 6.0 * (f0 + 4.0 * fl + fm)
        sr = (x1 - xm) / 6.0 * (fm + 4.0 * fr + f1)
        err = sl + sr - s
        if abs(err) <= 15.0 * (tloc + rtol * abs(sl + sr)):
            result += sl + sr + err / 15.0
        else:
            stack.append((x0, xm, f0, fl, fm, sl, 0.5 * tloc))
            stack.append((xm, x1, fm, fr, f1, sr, 0.5 * tloc))
    return result
