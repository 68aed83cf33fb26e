"""Adaptive Simpson quadrature in log space with a hard evaluation budget.

Used as the numeric oracle that certifies closed-form divergences, so it
deliberately stays independent of every closed form in the package.

One sweep loop runs a whole stack of integrals (a :class:`_Stack`).  Each
integral keeps its own domain, tolerance, breakpoints, running maximum,
accepted sum, NaN-neighbour state and evaluation budget.  Its panels stay
contiguous and in the order the loop holds them for that integral alone, so
every sum its result depends on is the same pairwise ``.sum()``: an integral
gets the same bits in a stack as alone.  An integral that fails leaves the
stack with its :class:`QuadratureError`, and the others go on.
:func:`integrate` is the one-item call.  A sweep forms the Simpson values
and bisects the open panels by slicing one panel table (see ``L0``).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

# Uniform Simpson panels the domain starts with, shared out between the
# breakpoint segments by length.
INITIAL_PANELS = 32

# Evaluation budget of one integral.
MAX_EVALS = 10**6

# A sweep's panel table has a column per open panel and two blocks of rows:
# the logs at the panel's five nodes (rows L0 ... L1) and the nodes (rows
# X0 ... X1), left to right: left end, left quarter point, midpoint, right
# quarter point, right end.  Rows 0:3 and 2:5 of a block are the ends and
# midpoints of the panel's halves and rows ::2 its own, so the Simpson values
# and the bisection are slices of the table.
L0, LL, LM, LR, L1 = X0, XL, XM, XR, X1 = range(5)


class QuadratureError(RuntimeError):
    """Raised when the integrator cannot reach the tolerance within budget."""


class _Stack(NamedTuple):
    """Integrals for one sweep loop.  ``log_f(x, which)`` maps an array of
    points to their log-integrand values, where the int array ``which`` holds
    the index in the stack of each point's integral."""

    log_f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domains: Sequence[tuple[float, float]]
    rtols: Sequence[float]
    breakpoints: Sequence[Sequence[float]]


def _single(log_f: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The stacked form of the log-integrand of a one-item stack."""
    return lambda x, which: log_f(x)


def _value(outcome):
    """An outcome of a stacked call: a ``QuadratureError`` is raised, anything else returned."""
    if isinstance(outcome, QuadratureError):
        raise outcome
    return outcome


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
    ``|err| <= 15 * rtol * estimate * w / (b - a)``, where ``estimate`` is the
    running integral, so the accepted errors share out ``rtol`` by width.
    ``breakpoints`` pre-split the domain (pass kink locations of ``f``).
    Returns ``-inf`` when the integral comes out as 0.  The integrand's size
    at ``a`` and ``b`` is the caller's concern.

    NaN points count as 0 only while, on every sweep, each representable node
    of a panel that touches one stays at or below ``rtol * estimate / (b - a)``.
    Raises :class:`QuadratureError` when that rule fails (the integrand is not
    negligible next to an unrepresentable point), when ``log_f`` is ``+inf``
    somewhere, or when a sweep would take the evaluation count past
    ``MAX_EVALS``.  Raises ``ValueError`` unless ``a < b`` with ``b - a``
    finite and ``rtol > 0``.
    """
    return _value(_integrate_stack(_Stack(_single(log_f), [(a, b)], [rtol], [breakpoints]))[0])


def _budget_error() -> QuadratureError:
    return QuadratureError(f"quadrature exceeded {MAX_EVALS} evaluations before converging")


def _integrate_stack(stack: _Stack) -> list:
    """:func:`integrate` over every integral of ``stack`` in one sweep loop.

    Returns, per integral, the log of its integral or the ``QuadratureError``
    that :func:`integrate` would raise for it alone.  The panel table holds
    each live integral's open panels as one contiguous run of columns, and a
    sweep's values that are per integral (its running maximum, acceptance
    coefficient and domain length) are repeated over its run, or stay scalars
    while one integral is live.
    """
    for (a, b), rtol in zip(stack.domains, stack.rtols):
        if not b > a:
            raise ValueError("domain must satisfy a < b")
        if not math.isfinite(b - a):
            raise ValueError(f"domain ({a!r}, {b!r}) must have a finite length")
        if not rtol > 0:
            raise ValueError(f"rtol must be > 0, got {rtol!r}")
    log_f, rtols = stack.log_f, stack.rtols
    k = len(rtols)
    totals = [b - a for a, b in stack.domains]
    out: list = [None] * k
    evals = [0] * k
    top, acc = [-math.inf] * k, [0.0] * k  # running maximum M; accepted panels, in units of exp(M)
    # Log of the largest representable node of the panels that touched a NaN
    # point, and that panel's midpoint.
    worst, worst_at = [-math.inf] * k, [None] * k

    live, counts, seeds = [], [], []
    for j, ((a, b), breakpoints) in enumerate(zip(stack.domains, stack.breakpoints)):
        edges = _seed_edges(a, b, breakpoints)
        evals[j] = 2 * len(edges) - 1
        if evals[j] > MAX_EVALS:
            out[j] = _budget_error()
            continue
        live.append(j)
        counts.append(len(edges) - 1)
        seeds.append(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    if not live:
        return out
    x, sizes = np.concatenate(seeds), [2 * n + 1 for n in counts]
    logs = _evaluate(log_f, x, np.repeat(live, sizes))
    if np.fmax.reduce(logs) == math.inf:  # fmax skips NaN
        _flag_infinite(logs, x, live, sizes, out, halves=False)
    table = []
    for n, seed, start, size in zip(counts, seeds, accumulate(sizes, initial=0), sizes):
        part = logs[start:start + size]
        table.append([[part[:n], part[n + 1:], part[1:n + 1]], [seed[:n], seed[n + 1:], seed[1:n + 1]]])
    panels = np.empty((2, 5, sum(counts)))
    panels[:, ::2] = np.concatenate(table, axis=2)
    panels, live, counts = _drop(panels, live, counts, out)

    while live:
        for j, c in zip(live, counts):
            if evals[j] + 2 * c > MAX_EVALS:
                out[j] = _budget_error()
            else:
                evals[j] += 2 * c
        panels, live, counts = _drop(panels, live, counts, out)
        if not live:
            break
        nodes, x = panels
        # The quarter points, [left quarters, right quarters]: each integral's
        # points lie in two runs, one in each half.
        np.multiply(0.5, x[X0:XM + 1:2] + x[XM:X1 + 1:2], out=x[XL:XR + 1:2])
        points = x[XL:XR + 1:2].ravel()
        logs = _evaluate(log_f, points, np.array(live + live).repeat(counts + counts))
        nodes[LL:LR + 1:2] = logs.reshape(2, -1)
        if np.fmax.reduce(logs) == math.inf:  # fmax skips NaN
            _flag_infinite(logs, points, live, counts, out)
            panels, live, counts = _drop(panels, live, counts, out)
            if not live:
                break
            nodes, x = panels
        del points, logs  # the table holds them now
        starts = list(accumulate(counts[:-1], initial=0))

        node_max = nodes.max(axis=0)
        new_tops = np.maximum.reduceat(node_max, starts).tolist()
        # A NaN node makes its panel's maximum and its integral's NaN; no top is +inf.
        nan = math.isnan(sum(new_tops))
        if nan:
            unknown = np.isnan(nodes)
            nodes = np.where(unknown, -math.inf, nodes)
            node_max = nodes.max(axis=0)
            new_tops = np.maximum.reduceat(node_max, starts).tolist()
        for j, new_top in zip(live, new_tops):
            if new_top > top[j]:
                acc[j], top[j] = acc[j] * math.exp(top[j] - new_top), new_top
        # A live integral whose M is still -inf has only -inf nodes; a shift of
        # 0 maps them to the zeros they are, where -inf - -inf would be NaN.
        shift = _per_panel([top[j] if top[j] > -math.inf else 0.0 for j in live], counts)
        width = x[X1] - x[X0]
        refined, err = _simpson(np.exp(nodes - shift), x, width)
        estimates = [acc[j] + float(refined[s:s + c].sum()) for j, s, c in zip(live, starts, counts)]

        if nan:
            near = np.where(unknown.any(axis=0), node_max, -math.inf)
            for j, s, c in zip(live, starts, counts):
                i = s + int(np.argmax(near[s:s + c]))
                if near[i] > worst[j]:
                    worst[j], worst_at[j] = float(near[i]), float(x[XM, i])
        failed = [worst_at[j] is not None and math.exp(worst[j] - top[j]) > rtols[j] * estimate / totals[j]
                  for j, estimate in zip(live, estimates)]
        for j, f in zip(live, failed):
            if f:
                out[j] = QuadratureError(f"integrand is not negligible next to x={worst_at[j]!r}, "
                                         "where it is not representable")

        coefs = [15.0 * rtols[j] * estimate for j, estimate in zip(live, estimates)]
        done = np.abs(err) <= _per_panel(coefs, counts) * width / _per_panel([totals[j] for j in live], counts)
        gains = (refined + err / 15.0)[done]
        accepted = np.add.reduceat(done, starts, dtype=np.intp).tolist()
        for j, g, c, f in zip(live, accumulate(accepted, initial=0), accepted, failed):
            if c and not f:
                acc[j] += float(gains[g:g + c].sum())
        keep = ~done
        if any(failed):
            keep &= np.repeat([not f for f in failed], counts)
        counts = [0 if f else c - a for c, a, f in zip(counts, accepted, failed)]
        for j, c, f in zip(live, counts, failed):
            if c == 0 and not f:
                out[j] = math.log(acc[j]) + top[j] if acc[j] > 0.0 else -math.inf
        live = [j for j, c in zip(live, counts) if c]
        counts = [c for c in counts if c]
        if live:
            panels = _bisected(panels.compress(keep, axis=2), counts)
            counts = [2 * c for c in counts]
    return out


def _simpson(f: np.ndarray, x: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each panel's Simpson value from its halves, and that value's Richardson
    error against the panel's own, from the integrand ``f`` at its nodes ``x``
    and its ``width``: s = (x1 - x0) / 6 * (f0 + 4 fm + f1) for each."""
    # Over the windows of three consecutive nodes: the first and last are the
    # halves, the middle one (quarter point to quarter point) is unused.
    windows = (x[2:] - x[:3]) / 6.0 * (f[:3] + 4.0 * f[1:4] + f[2:])
    refined = windows[0] + windows[2]
    return refined, refined - width / 6.0 * (f[L0] + 4.0 * f[LM] + f[L1])


def _per_panel(values: list, counts: list):
    """Each live integral's value over its run of ``counts`` panels: one
    integral's stays a scalar, which broadcasts to the same bits."""
    return values[0] if len(values) == 1 else np.array(values).repeat(counts)


def _evaluate(log_f, x: np.ndarray, which: np.ndarray) -> np.ndarray:
    """``log_f`` at ``x``, whose points belong to the integrals ``which``, as floats."""
    return np.asarray(log_f(x, which), dtype=np.float64)


def _flag_infinite(logs: np.ndarray, x: np.ndarray, live: list, counts: list, out: list,
                   halves: bool = True) -> None:
    """Sets the ``out`` entry of each integral with a ``+inf`` log to its
    ``QuadratureError``, which names its first such point.  ``logs`` holds
    ``counts[i]`` logs of integral ``live[i]`` in each half, in order, or,
    without ``halves``, in the whole."""
    runs = (logs == math.inf).reshape(2 if halves else 1, -1)
    points = x.reshape(runs.shape)
    for j, s, c in zip(live, accumulate(counts, initial=0), counts):
        at = np.flatnonzero(runs[:, s:s + c])
        if len(at):
            row, col = divmod(int(at[0]), c)
            out[j] = QuadratureError(f"log-integrand is +inf at x={float(points[row, s + col])!r}")


def _drop(panels: np.ndarray, live: list, counts: list, out: list) -> tuple[np.ndarray, list, list]:
    """The panel table, live integrals and panel counts without the integrals
    that have an outcome."""
    alive = [out[j] is None for j in live]
    if all(alive):
        return panels, live, counts
    panels = panels.compress(np.repeat(alive, counts), axis=2)
    return panels, [j for j, a in zip(live, alive) if a], [c for c, a in zip(counts, alive) if a]


def _bisected(kept: np.ndarray, counts: list) -> np.ndarray:
    """The panel table of the halves of the ``kept`` panels, whose integrals
    have ``counts`` panels each: per integral, its left halves and then its
    right halves, the order the one-integral loop keeps.  A half's ends and
    midpoint are rows 0:3 or 2:5 of its panel; its quarter rows are the next
    sweep's to fill."""
    halves = np.empty((2, 5, 2 * kept.shape[2]))
    for s, c in zip(accumulate(counts, initial=0), counts):
        halves[:, ::2, 2 * s:2 * s + c] = kept[:, L0:LM + 1, s:s + c]
        halves[:, ::2, 2 * s + c:2 * (s + c)] = kept[:, LM:L1 + 1, s:s + c]
    return halves


def _ends_rule(stack: _Stack, log_integrals: list) -> list:
    """Domain-end rule for integrals over the whole line, computed on each
    integral's domain ``[a, b]``.

    ``log_integrals`` holds, per integral of ``stack``, its log or an error.
    Returns it with each log replaced by a :class:`QuadratureError` unless
    ``f`` at both ends, times the domain length, stays at or below ``rtol``
    times the integral: otherwise the domain cuts off mass and the integral
    would be under-reported.  A NaN end (an underflowed density) passes.
    """
    live = [j for j, v in enumerate(log_integrals) if not isinstance(v, QuadratureError)]
    if not live:
        return list(log_integrals)
    x = np.array([stack.domains[j] for j in live], dtype=np.float64).ravel()
    ends = _evaluate(stack.log_f, x, np.repeat(live, 2)).reshape(-1, 2)
    out = list(log_integrals)
    for j, end in zip(live, ends):
        (a, b), rtol = stack.domains[j], stack.rtols[j]
        if np.any(end + math.log(b - a) > math.log(rtol) + log_integrals[j]):
            out[j] = QuadratureError("integrand is not negligible at a domain end")
    return out
