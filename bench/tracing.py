"""Spans and counters recorded around calls into the library's layers.

The tracer wraps library names from outside, in the module namespace where
each caller looks the name up (``verify`` imports names directly from
``mixing`` and ``divergences``, ``cli`` from ``verify`` and ``mixing``), and
restores the originals afterwards.  Spans stay in memory; a layer's self time
is its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter, defaultdict

# (module, attribute, span name) for every wrapped library name.
WRAPPED = [
    ("amplify_dp.cli", "certify_theorem1", "verify.theorem1"),
    ("amplify_dp.cli", "certify_transport_and_decompose", "verify.transport"),
    ("amplify_dp.cli", "certify_diffusion", "verify.diffusion"),
    ("amplify_dp.cli", "amplify_with_kernel", "mixing.amplify_with_kernel"),
    ("amplify_dp.cli", "eps_tilde", "mixing.eps_tilde"),
    ("amplify_dp.verify", "pushforward", "mixing.pushforward"),
    ("amplify_dp.verify", "dobrushin_coeff", "mixing.dobrushin"),
    ("amplify_dp.verify", "eps_dobrushin_coeff", "mixing.eps_dobrushin"),
    ("amplify_dp.verify", "doeblin_coeff", "mixing.doeblin"),
    ("amplify_dp.verify", "ultra_coeff", "mixing.ultra"),
    ("amplify_dp.verify", "random_joint_coupling", "mixing.random_joint_coupling"),
    ("amplify_dp.verify", "transport_operator", "mixing.transport_operator"),
    ("amplify_dp.verify", "mixture_decompose", "mixing.mixture_decompose"),
    ("amplify_dp.verify", "hockey_stick", "divergences.hockey_stick"),
    ("amplify_dp.verify", "renyi_numeric_1d", "divergences.renyi_numeric"),
    ("amplify_dp.verify", "ou_sample", "diffusion.ou_sample"),
    ("amplify_dp.verify", "rng_from_seed", "rng.stream"),
    ("amplify_dp.mixing", "dobrushin_coeff", "mixing.dobrushin"),
    ("amplify_dp.mixing", "eps_dobrushin_coeff", "mixing.eps_dobrushin"),
    ("amplify_dp.mixing", "doeblin_coeff", "mixing.doeblin"),
    ("amplify_dp.mixing", "ultra_coeff", "mixing.ultra"),
    ("amplify_dp.mixing", "rng_from_seed", "rng.stream"),
    ("amplify_dp.divergences", "renyi_numeric_1d", "divergences.renyi_numeric"),
    ("amplify_dp.divergences", "w_inf_discrete", "divergences.w_inf"),
    ("amplify_dp.divergences", "w_inf_optimal_coupling", "divergences.w_inf"),
    ("amplify_dp.divergences", "integrate", "quadrature.integrate"),
    ("amplify_dp.distributions", "rng_from_seed", "rng.stream"),
]
PEAK_TRACKED = {"mixing.dobrushin", "mixing.eps_dobrushin"}
REPORT_COUNTED = {"verify.theorem1", "verify.transport", "verify.diffusion"}

# metric -> (span name, what); "s" inclusive seconds, "self_s" self seconds,
# "calls" span count, "peak_mb" tracemalloc peak, "count" a named counter.
LAYER_METRICS = {
    "cli.main_s": ("cli.main", "s"),
    "cli.self_s": ("cli.main", "self_s"),
    "cli.output_bytes": ("cli.output_bytes", "count"),
    "verify.theorem1_s": ("verify.theorem1", "s"),
    "verify.transport_s": ("verify.transport", "s"),
    "verify.diffusion_s": ("verify.diffusion", "s"),
    "verify.reports": ("verify.reports", "count"),
    "mixing.ultra_s": ("mixing.ultra", "s"),
    "mixing.ultra_calls": ("mixing.ultra", "calls"),
    "mixing.dobrushin_s": ("mixing.dobrushin", "s"),
    "mixing.eps_dobrushin_s": ("mixing.eps_dobrushin", "s"),
    "mixing.doeblin_s": ("mixing.doeblin", "s"),
    "mixing.dobrushin_peak_mb": ("mixing.dobrushin", "peak_mb"),
    "mixing.eps_dobrushin_peak_mb": ("mixing.eps_dobrushin", "peak_mb"),
    "mixing.pushforward_s": ("mixing.pushforward", "s"),
    "mixing.random_joint_coupling_s": ("mixing.random_joint_coupling", "s"),
    "mixing.random_joint_coupling_calls": ("mixing.random_joint_coupling", "calls"),
    "mixing.transport_operator_s": ("mixing.transport_operator", "s"),
    "mixing.mixture_decompose_s": ("mixing.mixture_decompose", "s"),
    "divergences.renyi_numeric_s": ("divergences.renyi_numeric", "s"),
    "divergences.renyi_numeric_calls": ("divergences.renyi_numeric", "calls"),
    "divergences.w_inf_s": ("divergences.w_inf", "s"),
    "divergences.w_inf_calls": ("divergences.w_inf", "calls"),
    "divergences.hockey_stick_s": ("divergences.hockey_stick", "s"),
    "divergences.hockey_stick_calls": ("divergences.hockey_stick", "calls"),
    "quadrature.integrate_s": ("quadrature.integrate", "s"),
    "quadrature.density_evals": ("quadrature.density_evals", "count"),
    "distributions.discrete_dist_s": ("distributions.discrete_dist", "s"),
    "distributions.discrete_dist_count": ("distributions.discrete_dist", "calls"),
    "diffusion.ou_sample_s": ("diffusion.ou_sample", "s"),
    "rng.streams": ("rng.stream", "calls"),
}
UNITS = {"s": "s", "self_s": "s", "calls": "count", "count": "count", "peak_mb": "MB"}
UNITS_OVERRIDE = {"cli.output_bytes": "bytes"}


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        peak = name in PEAK_TRACKED
        if peak:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if peak:
                self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _counted(self, fn):
        def density(x):
            self.counts["quadrature.density_evals"] += 1
            return fn(x)
        return density

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "divergences.renyi_numeric":
                args = (self._counted(args[0]), self._counted(args[1]), *args[2:])
            result = self.call(name, fn, *args, **kwargs)
            if name in REPORT_COUNTED:
                self.counts["verify.reports"] += len(result)
            return result
        return traced

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        dist = importlib.import_module("amplify_dp.distributions").DiscreteDist
        self._patch(dist, "__init__", self._wrap(dist.__init__, "distributions.discrete_dist"))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, time_scale: float) -> dict[str, float]:
        """Per-layer values of this tracer's spans; seconds multiplied by ``time_scale``."""
        child_s: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for sid, _, name, t0, t1 in self.spans:
            total[name] += t1 - t0
            own[name] += t1 - t0 - child_s[sid]
            calls[name] += 1
        out = {}
        for metric, (name, what) in LAYER_METRICS.items():
            out[metric] = {
                "s": total[name] * time_scale,
                "self_s": own[name] * time_scale,
                "calls": calls[name],
                "count": self.counts[name],
                "peak_mb": self.peaks[name] / 2**20,
            }[what]
        return out


def metric_unit(metric: str) -> str:
    return UNITS_OVERRIDE.get(metric, UNITS[LAYER_METRICS[metric][1]])
