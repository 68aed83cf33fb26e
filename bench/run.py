#!/usr/bin/env python3
"""Benchmark of amplify-dp, measured from outside through its public functions.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads:

  verify-default  ``amplify-dp verify`` through ``cli.main``, writing CSV
  mixing-scale    ``amplify-dp mixing`` through ``cli.main`` on large kernel files
  oracle-sweep    ``renyi_numeric_1d`` and W-infinity oracles called directly

A run repeats whole rounds of its workload for ``--seconds`` (at least two
rounds) and checks every output against the reference computations in
``checks.py``.  Times are reported at reference speed: each round's raw
seconds times NOMINAL_REF_S over the mean reference-loop time
(``refloop.py``) measured around and between its segments, in the same
process; ``setup_s`` is normalized likewise by a reference import.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced run.  The last line of standard output is one JSON object;
details go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Reference-loop time, in seconds, that defines "reference speed".
NOMINAL_REF_S = 0.025
# Reference-import time, in seconds, that defines reference speed for setup_s.
NOMINAL_REF_IMPORT_S = 0.165
SETUP_REPEATS = 5
MIN_ROUNDS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
IMPORT_PACKAGES = {"numpy": "import.numpy_s", "scipy": "import.scipy_s",
                   "networkx": "import.networkx_s", "amplify_dp": "import.amplify_dp_self_s"}

# A fresh interpreter imports the package and its CLI and prints the time.
SETUP_CHILD = "import time, amplify_dp, amplify_dp.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
# The reference for setup_s: a fresh interpreter importing a fixed set of
# standard-library modules.  Like the imports it normalizes, it is process
# start-up, file reads, unmarshalling and module execution; the reference
# loop tracks that work badly (30 runs: 32% spread normalized, 22% raw).
REFERENCE_CHILD = (
    "import time, email.parser, http.client, xml.dom.minidom, decimal, asyncio, unittest, "
    "argparse, json, csv, fractions, statistics, logging, zipfile, tarfile, sqlite3, "
    "urllib.request; print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_import(code: str, importtime: bool = False) -> tuple[float, str]:
    """(seconds from spawn to the printed time, stderr) of one fresh interpreter."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", code]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed in a fresh interpreter:\n{proc.stderr}")
    return float(proc.stdout) - t0, proc.stderr


def import_self_seconds(importtime_log: str) -> dict[str, float]:
    """Self import time per top-level package from ``-X importtime`` output."""
    out = dict.fromkeys(IMPORT_PACKAGES.values(), 0.0)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        metric = IMPORT_PACKAGES.get(name.strip().split(".")[0])
        if metric:
            out[metric] += int(self_us) * 1e-6
    return out


def measure_setup(importtime: bool) -> tuple[float, float, dict[str, float]]:
    """Median over SETUP_REPEATS fresh interpreters: (normalized s, raw s, import self s).

    Each program import follows one reference import; the raw median is
    normalized by the mean reference import.  One unrecorded interpreter of
    each kind runs first, so bytecode caches exist.
    """
    fresh_import(REFERENCE_CHILD)
    fresh_import(SETUP_CHILD)
    refs, runs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(fresh_import(REFERENCE_CHILD)[0])
        runs.append(fresh_import(SETUP_CHILD, importtime))
    raw = statistics.median(r for r, _ in runs)
    scale = NOMINAL_REF_IMPORT_S / statistics.mean(refs)
    logs = [import_self_seconds(log) for _, log in runs]
    imports = {k: statistics.median(log[k] for log in logs) * scale for k in IMPORT_PACKAGES.values()}
    return raw * scale, raw, imports


def run_round(workload, reference_sample_s, tracer=None) -> tuple[list, list[float], list[float]]:
    """(results, raw seconds per segment, reference samples) of one round.

    A reference sample is taken before the first segment and after each one.
    """
    refs = [reference_sample_s()]
    raw, results = [], []
    if tracer is not None:
        tracer.install()
    try:
        for i in range(workload.n_segments):
            t0 = time.perf_counter()
            results.append(workload.run_segment(i, tracer))
            raw.append(time.perf_counter() - t0)
            refs.append(reference_sample_s())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, raw, refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-default", "mixing-scale", "oracle-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "amplify_dp" / "__init__.py").is_file():
        print(f"error: no amplify_dp sources under {SRC}", file=sys.stderr)
        return 2
    if any(var in os.environ for var in BLAS_THREAD_VARS):
        # The library runs as users run it: no BLAS thread settings.
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    setup = measure_setup(bool(args.trace))

    sys.path.insert(0, str(SRC))
    from checks import CheckFailure
    from refloop import reference_sample_s
    from tracing import Tracer, metric_unit
    from workloads import WORKLOADS

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        correct, problem = True, ""
        attempted = failed = 0
        plain, traced, tracers, rounds = [], [], [], []
        start = time.perf_counter()
        while len(plain) + len(traced) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            tracer = Tracer() if args.trace and len(plain) > len(traced) else None
            results, seg_raw, refs = run_round(workload, reference_sample_s, tracer)
            # The round at reference speed: raw seconds over the mean of the
            # reference samples taken around and between its segments.
            scale = NOMINAL_REF_S / statistics.mean(refs)
            (traced if tracer else plain).append((sum(seg_raw), sum(seg_raw) * scale))
            rounds.append({"traced": tracer is not None, "segments_raw_s": seg_raw, "refs_s": refs})
            if tracer:
                tracers.append((tracer, scale))
            attempted += workload.ops_per_round
            if not correct:
                continue  # measure on, but one failed check settles correctness
            try:
                failed += workload.check(results)
            except CheckFailure as exc:
                correct, problem = False, str(exc)
                print(f"check failed: {exc}", file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "nominal_ref_s": NOMINAL_REF_S, "setup_raw_s": setup[1],
              "setup_normalized_s": setup[0], "rounds": rounds}
    if not args.trace:
        raw_wall = statistics.median(r for r, _ in plain)
        metrics = {
            "setup_s": {"value": setup[0], "unit": "s"},
            "wall_s": {"value": statistics.median(n for _, n in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"setup_s {setup[0]:.4f} s (raw {setup[1]:.4f} s, "
              f"median of {SETUP_REPEATS} fresh interpreters)")
        print(f"wall_s {metrics['wall_s']['value']:.4f} s (raw {raw_wall:.4f} s, "
              f"median of {len(plain)} rounds)")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    else:
        layers = [t.layer_metrics(scale) for t, scale in tracers]
        metrics = {}
        for name in layers[0]:
            counted = metric_unit(name) in ("count", "bytes")
            values = [layer[name] for layer in layers]
            if counted and len(set(values)) != 1:
                correct, problem = False, f"{name} differs between traced rounds: {values}"
            value = values[0] if counted else statistics.median(values)
            metrics[name] = {"value": value, "unit": metric_unit(name)}
        for name, value in setup[2].items():
            metrics[name] = {"value": value, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(n for _, n in traced) - statistics.median(n for _, n in plain),
            "unit": "s"}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        spans = tracers[0][0].spans
        t_first = min((s[3] for s in spans), default=0.0)
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(
            [[sid, parent, name, t0 - t_first, t1 - t_first] for sid, parent, name, t0, t1 in spans]))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps({**result, "problem": problem, "detail": detail},
                                                indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
