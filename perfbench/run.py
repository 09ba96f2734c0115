#!/usr/bin/env python3
"""gielab benchmark: numeric-sweep throughput, verify-full wall time, per-layer trace.

Run from the repository root; gielab is imported from ``src`` (as with
``PYTHONPATH=src``) and nothing outside the standard library is added.

    python3 perfbench/run.py --workload sweep-coarse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25 --out perfbench/baseline.json
    python3 perfbench/selftest.py

Workloads (see BENCHMARK.json for why each exists):

- ``sweep-coarse``: ``gie_numeric(make_family(...), GridConfig(points=13))``
  over 150 seeded points, 50 per family (ranges in ``workloads.sweep_points``).
- ``sweep-default``: the same points at ``GridConfig()`` (33 points), the
  grid ``gielab sweep --numeric`` uses when no ``--grid`` is given.
- ``verify-full``: ``gielab.verify.run_suite("full")``.  Its inputs are the
  suite's fixed samples; ``--seed`` does not apply.

One run does the set-up several times in fresh processes, an untimed
warm-up, then whole passes over the workload while another pass still
fits in ``--seconds`` (at least one).  All load runs in this one process,
pinned to one CPU, with the BLAS threads pinned to 1.

A point is one numeric Eve-side minimization: a sweep point (family
construction, ``gie_numeric`` and ``conjecture_gap``), or one
``gie_numeric`` / ``minimize_kh`` call the verify suite makes.  An
operation is a sweep point or a verify check; it fails when it raises or
its outputs are wrong (``workloads.point_problem``, or a check that does
not PASS).

Timings are in seconds at a reference host speed (``hostclock``): on a
shared host other tenants slow the process by up to about 2x for seconds
to minutes, so a fixed calibration kernel is timed every 0.1 s during the
passes (and around every set-up process), and each stretch of time is
divided by the slowdown the kernel saw around it.  On a quiet host this
is the wall time; the raw wall times and the slowdowns seen are in the
context line.

With ``--trace 0`` the end-to-end metrics are printed:

- ``setup_s``: median time of a fresh process that imports gielab and
  builds the workload's inputs.
- ``wall_s``: median time of one pass.
- ``points_per_s``: points per pass over ``wall_s``.
- ``point_p50_ms`` / ``point_p90_ms``: percentiles of the points' median
  latencies over the passes; the sample count is ``points_per_pass`` in
  the context line (150 on the sweeps, 1171 on verify-full).
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

With ``--trace 1`` half of ``--seconds`` runs untraced passes and half
traced ones (``spans.Tracer``); the per-layer metrics are per traced pass:
for each layer its total ``.ms``, ``.calls`` and ``.self_ms`` (total minus
child spans), plus ``gie.grid.evals`` (n^3 per grid minimizer call,
computed, not counted), ``acc.*`` accuracy figures, ``failed_frac`` and
``trace.overhead_frac`` (median traced pass over median untraced pass,
minus 1).  The spans are written to ``perfbench/out/``.

The last line of stdout is the JSON result; the line before it starts
with ``context`` and records commit, seed, sizes, versions and ``nproc``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import KERNEL_REF_S, HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep-coarse", "sweep-default", "verify-full")
# grid points (None: the GridConfig() default) and points per family
SWEEPS = {"sweep-coarse": (13, 50), "sweep-default": (None, 50)}
SETUP_REPEATS = 5
SETUP_TICKS = 3  # calibrations between two set-up processes
TINY_PER_FAMILY = 2  # --tiny: the harness self-test size


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_gielab():
    """Import gielab from this checkout's ``src``, never from site-packages."""
    if not (SRC / "gielab" / "__init__.py").is_file():
        fail(f"no gielab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gielab

    if SRC not in Path(gielab.__file__).resolve().parents:
        fail(f"imported gielab from {gielab.__file__}, not from {SRC}")
    import workloads

    return workloads


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, the one the
    calibration kernel measures; returns how many CPUs it could use."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return len(cpus)


def make_workload(wl, name: str, seed: int, tiny: bool):
    if name == "verify-full":
        return wl.VerifyFull("fast" if tiny else "full")
    grid_points, per_family = SWEEPS[name]
    return wl.Sweep(seed, grid_points, TINY_PER_FAMILY if tiny else per_family)


def measure_setup(args) -> list[float]:
    """Times of fresh processes that import gielab and build the inputs,
    each between calibrations of the host's speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    clock = HostClock()
    stamps = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        for _ in range(SETUP_TICKS):
            clock.tick()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        stamps.append((t0, time.perf_counter()))
    for _ in range(SETUP_TICKS):
        clock.tick()
    ref = clock.reference()(stamps)
    return (ref[:, 1] - ref[:, 0]).tolist()


def run_passes(workload, tally, budget: float) -> list[int]:
    """Whole passes, at least one, while another still fits in ``budget``
    seconds; returns the indices of the passes in ``tally``."""
    first = len(tally.passes)
    start = time.perf_counter()
    while True:
        tally.start_pass()
        workload.run_pass(tally)
        last = tally.end_pass()
        if time.perf_counter() - start + last > budget:
            return list(range(first, len(tally.passes)))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def context(args, workload, tally, clock, to_ref) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_applies": args.workload != "verify-full",
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "commit": git_commit(),
        "grid_points": workload.grid.points,
        "points_per_pass": workload.points_per_pass,
        "passes": len(tally.passes),
        "point_samples": sum(len(points) for points in tally.points),
        "pass_s": [round(p, 4) for p in tally.pass_seconds(to_ref)],
        "pass_wall_s": [round(end - start, 4) for start, end in tally.passes],
        "host_slowdown_p10_p50_p90": [round(q, 3) for q in numpy.quantile(clock.slowdowns(), (0.1, 0.5, 0.9))],
        "calibration_samples": len(clock.slowdowns()),
        "kernel_ref_s": KERNEL_REF_S,
        "per_family_ms": per_family_ms(tally.point_seconds(to_ref)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": args.nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def per_family_ms(points) -> dict[str, float]:
    by_family = {}
    for tag, seconds in points:
        by_family.setdefault(tag, []).append(seconds)
    return {tag: round(1e3 * statistics.fmean(times), 3) for tag, times in sorted(by_family.items())}


def end_to_end(args, workload, tally):
    setup = measure_setup(args)
    workload.warm_up()
    with HostClock() as clock:
        run_passes(workload, tally, args.seconds)
    to_ref = clock.reference()
    deciles = statistics.quantiles([seconds for _, seconds in tally.point_seconds(to_ref)], n=10)
    wall = statistics.median(tally.pass_seconds(to_ref))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (workload.points_per_pass / wall, "1/s"),
        "point_p50_ms": (1e3 * deciles[4], "ms"),
        "point_p90_ms": (1e3 * deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, clock, to_ref


def per_layer(args, wl, workload, tally):
    from spans import GRID_LAYERS, Tracer

    workload.warm_up()
    tracer = Tracer()
    with HostClock() as clock:
        untraced = run_passes(workload, tally, args.seconds / 2.0)
        tracer.install()
        try:
            traced = run_passes(workload, tally, args.seconds / 2.0)
        finally:
            tracer.uninstall()
    to_ref = clock.reference()
    stats = tracer.summary(to_ref)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.bin")

    n = len(traced)
    metrics = {}
    for layer, s in stats.items():
        metrics[f"{layer}.ms"] = (1e3 * s["total_s"] / n, "ms")
        metrics[f"{layer}.calls"] = (s["calls"] / n, "count")
        metrics[f"{layer}.self_ms"] = (1e3 * s["self_s"] / n, "ms")
    grid_calls = sum(stats[layer]["calls"] for layer in GRID_LAYERS) / n
    metrics["gie.grid.evals"] = (workload.grid.points**3 * grid_calls, "count-computed")
    metrics["acc.max_gap_closed_numeric"] = (tally.max_gap, "nats")
    metrics["acc.max_conjecture_gap"] = (tally.max_conjecture_gap, "nats")
    metrics["acc.kmin_worked_gap"] = (wl.kmin_worked_gap(workload.grid), "1")
    metrics["failed_frac"] = (tally.failed / tally.attempted, "frac")
    overhead = statistics.median(tally.pass_seconds(to_ref, traced)) / statistics.median(
        tally.pass_seconds(to_ref, untraced))
    metrics["trace.overhead_frac"] = (overhead - 1.0, "frac")
    return metrics, clock, to_ref


def run_workload(args) -> None:
    wl = import_gielab()
    args.nproc = pin_to_one_cpu()
    workload = make_workload(wl, args.workload, args.seed, args.tiny)
    if args.setup_only:
        return
    tally = wl.Tally()
    if args.trace:
        metrics, clock, to_ref = per_layer(args, wl, workload, tally)
    else:
        metrics, clock, to_ref = end_to_end(args, workload, tally)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print("context " + json.dumps(context(args, workload, tally, clock, to_ref), sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def run_all(args) -> None:
    """Every workload in its own process, untraced then traced."""
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        report["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
            result = json.loads(out[-1])
            result["context"] = json.loads(out[-2].partition(" ")[2])
            report["workloads"][name]["traced" if trace else "untraced"] = result
            print(f"== {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"   {metric:40s} {m['value']:.6g} {m['unit']}")
            print(f"   per-family ms: {result['context']['per_family_ms']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced, in own processes")
    p.add_argument("--out", help="with --all: write the combined results as JSON")
    p.add_argument("--tiny", action="store_true", help="self-test size: 6 sweep points, verify fast suite")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all:
        run_all(args)
    elif args.workload:
        run_workload(args)
    else:
        p.error("give --workload or --all")


if __name__ == "__main__":
    main()
