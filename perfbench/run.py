"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the host block, the
simulation digest and the workload-specific figures.  Every file the run
writes lands under ``.bench_build/``.  ``perfbench/README.md`` describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Build outputs and scratch files (kernel cache, trace stores, banks).
BUILD = ROOT / ".bench_build"
#: Fresh-process set-up measurements per run (median reported).
SETUP_PROBES = 5
#: Timed repetitions per run, at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Workload-specific figures the traced run reports as per-layer metrics
#: (0 where they do not apply).
WORKLOAD_FIGURES = ("event_p50_ms", "event_p99_ms", "replan_p50_ms",
                    "replan_p90_ms", "sim_miss_rate",
                    "gmean_weighted_speedup", "sim.replan_noop_ratio")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _prepare_environment() -> None:
    """Keep every file the run writes inside the checkout, and cap the
    kernel's thread width at the host's usable cores."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmark: no repro package under {ROOT / 'src'}; run "
                 f"from a full checkout")
    scratch = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    threads = os.environ.get("REPRO_THREADS", "").strip()
    width = int(threads) if threads else _nproc()
    os.environ["REPRO_THREADS"] = str(max(1, min(width, _nproc())))
    sys.path.insert(0, str(ROOT / "src"))


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _workload(name: str, seed: int):
    import scenarios
    cls = scenarios.WORKLOADS[name]
    if cls is scenarios.SupervisedMix:
        return cls(seed, scratch=tempfile.gettempdir(),
                   workers=min(2, _nproc()))
    return cls(seed)


# --------------------------------------------------------------------- #
# Set-up and host measurements
# --------------------------------------------------------------------- #
def setup_probe(name: str, seed: int) -> float:
    """Import, kernel load and input generation, timed from a cold start."""
    start = time.perf_counter()
    from repro.cache._native import native_available
    native_available()                  # loads (or first builds) the kernel
    _workload(name, seed)
    return time.perf_counter() - start


def _setup_seconds(name: str, seed: int, reference) -> float:
    """Median calibrated set-up over :data:`SETUP_PROBES` fresh processes."""
    import calibrate
    times = []
    before = reference.measure()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120)
        after = reference.measure()
        seconds = float(out.stdout.strip().splitlines()[-1])
        times.append(seconds * calibrate.factor(before, after))
        before = after
    return _median(times)


def _burn_scaling() -> float:
    """Throughput of two concurrent pure-Python burns over one."""
    burn = "x = 0\nfor i in range(3_000_000): x += i * i\n"

    def wall(count: int) -> float:
        start = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", burn])
                 for _ in range(count)]
        for proc in procs:
            proc.wait(timeout=120)
        return time.perf_counter() - start

    return 2 * wall(1) / wall(2)


def _host_block(seed: int, native: bool) -> dict:
    import numpy
    from repro.cache._native import resolve_threads
    return {"nproc": _nproc(), "burn_scaling_2proc": _burn_scaling(),
            "native": native, "threads": resolve_threads(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "seed": seed}


def _peak_rss_mb(workload) -> float:
    """Peak RSS of this process; plus the largest child for the
    supervised workload (whose only children so far are job workers)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.name == "supervised_mix":
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# --------------------------------------------------------------------- #
# Timed repetitions
# --------------------------------------------------------------------- #
def _reps(workload, seconds: float, reference, tracer=None) -> list:
    """Timed reps until ``seconds`` pass (at least :data:`MIN_REPS`).

    Each rep is bracketed by reference runs and carries its calibration
    ``scale``; with a ``tracer``, reps alternate untraced and traced (so
    both kinds see the same host), and traced reps carry their layer
    totals.
    """
    import calibrate
    reps = []
    before = reference.measure()
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS * (2 if tracer else 1) \
            or time.perf_counter() < deadline:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            first, accesses = len(tracer.spans), tracer.replay_accesses
            tracer.install()
            try:
                rep = workload.run(tracer)
            finally:
                tracer.uninstall()
            rep["layers"] = tracer.totals(first)
            rep["layers"]["replay_accesses"] -= accesses
        else:
            rep = workload.run()
        after = reference.measure()
        rep["scale"] = calibrate.factor(before, after)
        rep["traced"] = traced
        before = after
        reps.append(rep)
    return reps


def _score(workload, reps: list) -> tuple[int, int, list]:
    """(attempted, failed, digests); a rep whose digest differs from the
    first rep's fails every op."""
    attempted = failed = 0
    digests = []
    for rep in reps:
        digests.append(workload.digest(rep))
        attempted += workload.ops
        failed += workload.ops if digests[-1] != digests[0] \
            else len(workload.check(rep))
    return attempted, failed, digests


def _wall(reps: list) -> float:
    """Median calibrated wall seconds of ``reps``."""
    return _median([rep["wall"] * rep["scale"] for rep in reps])


def _latencies(reps: list) -> dict:
    """Churn's calibrated per-event and per-replan ``handle()``
    latencies, pooled across the run's repetitions."""
    events = [t * rep["scale"] for rep in reps for t in rep["latencies"]]
    replans = [t * rep["scale"] for rep in reps
               for t, hit in zip(rep["latencies"], rep["replanned"]) if hit]
    return {"event_p50_ms": 1e3 * _median(events),
            "event_p99_ms": 1e3 * _percentile(events, 0.99),
            "replan_p50_ms": 1e3 * _median(replans),
            "replan_p90_ms": 1e3 * _percentile(replans, 0.90),
            "event_samples": len(events), "replan_samples": len(replans)}


def _layer_metrics(traced: list, wall: float) -> dict:
    """Per-layer calibrated busy self seconds, calls and shares, per
    traced rep, plus the job runtime's ratios."""
    import spans
    n = len(traced)
    metrics = {}
    for name in spans.NAMES:
        seconds = sum(rep["layers"]["seconds"][name] * rep["scale"]
                      for rep in traced) / n
        metrics[f"{name}_s"] = seconds
        metrics[f"{name}_calls"] = sum(rep["layers"]["calls"][name]
                                       for rep in traced) // n
        metrics[f"{name}_share"] = seconds / wall
    metrics["native.replay_accesses"] = sum(
        rep["layers"]["replay_accesses"] for rep in traced) // n
    jobs = [rep for rep in traced if "resume" in rep]
    gets = sum(rep["bank_gets"] for rep in jobs)
    units = sum(rep["units"] for rep in jobs)
    metrics["jobs.resume_s"] = _median(
        [rep["resume"] * rep["scale"] for rep in jobs]) if jobs else 0.0
    metrics["jobs.bank_hit_ratio"] = \
        sum(rep["bank_hits"] for rep in jobs) / gets if gets else 0.0
    metrics["jobs.retry_ratio"] = \
        sum(rep["retries"] for rep in jobs) / units if units else 0.0
    return metrics


def _coverage(workload, metrics: dict) -> list:
    """Layer-coverage violations of a traced run (empty when clean)."""
    import spans
    problems = []
    for name in spans.NAMES:
        calls = metrics[f"{name}_calls"]
        if name in workload.nonzero and calls == 0:
            problems.append(f"{name}: predicted calls, recorded none")
        if name.startswith(tuple(workload.zero)) and calls:
            problems.append(f"{name}: predicted none, recorded {calls}")
    return problems


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_environment()
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    import calibrate
    import scenarios
    if args.workload not in scenarios.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(scenarios.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    from repro.cache._native import native_available
    native = native_available()
    workload = _workload(args.workload, args.seed)
    reference = calibrate.Reference()
    try:
        workload.run()                               # warm-up, untimed
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        reps = _reps(workload, args.seconds, reference, tracer)
        rss = _peak_rss_mb(workload)  # before the checks add a sweep
        untraced = [rep for rep in reps if not rep["traced"]]
        attempted, failed, digests = _score(workload, reps)
        model = workload.model(next(rep for rep in reps
                                    if rep["result"] is not None))
        extra = {**model, "sim_digest": digests[0],
                 "digest_stable": len(set(digests)) == 1,
                 "reps": len(reps),
                 "wall_raw_s": _median([rep["wall"] for rep in untraced]),
                 "calibration": _median([rep["scale"] for rep in reps])}
        if workload.name == "churn":
            extra.update(_latencies(untraced))
        if tracer is not None:
            traced = [rep for rep in reps if rep["traced"]]
            traced_wall = _wall(traced)
            metrics = _layer_metrics(traced, traced_wall)
            metrics.update(trace_overhead=traced_wall / _wall(untraced),
                           traced_wall_s=traced_wall,
                           **{"cache.hit_ratio": 1 - model["sim_miss_rate"]})
            problems = _coverage(workload, metrics)
            for problem in problems:
                print(f"coverage: {problem}")
            attempted += 1                   # the coverage check itself
            failed += bool(problems)
            metrics.update({name: extra.get(name, 0.0)
                            for name in WORKLOAD_FIGURES})
            extra["rebound"] = tracer.rebound
            tracer.dump(BUILD / f"spans-{workload.name}-{args.seed}.json")
        else:
            wall = _wall(reps)
            metrics = {"wall_s": wall,
                       "accesses_per_s": workload.accesses / wall,
                       "peak_rss_mb": rss,
                       "setup_s": _setup_seconds(args.workload, args.seed,
                                                 reference)}
    finally:
        reference.close()
    metrics["failed_frac"] = extra["failed_frac"] = failed / attempted
    extra["host"] = _host_block(args.seed, native)

    print(f"workload {workload.name}: {len(reps)} reps, {workload.ops} "
          f"{workload.op}s and {workload.accesses} accesses per rep")
    print(json.dumps(extra, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
