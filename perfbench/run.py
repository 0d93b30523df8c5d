"""The library's benchmark: four end-to-end pipelines, one process each.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_rows --seed 0 --seconds 20 --trace 0

``--workload`` is one of ``monitor_stream``, ``fleet_rows``,
``fleet_sketch`` and ``compare_boot`` (see ``perfbench/workloads.py`` for
what each runs and why). A run

1. times set-up several times -- a fresh interpreter importing ``repro``,
   plus materialising the seeded input files -- and reports the median;
2. fixes, untimed, the operator settings and the oracle references;
3. runs one untimed warm-up rep, then timed reps of the job until
   ``--seconds`` of reps have been measured, each from freshly loaded
   input files and after a garbage collection;
4. checks every rep's result outside the timed region, and checks that
   the oracle rejects a deliberately corrupted result.

Host-normalised time. On a small shared host the machine's own speed
moves by up to 2x within a minute, which no number of reps averages
away. So a fixed pure-Python calibration loop runs before the first rep
and after every rep, and every timed interval is reported as its wall
time scaled by ``REFERENCE_CALIBRATION_S`` over the mean of the two
calibrations around it: seconds on a host where the loop takes 25 ms.
A change to the program moves these numbers exactly as it moves wall
time; a change in the host's speed does not. Raw wall medians are
printed next to them, and the calibrations go with the host metadata.

With ``--trace 0`` the result line carries the end-to-end metrics:
``setup_s``, ``job_s`` (median rep), ``peak_rss_mib`` (the process's
peak resident memory), and ``window_p50_ms`` / ``window_p90_ms`` (the
latency of each ``push`` that completes a window on ``monitor_stream``,
pooled over the run's reps; on the batch workloads a job answers one
request, so its latency is the job's). ``error_rate`` -- reps failing
the oracle or raising, over reps attempted -- is printed by name and
carried as ``failed`` / ``attempted``.

With ``--trace 1`` the run alternates untraced and traced reps; traced
reps record spans around every call into a layer and run under a
``repro.obs`` registry whose counters are cross-checked against what the
benchmark saw. The result line carries the per-layer metrics (wall
seconds and counts); a table of layer self and inclusive time, with an
``unattributed`` row, is printed and sums to the traced job time. Spans
are written, when the run ends, to
``.perfbench/traces/<workload>-seed<seed>.json``.

The last line of standard output is always the result JSON object.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from tracing import (  # noqa: E402
    NULL_TRACER,
    ROOT as ROOT_SPAN,
    Tracer,
    instrument,
    layer_table,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_TRIALS = 5
#: Fewest timed reps per run, however short ``--seconds`` is.
MIN_REPS = 5
#: Iterations of the calibration loop run around every timed interval.
CALIBRATION_LOOP = 250_000
#: The calibration loop's time at the reference host speed.
REFERENCE_CALIBRATION_S = 0.025
#: BLAS threads: on a small shared host, threaded BLAS measures the host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); "
    "import repro, repro.fleet, repro.stream, repro.stats, repro.wire; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mib": "MiB",
    "window_p50_ms": "ms",
    "window_p90_ms": "ms",
}

#: span name -> per-layer self-time metric
LAYER_SPANS = {
    "data.load": "data.load_s",
    "mining.mine": "mining.mine_s",
    "core.gcr": "core.gcr_s",
    "core.bound": "core.bound_s",
    "core.deviation": "core.deviation_s",
    "fleet.engine": "fleet.engine_s",
    "fleet.count": "fleet.count_s",
    "fleet.report": "fleet.report_s",
    "stream.push": "stream.push_s",
    "stream.sketch": "stream.sketch_s",
    "stream.qualify": "stream.qualify_s",
    "stats.compile": "stats.compile_s",
    "stats.replicates": "stats.replicates_s",
    "wire.pack": "wire.pack_s",
    "wire.unpack": "wire.unpack_s",
}
#: per-layer work counts, recorded by the tracer from outside the program
LAYER_COUNTS = (
    "data.rows",
    "mining.models",
    "mining.itemsets",
    "core.gcr_calls",
    "core.regions_built",
    "core.bound_pairs",
    "core.deviation_calls",
    "fleet.store_scans",
    "fleet.pairs_scanned",
    "fleet.pairs_pruned",
    "stream.rows_sketched",
    "stream.windows",
    "stats.replicates",
    "wire.bytes",
)
RATIOS = ("fleet.prune_ratio", "trace.overhead")


def metric_unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in RATIOS:
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "B" if name == "wire.bytes" else "count"


def host_context() -> dict[str, Any]:
    """Who ran this: recorded with every run to tell host from program drift."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def calibrate(n: int = CALIBRATION_LOOP) -> float:
    """A fixed pure-Python loop; its time moves only with the host."""
    started = time.perf_counter()
    total = 0
    for i in range(n):
        total += i * i % 7
    return time.perf_counter() - started


class HostClock:
    """Scales wall time to the reference host speed (see the module doc)."""

    def __init__(self) -> None:
        self.samples = [calibrate()]

    def scale(self) -> float:
        """Calibrate now; the factor for the interval since the last one."""
        before = self.samples[-1]
        self.samples.append(calibrate())
        return REFERENCE_CALIBRATION_S / ((before + self.samples[-1]) / 2)


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the library."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        check=True, capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated between samples."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Run:
    """One benchmark run: reps, their host scale, and oracle checks."""

    def __init__(self, workload: Any, seconds: float, clock: HostClock) -> None:
        self.wl = workload
        self.seconds = seconds
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def rep(self, tracer: Any) -> tuple[Any, float, float] | None:
        """One job rep: (result, wall seconds, host scale), or None if it raised.

        The oracle runs after the clock stops.
        """
        gc.collect()
        self.clock.scale()  # the rep's own bracket starts here
        self.attempted += 1
        result = None
        try:
            started = time.perf_counter()
            with tracer.span(ROOT_SPAN):
                result = self.wl.job(tracer)
            elapsed = time.perf_counter() - started
        except Exception:  # a failing rep counts as an error, the run goes on
            self.failed += 1
            self.problems.append(traceback.format_exc())
        scale = self.clock.scale()
        if result is None:
            return None
        errors = self.wl.check(result)
        if errors:
            self.failed += 1
            self.problems.extend(errors)
        return result, elapsed, scale

    def self_test(self, result: Any) -> None:
        """The oracle must reject a corrupted result."""
        if not self.wl.check(self.wl.corrupt(result)):
            self.problems.append("oracle accepted a corrupted result")


def run_untraced(run: Run) -> dict[str, float]:
    wall: list[float] = []
    times: list[float] = []
    latencies: list[float] = []
    while sum(wall) < run.seconds or len(wall) < MIN_REPS:
        outcome = run.rep(NULL_TRACER)
        if outcome is None:
            continue
        result, elapsed, scale = outcome
        wall.append(elapsed)
        times.append(elapsed * scale)
        latencies.extend(
            ms * scale for ms in run.wl.latencies_ms(result, elapsed)
        )
    quartiles = statistics.quantiles(times, n=4)
    print(
        f"{len(times)} timed reps, {len(latencies)} latency samples; "
        f"job_s quartiles {quartiles[0]:.4f} {quartiles[1]:.4f} "
        f"{quartiles[2]:.4f} (wall median {statistics.median(wall):.4f})"
    )
    return {
        "job_s": statistics.median(times),
        "window_p50_ms": percentile(latencies, 50),
        "window_p90_ms": percentile(latencies, 90),
    }


def check_counters(run: Run, seen: dict[str, int], result: Any) -> None:
    """The program's own counters must agree with what the benchmark saw.

    No payload may fail its checksum and nothing may be retried, on any
    workload.
    """
    expected = run.wl.expected_counters(result)
    expected["wire.checksum_failures"] = 0
    expected.update({n: 0 for n in seen if n.startswith("resilience.")})
    for name, value in expected.items():
        if seen.get(name, 0) != value:
            run.problems.append(
                f"counter {name} reads {seen.get(name, 0)}, "
                f"the benchmark saw {value}"
            )


def run_traced(run: Run, trace_path: Path) -> dict[str, float]:
    """Alternate untraced and traced reps; per-layer metrics from the traced."""
    from repro.obs import MetricsRegistry, use_registry

    tracer = Tracer()
    untraced: list[float] = []
    traced_reps: list[int] = []
    counters: list[dict[str, int]] = []
    measured = 0.0
    while measured < run.seconds or len(traced_reps) < MIN_REPS:
        outcome = run.rep(NULL_TRACER)
        if outcome is not None:
            untraced.append(outcome[1])
            measured += outcome[1]
        tracer.rep += 1
        registry = MetricsRegistry()
        with instrument(tracer), use_registry(registry):
            outcome = run.rep(tracer)
        if outcome is None:
            continue
        measured += outcome[1]
        traced_reps.append(tracer.rep)
        counters.append(registry.snapshot()["counters"])
        check_counters(run, counters[-1], outcome[0])

    rows, mean_job = layer_table(tracer, traced_reps)
    per_rep = [tracer.rep_layers(rep) for rep in traced_reps]
    traced_job = statistics.median(incl[ROOT_SPAN] for _, incl in per_rep)
    untraced_job = statistics.median(untraced)
    print(f"layer time per traced rep, {run.wl.name} ({len(traced_reps)} reps)")
    print(f"  {'layer':<20} {'self_s':>9} {'incl_s':>9} {'share':>7}")
    for name, self_s, incl_s in rows:
        print(
            f"  {name:<20} {self_s:9.4f} {incl_s:9.4f} "
            f"{100 * self_s / mean_job:6.1f}%"
        )
    print(f"  {'sum = traced job_s':<20} {sum(r[1] for r in rows):9.4f}")
    print(
        f"tracing overhead: traced job_s {traced_job:.4f} / untraced "
        f"job_s {untraced_job:.4f} = {traced_job / untraced_job:.3f} "
        "(medians, wall seconds)"
    )

    metrics: dict[str, float] = {}
    for span, name in LAYER_SPANS.items():
        metrics[name] = statistics.median(s.get(span, 0.0) for s, _ in per_rep)
    for name in LAYER_COUNTS:
        metrics[name] = statistics.median(
            tracer.counts[rep].get(name, 0) for rep in traced_reps
        )
    scanned = metrics["fleet.pairs_scanned"]
    pruned = metrics["fleet.pairs_pruned"]
    metrics["fleet.prune_ratio"] = (
        pruned / (scanned + pruned) if scanned + pruned else 0.0
    )
    metrics["resilience.retries"] = max(
        c.get("resilience.retries", 0) for c in counters
    )
    metrics["trace.unattributed_s"] = statistics.median(
        s.get(ROOT_SPAN, 0.0) for s, _ in per_rep
    )
    metrics["trace.job_s"] = traced_job
    metrics["trace.untraced_job_s"] = untraced_job
    metrics["trace.overhead"] = traced_job / untraced_job

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    payload = tracer.to_json()
    payload["traced_reps"] = traced_reps
    payload["counters"] = counters
    trace_path.write_text(json.dumps(payload))
    print(f"wrote {len(tracer.spans)} spans to {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    host = host_context()
    host["calibration_start_s"] = calibrate(1_000_000)
    scratch = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        scratch.mkdir(parents=True)
        workload = WORKLOADS[args.workload](scratch, args.seed)
        clock = HostClock()
        setups, setups_wall = [], []
        for _ in range(SETUP_TRIALS):
            started = time.perf_counter()
            import_s = time_import()
            workload.materialise()
            setups_wall.append(time.perf_counter() - started)
            setups.append(setups_wall[-1] * clock.scale())
        print(
            f"{args.workload} seed {args.seed}: set-up trials "
            + " ".join(f"{s:.3f}" for s in setups)
            + " s (wall " + " ".join(f"{s:.3f}" for s in setups_wall)
            + f"; last import {import_s:.3f}); process start to first rep "
            f"{time.perf_counter() - STARTED:.2f} s"
        )
        print(f"why: {workload.why}")
        workload.prepare()
        run = Run(workload, args.seconds, clock)
        warm = run.rep(NULL_TRACER)
        if warm is None:
            run.problems.append("the warm-up rep failed")
        else:
            run.self_test(warm[0])
        if args.trace:
            trace_path = (
                ROOT / ".perfbench" / "traces"
                / f"{args.workload}-seed{args.seed}.json"
            )
            metrics = run_traced(run, trace_path)
        else:
            metrics = run_untraced(run)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    host["calibration_end_s"] = calibrate(1_000_000)
    samples = clock.samples
    host["calibration_reps_s"] = {
        "loop": CALIBRATION_LOOP,
        "n": len(samples),
        "min": min(samples),
        "median": statistics.median(samples),
        "max": max(samples),
    }

    for problem in run.problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    print(f"host {json.dumps(host)}")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:14.6f} {metric_unit(name)}")
    print(
        f"  {'error_rate':<24} {run.failed / max(run.attempted, 1):14.6f} "
        f"({run.failed}/{run.attempted} reps)"
    )
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": metric_unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
