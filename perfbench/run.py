"""Benchmark of the quditmbqc compiler stack.

    python3 perfbench/run.py --workload {compile,verify,wide} --seed N \\
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from the repository root.  The program is imported from ``src/``; the
benchmark exits with code 2, printing no result, when it is missing.

One client in one process runs the workload's job list in a closed loop
(each job starts when the previous one has finished) for ``--seconds``
seconds.  Inputs are drawn from ``--seed`` during set-up.  Every job's
output is checked outside the timed region.  ``--trace 0`` reports the
end-to-end metrics, with each job's time scaled to a reference host speed
by the probe that follows it (hostspeed.py); ``--trace 1`` runs one
untraced pass and then traced passes, and reports the per-layer metrics.
The last line of standard output is the result object; the line before it
holds the run's details (environment, job counts, failures, per-job
medians, the measured times).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("compile", "verify", "wide")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 150
TAIL_BEYOND = 10
EXIT_NO_PROGRAM = 2


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use; must run
    before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_program():
    if not (SRC / "quditmbqc" / "__init__.py").is_file():
        raise ImportError(f"no quditmbqc package under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    import quditmbqc

    if Path(quditmbqc.__file__).resolve().parent != SRC / "quditmbqc":
        raise ImportError(f"quditmbqc imported from {quditmbqc.__file__}, not from src/")
    return quditmbqc


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- one pass over the job list ---------------------------------------------------------


class Runner:
    """Runs passes over the job list.  With a ``probe``, every job is
    followed at once by the host-speed probe, and its scaled time is kept
    beside the measured one."""

    def __init__(self, jobs, workloads_mod, probe=None):
        self.jobs = jobs
        self.wl = workloads_mod
        self.probe = probe
        self.samples: list[float] = []  # every timed job, in order
        self.per_job: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.scaled: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.attempted = 0
        self.failures: list[str] = []
        self.totals: dict[str, int] | None = None

    def execute(self, job, scope):
        """Run one job; returns (seconds, result, error).  A job that raises
        is a failed job, not a failed benchmark."""
        start = time.perf_counter()
        try:
            with scope:
                result = job.run()
            error = None
        except (Exception, SystemExit):
            result, error = None, traceback.format_exc(limit=3)
        return time.perf_counter() - start, result, error

    def check(self, job, result, error) -> list:
        compiled = []
        if error is None:
            try:
                job.check(result)
                if self.totals is None:
                    compiled = job.compiled(result)
            except self.wl.JobFailed as exc:
                error = str(exc)
            except Exception:  # a check that raises marks the job as failed
                error = traceback.format_exc(limit=3)
        if error is not None:
            self.failures.append(f"{job.name}: {error}")
        return compiled

    def run_pass(self, index: int, tracer=None) -> float:
        """Time every job once; returns the summed job time of the pass."""
        wall = 0.0
        compiled = []
        for j, job in enumerate(self.jobs):
            scope = tracer.job_scope(index * len(self.jobs) + j) if tracer else nullcontext()
            seconds, result, error = self.execute(job, scope)
            if self.probe is not None:
                self.scaled[job.name].append(self.probe.scale(seconds))
            compiled += self.check(job, result, error)
            del result
            self.attempted += 1
            self.samples.append(seconds)
            self.per_job[job.name].append(seconds)
            wall += seconds
        if self.totals is None:
            self.totals = self.wl.output_totals(compiled)
        return wall


def run_until(runner: Runner, seconds: float, first_index: int, tracer=None) -> list[float]:
    """Passes until the next one would overrun the budget; at least one."""
    walls = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        walls.append(runner.run_pass(first_index + len(walls), tracer))
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            return walls


def tail(samples: list[float]) -> tuple[float, float]:
    """The sample with exactly TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# -- set-up --------------------------------------------------------------------------------


def setup_once(args, workloads_mod) -> None:
    """Generate and serialise the inputs, then run the first job once."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"setup-{args.workload}-") as tmp:
        warm_up = workloads_mod.build(args.workload, args.seed, args.size, Path(tmp))[0]
        try:
            warm_up.run()
        except Exception:  # the timed passes record the failure; set-up is still timed
            traceback.print_exc()


def time_setups(args, probe) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import, set up and warm up,
    measured and scaled by a probe run right after each."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--setup-only"]
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        scaled.append(probe.scale(times[-1]))
    return times, scaled


# -- main ------------------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def timing_metrics(per_job: dict[str, list[float]], setups: list[float]) -> dict[str, float]:
    """The timing metrics from each job's samples across the run's passes."""
    medians = [statistics.median(t) for t in per_job.values()]
    return {
        "wall_s": sum(medians),
        "job_p50_s": statistics.median(medians),
        "job_tail_s": tail([t for ts in per_job.values() for t in ts])[0],
        "setup_s": statistics.median(setups),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = cap_threads()
    try:
        program = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import numpy as np

    sys.path.insert(0, str(HERE))
    import hostspeed
    import tracing
    import workloads

    if args.setup_only:
        setup_once(args, workloads)
        return 0

    probe = hostspeed.Probe(hostspeed.WORKLOAD_PARTS[args.workload])
    probe.measure()  # warm-up
    setup_samples, setup_scaled = time_setups(args, probe)
    OUT.mkdir(exist_ok=True)
    details: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "env": {
            "nproc": threads,
            "blas_threads": threads,
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "quditmbqc": getattr(program, "__version__", "unknown"),
        },
        "setup_s_samples": setup_samples,
        "setup_s_scaled_samples": setup_scaled,
    }
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        jobs = workloads.build(args.workload, args.seed, args.size, Path(tmp))
        runner = Runner(jobs, workloads, probe=None if args.trace else probe)
        runner.execute(jobs[0], nullcontext())  # warm-up, not counted
        metrics: dict = {}
        if args.trace:
            plain = runner.run_pass(0)
            tracer = tracing.Tracer()
            tracer.install()
            first = runner.attempted // len(jobs)
            walls = run_until(runner, max(args.seconds - plain, 0.0), first, tracer)
            passes = list(range(first, first + len(walls)))
            layers, identical = tracer.layer_metrics(len(jobs), passes)
            self_sum = float(tracer.self_times().sum())
            traced_wall = statistics.median(walls)
            layers["trace.wall_s"] = traced_wall
            layers["trace.overhead_s"] = traced_wall - plain
            for name, value in layers.items():
                metrics[name] = metric(value, _unit(name))
            details["trace"] = {
                "passes": len(walls),
                "spans": len(tracer.spans),
                "nesting_errors": tracer.nesting_errors(),
                "self_time_sum_s": self_sum,
                "traced_wall_sum_s": sum(walls),
                "counts_identical_across_passes": identical,
                "untraced_wall_s": plain,
                "installed": tracer.installed,
            }
            tracer.write(OUT / f"trace-{args.workload}.npz")
        else:
            walls = run_until(runner, args.seconds, 0)
            timings = timing_metrics(runner.scaled, setup_scaled)
            metrics = {name: metric(value, "s") for name, value in timings.items()}
            metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            for name, value in runner.totals.items():
                metrics[name] = metric(value, "count")
            details["measured"] = timing_metrics(runner.per_job, setup_samples)
            details["probe_s"] = {
                "parts": hostspeed.WORKLOAD_PARTS[args.workload],
                "reference": probe.reference,
                "median": statistics.median(probe.samples),
                "min": min(probe.samples),
                "max": max(probe.samples),
            }
            details["job_tail_percentile"] = tail(runner.samples)[1]
        details.update(
            {
                "passes": len(walls),
                "pass_wall_s": walls,
                "jobs_per_pass": len(jobs),
                "job_count": len(runner.samples),
                "failed_ratio": len(runner.failures) / runner.attempted,
                "failures": runner.failures[:5],
                "job_median_s": {name: statistics.median(t) for name, t in runner.per_job.items()},
                "job_best_s": {name: min(t) for name, t in runner.per_job.items()},
                "job_scaled_median_s": {name: statistics.median(t) for name, t in runner.scaled.items() if t},
            }
        )
    print(json.dumps({"details": details}))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
