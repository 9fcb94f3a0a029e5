"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size, untraced and traced, and checks that:
every job passes its correctness check (so the verify workload's negative
control was caught), the printed metrics are exactly those BENCHMARK.json
names, every span nests under a job, traced self times add up to the
traced wall time within 1 %, and compile makes no simulator calls.  Also
checks that the benchmark refuses to run without the program.  Exits 0
when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
SELF_TIME_TOL = 0.01
TIMEOUT_S = 170


def run(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc = run(workload, trace)
            expect(proc.returncode == 0, f"{tag}: exit code {proc.returncode} {proc.stderr[-300:]}")
            if proc.returncode != 0:
                continue
            details, result = parse(proc)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            expect(
                result["correct"] and result["failed"] == 0 and details["failed_ratio"] == 0,
                f"{tag}: failed_ratio {details['failed_ratio']} {details['failures'][:1]}",
            )
            expect(set(result["metrics"]) == wanted[trace], f"{tag}: metric names match BENCHMARK.json")
            if workload == "verify":
                expect(
                    any("negative-control" in name for name in details["job_median_s"]),
                    f"{tag}: negative control ran and exited 1",
                )
            if trace:
                info = details["trace"]
                expect(info["nesting_errors"] == 0, f"{tag}: every span nests under a job")
                gap = abs(info["self_time_sum_s"] - info["traced_wall_sum_s"]) / info["traced_wall_sum_s"]
                expect(gap <= SELF_TIME_TOL, f"{tag}: self times sum to the traced wall within 1% ({gap:.4%})")
                expect(info["counts_identical_across_passes"], f"{tag}: counts identical across traced passes")
                if workload == "compile":
                    calls = result["metrics"]["sim.apply_gate.calls"]["value"]
                    expect(calls == 0, f"{tag}: no sim.apply_gate calls in timed jobs ({calls})")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("compile", 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without the program")

    print("selftest: " + ("all checks passed" if not problems else f"{len(problems)} check(s) failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
