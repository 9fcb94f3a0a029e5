"""Span tracer installed from outside around the public functions of quditmbqc.

Modules bind functions with ``from .sim import apply_gate``, so every
module holds its own reference.  ``Tracer.install`` replaces each traced
function at every module attribute that refers to it (and methods on
their class), which makes a call through any of those names record a span.

Spans are kept in memory and recorded only while a job is open; calls
made by the benchmark's own correctness checks, outside any job, pass
straight through.  Each span is ``(name, start, end, parent, job, info)``
where ``parent`` indexes the enclosing span (-1 for a job root) and
``info`` holds the per-call counts the layer metrics need.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

JOB_SPAN = "bench.job"

# Gate kinds by the simulator kernel family that executes them.
PERMUTATION_GATES = {"X", "CX", "SWAP", "FANOUT", "MOD"}
DIAGONAL_GATES = {"Z", "CZ", "P", "R", "DIAG"}


def _gate_kind(gate) -> str:
    name = gate.name.value
    if name in PERMUTATION_GATES:
        return "perm"
    if name in DIAGONAL_GATES:
        return "diag"
    return "dense"


def _apply_gate_info(args, kwargs, result):
    return (_gate_kind(args[1]), args[0].amplitudes.size)


def _measure_info(args, kwargs, result):
    return args[0].amplitudes.size


def _measure_branches_info(args, kwargs, result):
    state = args[0]
    return (state.amplitudes.size, len(result), state.ctx.d)


def _len_info(args, kwargs, result):
    return len(result)


def _rewrite_info(args, kwargs, result):
    return (len(args[0].seq), len(result.seq))


def _artifact_size(artifact) -> int:
    artifact = getattr(artifact, "circuit", artifact)  # FanoutCompileResult
    ops = getattr(artifact, "ops", None)
    return len(ops) if ops is not None else len(artifact.seq)


def _convert_info(args, kwargs, result):
    return _artifact_size(result)


# (module, attribute, info hook).  A dotted attribute is a method.
SPAN_TARGETS = [
    ("sim", "apply_gate", _apply_gate_info),
    ("sim", "measure", _measure_info),
    ("sim", "measure_branches", _measure_branches_info),
    ("pattern", "run", None),
    ("pattern", "run_branches", _len_info),
    ("pattern", "validate", None),
    ("pattern", "pattern_depth_and_size", None),
    ("pattern", "entanglement_depth", None),
    ("pattern", "pattern_to_json", None),
    ("pattern", "pattern_from_json", None),
    ("rewrite", "standardise", _rewrite_info),
    ("rewrite", "pauli_simplify", _rewrite_info),
    ("rewrite", "signal_shift", _rewrite_info),
    ("rewrite", "completely_standardise", _rewrite_info),
    ("convert", "circuit_to_pattern_standard", _convert_info),
    ("convert", "circuit_to_pattern_cluster", _convert_info),
    ("convert", "pattern_to_circuit_coherent", _convert_info),
    ("convert", "pattern_to_fanout_circuit", _convert_info),
    ("convert", "controlled_pauli_constant_depth", _convert_info),
    ("convert", "parallelize_commuting", _convert_info),
    ("convert", "clifford_constant_depth", _convert_info),
    ("circuit", "lower_to_guni", None),
    ("circuit", "depth_and_size", None),
    ("circuit", "inverse_circuit", None),
    ("circuit", "simulate_circuit", None),
    ("circuit", "circuit_to_json", None),
    ("circuit", "circuit_from_json", None),
    ("cli", "main", None),
    ("cli", "verify_equivalent", None),
]

# Called too often for a span each; only their calls are counted.
COUNT_TARGETS = [
    ("algebra", "xi_p"),
    ("algebra", "DimensionContext.phase"),
]

# Output states per artifact per verification input; consecutive entries
# are the two sides of one comparison loop.
OUTPUT_STATES_TARGET = ("cli", "_output_states")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job: int | None = None
        self.counts: Counter = Counter()  # (name, job) -> calls
        self.output_states: list[tuple[int, int]] = []  # (job, states)
        self.installed: list[str] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for mod, attr, info in SPAN_TARGETS:
            self._replace(mod, attr, lambda fn, name=f"{mod}.{attr}", info=info: self._span_wrapper(name, fn, info))
        for mod, attr in COUNT_TARGETS:
            self._replace(mod, attr, lambda fn, name=f"{mod}.{attr}": self._count_wrapper(name, fn))
        mod, attr = OUTPUT_STATES_TARGET
        self._replace(mod, attr, self._output_states_wrapper)

    def _replace(self, mod: str, attr: str, make) -> None:
        module = importlib.import_module(f"quditmbqc.{mod}")
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf, None)
        if original is None:
            return  # absent from this version of the program; its metrics read 0
        wrapper = make(original)
        if path:
            setattr(owner, leaf, wrapper)
        else:
            for name, loaded in list(sys.modules.items()):
                if name == "quditmbqc" or name.startswith("quditmbqc."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapper)
        self.installed.append(f"{mod}.{attr}")

    def _span_wrapper(self, name, fn, info_fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, job, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            info = info_fn(args, kwargs, result) if info_fn is not None else None
            spans[idx] = (name, start, end, parent, job, info)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.job is not None:
                counts[name, self.job] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _output_states_wrapper(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.job is not None:
                self.output_states.append((self.job, len(result)))
            return result

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def job_scope(self, job: int):
        """Open the root span of one job; every traced call inside nests under it."""
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self.job = job
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.job = None
            self.stack.pop()
            self.spans[idx] = (JOB_SPAN, start, end, -1, job, None)

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its direct children cover."""
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def nesting_errors(self) -> int:
        """Spans whose parent is missing, later, of another job, or whose
        root is not a job span."""
        bad = 0
        for idx, (name, _s, _e, parent, job, _i) in enumerate(self.spans):
            if parent < 0:
                bad += name != JOB_SPAN
            elif parent >= idx or self.spans[parent][4] != job:
                bad += 1
        return bad

    def layer_metrics(self, jobs_per_pass: int, passes: list[int]) -> tuple[dict, bool]:
        """Per-layer metrics: self times as the mean over the traced passes,
        counts from the first traced pass.  Also returns whether every
        traced pass made exactly the same counts."""
        self_s = self.self_times()
        names = [s[0] for s in self.spans]
        times: dict[str, float] = defaultdict(float)
        counts: dict[int, Counter] = defaultdict(Counter)  # pass -> counts
        sampled: dict[int, set] = defaultdict(set)  # pass -> verify jobs that sampled
        peak = 0
        for idx, (name, _start, _end, parent, job, info) in enumerate(self.spans):
            module, function = name.split(".", 1)
            c = counts[job // jobs_per_pass]
            times[f"{name}.self_s"] += self_s[idx]
            times[f"{module}.self_s"] += self_s[idx]
            if function.endswith("_to_json") or function.endswith("_from_json"):
                times[f"{module}.json.self_s"] += self_s[idx]
            c[f"{name}.calls"] += 1
            if name == "sim.apply_gate":
                kind, amps = info
                times[f"sim.apply_gate.{kind}.self_s"] += self_s[idx]
                c["sim.apply_gate.amps"] += amps
                peak = max(peak, amps)
            elif name == "sim.measure":
                peak = max(peak, info)
            elif name == "sim.measure_branches":
                amps, kept, d = info
                peak = max(peak, amps)
                c["sim.measure_branches.kept"] += kept
                c["sim.measure_branches.outcomes"] += d
            elif name == "pattern.run_branches":
                c["pattern.run_branches.results"] += info
            elif module in ("rewrite", "convert") and not names[parent].startswith(module + "."):
                # outermost call into the layer: what it was given and what it emitted
                if module == "rewrite":
                    c["rewrite.commands_in"] += info[0]
                    c["rewrite.commands_out"] += info[1]
                else:
                    c["convert.ops_out"] += info
            elif name == "pattern.run" and self._has_ancestor(parent, "cli.verify_equivalent"):
                sampled[job // jobs_per_pass].add(job)
        for (name, job), calls in self.counts.items():
            counts[job // jobs_per_pass][f"{name}.calls"] += calls
        pending: dict[int, int] = {}
        for job, states in self.output_states:
            if job in pending:
                counts[job // jobs_per_pass]["cli.verify_equivalent.comparisons"] += pending.pop(job) * states
            else:
                pending[job] = states
        for p, jobs in sampled.items():
            counts[p]["cli.verify_equivalent.sampled_jobs"] = len(jobs)

        first = counts[passes[0]]
        out = {key: first.get(key, 0) for key in LAYER_COUNTS}
        out.update({key: times.get(key, 0.0) / len(passes) for key in LAYER_TIMES})
        outcomes = first.get("sim.measure_branches.outcomes", 0)
        out["sim.measure_branches.kept_ratio"] = first["sim.measure_branches.kept"] / outcomes if outcomes else 0.0
        out["sim.peak_amplitudes"] = peak
        identical = all(counts[p] == first for p in passes[1:])
        return out, identical

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path: Path) -> None:
        """Write every span out as columns of an .npz archive."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(names),
            name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            job=np.array([s[4] for s in self.spans], dtype=np.int64),
        )


LAYER_COUNTS = [
    "sim.apply_gate.calls",
    "sim.apply_gate.amps",
    "sim.measure.calls",
    "sim.measure_branches.calls",
    "pattern.run.calls",
    "pattern.run_branches.calls",
    "pattern.run_branches.results",
    "pattern.validate.calls",
    "rewrite.commands_in",
    "rewrite.commands_out",
    "convert.ops_out",
    "cli.verify_equivalent.comparisons",
    "cli.verify_equivalent.sampled_jobs",
    "algebra.xi_p.calls",
    "algebra.DimensionContext.phase.calls",
]

LAYER_TIMES = [
    "bench.job.self_s",
    "sim.self_s",
    "sim.apply_gate.self_s",
    "sim.apply_gate.perm.self_s",
    "sim.apply_gate.diag.self_s",
    "sim.apply_gate.dense.self_s",
    "sim.measure.self_s",
    "sim.measure_branches.self_s",
    "pattern.self_s",
    "pattern.run.self_s",
    "pattern.run_branches.self_s",
    "pattern.validate.self_s",
    "pattern.pattern_depth_and_size.self_s",
    "pattern.entanglement_depth.self_s",
    "pattern.json.self_s",
    "rewrite.self_s",
    "rewrite.standardise.self_s",
    "rewrite.pauli_simplify.self_s",
    "rewrite.signal_shift.self_s",
    "rewrite.completely_standardise.self_s",
    "convert.self_s",
    "convert.circuit_to_pattern_standard.self_s",
    "convert.circuit_to_pattern_cluster.self_s",
    "convert.pattern_to_circuit_coherent.self_s",
    "convert.pattern_to_fanout_circuit.self_s",
    "convert.controlled_pauli_constant_depth.self_s",
    "convert.parallelize_commuting.self_s",
    "convert.clifford_constant_depth.self_s",
    "circuit.self_s",
    "circuit.lower_to_guni.self_s",
    "circuit.depth_and_size.self_s",
    "circuit.inverse_circuit.self_s",
    "circuit.simulate_circuit.self_s",
    "circuit.json.self_s",
    "cli.self_s",
    "cli.main.self_s",
    "cli.verify_equivalent.self_s",
]
