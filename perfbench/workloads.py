"""Seeded inputs, job lists and correctness checks of the three workloads.

The benchmark draws its own circuits from the workload seed and hands the
program only the serialised artifacts.  The generators fix the structure
that the work depends on (gate counts per kind, measurements, Fourier
breaks), so a seed changes the inputs but not the amount of work.

A job is one closed-loop request: ``compile`` and ``verify`` jobs are
``quditmbqc.cli.main`` calls on JSON files, ``wide`` jobs are library
calls.  Every program function is looked up through its module at call
time, so the tracer's wrappers see the call.

Checks run outside the timed region.  On the first pass each job's output
is checked in full (the dense simulator is the reference, never the
compiler under test); on later passes the output must be byte-identical
to the checked one, and the cheap checks (exit codes, verdicts, norms)
run again.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import quditmbqc.circuit as qcircuit
import quditmbqc.cli as qcli
import quditmbqc.convert as qconvert
import quditmbqc.pattern as qpattern
import quditmbqc.rewrite as qrewrite
import quditmbqc.sim as qsim
from quditmbqc.algebra import DimensionContext

VERIFY_TOL = 1e-9
CHECK_SEEDS = (11, 12)
# The sweep's circuits come from the program's own generator, whose work
# varies threefold between seeds; one fixed generator seed keeps the
# sweep the same in every run.
SWEEP_SEED = 5


# -- input generation -----------------------------------------------------------


def _op(gate: str, sites, **params) -> dict:
    return {"gate": gate, "params": params, "sites": [int(s) for s in sites]}


def _pair(rng, n: int):
    i, j = rng.choice(n, size=2, replace=False)
    return (int(i) + 1, int(j) + 1)


def _site(rng, n: int):
    return (int(rng.integers(n)) + 1,)


def circuit_doc(rng, d: int, n: int, counts: dict[str, int]) -> dict:
    """An n-qudit circuit with exactly ``counts[kind]`` gates of each kind,
    shuffled, on random targets; angles uniform in [0, 2 pi)."""
    kinds = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(kinds)
    return _doc(d, n, [_random_op(rng, kind, d, n) for kind in kinds])


def layered_doc(rng, d: int, n: int, layers: int, singles: tuple[str, ...], extra_cz: int = 0) -> dict:
    """``layers`` rounds of: one single-qudit gate on every qudit (kinds
    from ``singles`` in equal shares over a random split), one CZ on each
    pair of a random matching, then ``extra_cz`` CZs on random pairs of
    matched qudits.

    The structure fixes the counts the compilers' and verifier's costs
    depend on: measurements per gate kind, and the CZ-after-CZ wires the
    cluster conversion breaks with Fourier gates (two per extra CZ)."""
    ops = []
    for _ in range(layers):
        order = [int(q) for q in rng.permutation(n)]
        for pos, q in enumerate(order):
            ops.append(_random_op(rng, singles[pos * len(singles) // n], d, n, (q + 1,)))
        perm = [int(q) + 1 for q in rng.permutation(n)]
        pairs = [(perm[i], perm[i + 1]) for i in range(0, n - 1, 2)]
        ops += [_op("CZ", pair, k=1) for pair in pairs]
        matched = [q for pair in pairs for q in pair]
        for _ in range(extra_cz):
            i, j = rng.choice(len(matched), size=2, replace=False)
            ops.append(_op("CZ", (matched[i], matched[j]), k=1))
    return _doc(d, n, ops)


def placed_doc(rng, d: int, n: int, kinds: str) -> dict:
    """The space-separated gate ``kinds`` in order on fixed targets: the
    k-th gate starts at qudit k mod n, a two-qudit gate also takes the next
    qudit.  The seed draws only angles and powers, so depth and size are
    the same for every seed."""
    ops = []
    for k, kind in enumerate(kinds.split()):
        first = k % n + 1
        sites = (first, first % n + 1) if kind in ("CZ", "CX") else (first,)
        ops.append(_random_op(rng, kind, d, n, sites))
    return _doc(d, n, ops)


def _random_op(rng, kind: str, d: int, n: int, sites=None) -> dict:
    if kind in ("CZ", "CX"):
        return _op(kind, sites or _pair(rng, n), k=1)
    sites = sites or _site(rng, n)
    if kind == "v":
        return _op("v", sites, theta=rng.uniform(0.0, 2.0 * math.pi, d).tolist())
    if kind in ("X", "Z"):
        return _op(kind, sites, k=int(rng.integers(1, d)))
    return _op(kind, sites)  # F, P


def _doc(d: int, n: int, ops: list[dict]) -> dict:
    qudits = list(range(1, n + 1))
    return {"d": d, "qudits": qudits, "inputs": qudits, "outputs": qudits, "ops": ops}


def guni(v: int, cz: int) -> dict[str, int]:
    return {"v": v, "CZ": cz}


def clifford(f: int, p: int, cz: int) -> dict[str, int]:
    return {"F": f, "P": p, "CZ": cz}


# -- jobs -------------------------------------------------------------------------


class JobFailed(Exception):
    pass


@dataclass
class Job:
    """One request.  ``run`` performs it.  ``quick_check`` (every pass) and
    ``full_check`` (first pass only) raise JobFailed on a wrong result;
    ``digest`` fingerprints the output so that later passes are compared
    with the checked one; ``compiled`` returns the artifacts it compiled."""

    name: str
    run: Callable[[], object]
    quick_check: Callable[[object], None]
    full_check: Callable[[object], None]
    digest: Callable[[object], str]
    compiled: Callable[[object], list]
    first_digest: str | None = field(default=None)

    def check(self, result) -> None:
        self.quick_check(result)
        digest = self.digest(result)
        if self.first_digest is None:
            self.full_check(result)
            self.first_digest = digest
        elif digest != self.first_digest:
            raise JobFailed("output differs from the checked first-pass output")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise JobFailed(message)


def _file_digest(paths) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _state_digest(state) -> str:
    return hashlib.blake2b(np.ascontiguousarray(state.amplitudes).tobytes(), digest_size=16).hexdigest()


def _nothing(_result) -> None:
    return None


def cli_job(
    name: str, argvs: list[list[str]], codes: list[int], outputs: list[Path], full_check, compiled=(), every_pass=_nothing
) -> Job:
    """A job of consecutive ``quditmbqc`` command lines, in process.
    ``every_pass`` is a cheap check repeated on every pass."""

    def run():
        return [qcli.main(argv) for argv in argvs]

    def quick(result):
        _require(result == codes, f"exit codes {result}, expected {codes}")
        every_pass(result)

    return Job(
        name,
        run,
        quick,
        full_check,
        lambda _r: _file_digest(outputs),
        lambda _r: [qcli.load_artifact(str(p)) for p in compiled],
    )


# -- simulator reference -------------------------------------------------------------


def output_fidelity(artifact, amplitudes: np.ndarray, want: np.ndarray, seed: int) -> float:
    """<want| rho |want> for the artifact's output-wire state on an input
    given positionally; 1 exactly when the outputs carry ``want`` and are
    disentangled from every other wire.

    Circuits are simulated densely; patterns run one sampled branch
    (a deterministic pattern gives the same output on every branch)."""
    state = qsim.StateVector(artifact.ctx, artifact.inputs, amplitudes.copy())
    if isinstance(artifact, qcircuit.Circuit):
        final = qcircuit.simulate_circuit(artifact, state)
    else:
        final = qpattern.run(artifact, state, mode="sampled", seed=seed, lazy=True).state
    rest = tuple(q for q in final.sites if q not in set(artifact.outputs))
    final = final.with_sites_order(artifact.outputs + rest)
    block = final.amplitudes.reshape(artifact.ctx.d ** len(artifact.outputs), -1)
    return float(np.linalg.norm(want.conj() @ block) ** 2)


def check_against_source(source, artifact, tag: str) -> None:
    """The artifact implements the source circuit's map on random inputs."""
    rng = np.random.default_rng(7)
    n = len(source.inputs)
    for seed in CHECK_SEEDS:
        amps = qsim.random_state(source.ctx, range(n), rng).amplitudes
        final = qcircuit.simulate_circuit(source, qsim.StateVector(source.ctx, source.inputs, amps.copy()))
        want = final.with_sites_order(source.outputs).amplitudes
        fidelity = output_fidelity(artifact, amps, want, seed)
        _require(fidelity >= 1.0 - VERIFY_TOL, f"{tag}: fidelity {fidelity:.12f} against the source circuit")


def _load(path: Path):
    return qcli.load_artifact(str(path))


# -- workload definitions -------------------------------------------------------------


def layered(d: int, n: int, layers: int, singles=("v",), extra_cz: int = 0):
    return lambda rng: layered_doc(rng, d, n, layers, singles, extra_cz)


def counted(d: int, n: int, counts: dict[str, int]):
    return lambda rng: circuit_doc(rng, d, n, counts)


def placed(d: int, n: int, kinds: str):
    return lambda rng: placed_doc(rng, d, n, kinds)


CLIFFORD_SINGLES = ("F", "P")
_MIXED = "X CZ v Z CX F P v"
_PATTERN = "v CZ v v CZ v CZ v CZ v"

# Circuit generators per job family; "full" is the measured benchmark,
# "smoke" the self-test.  The first compile instance of every family is
# its smallest, checked against the source circuit with the simulator;
# it is drawn by gate counts because its fan-out compilation must stay
# small enough to simulate densely.
SIZES = {
    "compile": {
        "full": {
            "guni": [counted(2, 3, guni(4, 3)), layered(2, 6, 25, extra_cz=1), layered(3, 4, 24, extra_cz=1)],
            "fanout": [counted(2, 2, guni(1, 1)), layered(2, 6, 6, extra_cz=1), layered(3, 4, 7, extra_cz=1)],
            "clifford": [counted(2, 2, clifford(1, 0, 1)), layered(2, 6, 3, CLIFFORD_SINGLES), layered(3, 4, 4, CLIFFORD_SINGLES)],
            "sweep": "2:3",
        },
        "smoke": {
            "guni": [counted(2, 3, guni(4, 3)), layered(2, 4, 2, extra_cz=1)],
            "fanout": [counted(2, 2, guni(1, 1)), layered(2, 2, 1)],
            "clifford": [counted(2, 2, clifford(1, 0, 1)), layered(2, 2, 1, CLIFFORD_SINGLES)],
            "sweep": "2:3",
        },
    },
    "verify": {
        "full": {
            # def7 with 6 and 4 measurements: every branch is enumerated
            "def7": [layered(2, 3, 2), layered(3, 2, 2)],
            # def8 and clifford-const: too many branches, so verify samples
            "def8": [layered(2, 3, 2, extra_cz=1), layered(3, 2, 2, extra_cz=1)],
            "clifford": [layered(2, 3, 2, CLIFFORD_SINGLES), layered(3, 2, 2, CLIFFORD_SINGLES)],
            # 3 measurements: 27 branches a side, 27^2 pairs per input; fixed
            # targets, because the branch walk's state sizes depend on them
            "pvp": placed(3, 3, "v v CZ v CZ"),
        },
        "smoke": {
            "def7": [counted(2, 2, guni(3, 2))],
            "def8": [counted(2, 2, guni(3, 2))],
            "clifford": [counted(2, 2, clifford(1, 1, 1))],
            "pvp": counted(3, 1, guni(2, 0)),
        },
    },
    "wide": {
        "full": {
            "clifford": [counted(2, 20, clifford(3, 3, 4)), counted(3, 12, clifford(3, 3, 4)), counted(2, 14, clifford(20, 20, 40))],
            "mixed": [placed(2, 20, _MIXED), placed(3, 12, _MIXED)],
            # 18 and 12 qudits (4 and 8 MB): the 20-qudit instance takes four
            # times longer than any other job, and such a job makes the tail
            # jump whenever a run's pass count moves it across ten samples
            "fanout": [(2, 9), (3, 6)],
            "pattern": [placed(2, 18, _PATTERN), placed(3, 11, _PATTERN)],
        },
        "smoke": {
            "clifford": [counted(2, 8, clifford(2, 2, 2))],
            "mixed": [placed(3, 5, _MIXED)],
            "fanout": [(2, 3)],
            "pattern": [placed(2, 6, _PATTERN)],
        },
    },
}

# Constant depth of the d=3 Clifford pipeline, the flat profile of acceptance
# criterion 05: single random instances may dip below it but never exceed it.
SWEEP_DEPTH_BOUNDS = {"pattern_depth": 7, "circuit_depth": 25}


class _Files:
    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, stem: str, text: str) -> Path:
        path = self.path(stem)
        path.write_text(text)
        return path

    def path(self, stem: str) -> Path:
        self.count += 1
        return self.root / f"{self.count:03d}-{stem}.json"


def _circuit(doc: dict):
    return qcircuit.circuit_from_json(json.dumps(doc))


def _tag(doc: dict) -> str:
    return f"d{doc['d']}n{len(doc['qudits'])}g{len(doc['ops'])}"


def build_compile(rng, seed: int, size: str, files: _Files) -> list[Job]:
    sizes = SIZES["compile"][size]
    jobs: list[Job] = []

    def convert_job(kind, src: Path, source, extra=(), small=False, check=_nothing):
        out = files.path(f"{kind}-out")
        argv = ["convert", kind, "--in", str(src), "--out", str(out), *extra]

        def full(_result):
            artifact = _load(out)
            check(artifact)
            if small:
                check_against_source(source, artifact, kind)

        jobs.append(cli_job(f"convert {kind} {src.stem}", [argv], [0], [out], full, [out]))

    def pattern_ok(p):
        bad = qpattern.validate(p)
        _require(bad is None, f"invalid pattern: {bad}")
        _require(qrewrite.is_completely_standard(p), "pattern is not completely standard")

    def cluster_ok(p):
        pattern_ok(p)
        degree = qpattern.entanglement_graph(p).max_degree()
        _require(degree <= 3, f"cluster pattern has entanglement degree {degree}")

    def standard_gates_ok(c):
        problems = qcircuit.validate_gate_set(c, "standard")
        _require(not problems, f"gate-set violations: {problems[:3]}")

    def fanout_gates_ok(c):
        problems = qcircuit.validate_gate_set(c, "fanout")
        _require(not problems, f"fan-out model violations: {problems[:3]}")

    for idx, make in enumerate(sizes["guni"]):
        small = idx == 0
        doc = make(rng)
        source = _circuit(doc)
        src = files.write(f"guni-{_tag(doc)}", json.dumps(doc))
        std = files.write(f"def7-{_tag(doc)}", qpattern.pattern_to_json(qconvert.circuit_to_pattern_standard(source)))
        raw = files.write(f"raw7-{_tag(doc)}", qpattern.pattern_to_json(qconvert.circuit_to_pattern_standard(source, standardise=False)))
        convert_job("def7", src, source, small=small, check=pattern_ok)
        convert_job("def8", src, source, small=small, check=cluster_ok)
        convert_job("def9", std, source, small=small, check=standard_gates_ok)
        out = files.path("complete-out")

        def rewrite_full(_result, out=out, source=source, small=small):
            artifact = _load(out)
            pattern_ok(artifact)
            if small:
                check_against_source(source, artifact, "rewrite complete")

        jobs.append(cli_job(f"rewrite complete {raw.stem}", [["rewrite", "complete", "--in", str(raw), "--out", str(out)]], [0], [out], rewrite_full, [out]))

    for idx, make in enumerate(sizes["fanout"]):
        doc = make(rng)
        source = _circuit(doc)
        std = files.write(f"def7-{_tag(doc)}", qpattern.pattern_to_json(qconvert.circuit_to_pattern_standard(source)))
        convert_job("fanout-compile", std, source, small=idx == 0, check=fanout_gates_ok)

    for idx, make in enumerate(sizes["clifford"]):
        doc = make(rng)
        source = _circuit(doc)
        src = files.write(f"clifford-{_tag(doc)}", json.dumps(doc))
        convert_job("clifford-const", src, source, extra=["--target", "fanout-circuit"], small=idx == 0, check=fanout_gates_ok)

    sweep_out = files.path("sweep")
    lo, hi = (int(x) for x in sizes["sweep"].split(":"))

    def sweep_full(_result):
        rows = json.loads(sweep_out.read_text())["rows"]
        _require([r["n"] for r in rows] == list(range(lo, hi + 1)), "sweep rows do not cover the range")
        for key, bound in SWEEP_DEPTH_BOUNDS.items():
            depths = [r[key] for r in rows]
            _require(max(depths) <= bound, f"{key} {depths} rises above the constant {bound}")

    jobs.append(
        cli_job(
            f"analyze sweep {sizes['sweep']} d3",
            [["analyze", "--sweep", sizes["sweep"], "--d", "3", "--seed", str(SWEEP_SEED), "--out", str(sweep_out)]],
            [0],
            [sweep_out],
            sweep_full,
        )
    )
    return jobs


def _verdict(path: Path) -> float:
    return float(json.loads(path.read_text())["max_infidelity"])


def build_verify(rng, seed: int, size: str, files: _Files) -> list[Job]:
    sizes = SIZES["verify"][size]
    jobs: list[Job] = []

    def verify_job(name, first: Path, convert_argv, expect_equal=True):
        """Optionally produce the second artifact, then verify the pair."""
        second = files.path("second")
        report = files.path("verdict")
        argvs = [convert_argv + ["--out", str(second)]] if convert_argv else []
        argvs.append(["verify", str(first), str(second), "--seed", str(seed), "--out", str(report)])
        codes = [0] * (len(argvs) - 1) + [0 if expect_equal else 1]

        def verdict(_result):
            worst = _verdict(report)
            if expect_equal:
                _require(worst <= VERIFY_TOL, f"max_infidelity {worst:.3e} above {VERIFY_TOL}")
            else:
                _require(worst > VERIFY_TOL, f"negative control passed with max_infidelity {worst:.3e}")

        jobs.append(cli_job(name, argvs, codes, [second, report], _nothing, [second], every_pass=verdict))

    for kind in ("def7", "def8"):
        for make in sizes[kind]:
            doc = make(rng)
            src = files.write(f"guni-{_tag(doc)}", json.dumps(doc))
            verify_job(f"verify {kind} {src.stem}", src, ["convert", kind, "--in", str(src)])
    for make in sizes["clifford"]:
        doc = make(rng)
        src = files.write(f"clifford-{_tag(doc)}", json.dumps(doc))
        verify_job(f"verify clifford-const {src.stem}", src, ["convert", "clifford-const", "--in", str(src)])

    doc = sizes["pvp"](rng)
    tag = _tag(doc)
    raw_pattern = qconvert.circuit_to_pattern_standard(_circuit(doc), standardise=False)
    raw = files.write(f"raw7-{tag}", qpattern.pattern_to_json(raw_pattern))
    verify_job(f"verify pattern-vs-complete {raw.stem}", raw, ["rewrite", "complete", "--in", str(raw)])
    # negative control: one component of one measurement angle shifted
    doc = json.loads(raw.read_text())
    measures = [c for c in doc["commands"] if c["kind"] == "M"]
    measures[len(measures) // 2]["theta"][0] += 0.5
    shifted = files.write(f"shifted7-{tag}", json.dumps(doc))
    verify_job(f"verify negative-control {shifted.stem}", raw, ["rewrite", "complete", "--in", str(shifted)], expect_equal=False)
    return jobs


def build_wide(rng, seed: int, size: str, files: _Files) -> list[Job]:
    sizes = SIZES["wide"][size]
    jobs: list[Job] = []
    norm_tol = qsim.NORM_TOL

    def norm_ok(state):
        _require(abs(state.norm() - 1.0) <= norm_tol, f"final norm {state.norm():.15f}")

    def state_job(name, run, full_check):
        jobs.append(
            Job(
                name,
                run,
                lambda r: norm_ok(r[1]),
                full_check,
                lambda r: _state_digest(r[1]),
                lambda r: [r[0]] if r[0] is not None else [],
            )
        )

    def load(doc, stem):
        path = files.write(stem, json.dumps(doc))
        return path.stem, qcircuit.circuit_from_json(path.read_text())

    for make in sizes["clifford"]:
        doc = make(rng)
        stem, c = load(doc, f"clifford-{_tag(doc)}")
        st = qsim.random_state(c.ctx, c.inputs, rng)
        state_job(f"simulate {stem}", lambda c=c, st=st: (None, qcircuit.simulate_circuit(c, st)), _nothing)

    for make in sizes["mixed"]:
        doc = make(rng)
        stem, c = load(doc, f"mixed-{_tag(doc)}")
        st = qsim.random_state(c.ctx, c.inputs, rng)

        def run(c=c, st=st):
            lowered = qcircuit.lower_to_guni(c)
            return lowered, qcircuit.simulate_circuit(lowered, st)

        def full(r, c=c, st=st):
            want = qcircuit.simulate_circuit(c, st)
            fidelity = qsim.fidelity_up_to_phase(want, r[1])
            _require(fidelity >= 1.0 - VERIFY_TOL, f"lowered circuit fidelity {fidelity:.12f}")

        state_job(f"lower+simulate {stem}", run, full)

    for d, targets in sizes["fanout"]:
        ctx = DimensionContext.of(d)
        coeffs = [int(x) for x in rng.integers(1, d, size=targets)]
        built = qconvert.build_generalized(ctx, coeffs, "fanout")
        path = files.write(f"fanout-d{d}t{targets}", qcircuit.circuit_to_json(built))
        c = qcircuit.circuit_from_json(path.read_text())
        digits = [int(x) for x in rng.integers(0, d, size=len(c.inputs))]
        st = qsim.basis_state(c.ctx, c.inputs, digits)

        def full(r, c=c, digits=digits, coeffs=coeffs):
            x, d = digits[0], c.ctx.d
            want = [x] + [(y + k * x) % d for y, k in zip(digits[1:], coeffs)]
            ancillas = [q for q in c.qudits if q not in set(c.inputs)]
            expect = qsim.basis_state(c.ctx, tuple(c.inputs) + tuple(ancillas), want + [0] * len(ancillas))
            fidelity = qsim.fidelity_up_to_phase(expect, r[1])
            _require(fidelity >= 1.0 - VERIFY_TOL, f"fan-out output fidelity {fidelity:.12f}")

        state_job(f"simulate {path.stem}", lambda c=c, st=st: (None, qcircuit.simulate_circuit(c, st)), full)

    for make in sizes["pattern"]:
        doc = make(rng)
        stem, c = load(doc, f"guni-{_tag(doc)}")
        st = qsim.random_state(c.ctx, c.inputs, rng)

        def run(c=c, st=st):
            p = qconvert.circuit_to_pattern_standard(c)
            return p, qpattern.run(p, st, mode="sampled", seed=seed, lazy=True).state

        def full(r, c=c, st=st):
            # the pattern's k-th output wire carries the circuit's k-th output
            want = qcircuit.simulate_circuit(c, st).with_sites_order(c.outputs).amplitudes
            fidelity = abs(np.vdot(want, r[1].amplitudes))
            _require(fidelity >= 1.0 - VERIFY_TOL, f"pattern output fidelity {fidelity:.12f}")

        state_job(f"def7+run {stem}", run, full)
    return jobs


BUILDERS = {"compile": build_compile, "verify": build_verify, "wide": build_wide}


def build(workload: str, seed: int, size: str, root: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = BUILDERS[workload](rng, seed, size, _Files(root))
    if len({job.name for job in jobs}) != len(jobs):
        raise ValueError("job names must be unique")
    return jobs


def output_totals(artifacts) -> dict[str, int]:
    """Depth, size and qudit count summed over compiled artifacts."""
    totals = {"out_depth": 0, "out_size": 0, "out_qudits": 0}
    for a in artifacts:
        rep = qcircuit.depth_and_size(a) if isinstance(a, qcircuit.Circuit) else qpattern.pattern_depth_and_size(a)
        totals["out_depth"] += rep.depth
        totals["out_size"] += rep.size
        totals["out_qudits"] += len(a.qudits)
    return totals
