"""Command-line front end.

Subcommands: ``gen`` (example instances), ``convert`` (circuit/pattern
compilers), ``rewrite`` (standardisation passes), ``run`` (simulate),
``verify`` (equivalence of two artifacts via all-basis plus
random-state simulation) and ``analyze`` (depth/size/entanglement
reports and scaling sweeps).

Exit codes: 0 success, 1 verification failure, 2 malformed or too
large input.
All randomness flows from the single --seed value; measurement k of a
run draws from the stream spawned with key (k,) off that seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .algebra import DimensionContext
from .circuit import (
    Circuit,
    circuit_from_json,
    circuit_to_json,
    depth_and_size,
    lower_to_guni,
    output_rows,
    simulate_circuit,
)
from .convert import (
    circuit_to_pattern_cluster,
    circuit_to_pattern_standard,
    clifford_constant_depth,
    pattern_to_circuit_coherent,
    pattern_to_fanout_circuit,
)
from .generate import (
    cascade_circuit,
    fanout_gate_circuit,
    random_clifford_circuit,
    random_guni_circuit,
)
from .pattern import (
    Pattern,
    entanglement_depth,
    entanglement_graph,
    pattern_depth_and_size,
    pattern_from_json,
    pattern_to_json,
    peak_live_qudits,
    run,
    run_branches,
    run_rows,
)
from .rewrite import completely_standardise, pauli_simplify, signal_shift, standardise
from .sim import AMPLITUDE_CAP, random_state, row_parts

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2

DEFAULT_TOL = 1e-9
BRANCH_ENUMERATION_CAP = 256
SAMPLED_RUNS = 4  # sampled runs per input when verify cannot enumerate the branches


class InputError(Exception):
    pass


# -- artifact I/O -------------------------------------------------------------


def load_artifact(path: str) -> Circuit | Pattern:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    try:
        if "ops" in doc:
            return circuit_from_json(text)
        if "commands" in doc:
            return pattern_from_json(text)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    raise InputError(f"{path}: neither a circuit ('ops') nor a pattern ('commands')")


def load_runnable(path: str) -> Circuit | Pattern:
    """An artifact whose dense state fits AMPLITUDE_CAP, checked before any allocation:
    a circuit holds every qudit, a pattern the peak of its lazy schedule."""
    artifact = load_artifact(path)
    width = len(artifact.qudits) if isinstance(artifact, Circuit) else peak_live_qudits(artifact)
    if artifact.ctx.d**width > AMPLITUDE_CAP:
        raise InputError(f"{path}: {artifact.ctx.d}^{width} amplitudes exceed the cap of {AMPLITUDE_CAP}")
    return artifact


def dump_artifact(artifact: Circuit | Pattern, out: str | None) -> None:
    text = circuit_to_json(artifact) if isinstance(artifact, Circuit) else pattern_to_json(artifact)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def emit(doc: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = _as_table(doc)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _as_table(doc: dict, prefix: str = "") -> str:
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.append(_as_table(value, prefix + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            keys = list(value[0].keys())
            lines.append(f"{prefix}{key}:")
            lines.append(prefix + "  " + "  ".join(f"{k:>10}" for k in keys))
            for row in value:
                lines.append(prefix + "  " + "  ".join(f"{row.get(k, ''):>10}" for k in keys))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return "\n".join(lines) + "\n"


# -- equivalence verification ---------------------------------------------------


def _samples(artifact: Circuit | Pattern) -> bool:
    """Whether verify samples a pattern's branches instead of enumerating them."""
    return isinstance(artifact, Pattern) and artifact.ctx.d ** len(artifact.measured_qudits()) > BRANCH_ENUMERATION_CAP


def _output_rows(artifact: Circuit | Pattern, inputs: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Representative output states of every input row at once, one row each
    with amplitudes in the artifact's own ``outputs`` order, and the input
    row each came from.

    A circuit gives one state per input (see ``output_rows``: subnormalized
    when its outputs stay entangled with other wires, so that infidelity
    surfaces naturally).  A pattern gives every branch of every input, or
    SAMPLED_RUNS sampled runs per input."""
    if isinstance(artifact, Circuit):
        return output_rows(artifact, inputs), np.arange(len(inputs))
    if not _samples(artifact):
        rows = run_rows(artifact, inputs)
        return rows.amplitudes, rows.origin
    seeds = np.tile(seed + np.arange(SAMPLED_RUNS), len(inputs))
    rows = run_rows(artifact, np.repeat(inputs, SAMPLED_RUNS, axis=0), seeds=seeds)
    return rows.amplitudes, rows.origin // SAMPLED_RUNS


def verify_equivalent(a: Circuit | Pattern, b: Circuit | Pattern, seed: int, random_inputs: int = 4) -> tuple[float, dict]:
    """Max infidelity over all basis inputs plus random input states,
    comparing outputs by position and every branch of one side with every
    branch of the other; and the coverage: the inputs checked and, per side,
    the branches checked exactly or the runs sampled.

    Each side runs its inputs in one batch, or in as few groups as keep the
    output rows of one group within the amplitude cap (at most
    BRANCH_ENUMERATION_CAP rows per input on either side); each group's
    inputs are built on their own."""
    in_a, in_b = a.inputs, b.inputs
    if len(in_a) != len(in_b):
        raise InputError(f"input arities differ: {len(in_a)} vs {len(in_b)}")
    if len(a.outputs) != len(b.outputs):
        raise InputError(f"output arities differ: {len(a.outputs)} vs {len(b.outputs)}")
    if a.ctx.d != b.ctx.d:
        raise InputError(f"dimensions differ: {a.ctx.d} vs {b.ctx.d}")
    n, dim = len(in_a), a.ctx.d ** len(in_a)
    rng = np.random.default_rng(seed)
    randoms = np.array([random_state(a.ctx, range(n), rng).amplitudes for _ in range(random_inputs)]).reshape(-1, dim)
    worst, counts = 0.0, np.zeros(2, dtype=np.int64)
    for part in row_parts(dim + random_inputs, BRANCH_ENUMERATION_CAP * a.ctx.d ** len(a.outputs)):
        # input dim + k is the k-th random state
        index = np.arange(dim + random_inputs)[part]
        basis = index < dim
        chunk = np.zeros((len(index), dim), dtype=np.complex128)
        chunk[basis, index[basis]] = 1
        chunk[~basis] = randoms[index[~basis] - dim]
        (sa, origin_a), (sb, origin_b) = _output_rows(a, chunk, seed), _output_rows(b, chunk, seed)
        counts += len(origin_a), len(origin_b)
        for i in range(len(chunk)):
            fidelities = np.abs(sa[origin_a == i].conj() @ sb[origin_b == i].T)
            worst = max(worst, 1.0 - float(fidelities.min()))
    first, second = (
        {"kind": "circuit" if isinstance(x, Circuit) else "pattern", "runs_sampled" if _samples(x) else "branches_exact": int(count)}
        for x, count in zip((a, b), counts)
    )
    return worst, {"inputs": dim + random_inputs, "first": first, "second": second}


# -- subcommand handlers ---------------------------------------------------------


def _cmd_gen(args) -> int:
    ctx = DimensionContext.of(args.d)
    if args.family == "guni":
        artifact = random_guni_circuit(ctx, args.n, args.gates, args.seed)
    elif args.family == "clifford":
        artifact = random_clifford_circuit(ctx, args.n, args.gates, args.seed)
    elif args.family == "cascade":
        artifact = cascade_circuit(ctx, args.n)
    elif args.family == "fanout":
        artifact = fanout_gate_circuit(ctx, args.n)
    else:
        raise InputError(f"unknown family {args.family}")
    dump_artifact(artifact, args.out)
    return EXIT_OK


def _cmd_convert(args) -> int:
    artifact = load_artifact(args.input)
    report: dict = {}
    if args.kind == "def7":
        if not isinstance(artifact, Circuit):
            raise InputError("def7 expects a circuit")
        result = circuit_to_pattern_standard(lower_to_guni(artifact))
    elif args.kind == "def8":
        if not isinstance(artifact, Circuit):
            raise InputError("def8 expects a circuit")
        result = circuit_to_pattern_cluster(artifact)
    elif args.kind == "def9":
        if not isinstance(artifact, Pattern):
            raise InputError("def9 expects a pattern")
        result = pattern_to_circuit_coherent(artifact)
    elif args.kind == "fanout-compile":
        if not isinstance(artifact, Pattern):
            raise InputError("fanout-compile expects a pattern")
        compiled = pattern_to_fanout_circuit(artifact)
        result = compiled.circuit
        report = {
            "pattern": {"depth": compiled.pattern_report.depth, "size": compiled.pattern_report.size},
            "circuit": {"depth": compiled.circuit_report.depth, "size": compiled.circuit_report.size},
            "ancillas_added": len(result.qudits) - len(artifact.qudits),
        }
    elif args.kind == "clifford-const":
        if not isinstance(artifact, Circuit):
            raise InputError("clifford-const expects a circuit")
        if args.target == "pattern":
            result = clifford_constant_depth(artifact, "pattern")
        else:
            result = clifford_constant_depth(artifact, "fanout_circuit").circuit
    else:
        raise InputError(f"unknown conversion {args.kind}")
    dump_artifact(result, args.out)
    if args.report:
        emit(report or _analysis_doc(result), args.format, args.report)
    return EXIT_OK


def _cmd_rewrite(args) -> int:
    artifact = load_artifact(args.input)
    if not isinstance(artifact, Pattern):
        raise InputError("rewrite passes operate on patterns")
    passes = {
        "standardise": standardise,
        "pauli": pauli_simplify,
        "shift": signal_shift,
        "complete": completely_standardise,
    }
    result = passes[args.pass_name](artifact)
    dump_artifact(result, args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    artifact = load_runnable(args.input)
    if isinstance(artifact, Circuit):
        final = simulate_circuit(artifact)
        doc = {
            "kind": "circuit-run",
            "sites": list(final.sites),
            "amplitudes": [[float(a.real), float(a.imag)] for a in final.amplitudes],
        }
        emit(doc, args.format, args.out)
        return EXIT_OK
    if args.mode == "all-branches":
        measured = len(artifact.measured_qudits())
        if artifact.ctx.d**measured > BRANCH_ENUMERATION_CAP:
            raise InputError(f"{artifact.ctx.d}^{measured} branches exceed the cap of {BRANCH_ENUMERATION_CAP}; use --mode sampled")
        branches = run_branches(artifact, lazy=True)
        doc = {
            "kind": "pattern-branches",
            "branches": [
                {
                    "outcomes": {str(k): v for k, v in sorted(b.outcomes.items())},
                    "probability": b.probability,
                }
                for b in branches
            ],
        }
        emit(doc, args.format, args.out)
        return EXIT_OK
    forced = None
    if args.mode == "forced":
        outcomes = json.loads(args.outcomes) if args.outcomes else None
        if not isinstance(outcomes, dict) or not all(type(v) is int for v in outcomes.values()):
            raise InputError("forced mode requires --outcomes as a JSON object {qudit: dit}, e.g. '{\"1\": 0}'")
        forced = {int(k): v for k, v in outcomes.items()}
    res = run(artifact, mode=args.mode, seed=args.seed, forced_outcomes=forced, lazy=True)
    doc = {
        "kind": "pattern-run",
        "outcomes": {str(k): v for k, v in sorted(res.outcomes.items())},
        "probability": res.probability,
        "sites": list(res.state.sites),
        "amplitudes": [[float(a.real), float(a.imag)] for a in res.state.amplitudes],
    }
    emit(doc, args.format, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    a = load_runnable(args.first)
    b = load_runnable(args.second)
    worst, coverage = verify_equivalent(a, b, args.seed)
    doc = {"max_infidelity": worst, "tolerance": args.tol, "equivalent": worst <= args.tol, **coverage}
    emit(doc, args.format, args.out)
    return EXIT_OK if worst <= args.tol else EXIT_VERIFY_FAILED


def _analysis_doc(artifact: Circuit | Pattern) -> dict:
    if isinstance(artifact, Circuit):
        rep = depth_and_size(artifact)
        return {
            "kind": "circuit",
            "qudits": len(artifact.qudits),
            "depth": rep.depth,
            "size": rep.size,
        }
    rep = pattern_depth_and_size(artifact)
    graph = entanglement_graph(artifact)
    ent = entanglement_depth(graph)
    return {
        "kind": "pattern",
        "qudits": len(artifact.qudits),
        "depth": rep.depth,
        "size": rep.size,
        "entanglement": {
            "max_degree": ent.lower_bound,
            "achieved_depth": ent.achieved,
            "exact": ent.exact,
            "within_degree_plus_one": ent.within_degree_lemma,
        },
    }


def _cmd_analyze(args) -> int:
    if args.sweep:
        rng_text = args.sweep.removeprefix("n=").replace("..", ":")
        try:
            lo, hi = (int(x) for x in rng_text.split(":"))
        except ValueError:
            raise InputError(f"bad sweep range {args.sweep!r}; use LO:HI or n=LO..HI") from None
        rows = []
        for n in range(lo, hi + 1):
            ctx = DimensionContext.of(args.d)
            circuit = random_clifford_circuit(ctx, n, args.gates_per_n * n, args.seed + n)
            pat = clifford_constant_depth(circuit, "pattern")
            compiled = clifford_constant_depth(circuit, "fanout_circuit")
            prep = pattern_depth_and_size(pat)
            rows.append(
                {
                    "n": n,
                    "pattern_depth": prep.depth,
                    "pattern_size": prep.size,
                    "circuit_depth": compiled.circuit_report.depth,
                    "circuit_size": compiled.circuit_report.size,
                }
            )
        emit({"kind": "clifford-const-sweep", "d": args.d, "rows": rows}, args.format, args.out)
        return EXIT_OK
    if not args.input:
        raise InputError("analyze needs --in FILE or --sweep LO:HI")
    artifact = load_artifact(args.input)
    emit(_analysis_doc(artifact), args.format, args.out)
    return EXIT_OK


# -- argument parsing -------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every ``main`` call; each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(prog="quditmbqc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an example circuit")
    p.add_argument("family", choices=["guni", "clifford", "cascade", "fanout"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--gates", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("convert", help="convert between circuits and patterns")
    p.add_argument("kind", choices=["def7", "def8", "def9", "fanout-compile", "clifford-const"])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--target", choices=["pattern", "fanout-circuit"], default="pattern")
    p.add_argument("--report", default=None, help="also write a depth/size report")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("rewrite", help="run standardisation passes on a pattern")
    p.add_argument("pass_name", choices=["standardise", "pauli", "shift", "complete"])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("run", help="simulate a circuit or pattern")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--mode", choices=["sampled", "forced", "all-branches"], default="sampled")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outcomes", default=None, help="forced outcomes as JSON {qudit: dit}")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="check two artifacts for equivalence")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="depth/size/entanglement report or scaling sweep")
    p.add_argument("--in", dest="input", default=None)
    p.add_argument("--sweep", default=None, help="n range LO:HI for a clifford-const sweep")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--gates-per-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
