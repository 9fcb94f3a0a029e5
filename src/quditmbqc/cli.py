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
    _circuit_from_doc,
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
    _pattern_from_doc,
    entanglement_depth,
    entanglement_graph,
    pattern_depth_and_size,
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
BUILD_CAP = 1 << 20  # most qudits or gates gen and analyze --sweep build: about 1 GB at ~1 KB each
SAMPLED_RUNS = 4  # sampled runs per input when verify cannot enumerate the branches
RANDOM_INPUTS = 4  # random input states verify checks after the basis inputs


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
        if "ops" in doc or "commands" in doc:
            _context(doc["d"])
            return (_circuit_from_doc if "ops" in doc else _pattern_from_doc)(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    raise InputError(f"{path}: neither a circuit ('ops') nor a pattern ('commands')")


def load_runnable(path: str) -> Circuit | Pattern:
    """An artifact whose dense state fits AMPLITUDE_CAP, checked before any allocation:
    a circuit holds every qudit, a pattern the peak of its schedule."""
    artifact = load_artifact(path)
    width = len(artifact.qudits) if isinstance(artifact, Circuit) else peak_live_qudits(artifact)
    if artifact.ctx.d**width > AMPLITUDE_CAP:
        raise InputError(f"{path}: {artifact.ctx.d}^{width} amplitudes exceed the cap of {AMPLITUDE_CAP}")
    return artifact


def _context(d) -> DimensionContext:
    """DimensionContext.of(d), refused unless a d x d frame or Fourier matrix fits one capped state."""
    ctx = DimensionContext.of(d)
    if ctx.d * ctx.d > AMPLITUDE_CAP:
        raise ValueError(f"dimension {ctx.d}: {ctx.d}^2 amplitudes exceed the cap of {AMPLITUDE_CAP}")
    return ctx


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def dump_artifact(artifact: Circuit | Pattern, out: str | None) -> None:
    _write(circuit_to_json(artifact) if isinstance(artifact, Circuit) else pattern_to_json(artifact), out)


def emit(doc: dict, fmt: str, out: str | None) -> None:
    _write(json.dumps(doc, indent=2) + "\n" if fmt == "json" else _as_table(doc), out)


def _as_table(doc: dict, prefix: str = "") -> str:
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines += _as_table(value, prefix + "  ").splitlines()
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            keys = list(value[0].keys())
            lines.append(f"{prefix}{key}:")
            lines.append(prefix + "  " + "  ".join(f"{k:>10}" for k in keys))
            for row in value:
                lines.append(prefix + "  " + "  ".join(f"{row.get(k, ''):>10}" for k in keys))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return "".join(line + "\n" for line in lines)


# -- equivalence verification ---------------------------------------------------


def _samples(artifact: Circuit | Pattern) -> bool:
    """Whether a pattern has more branches than BRANCH_ENUMERATION_CAP, so that
    verify samples them and ``run --mode all-branches`` refuses."""
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


def verify_equivalent(a: Circuit | Pattern, b: Circuit | Pattern, seed: int) -> tuple[float, dict]:
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
    randoms = np.array([random_state(a.ctx, range(n), rng).amplitudes for _ in range(RANDOM_INPUTS)]).reshape(-1, dim)
    worst, counts = 0.0, np.zeros(2, dtype=np.int64)
    for part in row_parts(dim + RANDOM_INPUTS, BRANCH_ENUMERATION_CAP * a.ctx.d ** len(a.outputs)):
        # input dim + k is the k-th random state
        index = np.arange(dim + RANDOM_INPUTS)[part]
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
    return worst, {"inputs": dim + RANDOM_INPUTS, "first": first, "second": second}


# -- subcommand handlers ---------------------------------------------------------


_FAMILIES = {
    "guni": lambda ctx, a: random_guni_circuit(ctx, a.n, a.gates, a.seed),
    "clifford": lambda ctx, a: random_clifford_circuit(ctx, a.n, a.gates, a.seed),
    "cascade": lambda ctx, a: cascade_circuit(ctx, a.n),
    "fanout": lambda ctx, a: fanout_gate_circuit(ctx, a.n),
}


def _cmd_gen(args) -> int:
    dump_artifact(_FAMILIES[args.family](_context(args.d), args), args.out)
    return EXIT_OK


def _cmd_convert(args) -> int:
    if args.target == "fanout-circuit" and args.kind != "clifford-const":
        raise InputError(f"--target fanout-circuit applies to clifford-const only; {args.kind} has one output")
    artifact = load_artifact(args.input)
    # kind -> (input type, compiler); built per call, so a compiler wrapped after import is the one called
    wanted, compile_ = {
        "def7": (Circuit, lambda c: circuit_to_pattern_standard(lower_to_guni(c))),
        "def8": (Circuit, circuit_to_pattern_cluster),
        "def9": (Pattern, pattern_to_circuit_coherent),
        "fanout-compile": (Pattern, pattern_to_fanout_circuit),
        "clifford-const": (Circuit, clifford_constant_depth),
    }[args.kind]
    if not isinstance(artifact, wanted):
        raise InputError(f"{args.kind} expects a {wanted.__name__.lower()}")
    result = compile_(artifact)
    if args.target == "fanout-circuit":
        result = pattern_to_fanout_circuit(result)
    dump_artifact(result, args.out)
    if not args.report:
        return EXIT_OK
    if args.kind == "fanout-compile":
        pattern, circuit = pattern_depth_and_size(artifact), depth_and_size(result)
        report = {
            "pattern": {"depth": pattern.depth, "size": pattern.size},
            "circuit": {"depth": circuit.depth, "size": circuit.size},
            "ancillas_added": len(result.qudits) - len(artifact.qudits),
        }
    else:
        report = _analysis_doc(result)
    emit(report, args.format, args.report)
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
        if _samples(artifact):
            raise InputError(f"{artifact.ctx.d}^{len(artifact.measured_qudits())} branches exceed the cap of {BRANCH_ENUMERATION_CAP}; use --mode sampled")
        branches = run_branches(artifact)
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
    res = run(artifact, mode=args.mode, seed=args.seed, forced_outcomes=forced)
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
            lo = hi = None
        if lo is None or not 1 <= lo <= hi:
            raise InputError(f"bad sweep range {args.sweep!r}; use LO:HI or n=LO..HI")
        if max(hi, args.gates_per_n * hi) > BUILD_CAP:
            raise InputError(f"a sweep to n={hi} with {args.gates_per_n} gates per n exceeds the cap of {BUILD_CAP} qudits or gates")
        ctx = _context(args.d)
        rows = []
        for n in range(lo, hi + 1):
            pat = clifford_constant_depth(random_clifford_circuit(ctx, n, args.gates_per_n * n, args.seed + n))
            prep, crep = pattern_depth_and_size(pat), depth_and_size(pattern_to_fanout_circuit(pat))
            rows.append(
                {
                    "n": n,
                    "pattern_depth": prep.depth,
                    "pattern_size": prep.size,
                    "circuit_depth": crep.depth,
                    "circuit_size": crep.size,
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


def _count(low: int):
    """An argparse ``type=`` for integers from ``low`` to BUILD_CAP; argparse names the flag it refuses."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > BUILD_CAP:
            raise argparse.ArgumentTypeError(f"must be at most {BUILD_CAP}, got {value}")
        return value

    return integer


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every ``main`` call; each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(prog="quditmbqc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an example circuit")
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=_count(1), default=2)
    p.add_argument("--gates", type=_count(0), default=10)
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
    p.add_argument("--gates-per-n", type=_count(0), default=5)
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
    except (InputError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
