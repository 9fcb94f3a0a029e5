"""Command-line front end.

Subcommands: ``gen`` (example instances), ``convert`` (circuit/pattern
compilers), ``rewrite`` (standardisation passes), ``run`` (simulate),
``verify`` (equivalence of two artifacts via all-basis plus
random-state simulation) and ``analyze`` (depth/size/entanglement
reports and scaling sweeps).

Exit codes, picked in ``main`` only: 0 success, 1 verification failure,
2 a refusal (malformed or too large input, or an unwritable output).
All randomness flows from the single --seed value; measurement k of a
run draws from the stream spawned with key (k,) off that seed.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
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
    _decimal_ids,
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
    doc = _parse_json(text, path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: a circuit or pattern must be a JSON object, got {reprlib.repr(doc)}")
    try:
        if "ops" in doc and "commands" in doc:
            raise ValueError("both a circuit ('ops') and a pattern ('commands')")
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


def _parse_json(text: str, source: str):
    """json.loads, refusing a syntax error or nesting past the recursion limit with the source named."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{source}: {exc}") from exc


def _write(result: Circuit | Pattern | dict, out: str | None, fmt: str) -> None:
    """A circuit or pattern as its JSON document, a report as JSON or a text table; to ``out`` or stdout."""
    if isinstance(result, (Circuit, Pattern)):
        text = circuit_to_json(result) if isinstance(result, Circuit) else pattern_to_json(result)
    else:
        text = json.dumps(result, indent=2) + "\n" if fmt == "json" else _as_table(result)
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise InputError(f"{out}: {exc}") from exc


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


# -- subcommand handlers: each returns the artifact or report that main writes --


_FAMILIES = {
    "guni": lambda ctx, a: random_guni_circuit(ctx, a.n, a.gates, a.seed),
    "clifford": lambda ctx, a: random_clifford_circuit(ctx, a.n, a.gates, a.seed),
    "cascade": lambda ctx, a: cascade_circuit(ctx, a.n),
    "fanout": lambda ctx, a: fanout_gate_circuit(ctx, a.n),
}


def _cmd_gen(args) -> Circuit:
    return _FAMILIES[args.family](_context(args.d), args)


def _cmd_convert(args) -> Circuit | Pattern:
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
    if args.report:
        if args.kind == "fanout-compile":
            pattern, circuit = pattern_depth_and_size(artifact), depth_and_size(result)
            report = {
                "pattern": {"depth": pattern.depth, "size": pattern.size},
                "circuit": {"depth": circuit.depth, "size": circuit.size},
                "ancillas_added": len(result.qudits) - len(artifact.qudits),
            }
        else:
            report = _analysis_doc(result)
        _write(report, args.report, args.format)
    return result


def _cmd_rewrite(args) -> Pattern:
    artifact = load_artifact(args.input)
    if not isinstance(artifact, Pattern):
        raise InputError("rewrite passes operate on patterns")
    passes = {
        "standardise": standardise,
        "pauli": pauli_simplify,
        "shift": signal_shift,
        "complete": completely_standardise,
    }
    return passes[args.pass_name](artifact)


def _state_doc(state) -> dict:
    return {
        "sites": list(state.sites),
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def _outcomes_doc(outcomes: dict) -> dict:
    return {str(k): v for k, v in sorted(outcomes.items())}


def _cmd_run(args) -> dict:
    artifact = load_runnable(args.input)
    if isinstance(artifact, Circuit):
        return {"kind": "circuit-run", **_state_doc(simulate_circuit(artifact))}
    if args.mode == "all-branches":
        if _samples(artifact):
            raise InputError(f"{artifact.ctx.d}^{len(artifact.measured_qudits())} branches exceed the cap of {BRANCH_ENUMERATION_CAP}; use --mode sampled")
        branches = run_branches(artifact)
        return {
            "kind": "pattern-branches",
            "branches": [
                {
                    "outcomes": _outcomes_doc(b.outcomes),
                    "probability": b.probability,
                }
                for b in branches
            ],
        }
    forced = None
    if args.mode == "forced":
        outcomes = _parse_json(args.outcomes, "--outcomes") if args.outcomes else None
        if not isinstance(outcomes, dict) or not all(type(v) is int for v in outcomes.values()):
            raise InputError("forced mode requires --outcomes as a JSON object {qudit: dit}, e.g. '{\"1\": 0}'")
        forced = dict(zip(_decimal_ids(outcomes, "--outcomes", "keys"), outcomes.values()))
    res = run(artifact, mode=args.mode, seed=args.seed, forced_outcomes=forced)
    return {
        "kind": "pattern-run",
        "outcomes": _outcomes_doc(res.outcomes),
        "probability": res.probability,
        **_state_doc(res.state),
    }


def _cmd_verify(args) -> dict:
    a = load_runnable(args.first)
    b = load_runnable(args.second)
    worst, coverage = verify_equivalent(a, b, args.seed)
    return {"max_infidelity": worst, "tolerance": args.tol, "equivalent": worst <= args.tol, **coverage}


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


def _cmd_analyze(args) -> dict:
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
        return {"kind": "clifford-const-sweep", "d": args.d, "rows": rows}
    if not args.input:
        raise InputError("analyze needs --in FILE or --sweep LO:HI")
    return _analysis_doc(load_artifact(args.input))


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


def _tolerance(text: str) -> float:
    """An argparse ``type=`` for verify's --tol: a finite float of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number of at least 0, got {text}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every ``main`` call; each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(prog="quditmbqc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {flag: argparse.ArgumentParser(add_help=False) for flag in ("out", "in", "seed", "format")}
    shared["out"].add_argument("--out", default=None)
    shared["in"].add_argument("--in", dest="input", required=True)
    shared["seed"].add_argument("--seed", type=int, default=0)
    shared["format"].add_argument("--format", choices=["json", "text"], default="json")

    def command(name: str, func, help: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[shared[flag] for flag in ("out", *flags)])
        p.set_defaults(func=func)
        return p

    p = command("gen", _cmd_gen, "generate an example circuit", "seed")
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=_count(1), default=2)
    p.add_argument("--gates", type=_count(0), default=10)

    p = command("convert", _cmd_convert, "convert between circuits and patterns", "in", "format")
    p.add_argument("kind", choices=["def7", "def8", "def9", "fanout-compile", "clifford-const"])
    p.add_argument("--target", choices=["pattern", "fanout-circuit"], default="pattern")
    p.add_argument("--report", default=None, help="also write a depth/size report")

    p = command("rewrite", _cmd_rewrite, "run standardisation passes on a pattern", "in")
    p.add_argument("pass_name", choices=["standardise", "pauli", "shift", "complete"])

    p = command("run", _cmd_run, "simulate a circuit or pattern", "in", "seed", "format")
    p.add_argument("--mode", choices=["sampled", "forced", "all-branches"], default="sampled")
    p.add_argument("--outcomes", default=None, help="forced outcomes as JSON {qudit: dit}")

    p = command("verify", _cmd_verify, "check two artifacts for equivalence", "seed", "format")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    p = command("analyze", _cmd_analyze, "depth/size/entanglement report or scaling sweep", "seed", "format")
    p.add_argument("--in", dest="input", default=None)
    p.add_argument("--sweep", default=None, help="n range LO:HI for a clifford-const sweep")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--gates-per-n", type=_count(0), default=5)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and write its result; the one place that picks the exit code."""
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
        _write(result, args.out, getattr(args, "format", "json"))
    except (InputError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_VERIFY_FAILED if isinstance(result, dict) and result.get("equivalent") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
