"""Measurement-pattern intermediate representation.

A pattern is a computation (V, I, O, command sequence) built from
entangling commands E(i,j), destructive single-qudit measurements with
classical signal dependencies, and Pauli corrections.  Non-input
qudits are implicitly prepared in the conjugate-basis state F|0>.

Signals are Z(d)-linear combinations of measurement outcomes; they
carry the classical dependency structure that the rewrite passes and
the depth analyzer operate on.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .algebra import DimensionContext
from .circuit import DepthReport, _wired, longest_chain
from .sim import (
    ZERO_BRANCH_TOL,
    Gate,
    StateVector,
    _collapse_rows,
    _fourier,
    _kernel,
    _per_row,
    _rotate_rows,
    _sample_outcomes,
    basis_state,
    row_parts,
)

__all__ = [
    "Signal",
    "Entangle",
    "Measure",
    "CorrectX",
    "CorrectZ",
    "Command",
    "Pattern",
    "Violation",
    "validate",
    "run",
    "run_branches",
    "run_rows",
    "RunResult",
    "Rows",
    "peak_live_qudits",
    "pattern_depth_and_size",
    "EntanglementGraph",
    "entanglement_graph",
    "entanglement_depth",
    "EntanglementDepthReport",
    "compose_serial",
    "compose_parallel",
    "pattern_to_json",
    "pattern_from_json",
]



@dataclass(frozen=True)
class Signal:
    """A formal Z(d)-linear combination of measurement-outcome dits.

    Coefficients are stored reduced mod d with zero entries removed;
    the empty signal is the constant zero.  Signals are pure linear
    forms: there is no constant term.
    """

    d: int
    coeffs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        reduced = {}
        for q, c in self.coeffs:
            c = c % self.d
            if c:
                reduced[q] = (reduced.get(q, 0) + c) % self.d
        items = tuple(sorted((q, c) for q, c in reduced.items() if c))
        object.__setattr__(self, "coeffs", items)

    @classmethod
    def zero(cls, d: int) -> "Signal":
        return cls(d)

    @classmethod
    def of(cls, d: int, mapping: dict[int, int] | None = None) -> "Signal":
        return cls(d, tuple((mapping or {}).items()))

    @classmethod
    def unit(cls, d: int, qudit: int) -> "Signal":
        return cls(d, ((qudit, 1),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def qudits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.coeffs)

    def __add__(self, other: "Signal") -> "Signal":
        if other.d != self.d:
            raise ValueError("signal moduli differ")
        return Signal(self.d, self.coeffs + other.coeffs)

    def __sub__(self, other: "Signal") -> "Signal":
        return self + other.scaled(-1)

    def scaled(self, factor: int) -> "Signal":
        return Signal(self.d, tuple((q, c * factor) for q, c in self.coeffs))

    def relabel(self, mapping: dict[int, int]) -> "Signal":
        return Signal(self.d, tuple((mapping.get(q, q), c) for q, c in self.coeffs))

    def evaluate(self, outcomes: dict[int, int]) -> int:
        total = 0
        for q, c in self.coeffs:
            total += c * outcomes[q]
        return total % self.d

    def to_mapping(self) -> dict[int, int]:
        return dict(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return "+".join(f"{c}*s[{q}]" if c != 1 else f"s[{q}]" for q, c in self.coeffs)


@dataclass(frozen=True)
class Entangle:
    """E(i,j): a controlled-Z between two distinct qudits; symmetric."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("entangling command needs two distinct qudits")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)

    def sites(self) -> tuple[int, ...]:
        return (self.i, self.j)


@dataclass(frozen=True)
class Measure:
    """Destructive measurement of one qudit with angle vector theta.

    ``x_signal`` adapts the measured observable by an X power and
    ``z_signal`` by a Z power, both evaluated mod d from earlier
    outcomes.  Empty signals give an independent measurement.
    """

    site: int
    theta: tuple[float, ...]
    x_signal: Signal
    z_signal: Signal

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))

    def sites(self) -> tuple[int, ...]:
        return (self.site,)

    def is_independent(self) -> bool:
        return self.x_signal.is_zero() and self.z_signal.is_zero()


@dataclass(frozen=True)
class CorrectX:
    """Classically controlled X^signal correction."""

    site: int
    signal: Signal

    def sites(self) -> tuple[int, ...]:
        return (self.site,)


@dataclass(frozen=True)
class CorrectZ:
    """Classically controlled Z^signal correction."""

    site: int
    signal: Signal

    def sites(self) -> tuple[int, ...]:
        return (self.site,)


Command = Entangle | Measure | CorrectX | CorrectZ


def _command_signals(cmd: Command) -> tuple[Signal, ...]:
    if isinstance(cmd, Measure):
        return (cmd.x_signal, cmd.z_signal)
    if isinstance(cmd, (CorrectX, CorrectZ)):
        return (cmd.signal,)
    return ()


def normalize_commands(cmds, d: int) -> tuple[Command, ...]:
    """Drop corrections whose signal is statically zero."""
    out = []
    for cmd in cmds:
        if isinstance(cmd, (CorrectX, CorrectZ)) and cmd.signal.is_zero():
            continue
        out.append(cmd)
    return tuple(out)


@dataclass(frozen=True)
class Pattern:
    """A measurement pattern (V, I, O, command sequence)."""

    ctx: DimensionContext
    qudits: tuple[int, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    seq: tuple[Command, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "qudits", tuple(self.qudits))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "seq", normalize_commands(self.seq, self.ctx.d))
        if len(set(self.qudits)) != len(self.qudits):
            raise ValueError("duplicate qudit identifiers")

    def measured_qudits(self) -> tuple[int, ...]:
        return tuple(cmd.site for cmd in self.seq if isinstance(cmd, Measure))

    def with_seq(self, seq) -> "Pattern":
        return replace(self, seq=tuple(seq))


@dataclass(frozen=True)
class Violation:
    index: int | None
    message: str

    def __str__(self):
        where = "pattern" if self.index is None else f"command {self.index}"
        return f"{where}: {self.message}"


def validate(p: Pattern) -> Violation | None:
    """First violated wellformedness invariant, or None when the pattern is ok."""
    qs = set(p.qudits)
    if not set(p.inputs) <= qs or not set(p.outputs) <= qs:
        return Violation(None, "inputs and outputs must be subsets of the qudit set")
    outputs = set(p.outputs)
    measured: set[int] = set()
    for idx, cmd in enumerate(p.seq):
        for s in cmd.sites():
            if s not in qs:
                return Violation(idx, f"unknown qudit {s}")
            if s in measured:
                return Violation(idx, f"qudit {s} was already measured")
        for sig in _command_signals(cmd):
            if sig.d != p.ctx.d:
                return Violation(idx, "signal modulus differs from the pattern dimension")
            for q in sig.qudits():
                if q not in measured:
                    return Violation(idx, f"signal depends on qudit {q} not yet measured")
        if isinstance(cmd, Measure):
            if cmd.site in outputs:
                return Violation(idx, f"output qudit {cmd.site} must not be measured")
            if len(cmd.theta) != p.ctx.d:
                return Violation(idx, f"angle vector must have length {p.ctx.d}")
            if not all(map(math.isfinite, cmd.theta)):
                return Violation(idx, f"angle vector must be finite, got {list(cmd.theta)}")
            measured.add(cmd.site)
    unmeasured = qs - outputs - measured
    if unmeasured:
        return Violation(None, f"non-output qudit(s) {sorted(unmeasured)} never measured")
    return None


def require_valid(p: Pattern) -> None:
    bad = validate(p)
    if bad is not None:
        raise ValueError(f"pattern is not wellformed: {bad}")


# -- execution ----------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    state: StateVector
    outcomes: dict[int, int]
    probability: float


@dataclass(frozen=True)
class Rows:
    """A batched run: one row per (input, branch), in input order and then in
    outcome order.  ``amplitudes`` holds each row's output state over the
    pattern's ``outputs``; ``outcomes`` its outcome per measured qudit, the
    columns in ``measured`` order; ``origin`` the input row it came from."""

    measured: tuple[int, ...]
    amplitudes: np.ndarray
    outcomes: np.ndarray
    probability: np.ndarray
    origin: np.ndarray


def _rng_for_measurement(seed: int, index: int) -> np.random.Generator:
    # one root seed, split into an independent stream per measurement index
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.default_rng(ss)


def _schedule(p: Pattern, lazy: bool) -> list:
    """The fixed steps of a run: a tuple of qudits to append in F|0>, or a
    command to apply.

    Eager mode appends every ancilla first and keeps the commands
    verbatim.  Lazy mode defers each E command until a later command
    touches one of its qudits, and appends a qudit only when first
    needed, which keeps the live state small for chain-like patterns.
    This is sound because E commands mutually commute and commute with
    any command on disjoint qudits.  Which qudits are live and which E
    commands wait depends only on the command position, never on the
    outcomes, so one schedule serves every branch.  The deferred E
    commands are indexed by qudit, so building the schedule is linear in
    the pattern.
    """
    steps: list = []
    appended = set(p.inputs)
    if not lazy:
        ancillas = tuple(q for q in p.qudits if q not in appended)
        return ([ancillas] if ancillas else []) + list(p.seq)
    pending: dict[int, Entangle] = {}  # by sequence position, in insertion order
    waiting: dict[int, list[int]] = {}  # qudit -> positions of its pending E commands

    def touch(q: int) -> None:
        if q not in appended:
            appended.add(q)
            steps.append((q,))

    def emit(pos: int) -> None:
        e = pending.pop(pos)
        touch(e.i)
        touch(e.j)
        steps.append(e)

    for pos, cmd in enumerate(p.seq):
        if isinstance(cmd, Entangle):
            pending[pos] = cmd
            waiting.setdefault(cmd.i, []).append(pos)
            waiting.setdefault(cmd.j, []).append(pos)
        else:
            touch(cmd.site)
            for waited in waiting.pop(cmd.site, ()):
                if waited in pending:
                    emit(waited)
            steps.append(cmd)
    for q in p.outputs:
        touch(q)
    for pos in list(pending):
        emit(pos)
    return steps


def peak_live_qudits(p: Pattern) -> int:
    """Most qudits the lazy schedule holds at once, read before any allocation."""
    width = peak = len(p.inputs)
    for step in _schedule(p, lazy=True):
        if isinstance(step, tuple):
            width += len(step)
            peak = max(peak, width)
        elif isinstance(step, Measure):
            width -= 1
    return peak


def _walk(p: Pattern, sites: tuple[int, ...], amps: np.ndarray, lazy: bool, choose) -> Rows:
    """Run the schedule once for every input row of ``amps`` (amplitudes over
    ``sites``).  At each measurement ``choose(step, index, probs, origin)``
    gives the (row, outcome) pairs to follow, in row order and then outcome
    order; ``index`` counts the measurements before this one.  A batch that
    would outgrow AMPLITUDE_CAP is split, and its parts run depth first, so
    the rows come out in the same order."""
    require_valid(p)
    if set(sites) != set(p.inputs):
        raise ValueError("input state must be defined exactly on the pattern inputs")
    ctx, d = p.ctx, p.ctx.d
    steps = _schedule(p, lazy)
    measured = p.measured_qudits()
    column = {q: k for k, q in enumerate(measured)}

    def value(sig: Signal, outcomes: np.ndarray) -> np.ndarray:
        # one product mod d per row
        cols = [column[q] for q in sig.qudits()]
        return outcomes[:, cols] @ np.array([c for _, c in sig.coeffs], dtype=np.int64) % d

    count = len(amps)
    # a batch: (amplitudes, outcomes, probability, origin), one row each
    batch = (amps, np.zeros((count, len(measured)), dtype=np.int64), np.ones(count), np.arange(count))
    stack = [(0, tuple(sites), batch)] if count else []
    done = [(np.zeros((0, d ** len(p.outputs)), dtype=np.complex128),) + tuple(c[:0] for c in batch[1:])]
    while stack:
        pos, sites, (amps, outcomes, prob, origin) = stack.pop()
        for i in range(pos, len(steps)):
            step, n = steps[i], len(sites)
            if isinstance(step, tuple):
                parts = row_parts(len(amps), d ** (n + len(step)))
                if len(parts) > 1:
                    for part in reversed(parts):
                        stack.append((i, sites, tuple(c[part] for c in (amps, outcomes, prob, origin))))
                    break
                fresh = reduce(np.kron, (_fourier(d)[:, 0] for _ in step))
                amps = (amps[:, :, np.newaxis] * fresh).reshape(len(amps), -1)
                sites += step
            elif isinstance(step, Entangle):
                axes = (sites.index(step.i), sites.index(step.j))
                amps = _kernel(amps, d, n, Gate.cz(), axes).reshape(len(amps), -1)
            elif isinstance(step, Measure):
                axis, k = sites.index(step.site), column[step.site]
                s_vals, t_vals = value(step.x_signal, outcomes), value(step.z_signal, outcomes)
                view, probs = _rotate_rows(amps, ctx, n, axis, step.theta, s_vals, t_vals)
                kept, picked = choose(step, k, probs, origin)
                amps, p_kept = _collapse_rows(view, probs, kept, picked)
                outcomes, prob, origin = outcomes[kept], prob[kept] * p_kept, origin[kept]
                outcomes[:, k] = picked
                sites = sites[:axis] + sites[axis + 1 :]
                if not len(amps):
                    break
            else:
                axis, make = sites.index(step.site), (Gate.x if isinstance(step, CorrectX) else Gate.z)
                amps = _per_row(amps, value(step.signal, outcomes), lambda k, r: _kernel(r, d, n, make(k), (axis,)) if k else r)
        else:  # no step left: the batch is complete
            order = [1 + sites.index(q) for q in p.outputs]
            tensor = amps.reshape((len(amps),) + (d,) * len(sites))
            amps = np.ascontiguousarray(tensor.transpose([0] + order)).reshape(len(amps), -1)
            done.append((amps, outcomes, prob, origin))
    return Rows(measured, *(np.concatenate(columns) for columns in zip(*done)))


def _every(min_probability: float):
    """Follow every outcome of at least ``min_probability``."""
    return lambda step, index, probs, origin: np.nonzero(probs >= min_probability)


def _sampled(seeds):
    """Input row r draws from the stream (seeds[r], measurement index): one
    uniform per stream, shared by the rows that use it."""
    stream_of: dict[int, int] = {}  # seed -> its position among the distinct seeds
    row_stream = np.array([stream_of.setdefault(int(s), len(stream_of)) for s in seeds], dtype=np.int64)

    def choose(step, index, probs, origin):
        uniforms = np.array([_rng_for_measurement(s, index).random() for s in stream_of])
        return np.arange(len(probs)), _sample_outcomes(probs, uniforms[row_stream[origin]])

    return choose


def _forced(forced_outcomes: dict[int, int] | None):
    def choose(step, index, probs, origin):
        if forced_outcomes is None or step.site not in forced_outcomes:
            raise ValueError(f"forced mode needs an outcome for qudit {step.site}")
        j = int(forced_outcomes[step.site]) % probs.shape[1]
        low = probs[:, j] < ZERO_BRANCH_TOL
        if low.any():
            raise ValueError(f"forced outcome {j} on site {step.site} has probability {probs[low, j][0]:.3e}")
        return np.arange(len(probs)), np.full(len(probs), j)

    return choose


def _one_input(p: Pattern, input_state: StateVector | None) -> tuple[tuple[int, ...], np.ndarray]:
    if input_state is None:
        input_state = basis_state(p.ctx, p.inputs, [0] * len(p.inputs))
    return input_state.sites, input_state.amplitudes[np.newaxis]


def _results(p: Pattern, rows: Rows) -> list[RunResult]:
    return [
        RunResult(StateVector(p.ctx, p.outputs, amps), dict(zip(rows.measured, outcomes)), prob)
        for amps, outcomes, prob in zip(rows.amplitudes, rows.outcomes.tolist(), rows.probability.tolist())
    ]


def run_rows(p: Pattern, inputs: np.ndarray, seeds=None) -> Rows:
    """Run every row of ``inputs`` (amplitudes over ``p.inputs``, in that
    order) in one walk of the lazy schedule.

    Without ``seeds`` every row is expanded into each of its branches of
    probability at least 1e-12.  With one seed per row, each row follows one
    sampled branch drawn as ``run`` draws it.
    """
    inputs = np.asarray(inputs, dtype=np.complex128)
    if inputs.ndim != 2 or inputs.shape[1] != p.ctx.d ** len(p.inputs):
        raise ValueError(f"inputs must be rows of {p.ctx.d ** len(p.inputs)} amplitudes")
    if seeds is not None and len(seeds) != len(inputs):
        raise ValueError(f"{len(seeds)} seeds for {len(inputs)} input rows")
    choose = _every(1e-12) if seeds is None else _sampled(seeds)
    return _walk(p, p.inputs, inputs, True, choose)


def run(
    p: Pattern,
    input_state: StateVector | None = None,
    mode: str = "sampled",
    seed: int = 0,
    forced_outcomes: dict[int, int] | None = None,
    lazy: bool = False,
) -> RunResult:
    """Execute a pattern in ``sampled`` or ``forced`` mode.

    Sampled mode draws each outcome from a stream split off a single
    root seed (stream k for the k-th measurement in execution order),
    so runs are bit-reproducible.  Forced mode takes an outcome per
    measured qudit and fails on zero-probability branches.
    """
    if mode not in ("sampled", "forced"):
        raise ValueError(f"unknown run mode {mode!r}")
    choose = _sampled([seed]) if mode == "sampled" else _forced(forced_outcomes)
    return _results(p, _walk(p, *_one_input(p, input_state), lazy, choose))[0]


def run_branches(
    p: Pattern,
    input_state: StateVector | None = None,
    min_probability: float = 1e-12,
    lazy: bool = False,
) -> list[RunResult]:
    """Full branch enumeration: every outcome assignment with its probability."""
    return _results(p, _walk(p, *_one_input(p, input_state), lazy, _every(min_probability)))


# -- metrics ------------------------------------------------------------------


def pattern_depth_and_size(p: Pattern) -> DepthReport:
    """Depth over the written sequence; chains link commands that share a
    qudit or reference an earlier measurement's outcome.  Sizes: E
    counts 2, measurements and corrections count 1 (classical control
    adds no quantum size)."""
    require_valid(p)
    return longest_chain(map(_chain_item, p.seq))[0]


def _chain_item(cmd: Command) -> tuple:
    """(sites, referenced outcome qudits, measured qudit or None) of a command."""
    if isinstance(cmd, Entangle):
        return (cmd.i, cmd.j), (), None
    if isinstance(cmd, Measure):
        return (cmd.site,), cmd.x_signal.qudits() + cmd.z_signal.qudits(), cmd.site
    return (cmd.site,), cmd.signal.qudits(), None


# -- entanglement graph and entanglement depth --------------------------------


@dataclass(frozen=True)
class EntanglementGraph:
    """Multigraph of entangling commands with multiplicities in Z(d)."""

    nodes: tuple[int, ...]
    multiplicities: tuple[tuple[tuple[int, int], int], ...]

    def max_degree(self) -> int:
        degrees: Counter[int] = Counter()
        for (i, j), m in self.multiplicities:
            degrees[i] += m
            degrees[j] += m
        return max((degrees[n] for n in self.nodes), default=0)

    def edge_count(self) -> int:
        return sum(m for _, m in self.multiplicities)

    def unit_edges(self) -> list[tuple[int, int]]:
        out = []
        for (i, j), m in self.multiplicities:
            out.extend([(i, j)] * m)
        return out


def entanglement_graph(p: Pattern) -> EntanglementGraph:
    """Collect all E commands into a multigraph, multiplicities mod d."""
    counts: dict[tuple[int, int], int] = {}
    for cmd in p.seq:
        if isinstance(cmd, Entangle):
            counts[cmd.pair] = (counts.get(cmd.pair, 0) + 1) % p.ctx.d
    items = tuple(sorted((pair, m) for pair, m in counts.items() if m))
    return EntanglementGraph(tuple(p.qudits), items)


@dataclass(frozen=True)
class EntanglementDepthReport:
    achieved: int
    lower_bound: int
    exact: bool
    within_degree_lemma: bool
    coloring: tuple[int, ...]


EXACT_COLORING_EDGE_LIMIT = 12


def _greedy_coloring(edges: list[tuple[int, int]]) -> list[int]:
    used: dict[int, set[int]] = {}
    colors = []
    for i, j in edges:
        taken = used.setdefault(i, set()) | used.setdefault(j, set())
        c = 1
        while c in taken:
            c += 1
        colors.append(c)
        used[i].add(c)
        used[j].add(c)
    return colors


def _fan_rotation_coloring(edges: list[tuple[int, int]], max_degree: int) -> list[int] | None:
    """Misra-Gries fan rotation: properly colors any simple graph with at
    most max_degree + 1 colors.  Returns None for multigraphs."""
    if len(set(tuple(sorted(e)) for e in edges)) != len(edges):
        return None
    k = max_degree + 1
    color = [0] * len(edges)
    at: dict[int, dict[int, int]] = {}  # vertex -> color -> edge index

    def other(e: int, v: int) -> int:
        a, b = edges[e]
        return b if a == v else a

    def is_free(v: int, c: int) -> bool:
        return c not in at.setdefault(v, {})

    def free_color(v: int) -> int:
        for c in range(1, k + 1):
            if is_free(v, c):
                return c
        raise AssertionError("no free color within the degree+1 palette")

    def set_color(e: int, c: int) -> None:
        a, b = edges[e]
        old = color[e]
        if old:
            del at[a][old]
            del at[b][old]
        color[e] = c
        if c:
            at.setdefault(a, {})[c] = e
            at.setdefault(b, {})[c] = e

    def invert_path(start: int, c: int, dd: int) -> None:
        # walk the maximal path from start alternating dd, c, ... first,
        # then swap the two colors along it
        path: list[int] = []
        want, node = dd, start
        while want in at.get(node, {}):
            e = at[node][want]
            path.append(e)
            node = other(e, node)
            want = dd if want == c else c
        swapped = [(e, c if color[e] == dd else dd) for e in path]
        for e, _ in swapped:
            set_color(e, 0)
        for e, nc in swapped:
            set_color(e, nc)

    for idx, (u, v) in enumerate(edges):
        # fan entries pair the edge with its non-pivot endpoint; entry 0 is
        # the uncolored edge being inserted
        fan_v = [v]
        fan_e = [idx]
        in_fan = {v}
        grew = True
        while grew:
            grew = False
            for ce in sorted(at.get(u, {})):
                e = at[u][ce]
                x = other(e, u)
                if x not in in_fan and is_free(fan_v[-1], ce):
                    fan_v.append(x)
                    fan_e.append(e)
                    in_fan.add(x)
                    grew = True
                    break
        c = free_color(u)
        dd = free_color(fan_v[-1])
        if c != dd:
            invert_path(u, c, dd)
        # longest prefix that is still a fan and whose end has dd free
        w = None
        for end in range(len(fan_v), 0, -1):
            if not is_free(fan_v[end - 1], dd):
                continue
            if all(is_free(fan_v[i], color[fan_e[i + 1]]) for i in range(end - 1)):
                w = end
                break
        if w is None:
            return None
        for i in range(w - 1):
            ce = color[fan_e[i + 1]]
            set_color(fan_e[i + 1], 0)
            set_color(fan_e[i], ce)
        set_color(fan_e[w - 1], dd)
    return color


def _exact_coloring(edges: list[tuple[int, int]], lower: int, upper: int) -> list[int] | None:
    # iterative deepening: smallest k admitting a proper edge coloring
    order = sorted(range(len(edges)), key=lambda e: (edges[e][0], edges[e][1], e))
    for k in range(max(lower, 1), upper + 1):
        assign = [0] * len(edges)
        used: dict[int, set[int]] = {}

        def backtrack(pos: int) -> bool:
            if pos == len(order):
                return True
            i, j = edges[order[pos]]
            for c in range(1, k + 1):
                if c in used.get(i, set()) or c in used.get(j, set()):
                    continue
                used.setdefault(i, set()).add(c)
                used.setdefault(j, set()).add(c)
                assign[order[pos]] = c
                if backtrack(pos + 1):
                    return True
                used[i].discard(c)
                used[j].discard(c)
            return False

        if backtrack(0):
            return assign
    return None


def entanglement_depth(g: EntanglementGraph) -> EntanglementDepthReport:
    """Minimum depth of the entangling stage via proper edge coloring.

    Parallel edges between one pair are necessarily sequential, so each
    unit edge is colored separately.  Exhaustive search runs when the
    multigraph has at most EXACT_COLORING_EDGE_LIMIT unit edges, else a
    greedy pass gives an upper bound.  The achieved count is always at
    least the maximum degree.
    """
    edges = g.unit_edges()
    delta = g.max_degree()
    if not edges:
        return EntanglementDepthReport(0, 0, True, True, ())
    exact = len(edges) <= EXACT_COLORING_EDGE_LIMIT
    if exact:
        greedy = _greedy_coloring(edges)
        coloring = _exact_coloring(edges, delta, max(greedy))
        if coloring is None:  # greedy bound is always admissible
            coloring = greedy
    else:
        coloring = _fan_rotation_coloring(edges, delta)
        if coloring is None:  # parallel edges: fall back to first-fit
            coloring = _greedy_coloring(edges)
    achieved = max(coloring)
    if achieved < delta:
        raise AssertionError("edge coloring below the degree lower bound")
    return EntanglementDepthReport(achieved, delta, exact, achieved <= delta + 1, tuple(coloring))


# -- composition ---------------------------------------------------------------


def _relabel_commands(seq, mapping: dict[int, int]) -> tuple[Command, ...]:
    out = []
    for cmd in seq:
        if isinstance(cmd, Entangle):
            out.append(Entangle(mapping[cmd.i], mapping[cmd.j]))
        elif isinstance(cmd, Measure):
            out.append(Measure(mapping[cmd.site], cmd.theta, cmd.x_signal.relabel(mapping), cmd.z_signal.relabel(mapping)))
        else:
            out.append(type(cmd)(mapping[cmd.site], cmd.signal.relabel(mapping)))
    return tuple(out)


def compose_serial(p1: Pattern, p0: Pattern) -> Pattern:
    """Run p0 then p1, wiring p1's k-th input to p0's k-th output."""
    return _wired(p1, p0, "seq", _relabel_commands)


def compose_parallel(p1: Pattern, p0: Pattern) -> Pattern:
    return _wired(p1, p0, "seq")


# -- JSON format ---------------------------------------------------------------


def _signal_to_json(sig: Signal) -> dict:
    return {str(q): c for q, c in sig.coeffs}


def _signal_from_json(d: int, doc: dict | None) -> Signal:
    if doc is None:
        return Signal.zero(d)
    if not isinstance(doc, dict):
        raise ValueError(f"a signal must be an object {{qudit: coefficient}}, got {doc!r}")
    return Signal(d, tuple((int(q), int(c)) for q, c in doc.items()))


def _qudit_ids(doc: dict, key: str) -> tuple[int, ...]:
    ids = doc[key]
    if not isinstance(ids, list) or not all(type(q) is int for q in ids):
        raise ValueError(f"{key!r} must be a list of integer qudit ids, got {ids!r}")
    return tuple(ids)


def pattern_to_json(p: Pattern) -> str:
    cmds = []
    for cmd in p.seq:
        if isinstance(cmd, Entangle):
            cmds.append({"kind": "E", "sites": [cmd.i, cmd.j]})
        elif isinstance(cmd, Measure):
            entry = {"kind": "M", "sites": [cmd.site], "theta": list(cmd.theta)}
            if not cmd.x_signal.is_zero():
                entry["s"] = _signal_to_json(cmd.x_signal)
            if not cmd.z_signal.is_zero():
                entry["t"] = _signal_to_json(cmd.z_signal)
            cmds.append(entry)
        elif isinstance(cmd, CorrectX):
            cmds.append({"kind": "X", "sites": [cmd.site], "s": _signal_to_json(cmd.signal)})
        else:
            cmds.append({"kind": "Z", "sites": [cmd.site], "t": _signal_to_json(cmd.signal)})
    doc = {
        "d": p.ctx.d,
        "qudits": list(p.qudits),
        "inputs": list(p.inputs),
        "outputs": list(p.outputs),
        "commands": cmds,
    }
    return json.dumps(doc, indent=2) + "\n"


_COMMAND_ARITY = {"E": 2, "M": 1, "X": 1, "Z": 1}


def pattern_from_json(text: str) -> Pattern:
    doc = json.loads(text)
    ctx = DimensionContext.of(doc["d"])
    d = ctx.d
    seq: list[Command] = []
    for entry in doc["commands"]:
        kind = entry["kind"]
        sites = entry["sites"]
        arity = _COMMAND_ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown command kind {kind!r}")
        if len(sites) != arity or len(set(sites)) != arity:
            raise ValueError(f"{kind} command needs exactly {arity} distinct site(s), got {sites!r}")
        if kind == "E":
            seq.append(Entangle(sites[0], sites[1]))
        elif kind == "M":
            seq.append(
                Measure(
                    sites[0],
                    tuple(float(t) for t in entry["theta"]),
                    _signal_from_json(d, entry.get("s")),
                    _signal_from_json(d, entry.get("t")),
                )
            )
        elif kind == "X":
            seq.append(CorrectX(sites[0], _signal_from_json(d, entry.get("s"))))
        else:
            seq.append(CorrectZ(sites[0], _signal_from_json(d, entry.get("t"))))
    return Pattern(ctx, _qudit_ids(doc, "qudits"), _qudit_ids(doc, "inputs"), _qudit_ids(doc, "outputs"), tuple(seq))
