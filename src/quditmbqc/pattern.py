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
from typing import ClassVar, get_args

import numpy as np

from .algebra import DimensionContext
from .circuit import DepthReport, _angles, _check_wires, _json_document, _json_list, _qudit_ids, _wired, longest_chain
from .sim import (
    ZERO_BRANCH_TOL,
    Gate,
    StateVector,
    _checked_rows,
    _collapse_rows,
    _fourier,
    _input_row,
    _kernel,
    _per_row,
    _reordered,
    _rotate_rows,
    _sample_outcomes,
    _teleport_rows,
    _z_phases,
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



def _canonical(d: int, raw: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The reduced, sorted ``coeffs`` of a dict of raw per-label sums."""
    return tuple(sorted((q, r) for q, c in raw.items() if (r := c % d)))


@dataclass(frozen=True)
class Signal:
    """A formal Z(d)-linear combination over integer labels: measurement
    outcomes, or digit positions in the controlled-Pauli normal form.

    Coefficients are stored summed per label, reduced mod d, with zero
    entries removed and sorted by label; the empty signal is the constant
    zero.  Signals are pure linear forms: there is no constant term.
    ``_canonical`` is the one rule, applied to a term list by ``__init__``
    and to a dict of per-label sums by ``_of_raw``.
    """

    d: int
    coeffs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        raw: dict[int, int] = {}
        for q, c in self.coeffs:
            raw[q] = raw.get(q, 0) + c
        object.__setattr__(self, "coeffs", _canonical(self.d, raw))

    @classmethod
    def _of_raw(cls, d: int, raw: dict[int, int]) -> "Signal":
        """The signal whose coefficient on each label of ``raw`` is its value mod d."""
        sig = object.__new__(cls)
        object.__setattr__(sig, "d", d)
        object.__setattr__(sig, "coeffs", _canonical(d, raw))
        return sig

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
        if not (self.coeffs and other.coeffs):
            return self if self.coeffs else other
        raw = dict(self.coeffs)
        for q, c in other.coeffs:
            raw[q] = raw.get(q, 0) + c
        return Signal._of_raw(self.d, raw)

    def __sub__(self, other: "Signal") -> "Signal":
        return self + other.scaled(-1)

    def scaled(self, factor: int) -> "Signal":
        return Signal._of_raw(self.d, {q: c * factor for q, c in self.coeffs}) if self.coeffs else self

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


class _Command:
    """A command's one description: its class line states its JSON ``kind``,
    its number of sites and the JSON ``keys`` of its signals; ``sites()``,
    and ``signals()`` as (key, Signal) pairs in ``keys`` order.  Generic code
    reads only these, and an M's theta and measured site by name."""

    kind: ClassVar[str]
    arity: ClassVar[int] = 1
    keys: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **description):
        for name, value in description.items():
            setattr(cls, name, value)

    def sites(self) -> tuple[int, ...]:
        return (self.site,)

    def signals(self) -> tuple[tuple[str, Signal], ...]:
        return ()


@dataclass(frozen=True)
class Entangle(_Command, kind="E", arity=2):
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
class Measure(_Command, kind="M", keys=("s", "t")):
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

    def signals(self) -> tuple[tuple[str, Signal], ...]:
        return (("s", self.x_signal), ("t", self.z_signal))

    def is_independent(self) -> bool:
        return self.x_signal.is_zero() and self.z_signal.is_zero()


@dataclass(frozen=True)
class _Correction(_Command):
    """A Pauli correction raised to its signal; the subclass names the Pauli.
    The kind joins the hash, as the class already joins equality."""

    site: int
    signal: Signal

    def __hash__(self):
        return hash((self.kind, self.site, self.signal))

    def signals(self) -> tuple[tuple[str, Signal], ...]:
        return ((self.keys[0], self.signal),)


class CorrectX(_Correction, kind="X", keys=("s",)):
    """Classically controlled X^signal correction."""


class CorrectZ(_Correction, kind="Z", keys=("t",)):
    """Classically controlled Z^signal correction."""


Command = Entangle | Measure | CorrectX | CorrectZ
_COMMANDS = {cls.kind: cls for cls in get_args(Command)}


@dataclass(frozen=True)
class Pattern:
    """A measurement pattern (V, I, O, command sequence), wellformed by
    construction: building one that breaks a rule of ``validate`` raises
    ValueError naming the first violation."""

    ctx: DimensionContext
    qudits: tuple[int, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    seq: tuple[Command, ...] = field(default=())

    def __post_init__(self):
        _check_wires(self)
        # a correction whose signal is statically zero does nothing
        seq = tuple(cmd for cmd in self.seq if not (isinstance(cmd, _Correction) and cmd.signal.is_zero()))
        object.__setattr__(self, "seq", seq)
        bad = validate(self)
        if bad is not None:
            raise ValueError(f"pattern is not wellformed: {bad}")

    def measured_qudits(self) -> tuple[int, ...]:
        return tuple(cmd.site for cmd in self.seq if isinstance(cmd, Measure))

    def with_seq(self, seq) -> "Pattern":
        return replace(self, seq=tuple(seq))


def validate(p: Pattern) -> str | None:
    """First violated definiteness condition of the measurement calculus, as
    "command i: ..." or "pattern: ...", or None.  ``Pattern`` runs it when
    built, after its wire checks, so on a built pattern it returns None."""
    qs = set(p.qudits)
    outputs = set(p.outputs)
    measured: set[int] = set()
    for idx, cmd in enumerate(p.seq):
        for s in cmd.sites():
            if s not in qs:
                return f"command {idx}: unknown qudit {s}"
            if s in measured:
                return f"command {idx}: qudit {s} was already measured"
        for _, sig in cmd.signals():
            if sig.d != p.ctx.d:
                return f"command {idx}: signal modulus differs from the pattern dimension"
            for q, _ in sig.coeffs:
                if q not in measured:
                    return f"command {idx}: signal depends on qudit {q} not yet measured"
        if isinstance(cmd, Measure):
            if cmd.site in outputs:
                return f"command {idx}: output qudit {cmd.site} must not be measured"
            if len(cmd.theta) != p.ctx.d:
                return f"command {idx}: angle vector must have length {p.ctx.d}"
            if not all(map(math.isfinite, cmd.theta)):
                return f"command {idx}: angle vector must be finite, got {list(cmd.theta)}"
            measured.add(cmd.site)
    unmeasured = qs - outputs - measured
    if unmeasured:
        return f"pattern: non-output qudit(s) {sorted(unmeasured)} never measured"
    return None


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


def _schedule(p: Pattern) -> list:
    """The fixed steps of a run: a qudit q to append in F|0>, a pair (q, e)
    to append q already entangled by the E command e with its live
    partner, or a command to apply.

    Each E command waits until a later command touches one of its qudits,
    and each qudit is appended only when first needed, which keeps the live
    state small for chain-like patterns.  This is sound because E commands
    mutually commute and commute with any command on disjoint qudits.
    Which qudits are live and which E commands wait depends only on the
    command position, never on the outcomes, so one schedule serves every
    branch.  The deferred E commands are indexed by qudit, so building the
    schedule is linear in the pattern.
    """
    steps: list = []
    appended = set(p.inputs)
    pending: dict[int, Entangle] = {}  # by sequence position, in insertion order
    waiting: dict[int, list[int]] = {}  # qudit -> positions of its pending E commands

    def touch(q: int) -> None:
        if q not in appended:
            appended.add(q)
            steps.append(q)

    def emit(pos: int) -> None:
        e = pending.pop(pos)
        touch(e.i)
        touch(e.j)
        if steps and not isinstance(steps[-1], Command) and steps[-1] in (e.i, e.j):
            steps[-1] = (steps[-1], e)
        else:
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
    """Most qudits the schedule holds at once, read before any allocation.

    An upper bound on what a run holds: ``_walk`` runs a pair (q, e) that
    the measurement of q's partner follows as one teleportation step, which
    holds one qudit fewer than the schedule counts."""
    width = peak = len(p.inputs)
    for step in _schedule(p):
        if not isinstance(step, Command):  # an append
            width += 1
            peak = max(peak, width)
        elif isinstance(step, Measure):
            width -= 1
    return peak


def _walk(p: Pattern, amps: np.ndarray, choose) -> Rows:
    """Run the schedule once for every input row of ``amps`` (amplitudes over
    ``p.inputs``).  At each measurement ``choose(step, index, probs, origin)``
    gives the (row, outcome) pairs to follow, in row order and then outcome
    order; ``index`` counts the measurements before this one.

    A pair (q, e) that the measurement of q's partner follows directly is one
    teleportation step: ``_teleport_rows`` maps the partner's axis straight
    onto q, which takes that axis, and the d times larger state is never
    built.  Other appended qudits take the leading axes, in front of the
    live sites.  A batch that would outgrow AMPLITUDE_CAP at an append, a
    teleportation step included, is split, and its parts run depth first,
    so the rows come out in the same order, each over ``p.outputs``."""
    ctx, d = p.ctx, p.ctx.d
    steps = []
    for step in _schedule(p):
        pair = steps[-1] if steps and isinstance(steps[-1], tuple) else None
        if isinstance(step, Measure) and pair and step.site in pair[1].sites() and step.site != pair[0]:
            steps[-1] = pair + (step,)  # (q, e, M): teleport onto q
        else:
            steps.append(step)
    measured = p.measured_qudits()
    column = {q: k for k, q in enumerate(measured)}

    def value(sig: Signal, outcomes: np.ndarray) -> np.ndarray:
        # one product mod d per row
        cols = [column[q] for q in sig.qudits()]
        return outcomes[:, cols] @ np.array([c for _, c in sig.coeffs], dtype=np.int64) % d

    count = len(amps)
    # a batch: (amplitudes, outcomes, probability, origin), one row each
    batch = (amps, np.zeros((count, len(measured)), dtype=np.int64), np.ones(count), np.arange(count))
    stack = [(0, p.inputs, batch)] if count else []
    done = [(np.zeros((0, d ** len(p.outputs)), dtype=np.complex128),) + tuple(c[:0] for c in batch[1:])]
    while stack:
        pos, sites, (amps, outcomes, prob, origin) = stack.pop()
        for i in range(pos, len(steps)):
            step, n = steps[i], len(sites)
            if isinstance(step, Entangle):
                axes = (sites.index(step.i), sites.index(step.j))
                amps = _kernel(amps, d, n, Gate.cz(), axes).reshape(len(amps), -1)
            elif isinstance(step, (CorrectX, CorrectZ)):
                axis, make = sites.index(step.site), (Gate.x if isinstance(step, CorrectX) else Gate.z)
                amps = _per_row(amps, value(step.signal, outcomes), lambda k, r: _kernel(r, d, n, make(k), (axis,)) if k else r)
            elif not isinstance(step, Measure) and len(parts := row_parts(len(amps), d ** (n + 1))) > 1:  # an append past the cap
                for part in reversed(parts):
                    stack.append((i, sites, tuple(c[part] for c in (amps, outcomes, prob, origin))))
                break
            elif isinstance(step, int):
                amps = (_fourier(d)[:, :1] * amps[:, np.newaxis, :]).reshape(len(amps), -1)
                sites = (step,) + sites
            elif isinstance(step, tuple) and len(step) == 2:
                # prepared already entangled with the live qudit: F|0>_k omega^(kj) over its digit j
                q, e = step
                w = sites.index(e.j if e.i == q else e.i)
                joint = _fourier(d)[:, :1] * _z_phases(1, d, 2)  # over (k, j)
                view = amps.reshape(len(amps), 1, d**w, d, -1)
                amps = (view * joint.reshape(1, d, 1, d, 1)).reshape(len(amps), -1)
                sites = (q,) + sites
            else:  # a measurement, or a teleportation step (q, e, M)
                m, fresh = (step, ()) if isinstance(step, Measure) else (step[2], step[:1])
                axis, k = sites.index(m.site), column[m.site]
                frame = (ctx, n, axis, m.theta, value(m.x_signal, outcomes), value(m.z_signal, outcomes))
                if fresh:
                    kept, picked, amps, p_kept = _teleport_rows(amps, *frame, lambda probs: choose(m, k, probs, origin))
                else:
                    view, probs = _rotate_rows(amps, *frame)
                    kept, picked = choose(m, k, probs, origin)
                    amps, p_kept = _collapse_rows(view, probs, kept, picked)
                outcomes, prob, origin = outcomes[kept], prob[kept] * p_kept, origin[kept]
                outcomes[:, k] = picked
                sites = sites[:axis] + fresh + sites[axis + 1 :]
                if not len(amps):
                    break
        else:  # no step left: the batch is complete
            done.append((_reordered(amps, d, sites, p.outputs), outcomes, prob, origin))
    return Rows(measured, *(np.concatenate(columns) for columns in zip(*done)))


def _every(step, index, probs, origin):
    """Follow every outcome of probability at least ZERO_BRANCH_TOL."""
    return np.nonzero(probs >= ZERO_BRANCH_TOL)


def _sampled(seeds):
    """Input row r draws from the stream (seeds[r], measurement index): one
    uniform per stream, shared by the rows that use it."""
    stream_of: dict[int, int] = {}  # seed -> its position among the distinct seeds
    row_stream = np.array([stream_of.setdefault(int(s), len(stream_of)) for s in seeds], dtype=np.int64)

    def choose(step, index, probs, origin):
        uniforms = np.array([_rng_for_measurement(s, index).random() for s in stream_of])
        return np.arange(len(probs)), _sample_outcomes(probs, uniforms[row_stream[origin]])

    return choose


def _forced(p: Pattern, forced_outcomes: dict[int, int] | None):
    """Each measured qudit takes its outcome, a dit in 0..d-1; an outcome for
    a qudit the pattern does not measure is refused, not dropped."""
    forced = forced_outcomes or {}
    unmeasured = sorted(forced.keys() - set(p.measured_qudits()))
    if unmeasured:
        raise ValueError(f"forced outcomes name qudits {unmeasured} that the pattern does not measure")
    bad = {q: j for q, j in forced.items() if not 0 <= j < p.ctx.d}
    if bad:
        raise ValueError(f"forced outcomes must be dits in 0..{p.ctx.d - 1}, got {bad}")

    def choose(step, index, probs, origin):
        if step.site not in forced:
            raise ValueError(f"forced mode needs an outcome for qudit {step.site}")
        j = int(forced[step.site])
        low = probs[:, j] < ZERO_BRANCH_TOL
        if low.any():
            raise ValueError(f"forced outcome {j} on site {step.site} has probability {probs[low, j][0]:.3e}")
        return np.arange(len(probs)), np.full(len(probs), j)

    return choose


def _results(p: Pattern, rows: Rows) -> list[RunResult]:
    return [
        RunResult(StateVector(p.ctx, p.outputs, amps), dict(zip(rows.measured, outcomes)), prob)
        for amps, outcomes, prob in zip(rows.amplitudes, rows.outcomes.tolist(), rows.probability.tolist())
    ]


def run_rows(p: Pattern, inputs: np.ndarray, seeds=None) -> Rows:
    """Run every row of ``inputs`` (amplitudes over ``p.inputs``, in that
    order) in one walk of the schedule.

    Without ``seeds`` every row is expanded into each of its branches of
    probability at least ZERO_BRANCH_TOL.  With one seed per row, each row
    follows one sampled branch drawn as ``run`` draws it.
    """
    inputs = _checked_rows(inputs, p.ctx.d ** len(p.inputs))
    if seeds is not None and len(seeds) != len(inputs):
        raise ValueError(f"{len(seeds)} seeds for {len(inputs)} input rows")
    return _walk(p, inputs, _every if seeds is None else _sampled(seeds))


def run(
    p: Pattern,
    input_state: StateVector | None = None,
    mode: str = "sampled",
    seed: int = 0,
    forced_outcomes: dict[int, int] | None = None,
    lazy: bool = True,
) -> RunResult:
    """Execute a pattern in ``sampled`` or ``forced`` mode.

    Sampled mode draws each outcome from a stream split off a single
    root seed (stream k for the k-th measurement in execution order),
    so runs are bit-reproducible.  Forced mode takes an outcome per
    measured qudit and fails on zero-probability branches.

    ``lazy`` must be True, as every pattern runs on one schedule; the
    keyword goes once the ``perfbench`` workloads stop passing it.
    """
    if not lazy:
        raise ValueError("every pattern runs on the lazy schedule")
    if mode not in ("sampled", "forced"):
        raise ValueError(f"unknown run mode {mode!r}")
    choose = _sampled([seed]) if mode == "sampled" else _forced(p, forced_outcomes)
    return _results(p, _walk(p, _input_row(p, input_state), choose))[0]


def run_branches(p: Pattern, input_state: StateVector | None = None) -> list[RunResult]:
    """Full branch enumeration: every outcome assignment with its probability."""
    return _results(p, _walk(p, _input_row(p, input_state), _every))


# -- metrics ------------------------------------------------------------------


def pattern_depth_and_size(p: Pattern) -> DepthReport:
    """Depth over the written sequence; chains link commands that share a
    qudit or reference an earlier measurement's outcome.  Sizes: E
    counts 2, measurements and corrections count 1 (classical control
    adds no quantum size)."""
    return longest_chain(map(_chain_item, p.seq))[0]


def _chain_item(cmd: Command) -> tuple:
    """(sites, referenced outcome qudits, measured qudit or None) of a command."""
    return cmd.sites(), [q for _, sig in cmd.signals() for q, _ in sig.coeffs], cmd.site if cmd.kind == "M" else None


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


def _fan_rotation_coloring(edges: list[tuple[int, int]], max_degree: int) -> list[int]:
    """Misra-Gries fan rotation: properly colors any simple graph with at
    most max_degree + 1 colors."""
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
            raise AssertionError("no fan prefix ends with the path color free")
        for i in range(w - 1):
            ce = color[fan_e[i + 1]]
            set_color(fan_e[i + 1], 0)
            set_color(fan_e[i], ce)
        set_color(fan_e[w - 1], dd)
    return color


def _exact_coloring(edges: list[tuple[int, int]], lower: int, fallback: list[int]) -> list[int]:
    """The proper edge coloring with the fewest colors, by iterative
    deepening from ``lower``; ``fallback`` when no k below its count works."""
    order = sorted(range(len(edges)), key=lambda e: (edges[e][0], edges[e][1], e))
    for k in range(max(lower, 1), max(fallback)):
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
    return fallback


def entanglement_depth(g: EntanglementGraph) -> EntanglementDepthReport:
    """Minimum depth of the entangling stage via proper edge coloring.

    Parallel edges between one pair are necessarily sequential, so each
    unit edge is colored separately.  Exhaustive search runs when the
    multigraph has at most EXACT_COLORING_EDGE_LIMIT unit edges.  Above
    that, fan rotation colors a simple graph within the maximum degree
    plus one, and a first-fit pass colors a graph with parallel edges.
    The achieved count is always at least the maximum degree.
    """
    edges = g.unit_edges()
    delta = g.max_degree()
    if not edges:
        return EntanglementDepthReport(0, 0, True, True, ())
    exact = len(edges) <= EXACT_COLORING_EDGE_LIMIT
    if exact:
        coloring = _exact_coloring(edges, delta, _greedy_coloring(edges))
    elif len({tuple(sorted(e)) for e in edges}) < len(edges):
        coloring = _greedy_coloring(edges)
    else:
        coloring = _fan_rotation_coloring(edges, delta)
    achieved = max(coloring)
    if achieved < delta:
        raise AssertionError("edge coloring below the degree lower bound")
    return EntanglementDepthReport(achieved, delta, exact, achieved <= delta + 1, tuple(coloring))


# -- composition ---------------------------------------------------------------


def _relabel_commands(seq, mapping: dict[int, int]) -> tuple[Command, ...]:
    out = []
    for cmd in seq:
        theta = (cmd.theta,) if cmd.kind == "M" else ()
        out.append(type(cmd)(*(mapping[q] for q in cmd.sites()), *theta, *(sig.relabel(mapping) for _, sig in cmd.signals())))
    return tuple(out)


def compose_serial(p1: Pattern, p0: Pattern) -> Pattern:
    """Run p0 then p1, wiring p1's k-th input to p0's k-th output."""
    return _wired(p1, p0, "seq", _relabel_commands)


def compose_parallel(p1: Pattern, p0: Pattern) -> Pattern:
    return _wired(p1, p0, "seq")


# -- JSON format ---------------------------------------------------------------


def _signal_to_json(sig: Signal) -> str:
    """A signal object {"qudit": coefficient} at command depth."""
    entries = ",\n        ".join(['"%d": %d' % term for term in sig.coeffs])
    return "{\n        " + entries + "\n      }" if entries else "{}"


def _decimal_ids(doc: dict, owner: str, noun: str) -> list[int]:
    """The keys of a JSON object as decimal qudit ids, one per qudit (``int``
    alone reads "0_1" and " 1 " too, and "1" and "01" as one qudit)."""
    if not all(q.removeprefix("-").isdigit() and q.isascii() for q in doc):
        raise ValueError(f"{owner} {noun} must be decimal qudit ids, got {doc!r}")
    ids = list(map(int, doc))
    if len(set(ids)) != len(ids):
        raise ValueError(f"{owner} names a qudit by two {noun}, got {doc!r}")
    return ids


def _signal_from_json(d: int, doc: dict | None) -> Signal:
    if doc is None:
        return Signal.zero(d)
    if not isinstance(doc, dict):
        raise ValueError(f"a signal must be an object {{qudit: coefficient}}, got {doc!r}")
    if not all(type(c) is int for c in doc.values()):
        raise ValueError(f"signal coefficients must be integers, got {doc!r}")
    return Signal(d, tuple(zip(_decimal_ids(doc, "signal", "labels"), doc.values())))


def _command_to_json(cmd: Command) -> str:
    """Kind, sites, an M's theta, then each signal; of several, only the nonzero ones."""
    sites = ",\n        ".join(["%d" % q for q in cmd.sites()])
    theta = ',\n      "theta": ' + _json_list(cmd.theta, " " * 8) if cmd.kind == "M" else ""
    signals = "".join([',\n      "%s": %s' % (key, _signal_to_json(sig)) for key, sig in cmd.signals() if len(cmd.keys) == 1 or not sig.is_zero()])
    return '    {\n      "kind": "%s",\n      "sites": [\n        %s\n      ]%s%s\n    }' % (cmd.kind, sites, theta, signals)


def pattern_to_json(p: Pattern) -> str:
    return _json_document(p, "commands", [_command_to_json(cmd) for cmd in p.seq])


def pattern_from_json(text: str) -> Pattern:
    return _pattern_from_doc(json.loads(text))


def _pattern_from_doc(doc: dict) -> Pattern:
    ctx = DimensionContext.of(doc["d"])
    seq: list[Command] = []
    for entry in doc["commands"]:
        kind = entry["kind"]
        sites = _qudit_ids(entry, "sites")
        cls = _COMMANDS.get(kind)
        if cls is None:
            raise ValueError(f"unknown command kind {kind!r}")
        if len(sites) != cls.arity or len(set(sites)) != cls.arity:
            raise ValueError(f"{kind} command needs exactly {cls.arity} distinct site(s), got {sites!r}")
        theta = ("theta",) if kind == "M" else ()
        unread = entry.keys() - {"kind", "sites", *theta, *cls.keys}
        if unread:
            raise ValueError(f"{kind} command takes no key(s) {sorted(unread)}")
        seq.append(cls(*sites, *[_angles(entry[k], "M command 'theta'") for k in theta], *[_signal_from_json(ctx.d, entry.get(k)) for k in cls.keys]))
    return Pattern(ctx, _qudit_ids(doc, "qudits"), _qudit_ids(doc, "inputs"), _qudit_ids(doc, "outputs"), tuple(seq))
