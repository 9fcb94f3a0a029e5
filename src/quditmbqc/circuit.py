"""Circuit intermediate representation: qudits, I/O sets, gate sequence.

Provides depth/size analysis, simulation against the statevector
oracle, serial/parallel composition, gate-set validation and lowering
to the universal two-gate set {CZ, v(theta)}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import count
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import DimensionContext
from .sim import _BLOCK_ROW, _KINDS, AMPLITUDE_CAP, Gate, GateName, StateVector, _apply_single, _checked_rows, _input_row, _kernel, _permute, _phase, _reordered, gate_inverse_ops, gate_matrix, row_parts

__all__ = [
    "Operation",
    "Circuit",
    "DepthReport",
    "longest_chain",
    "depth_and_size",
    "simulate_circuit",
    "output_rows",
    "circuit_unitary",
    "compose_serial",
    "compose_parallel",
    "lower_to_guni",
    "validate_gate_set",
    "inverse_circuit",
    "circuit_to_json",
    "circuit_from_json",
]

ANCILLA_RESIDUE_TOL = 1e-8


@dataclass(frozen=True)
class Operation:
    gate: Gate
    sites: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))


def _check_wires(a) -> set[int]:
    """Store a circuit's or pattern's qudits, inputs and outputs as tuples
    and reject repeated ids and stray or repeated wires; returns the qudit set."""
    for key in ("qudits", "inputs", "outputs"):
        object.__setattr__(a, key, tuple(getattr(a, key)))
    qs = set(a.qudits)
    if len(qs) != len(a.qudits):
        raise ValueError("duplicate qudit identifiers")
    if not set(a.inputs) <= qs or not set(a.outputs) <= qs:
        raise ValueError("inputs and outputs must be subsets of the qudit set")
    if len(set(a.inputs)) != len(a.inputs) or len(set(a.outputs)) != len(a.outputs):
        raise ValueError("inputs and outputs must not repeat a qudit")
    return qs


@dataclass(frozen=True)
class Circuit:
    """A computation: qudit set, ordered input/output wires, op sequence.

    Non-input qudits are implicitly prepared in |0>.  When the circuit
    implements a unitary, ``inputs`` and ``outputs`` have equal length
    and the k-th output wire carries the image of the k-th input wire.
    Each op's sites are checked, but each gate object's arity is read and
    its ``validate`` run once, however many ops share it: per-gate work
    is keyed by the object's identity, never by ``Gate`` equality, which
    holds for 0.0 and -0.0 angles that write different texts.
    """

    ctx: DimensionContext
    qudits: tuple[int, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    ops: tuple[Operation, ...] = field(default=())

    def __post_init__(self):
        qs = _check_wires(self)
        object.__setattr__(self, "ops", tuple(self.ops))
        arity: dict[int, int] = {}  # id of each gate validated -> its arity
        for op in self.ops:
            n = arity.get(id(op.gate)) or op.gate.arity
            if len(op.sites) != n:
                raise ValueError(f"{op.gate.name.value} expects {n} sites, got {len(op.sites)}")
            sites = set(op.sites)
            if len(sites) != n:
                raise ValueError("op sites must be distinct")
            if not sites <= qs:
                raise ValueError(f"op touches unknown qudit(s) {sites - qs}")
            if id(op.gate) not in arity:
                op.gate.validate(self.ctx)
                arity[id(op.gate)] = n

    def with_ops(self, ops) -> "Circuit":
        return replace(self, ops=tuple(ops))


@dataclass(frozen=True)
class DepthReport:
    depth: int
    size: int
    longest_path: tuple[int, ...]


def longest_chain(items) -> tuple[DepthReport, list[int]]:
    """Longest chain over items ``(sites, referenced outcome qudits,
    measured qudit or None)``, in one pass; the one depth rule of both IRs.

    An item follows the last earlier item on each of its sites and the
    measurement of each outcome it references, one level deeper than the
    deepest of those.  Size counts site touches; the witness is the item
    index sequence of one longest chain.  Also returns each item's level.
    """
    height: dict[int, int] = {}
    last: dict[int, int] = {}
    outcome_height: dict[int, int] = {}
    outcome_item: dict[int, int] = {}
    levels: list[int] = []
    parents: list[int] = []
    size = 0
    best, best_idx = 0, -1
    for idx, (sites, refs, measured) in enumerate(items):
        level, parent = 0, -1
        for s in sites:
            h = height.get(s, 0)
            if h > level:
                level, parent = h, last[s]
        for q in refs:
            h = outcome_height.get(q, 0)
            if h > level:
                level, parent = h, outcome_item[q]
        level += 1
        for s in sites:
            height[s] = level
            last[s] = idx
        if measured is not None:
            outcome_height[measured] = level
            outcome_item[measured] = idx
        levels.append(level)
        parents.append(parent)
        size += len(sites)
        if level > best:
            best, best_idx = level, idx
    path = []
    while best_idx >= 0:
        path.append(best_idx)
        best_idx = parents[best_idx]
    return DepthReport(best, size, tuple(reversed(path))), levels


def depth_and_size(c: Circuit) -> DepthReport:
    """Depth = longest chain of ops linked by qudit sharing; size = qudit touches."""
    return longest_chain((op.sites, (), None) for op in c.ops)[0]


def _run_sites(c: Circuit) -> tuple[int, ...]:
    """The site order of a simulation: the inputs, then the ancillas."""
    inputs = set(c.inputs)
    return c.inputs + tuple(q for q in c.qudits if q not in inputs)


def _run_matrix(gates: list[Gate], ctx: DimensionContext) -> np.ndarray:
    """The product matrix of one wire's run of single-site gates, in order."""
    if len(gates) == 1:
        return gate_matrix(gates[0], ctx)
    return np.linalg.multi_dot([gate_matrix(g, ctx) for g in reversed(gates)])


@dataclass
class _Run:
    """Ops waiting to be applied in one pass, on at most ``bound`` sites."""

    bound: int
    ops: list[Operation] = field(default_factory=list)
    sites: set[int] = field(default_factory=set)


def _simulate_rows(c: Circuit, inputs: np.ndarray) -> np.ndarray:
    """Run the circuit on every row of ``inputs`` (amplitudes over
    ``c.inputs``, in that order) at once, with the ancillas in |0>; the
    final rows are over ``_run_sites(c)``.  The ops were validated when the
    circuit was built.

    Ops wait, so that several are applied in one pass.  Two runs collect
    them: the diagonal run takes the kinds with ``phases``, on at most
    n // 2 sites, so that its table holds at most the square root of a
    row's amplitudes; the permutation run takes the kinds with ``shifts``
    or a ``swap``, on any number of sites.  One rule serves both:

    - an op of a run's class joins the run when it has several sites
      within the bound (the run is applied first if the union would pass
      it), or one site already in the run;
    - as it joins, the run takes over the held gates of each of its sites
      when it takes all of them; otherwise those are applied;
    - any other op on a run's sites applies that run first;
    - a single-site op that joins no run is held;
    - at the end, the held all-diagonal wires join the diagonal run.

    A site's held gates are applied when a multi-site op touches the site
    or the circuit ends, in one pass with the held gates of the adjacent
    axes around it, by the Kronecker product of each site's product
    matrix, while the k sites have d**k at most ``_BLOCK_ROW``.  The runs
    and the held gates keep to disjoint sites.  A run of one op on at most
    two sites is that op's own kernel; a larger run is one ``_phase`` by
    the product of its tables, or one ``_permute`` gather by the index of
    its composed affine map."""
    d, n, sites = c.ctx.d, len(c.qudits), _run_sites(c)
    axis = {q: a for a, q in enumerate(sites)}
    amps = np.zeros((len(inputs), d ** len(c.inputs), d ** (n - len(c.inputs))), dtype=np.complex128)
    amps[:, :, 0] = inputs
    held: dict[int, list[Gate]] = {}
    runs = perm, diag = _Run(n), _Run(n // 2)
    run_of = {name: diag if k.phases else perm if k.shifts or k.swap else None for name, k in _KINDS.items()}

    def flush(q: int) -> None:
        nonlocal amps
        if q not in held:
            return
        lo = hi = axis[q]
        while lo and sites[lo - 1] in held and d ** (hi - lo + 2) <= _BLOCK_ROW:
            lo -= 1
        while hi + 1 < n and sites[hi + 1] in held and d ** (hi - lo + 2) <= _BLOCK_ROW:
            hi += 1
        block = [held.pop(sites[a]) for a in range(lo, hi + 1)]
        if len(block) == len(block[0]) == 1:
            amps = _kernel(amps, d, n, block[0][0], (lo,))
        else:
            amps = _apply_single(amps, d, n, reduce(np.kron, [_run_matrix(g, c.ctx) for g in block]), lo)

    def apply(r: _Run) -> None:
        nonlocal amps
        if len(r.ops) == 1 and len(r.ops[0].sites) <= 2:
            # a lone shift or swap keeps its slice-copy kernel: through _permute
            # it would build an 8-byte index per amplitude (peak RSS of a lone CX
            # on 2^20 amplitudes 156 -> 170 MB) and run 1.3-2.4x slower there,
            # 2-16x slower on states of at most 256 amplitudes
            amps = _kernel(amps, d, n, r.ops[0].gate, tuple(axis[q] for q in r.ops[0].sites))
        elif r.ops and r is perm:
            amps = _permute(amps, d, n, [(op.gate, tuple(axis[q] for q in op.sites)) for op in r.ops])
        elif r.ops:
            dims = {q: k for k, q in enumerate(r.sites)}
            table, every = np.ones((d,) * len(dims), dtype=np.complex128), list(dims.values())
            for op in r.ops:
                table = np.einsum(table, every, _KINDS[op.gate.name].phases(op.gate, d), [dims[q] for q in op.sites], every)
            amps = _phase(amps, d, n, table, tuple(axis[q] for q in dims))
        r.ops.clear()
        r.sites.clear()

    def takes(r: _Run, q: int) -> bool:
        """Whether q holds gates and r takes every one of them."""
        return q in held and all(run_of[g.name] is r for g in held[q])

    def join(r: _Run, new: tuple[int, ...]) -> None:
        """Make room in r for the sites ``new``, then hand it each one's held
        gates when it takes them all, else apply them."""
        if len(r.sites.union(new)) > r.bound:
            apply(r)
        for q in new:
            if takes(r, q):
                r.ops.extend(Operation(g, (q,)) for g in held.pop(q))
                r.sites.add(q)
            flush(q)

    for op in c.ops:
        r = run_of[op.gate.name]
        if r is not None and not (op.sites[0] in r.sites if len(op.sites) == 1 else len(op.sites) <= r.bound):
            r = None  # the op joins no run
        for other in runs:
            if other is not r and not other.sites.isdisjoint(op.sites):
                apply(other)
        if r is not None:
            join(r, op.sites)
            r.ops.append(op)
            r.sites.update(op.sites)
        elif len(op.sites) == 1:
            held.setdefault(op.sites[0], []).append(op.gate)
        else:
            for q in op.sites:
                flush(q)
            amps = _kernel(amps, d, n, op.gate, tuple(axis[q] for q in op.sites))
    for q in list(held):
        if diag.bound and takes(diag, q):
            join(diag, (q,))
        flush(q)
    apply(diag)
    apply(perm)
    return amps.reshape(len(inputs), d**n)


def simulate_circuit(c: Circuit, input_state: StateVector | None = None) -> StateVector:
    """Run the circuit; returns the full state over the inputs, then the
    ancillas in ``c.qudits`` order.

    ``input_state`` must be defined on the input wires (any site
    order); the ancillas are prepared in |0>.
    """
    return StateVector(c.ctx, _run_sites(c), _simulate_rows(c, _input_row(c, input_state))[0])


def _outputs_first(c: Circuit, final: np.ndarray) -> np.ndarray:
    """Final rows over ``_run_sites(c)`` as (rows, outputs, other wires)
    amplitude matrices; column 0 holds the other wires in |0...0>."""
    sites, outputs = _run_sites(c), set(c.outputs)
    order = c.outputs + tuple(q for q in sites if q not in outputs)
    return _reordered(final, c.ctx.d, sites, order).reshape(len(final), c.ctx.d ** len(c.outputs), -1)


def output_rows(c: Circuit, inputs: np.ndarray) -> np.ndarray:
    """The state each row of ``inputs`` (amplitudes over ``c.inputs``) leaves
    on ``c.outputs``: the leading left singular vector of the final (outputs
    x other wires) amplitude matrix, scaled by its singular value.  It is
    exact when the outputs end in a pure state whatever the other wires
    hold, and subnormalized when they stay entangled with them.  With no
    other wire the matrix is one column, the final row itself, which is
    returned as it is.  The rows run in parts of at most AMPLITUDE_CAP
    amplitudes."""
    inputs = _checked_rows(inputs, c.ctx.d ** len(c.inputs))
    out = np.empty((len(inputs), c.ctx.d ** len(c.outputs)), dtype=np.complex128)
    for part in row_parts(len(inputs), c.ctx.d ** len(_run_sites(c))):
        block = _outputs_first(c, _simulate_rows(c, inputs[part]))
        if block.shape[2] == 1:
            out[part] = block[:, :, 0]
            continue
        u, singular, _ = np.linalg.svd(block, full_matrices=False)
        out[part] = u[:, :, 0] * singular[:, :1]
    return out


def circuit_unitary(c: Circuit) -> np.ndarray:
    """The d^|I| unitary implemented on the input -> output wires.

    Runs the basis inputs as rows, in parts of at most AMPLITUDE_CAP
    amplitudes; ancillas must return to |0> (checked within
    ``ANCILLA_RESIDUE_TOL``), otherwise the circuit does not implement a
    unitary on its declared wires.  The matrix itself must fit
    AMPLITUDE_CAP entries.
    """
    if len(c.inputs) != len(c.outputs):
        raise ValueError("|inputs| must equal |outputs| for a unitary")
    dim = c.ctx.d ** len(c.inputs)
    if dim * dim > AMPLITUDE_CAP:
        raise ValueError(f"a {c.ctx.d}^{len(c.inputs)}-dimensional unitary exceeds the cap of {AMPLITUDE_CAP} entries")
    u = np.empty((dim, dim), dtype=np.complex128)
    for part in row_parts(dim, c.ctx.d ** len(_run_sites(c))):
        basis = np.arange(dim)[part]
        rows = np.zeros((len(basis), dim), dtype=np.complex128)
        rows[np.arange(len(basis)), basis] = 1.0
        cols = _outputs_first(c, _simulate_rows(c, rows))[:, :, 0]
        residue = 1.0 - np.linalg.norm(cols, axis=1) ** 2
        bad = np.flatnonzero(residue > ANCILLA_RESIDUE_TOL)
        if len(bad):
            raise ValueError(
                f"ancillas do not return to |0> (residue {residue[bad[0]]:.3e}) on basis input {basis[bad[0]]}"
            )
        u[:, part] = cols.T
    return u


def _relabel_ops(ops, mapping: dict[int, int]) -> tuple[Operation, ...]:
    """The ops with their sites moved by ``mapping``; sites outside it stay."""
    return tuple(Operation(op.gate, tuple(mapping.get(s, s) for s in op.sites)) for op in ops)


def _wired(second, first, body: str, relabel_body=None):
    """Composite of two circuits or two patterns; ``body`` names their op
    or command field.

    Given ``relabel_body(body, mapping)`` it is the serial composite: run
    ``first``, then ``second`` with its k-th input wired to ``first``'s
    k-th output and its other qudits given fresh identifiers.  Otherwise
    it is the parallel composite of disjoint qudit sets.
    """
    if first.ctx != second.ctx:
        raise ValueError(f"{type(first).__name__.lower()}s live in different dimensions")
    first_body = getattr(first, body)
    if relabel_body is None:
        if set(first.qudits) & set(second.qudits):
            raise ValueError("parallel composition requires disjoint qudit sets")
        wires = (first.qudits + second.qudits, first.inputs + second.inputs, first.outputs + second.outputs)
        return type(first)(first.ctx, *wires, first_body + getattr(second, body))
    if len(first.outputs) != len(second.inputs):
        raise ValueError(f"cannot compose: {len(first.outputs)} outputs vs {len(second.inputs)} inputs")
    mapping = dict(zip(second.inputs, first.outputs))
    fresh = count(max(set(first.qudits) | set(second.qudits), default=0) + 1)
    mapping.update({q: next(fresh) for q in second.qudits if q not in mapping})
    ours = set(first.qudits)
    qudits = first.qudits + tuple(mapping[q] for q in second.qudits if mapping[q] not in ours)
    outputs = tuple(mapping[q] for q in second.outputs)
    second_body = relabel_body(getattr(second, body), mapping)
    return type(first)(first.ctx, qudits, first.inputs, outputs, first_body + second_body)


def compose_serial(c1: Circuit, c0: Circuit) -> Circuit:
    """Serial composite: run c0, then c1 with its inputs wired to c0's outputs.

    c1 is relabeled so its k-th input is c0's k-th output; its other
    qudits get fresh identifiers.  Depths satisfy depth <= depth0 +
    depth1 and sizes add.
    """
    return _wired(c1, c0, "ops", _relabel_ops)


def compose_parallel(c1: Circuit, c0: Circuit) -> Circuit:
    """Parallel (tensor) composite of circuits on disjoint qudits."""
    return _wired(c1, c0, "ops")


def _inverse_ops(ops, d: int) -> list[Operation]:
    """Gate-by-gate inverse of an op sequence, in reverse order."""
    return [Operation(g, sites) for op in reversed(ops) for g, sites in gate_inverse_ops(op.gate, op.sites, d)]


def inverse_circuit(c: Circuit) -> Circuit:
    """Gate-by-gate inverse in reverse order, on the same wires."""
    return Circuit(c.ctx, c.qudits, c.outputs, c.inputs, tuple(_inverse_ops(c.ops, c.ctx.d)))


# -- gate-set validation ----------------------------------------------------


def validate_gate_set(c: Circuit, model: str = "standard") -> list[str]:
    """Check ops against a circuit model; returns diagnostics (empty = ok).

    ``standard`` admits only gates acting on at most two qudits.  ``fanout``
    also admits FANOUT and MOD at any arity, the only kinds that can act on
    more (``Circuit`` checks each op's arity), so it admits every circuit.
    """
    if model not in ("standard", "fanout"):
        raise ValueError(f"unknown model {model!r}")
    return [f"op {idx}: {op.gate.name.value} on {len(op.sites)} qudits exceeds arity 2"
            for idx, op in enumerate(c.ops) if model == "standard" and len(op.sites) > 2]


# -- lowering to the universal set -------------------------------------------


def _lowered(gate: Gate, sites: tuple[int, ...], d: int, out: list[Operation]) -> None:
    """Expand the gate's definition recursively until only primitives are left."""
    definition = _KINDS[gate.name].define(gate, d)
    if definition is None:
        out.append(Operation(gate, sites))
        return
    for sub, positions in definition:
        _lowered(sub, tuple(sites[i] for i in positions), d, out)


def lower_to_guni(c: Circuit) -> Circuit:
    """Semantics-preserving rewrite onto the universal set {CZ, v(theta)}."""
    ops: list[Operation] = []
    for op in c.ops:
        _lowered(op.gate, op.sites, c.ctx.d, ops)
    return c.with_ops(ops)


# -- JSON format --------------------------------------------------------------


# JSON key of each Gate parameter field, and the type of its entries
_JSON_PARAMS = {"k": ("k", int), "theta": ("theta", float), "coeffs": ("v", int), "angles": ("angles", float)}


def _json_num(x) -> str:
    """A number as json.dumps writes it: plain ints and finite floats by repr,
    NaN, infinities and bools by json.  The writers fill fixed templates with
    the bytes of json.dumps(doc, indent=2), without its pure-Python encoder."""
    if type(x) is int:
        return int.__repr__(x)
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)


def _json_list(xs, indent: str) -> str:
    """A list of numbers, one item per line at ``indent``."""
    return "[\n" + indent + (",\n" + indent).join(map(_json_num, xs)) + "\n" + indent[:-2] + "]" if xs else "[]"


def _json_document(a, key: str, items: list[str]) -> str:
    """The document {d, qudits, inputs, outputs, ``key``: items} of a circuit
    or pattern, given its items written at list depth."""
    wires = (_json_list(ids, "    ") for ids in (a.qudits, a.inputs, a.outputs))
    head = '{\n  "d": %s,\n  "qudits": %s,\n  "inputs": %s,\n  "outputs": %s,\n  "%s": ' % (_json_num(a.ctx.d), *wires, key)
    return head + ("[\n" + ",\n".join(items) + "\n  ]" if items else "[]") + "\n}\n"


def _gate_to_json(gate: Gate) -> str:
    """The op's "params" object."""
    param = _KINDS[gate.name].param
    if param is None:
        return "{}"
    text = _json_num(gate.k) if param == "k" else _json_list(getattr(gate, param), " " * 10)
    return '{\n        "%s": %s\n      }' % (_JSON_PARAMS[param][0], text)


def _gate_from_json(name: str, params: dict) -> Gate:
    kind = GateName(name)
    param = _KINDS[kind].param
    key, cast = _JSON_PARAMS[param] if param else (None, None)
    unknown = set(params) - {key}
    if unknown:
        raise ValueError(f"{name} takes no parameter(s) {sorted(unknown)}")
    if key not in params:
        return Gate(kind)
    value = params[key]
    if cast is float:
        return Gate(kind, **{param: _angles(value, f"{name} parameter {key!r}")})
    if not all(type(x) is int for x in ([value] if param == "k" else value)):
        raise ValueError(f"{name} parameter {key!r} must be integer(s), got {value!r}")
    return Gate(kind, **{param: value if param == "k" else tuple(value)})


def _angles(value, what: str) -> tuple[float, ...]:
    """An angle vector from a JSON list of numbers; a bool, a string, any
    other container, or an integer past the float range is refused."""
    if not isinstance(value, list) or not {int, float}.issuperset(map(type, value)):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}")
    try:
        return tuple(map(float, value))
    except OverflowError:
        raise ValueError(f"{what} must be finite, got {value!r}") from None


_OP_JSON = '    {\n      "gate": %s,\n      "params": %s,\n      "sites": [\n%s\n      ]\n    }'


def circuit_to_json(c: Circuit) -> str:
    """The circuit's document, as ``json.dumps(doc, indent=2)`` writes it.

    Each gate object's text is written once, keyed by its identity, as an
    op template with one ``%d`` per site (its arity, which ``Circuit``
    checked); every op that holds the object fills it with its sites."""
    templates: dict[int, str] = {}
    ops = []
    for op in c.ops:
        text = templates.get(id(op.gate))
        if text is None:
            sites = ",\n".join(["        %d"] * len(op.sites))
            text = templates[id(op.gate)] = _OP_JSON % (encode_basestring_ascii(op.gate.name.value), _gate_to_json(op.gate), sites)
        ops.append(text % op.sites)
    return _json_document(c, "ops", ops)


def _qudit_ids(doc: dict, key: str) -> tuple[int, ...]:
    ids = doc[key]
    if not isinstance(ids, list) or not all(type(q) is int for q in ids):
        raise ValueError(f"{key!r} must be a list of integer qudit ids, got {ids!r}")
    return tuple(ids)


def circuit_from_json(text: str) -> Circuit:
    return _circuit_from_doc(json.loads(text))


def _circuit_from_doc(doc: dict) -> Circuit:
    """The circuit of a parsed document.  One ``Gate`` is built per distinct
    gate name and params document, keyed by their ``repr``, which keeps
    -0.0 and 0.0, 1.0, 1 and true apart; the ops that share it share the
    object, so ``Circuit`` and the writer do its work once."""
    ctx = DimensionContext.of(doc["d"])
    gates: dict[str, Gate] = {}
    ops = []
    for entry in doc["ops"]:
        name = entry["gate"]
        unread = entry.keys() - {"gate", "params", "sites"}
        if unread:
            raise ValueError(f"{name} op takes no key(s) {sorted(unread)}")
        params = entry.get("params", {})
        key = repr((name, params))
        gate = gates.get(key)
        if gate is None:
            gate = gates[key] = _gate_from_json(name, params)
        ops.append(Operation(gate, _qudit_ids(entry, "sites")))
    return Circuit(ctx, _qudit_ids(doc, "qudits"), _qudit_ids(doc, "inputs"), _qudit_ids(doc, "outputs"), tuple(ops))
