"""Circuit intermediate representation: qudits, I/O sets, gate sequence.

Provides depth/size analysis, simulation against the statevector
oracle, serial/parallel composition, gate-set validation and lowering
to the universal two-gate set {CZ, v(theta)}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import count

import numpy as np

from .algebra import DimensionContext
from .sim import _KINDS, Gate, GateName, StateVector, _kernel, basis_state, gate_inverse_ops, row_parts

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


@dataclass(frozen=True)
class Circuit:
    """A computation: qudit set, ordered input/output wires, op sequence.

    Non-input qudits are implicitly prepared in |0>.  When the circuit
    implements a unitary, ``inputs`` and ``outputs`` have equal length
    and the k-th output wire carries the image of the k-th input wire.
    """

    ctx: DimensionContext
    qudits: tuple[int, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    ops: tuple[Operation, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "qudits", tuple(self.qudits))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "ops", tuple(self.ops))
        qs = set(self.qudits)
        if len(qs) != len(self.qudits):
            raise ValueError("duplicate qudit identifiers")
        if not set(self.inputs) <= qs or not set(self.outputs) <= qs:
            raise ValueError("inputs and outputs must be subsets of the qudit set")
        for op in self.ops:
            if len(op.sites) != op.gate.arity:
                raise ValueError(f"{op.gate.name.value} expects {op.gate.arity} sites, got {len(op.sites)}")
            if len(set(op.sites)) != len(op.sites):
                raise ValueError("op sites must be distinct")
            if not set(op.sites) <= qs:
                raise ValueError(f"op touches unknown qudit(s) {set(op.sites) - qs}")
            op.gate.validate(self.ctx)

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
    return c.inputs + tuple(q for q in c.qudits if q not in set(c.inputs))


def _simulate_rows(c: Circuit, inputs: np.ndarray) -> np.ndarray:
    """Run the circuit on every row of ``inputs`` (amplitudes over
    ``c.inputs``, in that order) at once, with the ancillas in |0>; the
    final rows are over ``_run_sites(c)``.  The ops were validated when the
    circuit was built."""
    d, sites = c.ctx.d, _run_sites(c)
    axis = {q: a for a, q in enumerate(sites)}
    amps = np.zeros((len(inputs), d ** len(c.inputs), d ** (len(sites) - len(c.inputs))), dtype=np.complex128)
    amps[:, :, 0] = inputs
    for op in c.ops:
        amps = _kernel(amps, d, len(sites), op.gate, tuple(axis[q] for q in op.sites))
    return amps.reshape(len(inputs), -1)


def simulate_circuit(c: Circuit, input_state: StateVector | None = None) -> StateVector:
    """Run the circuit; returns the full state over the inputs, then the
    ancillas in ``c.qudits`` order.

    ``input_state`` must be defined on the input wires (any site
    order); the ancillas are prepared in |0>.
    """
    if input_state is None:
        input_state = basis_state(c.ctx, c.inputs, [0] * len(c.inputs))
    if set(input_state.sites) != set(c.inputs):
        raise ValueError("input state must be defined exactly on the circuit inputs")
    amps = input_state.with_sites_order(c.inputs).amplitudes
    return StateVector(c.ctx, _run_sites(c), _simulate_rows(c, amps[np.newaxis])[0])


def _outputs_first(c: Circuit, final: np.ndarray) -> np.ndarray:
    """Final rows over ``_run_sites(c)`` as (rows, outputs, other wires)
    amplitude matrices; column 0 holds the other wires in |0...0>."""
    d, sites = c.ctx.d, _run_sites(c)
    outputs = set(c.outputs)
    order = [1 + sites.index(q) for q in c.outputs] + [1 + a for a, q in enumerate(sites) if q not in outputs]
    block = final.reshape((len(final),) + (d,) * len(sites)).transpose([0] + order)
    return block.reshape(len(final), d ** len(c.outputs), -1)


def output_rows(c: Circuit, inputs: np.ndarray) -> np.ndarray:
    """The state each row of ``inputs`` (amplitudes over ``c.inputs``) leaves
    on ``c.outputs``: the leading left singular vector of the final (outputs
    x other wires) amplitude matrix, scaled by its singular value.  It is
    exact when the outputs end in a pure state whatever the other wires
    hold, and subnormalized when they stay entangled with them.  The rows
    run in parts of at most AMPLITUDE_CAP amplitudes."""
    out = np.empty((len(inputs), c.ctx.d ** len(c.outputs)), dtype=np.complex128)
    for part in row_parts(len(inputs), c.ctx.d ** len(_run_sites(c))):
        u, singular, _ = np.linalg.svd(_outputs_first(c, _simulate_rows(c, inputs[part])), full_matrices=False)
        out[part] = u[:, :, 0] * singular[:, :1]
    return out


def circuit_unitary(c: Circuit, residue_tol: float = ANCILLA_RESIDUE_TOL) -> np.ndarray:
    """The d^|I| unitary implemented on the input -> output wires.

    Runs the basis inputs as rows, in parts of at most AMPLITUDE_CAP
    amplitudes; ancillas must return to |0> (checked within
    ``residue_tol``), otherwise the circuit does not implement a unitary
    on its declared wires.
    """
    if len(c.inputs) != len(c.outputs):
        raise ValueError("|inputs| must equal |outputs| for a unitary")
    dim = c.ctx.d ** len(c.inputs)
    u = np.empty((dim, dim), dtype=np.complex128)
    for part in row_parts(dim, c.ctx.d ** len(_run_sites(c))):
        basis = np.arange(dim)[part]
        rows = np.zeros((len(basis), dim), dtype=np.complex128)
        rows[np.arange(len(basis)), basis] = 1.0
        cols = _outputs_first(c, _simulate_rows(c, rows))[:, :, 0]
        residue = 1.0 - np.linalg.norm(cols, axis=1) ** 2
        bad = np.flatnonzero(residue > residue_tol)
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


def validate_gate_set(c: Circuit, model: str = "standard", max_arity: int = 2) -> list[str]:
    """Check ops against a circuit model; returns diagnostics (empty = ok).

    ``standard`` admits only gates acting on at most ``max_arity``
    qudits.  ``fanout`` additionally admits the fan-out/modulo family
    at any arity.
    """
    if model not in ("standard", "fanout"):
        raise ValueError(f"unknown model {model!r}")
    problems = []
    for idx, op in enumerate(c.ops):
        if len(op.sites) <= max_arity:
            continue
        if model == "fanout" and _KINDS[op.gate.name].arity is None:
            continue
        problems.append(
            f"op {idx}: {op.gate.name.value} on {len(op.sites)} qudits exceeds arity {max_arity}"
        )
    return problems


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


def _gate_to_json(gate: Gate) -> dict:
    param = _KINDS[gate.name].param
    if param is None:
        return {}
    value = getattr(gate, param)
    return {_JSON_PARAMS[param][0]: value if param == "k" else list(value)}


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
    return Gate(kind, **{param: cast(value) if param == "k" else tuple(cast(x) for x in value)})


def circuit_to_json(c: Circuit) -> str:
    doc = {
        "d": c.ctx.d,
        "qudits": list(c.qudits),
        "inputs": list(c.inputs),
        "outputs": list(c.outputs),
        "ops": [
            {"gate": op.gate.name.value, "params": _gate_to_json(op.gate), "sites": list(op.sites)}
            for op in c.ops
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def circuit_from_json(text: str) -> Circuit:
    doc = json.loads(text)
    ctx = DimensionContext.of(doc["d"])
    ops = tuple(
        Operation(_gate_from_json(entry["gate"], entry.get("params", {})), tuple(entry["sites"]))
        for entry in doc["ops"]
    )
    return Circuit(
        ctx,
        tuple(doc["qudits"]),
        tuple(doc["inputs"]),
        tuple(doc["outputs"]),
        ops,
    )
