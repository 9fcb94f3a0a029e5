"""Bidirectional compilers between circuits and patterns, plus the
constant- and low-depth circuit builders for the unbounded fan-out model.

Circuit -> pattern goes through the two basic patterns (one for CZ, one
for v(theta)); pattern -> circuit goes through the coherent replacement
of classical control by controlled gates, optionally parallelized into
constant-depth blocks with fan-out machinery.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .algebra import DimensionContext
from .circuit import (
    Circuit,
    DepthReport,
    Operation,
    circuit_unitary,
    _inverse_ops,
    _relabel_ops,
    depth_and_size,
    longest_chain,
    lower_to_guni,
)
from .pattern import (
    CorrectX,
    CorrectZ,
    Entangle,
    Measure,
    Pattern,
    Signal,
    _greedy_coloring,
    entanglement_depth,
    entanglement_graph,
    pattern_depth_and_size,
    require_valid,
)
from .rewrite import completely_standardise, is_completely_standard
from .sim import _KINDS, Gate, GateName

__all__ = [
    "basic_cz_pattern",
    "basic_v_pattern",
    "circuit_to_pattern_standard",
    "circuit_to_pattern_cluster",
    "insert_fourier_breaks",
    "pattern_to_circuit_coherent",
    "pattern_to_fanout_circuit",
    "FanoutCompileResult",
    "build_fanout",
    "build_generalized",
    "parallelize_commuting",
    "controlled_pauli_constant_depth",
    "clifford_constant_depth",
]


# -- basic patterns ------------------------------------------------------------


def basic_cz_pattern(ctx: DimensionContext, i: int, j: int) -> Pattern:
    """The measurement-free pattern implementing CZ on two wires."""
    return Pattern(ctx, (i, j), (i, j), (i, j), (Entangle(i, j),))


def basic_v_pattern(ctx: DimensionContext, src: int, dst: int, theta) -> Pattern:
    """One-step teleportation pattern implementing v(theta): entangle a fresh
    wire, measure the old wire, correct the new one."""
    d = ctx.d
    return Pattern(
        ctx,
        (src, dst),
        (src,),
        (dst,),
        (
            Entangle(src, dst),
            Measure(src, tuple(theta), Signal.zero(d), Signal.zero(d)),
            CorrectX(dst, Signal.unit(d, src)),
        ),
    )


# -- circuit -> pattern ---------------------------------------------------------


def _require_guni(c: Circuit) -> None:
    for op in c.ops:
        ok = (op.gate.name == GateName.CZ and op.gate.k % c.ctx.d == 1) or op.gate.name == GateName.V
        if not ok:
            raise ValueError(
                f"unsupported gate {op.gate.name.value} (lower to the {{CZ, v}} set first)"
            )


def circuit_to_pattern_standard(c: Circuit, standardise: bool = True) -> Pattern:
    """Gate-by-gate measurement-pattern simulation of a {CZ, v} circuit.

    Each CZ becomes an entangling command on the current wires; each
    v(theta) becomes the basic teleportation pattern with a fresh wire.
    With ``standardise`` (the default) the composite is completely
    standardised.
    """
    _require_guni(c)
    if set(c.inputs) != set(c.qudits) or set(c.outputs) != set(c.qudits):
        raise ValueError("conversion expects a circuit acting in place (inputs = outputs = qudits)")
    d = c.ctx.d
    wire = {q: q for q in c.qudits}
    qudits = list(c.qudits)
    fresh = max(c.qudits, default=0) + 1
    seq = []
    for op in c.ops:
        if op.gate.name == GateName.CZ:
            i, j = op.sites
            seq.append(Entangle(wire[i], wire[j]))
        else:
            (i,) = op.sites
            new = fresh
            fresh += 1
            qudits.append(new)
            seq.append(Entangle(wire[i], new))
            seq.append(Measure(wire[i], op.gate.theta, Signal.zero(d), Signal.zero(d)))
            seq.append(CorrectX(new, Signal.unit(d, wire[i])))
            wire[i] = new
    pat = Pattern(c.ctx, tuple(qudits), c.inputs, tuple(wire[q] for q in c.outputs), tuple(seq))
    if standardise:
        return completely_standardise(pat)  # validates pat and the result once each
    require_valid(pat)
    return pat


def insert_fourier_breaks(c: Circuit) -> Circuit:
    """Insert four Fourier gates wherever two CZ gates act consecutively on
    the same qudit; F^4 = identity, so semantics are untouched."""
    ops: list[Operation] = []
    last: dict[int, GateName] = {}
    for op in c.ops:
        if op.gate.name == GateName.CZ:
            for q in op.sites:
                if last.get(q) == GateName.CZ:
                    ops.extend(Operation(Gate.f(), (q,)) for _ in range(4))
                    last[q] = GateName.F
            ops.append(op)
            for q in op.sites:
                last[q] = GateName.CZ
        else:
            ops.append(op)
            for q in op.sites:
                last[q] = op.gate.name
    return c.with_ops(ops)


def circuit_to_pattern_cluster(c: Circuit) -> Pattern:
    """Cluster-style conversion: break consecutive CZ pairs with F^4 before
    the standard conversion, capping the entanglement graph degree at 3."""
    # lower first so repeated-CZ expansions are visible to the break pass,
    # then lower once more for the inserted Fourier gates
    broken = lower_to_guni(insert_fourier_breaks(lower_to_guni(c)))
    pat = circuit_to_pattern_standard(broken, standardise=True)
    delta = entanglement_graph(pat).max_degree()
    if delta > 3:
        raise AssertionError(f"cluster conversion produced entanglement degree {delta} > 3")
    return pat


# -- pattern -> circuit ----------------------------------------------------------


def _controlled_gates(cmd: Measure | CorrectX | CorrectZ) -> list[Operation]:
    """The coherent form of a command's classical control: one controlled
    Pauli per signal term (the X signal for a measurement)."""
    if isinstance(cmd, Measure):
        signal, controlled = cmd.x_signal, Gate.cx
    else:
        signal, controlled = cmd.signal, Gate.cx if isinstance(cmd, CorrectX) else Gate.cz
    return [Operation(controlled(coeff), (q, cmd.site)) for q, coeff in signal.coeffs]


def _coherent(p: Pattern, layers: list[list[Measure]], compile_block: Callable) -> Circuit:
    """The coherent translation of a completely standard pattern.

    Non-input wires get an initial Fourier gate (preparing F|0>) and each
    entangling command becomes CZ.  Each layer of measurements becomes the
    controlled-X block of their X signals followed by their v(theta)
    rotations, and the output corrections become one last controlled-Pauli
    block.  ``compile_block(ops, fresh)`` replaces each nonempty block by
    ops of its own, adding ancillas numbered from ``fresh`` upwards.
    """
    inputs = set(p.inputs)
    ops = [Operation(Gate.f(), (q,)) for q in p.qudits if q not in inputs]
    ops += [Operation(Gate.cz(), (cmd.i, cmd.j)) for cmd in p.seq if isinstance(cmd, Entangle)]
    qudits = list(p.qudits)
    fresh = max(p.qudits, default=0) + 1
    corrections = [cmd for cmd in p.seq if isinstance(cmd, (CorrectX, CorrectZ))]
    for commands in [*layers, corrections]:
        block = [g for cmd in commands for g in _controlled_gates(cmd)]
        if block:
            block, ancillas = compile_block(block, fresh)
            ops += block
            qudits += ancillas
            fresh += len(ancillas)
        ops += [Operation(Gate.v(cmd.theta), (cmd.site,)) for cmd in commands if isinstance(cmd, Measure)]
    return Circuit(p.ctx, tuple(qudits), p.inputs, p.outputs, tuple(ops))


def pattern_to_circuit_coherent(p: Pattern) -> Circuit:
    """Fully unitary circuit simulation of a completely standard pattern.

    The coherent translation with one measurement per layer in written
    order and every controlled block kept verbatim.  For any input, the
    outputs disentangle from the other wires and carry the pattern's
    unitary.
    """
    require_valid(p)
    if not is_completely_standard(p):
        raise ValueError("coherent conversion expects a completely standard pattern")
    measures = [[cmd] for cmd in p.seq if isinstance(cmd, Measure)]
    return _coherent(p, measures, lambda block, _fresh: (block, ()))


# -- fan-out builders ------------------------------------------------------------


def build_fanout(ctx: DimensionContext, n: int, variant: str = "logdepth") -> Circuit:
    """Standard-circuit decompositions of the n-target fan-out gate.

    ``naive``: n controlled-X gates sharing the control; exact for all
    inputs, depth n.  ``logdepth``: the doubling tree padded to the
    2**ceil(log2(n+1)) - 1 shape with surplus gates omitted; depth
    ceil(log2(n+1)), exact on the quantum-copy configuration (targets
    prepared in |0>).  No bounded-arity circuit of that depth can
    reproduce the fan-out unitary on arbitrary target states, so the
    tree trades full-input generality for minimal depth.
    """
    if n < 1:
        raise ValueError("need at least one target")
    qudits = tuple(range(n + 1))
    ops: list[Operation] = []
    if variant == "naive":
        ops = [Operation(Gate.cx(), (0, t)) for t in range(1, n + 1)]
    elif variant == "logdepth":
        levels = math.ceil(math.log2(n + 1))
        for level in range(levels):
            for holder in range(2**level):
                target = holder + 2**level
                if target <= n:
                    ops.append(Operation(Gate.cx(), (holder, target)))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return Circuit(ctx, qudits, qudits, qudits, tuple(ops))


def build_generalized(ctx: DimensionContext, coeffs, kind: str = "fanout") -> Circuit:
    """Constant-depth fan-out-model circuits for the coefficient-vector
    fan-out and modulo gates.

    fanout(v): copy the control into n-1 ancillas with one fan-out,
    apply the per-target controlled-X powers in parallel, then undo the
    copy with d-1 plain fan-outs.  mod(v): conjugate fanout(-v) by a
    Fourier layer.
    """
    coeffs = tuple(int(c) % ctx.d for c in coeffs)
    n = len(coeffs)
    if n < 1:
        raise ValueError("need at least one coefficient")
    control = 0
    targets = tuple(range(1, n + 1))
    mains = (control,) + targets
    if kind == "fanout":
        copies = tuple(range(n + 1, n + n))  # n - 1 ancillas
        layers = [[Operation(Gate.cx(c), (control, t))] if c else [] for t, c in zip(targets, coeffs)]
        return Circuit(ctx, mains + copies, mains, mains, tuple(_fanned((control,), layers, copies, ctx.d)))
    if kind == "mod":
        inner = build_generalized(ctx, tuple((-c) % ctx.d for c in coeffs), "fanout")
        ops = [Operation(Gate.finv(), (q,)) for q in mains]
        ops += list(inner.ops)
        ops += [Operation(Gate.f(), (q,)) for q in mains]
        return Circuit(ctx, inner.qudits, mains, mains, tuple(ops))
    raise ValueError(f"unknown kind {kind!r}")


# -- commuting-unitary parallelization --------------------------------------------


def _fanned(mains, layers: list, ancillas, d: int) -> list[Operation]:
    """Commuting op layers on ``mains`` run side by side (Hoyer and Spalek,
    "Quantum fan-out is powerful"): copy the register into one ancilla
    register per layer after the first with parallel fan-outs, run layer i
    on register i, then undo the copies with d-1 more fan-out layers.  One
    layer is returned as it is; the ancillas end in |0>."""
    if len(layers) == 1:
        return list(layers[0])
    k, fan = len(mains), Gate.fanout((1,) * (len(layers) - 1))
    registers = [tuple(mains)] + [tuple(ancillas[i * k : (i + 1) * k]) for i in range(len(layers) - 1)]
    copy = [Operation(fan, (q,) + tuple(r[pos] for r in registers[1:])) for pos, q in enumerate(mains)]
    ops = list(copy)
    for register, layer in zip(registers, layers):
        ops += _relabel_ops(layer, dict(zip(mains, register)))
    return ops + copy * (d - 1)


_DIAG_DENSE_CHECK_LIMIT = 4096


def _check_diagonal(c: Circuit) -> None:
    if all(_KINDS[op.gate.name].phases for op in c.ops):
        return
    if c.ctx.d ** len(c.qudits) > _DIAG_DENSE_CHECK_LIMIT:
        raise ValueError("cannot certify diagonality: non-diagonal gate kinds on a large register")
    u = circuit_unitary(replace(c, inputs=c.qudits, outputs=c.qudits))
    if np.max(np.abs(u - np.diag(np.diag(u)))) > 1e-10:
        raise ValueError("block is not diagonal in the computational basis")


def parallelize_commuting(
    b: Circuit, diagonals: list[Circuit], ancilla_ids: list[int] | None = None
) -> Circuit:
    """Run n pairwise-commuting unitaries B^dagger D_i B in fan-out-parallel.

    The output applies B once, copies the k-qudit register into n-1
    ancilla registers with k parallel fan-outs, applies every D_i on its
    own register simultaneously, undoes the copies with d-1 fan-out
    layers and finishes with B^dagger.  Ancillas are returned in |0>.
    """
    if not diagonals:
        raise ValueError("need at least one diagonal block")
    mains = b.qudits
    ctx = b.ctx
    for diag in diagonals:
        if diag.ctx != ctx or set(diag.qudits) != set(mains):
            raise ValueError("diagonal blocks must act on the same register as the basis change")
        _check_diagonal(diag)
    total = len(mains) * (len(diagonals) - 1)
    if ancilla_ids is None:
        start = max(mains, default=0) + 1
        ancilla_ids = list(range(start, start + total))
    if len(ancilla_ids) != total:
        raise ValueError(f"need exactly {total} ancilla ids")
    ops = [*b.ops, *_fanned(mains, [diag.ops for diag in diagonals], ancilla_ids, ctx.d), *_inverse_ops(b.ops, ctx.d)]
    return Circuit(ctx, tuple(mains) + tuple(ancilla_ids), mains, mains, tuple(ops))


# -- constant-depth controlled-Pauli compiler --------------------------------------


def _normalize_controlled_pauli(ops, qudits: tuple[int, ...], d: int):
    """Split {CZ^k, CX^k, Z^k, X^k} ops on ``qudits`` into a front diagonal
    phase polynomial, a controlled-X middle, and a trailing local X layer.

    Qudit j's running value is tracked as the affine form
    ``matrix[j] . x + shift[j]`` over the input digits x; diagonal gates
    then contribute quadratic phase terms over the inputs and can all be
    emitted up front.  Every array is int64, reduced mod d: ``quad`` holds
    the squares on its diagonal and the cross terms above it, ``lin`` the
    linear terms (constants only shift the global phase).  ``cx_gates``
    lists the nonzero controlled-X powers as (control, target, k) indices.
    """
    n = len(qudits)
    index = {q: i for i, q in enumerate(qudits)}
    matrix = np.eye(n, dtype=np.int64)
    shift = np.zeros(n, dtype=np.int64)
    quad = np.zeros((n, n), dtype=np.int64)
    lin = np.zeros(n, dtype=np.int64)
    cx_gates: list[tuple[int, int, int]] = []
    for op in ops:
        g = op.gate
        if g.name not in (GateName.X, GateName.Z, GateName.CX, GateName.CZ):
            raise ValueError(f"gate {g.name.value} outside the controlled-Pauli set")
        k = g.k % d
        if not k:
            continue
        i = index[op.sites[0]]
        if g.name == GateName.X:
            shift[i] = (shift[i] + k) % d
        elif g.name == GateName.Z:
            lin = (lin + k * matrix[i]) % d
        else:
            j = index[op.sites[1]]
            if g.name == GateName.CX:
                matrix[j] = (matrix[j] + k * matrix[i]) % d
                shift[j] = (shift[j] + k * shift[i]) % d
                cx_gates.append((i, j, k))
            else:
                # phase += k * (row_i . x + shift_i) * (row_j . x + shift_j)
                quad = (quad + k * np.outer(matrix[i], matrix[j])) % d
                lin = (lin + k * (matrix[i] * shift[j] + matrix[j] * shift[i])) % d
    quad = (np.triu(quad) + np.tril(quad, -1).T) % d
    return quad, lin, matrix, cx_gates, shift


def _cx_inverse(d: int, matrix: np.ndarray, cx_gates) -> np.ndarray:
    """Inverse of a controlled-X matrix: replay its gate list backwards
    with negated powers (no division, so composite d works too)."""
    inverse = np.eye(len(matrix), dtype=np.int64)
    for ci, ti, k in reversed(cx_gates):
        inverse[ti] = (inverse[ti] - k * inverse[ci]) % d
    if not np.array_equal(inverse @ matrix % d, np.eye(len(matrix), dtype=np.int64)):
        raise AssertionError("transvection replay did not invert the matrix")
    return inverse


def _diagonal_layers(qudits: tuple[int, ...], quad: np.ndarray, lin: np.ndarray, d: int) -> list[list[Operation]]:
    """Emit the phase polynomial as depth-1 diagonal layers on the full register."""
    # a proper edge coloring, first fit in sorted (row-major) edge order,
    # gives disjoint CZ layers; CZ^0 is the identity
    edges = [tuple(e) for e in np.argwhere(np.triu(quad, 1)).tolist()]
    by_color: dict[int, list[Operation]] = {}
    for (a, b), color in zip(edges, _greedy_coloring(edges)):
        by_color.setdefault(color, []).append(Operation(Gate.cz(int(quad[a, b])), (qudits[a], qudits[b])))
    layers = [by_color[color] for color in sorted(by_color)]
    local_ops = []
    for q, cq, cl in zip(qudits, np.diag(quad).tolist(), lin.tolist()):
        if cq or cl:
            theta = tuple(2.0 * math.pi * ((cq * j * j + cl * j) % d) / d for j in range(d))
            local_ops.append(Operation(Gate.r(theta), (q,)))
    if local_ops:
        layers.append(local_ops)
    return layers


def controlled_pauli_constant_depth(c: Circuit, ancilla_start: int | None = None) -> Circuit:
    """Compile a {CZ^k, CX^k, Z^k, X^k} circuit to constant depth.

    The circuit is rearranged into a diagonal part followed by a
    controlled-X part (plus local X shifts).  The diagonal part runs as
    parallel depth-1 layers on fanned-out register copies; the
    controlled-X part evaluates its Z(d) matrix row-per-register with
    generalized modulo gates, writes the result register, uncomputes,
    clears the original register through the replayed inverse matrix
    and swaps the registers back.  Size grows quadratically in the
    register width while depth stays fixed.
    """
    start = max(c.qudits, default=0) + 1 if ancilla_start is None else ancilla_start
    ops, ancillas = _controlled_pauli_ops(c.ops, c.qudits, c.ctx.d, start)
    return Circuit(c.ctx, c.qudits + ancillas, c.qudits, c.qudits, tuple(ops))


def _controlled_pauli_ops(source, mains: tuple[int, ...], d: int, start: int) -> tuple[list[Operation], tuple[int, ...]]:
    """The ops of ``controlled_pauli_constant_depth`` for the ops ``source``
    on ``mains``, and the ancillas they use, numbered from ``start``."""
    n = len(mains)
    quad, lin, matrix, cx_gates, shift = _normalize_controlled_pauli(source, mains, d)
    # every stage returns its ancillas clean, so each reuses the ids from start
    used = 0
    ops: list[Operation] = []

    layers = _diagonal_layers(mains, quad, lin, d)
    if layers:
        # always run the parallel form so the layer schedule (and hence the
        # depth) is independent of how many diagonal layers the input needed
        if len(layers) == 1:
            layers.append([])
        used = n * (len(layers) - 1)
        ops += _fanned(mains, layers, range(start, start + used), d)

    if cx_gates:
        inverse = _cx_inverse(d, matrix, cx_gates)
        used = max(used, n * n + n)
        registers = [range(start + l * n, start + (l + 1) * n) for l in range(n)]
        result = range(start + n * n, start + n * n + n)

        def compute_rows(source: list[int], rows) -> list[Operation]:
            """Copy ``source`` into the registers, evaluate row k on register
            k's diagonal slot; emitted once forward, once backward.  Zero-power
            placeholders are kept so the layer schedule never depends on the
            matrix entries."""
            forward: list[Operation] = []
            for r in range(n):
                targets = tuple(registers[l][r] for l in range(n) if l != r)
                forward.append(Operation(Gate.fanout((1,) * (n - 1)), (source[r],) + targets))
            for kq in range(n):
                coeffs = tuple(rows[kq][j] for j in range(n) if j != kq)
                controls = tuple(registers[kq][j] for j in range(n) if j != kq)
                forward.append(Operation(Gate.mod(coeffs), (registers[kq][kq],) + controls))
            for kq in range(n):
                forward.append(Operation(Gate.cx(rows[kq][kq] % d), (source[kq], registers[kq][kq])))
            return forward

        forward = compute_rows(list(mains), matrix.tolist())
        ops += forward
        ops += [Operation(Gate.cx(), (registers[kq][kq], result[kq])) for kq in range(n)]
        ops += _inverse_ops(forward, d)

        backward = compute_rows(list(result), inverse.tolist())
        ops += backward
        ops += [Operation(Gate.cx(d - 1), (registers[kq][kq], mains[kq])) for kq in range(n)]
        ops += _inverse_ops(backward, d)

        ops += [Operation(Gate.swap(), (mains[kq], result[kq])) for kq in range(n)]

    for q, k in zip(mains, shift.tolist()):
        if k:
            ops.append(Operation(Gate.x(k), (q,)))
    return ops, tuple(range(start, start + used))


# -- pattern -> unbounded fan-out circuit -------------------------------------------


@dataclass(frozen=True)
class FanoutCompileResult:
    circuit: Circuit
    circuit_report: DepthReport
    pattern_report: DepthReport


def _measurement_layers(p: Pattern) -> list[list[Measure]]:
    """Measurements in written order, each one layer after its deepest X dependency."""
    measures = [cmd for cmd in p.seq if isinstance(cmd, Measure)]
    _, levels = longest_chain(((), m.x_signal.qudits(), m.site) for m in measures)
    layers: list[list[Measure]] = [[] for _ in range(max(levels, default=0))]
    for m, level in zip(measures, levels):
        layers[level - 1].append(m)
    return layers


def pattern_to_fanout_circuit(p: Pattern) -> FanoutCompileResult:
    """Compile a completely standard pattern to the unbounded fan-out model.

    The coherent translation over the dependency layers of measurements,
    with every controlled-Pauli block compiled to constant depth: each
    layer costs one such block plus a unit-depth layer of rotations.
    """
    pattern_report = pattern_depth_and_size(p)  # validates p
    if not is_completely_standard(p):
        raise ValueError("fan-out compilation expects a completely standard pattern")

    def compile_block(block: list[Operation], fresh: int):
        touched = tuple(dict.fromkeys(s for op in block for s in op.sites))
        return _controlled_pauli_ops(block, touched, p.ctx.d, fresh)

    circuit = _coherent(p, _measurement_layers(p), compile_block)
    return FanoutCompileResult(circuit, depth_and_size(circuit), pattern_report)


# -- constant-depth Clifford pipeline ------------------------------------------------

_CLIFFORD_GATES = {GateName.F, GateName.P, GateName.CZ}


def _sorted_entangling_prefix(p: Pattern) -> Pattern:
    """Reorder the entangling block by edge-coloring layers; entangling
    commands commute, and the written depth then matches the coloring."""
    graph = entanglement_graph(p)
    report = entanglement_depth(graph)
    edges = graph.unit_edges()
    by_color: dict[int, list[Entangle]] = {}
    for (i, j), color in zip(edges, report.coloring):
        by_color.setdefault(color, []).append(Entangle(i, j))
    ordered = [e for color in sorted(by_color) for e in by_color[color]]
    rest = [cmd for cmd in p.seq if not isinstance(cmd, Entangle)]
    return p.with_seq(tuple(ordered) + tuple(rest))


def clifford_constant_depth(c: Circuit, target: str = "pattern"):
    """Compile an {F, P, CZ} circuit to a constant-depth pattern, or further
    to an unbounded fan-out circuit.

    The cluster-style pattern of a Clifford circuit is completely
    standard with every measurement independent, so the measurements
    form one layer and the entangling block runs in edge-coloring depth.
    """
    for op in c.ops:
        if op.gate.name not in _CLIFFORD_GATES or (op.gate.name == GateName.CZ and op.gate.k % c.ctx.d != 1):
            raise ValueError(f"gate {op.gate.name.value} is not in the {{F, P, CZ}} set")
    pat = circuit_to_pattern_cluster(lower_to_guni(c))
    for cmd in pat.seq:
        if isinstance(cmd, Measure) and not cmd.is_independent():
            raise AssertionError("Clifford pattern kept a dependent measurement")
    pat = _sorted_entangling_prefix(pat)
    if target == "pattern":
        return pat
    if target == "fanout_circuit":
        return pattern_to_fanout_circuit(pat)
    raise ValueError(f"unknown target {target!r}")
