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
from dataclasses import replace

import numpy as np

from .algebra import DimensionContext
from .circuit import (
    Circuit,
    Operation,
    circuit_unitary,
    _inverse_ops,
    _relabel_ops,
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
    entanglement_depth,
    entanglement_graph,
)
from .rewrite import completely_standardise, is_completely_standard
from .sim import _KINDS, UNITARY_TOL, Gate, GateName

__all__ = [
    "basic_cz_pattern",
    "basic_v_pattern",
    "circuit_to_pattern_standard",
    "circuit_to_pattern_cluster",
    "insert_fourier_breaks",
    "pattern_to_circuit_coherent",
    "pattern_to_fanout_circuit",
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
    """One-step teleportation pattern implementing v(theta)."""
    return Pattern(ctx, (src, dst), (src,), (dst,), _teleport(ctx.d, src, dst, theta))


def _teleport(d: int, src: int, dst: int, theta) -> tuple[Entangle, Measure, CorrectX]:
    """The commands of one v(theta) step: entangle the fresh wire ``dst``,
    measure the old wire ``src``, correct the new one."""
    return Entangle(src, dst), Measure(src, tuple(theta), Signal.zero(d), Signal.zero(d)), CorrectX(dst, Signal.unit(d, src))


# -- circuit -> pattern ---------------------------------------------------------


def _require_gates(ops, names, d: int, unit_cz: bool, message: str) -> None:
    """Raise ``message``, naming the gate, at the first op outside ``names`` (or a CZ power not 1, with ``unit_cz``)."""
    for op in ops:
        g = op.gate
        if g.name not in names or (unit_cz and g.name == GateName.CZ and g.k % d != 1):
            raise ValueError(message.format(g.name.value))


def circuit_to_pattern_standard(c: Circuit, standardise: bool = True) -> Pattern:
    """Gate-by-gate measurement-pattern simulation of a {CZ, v} circuit.

    Each CZ becomes an entangling command on the current wires; each
    v(theta) becomes the basic teleportation pattern with a fresh wire.
    With ``standardise`` (the default) the composite is completely
    standardised.
    """
    _require_gates(c.ops, {GateName.CZ, GateName.V}, c.ctx.d, True, "unsupported gate {} (lower to the {{CZ, v}} set first)")
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
            seq.extend(_teleport(d, wire[i], fresh, op.gate.theta))
            qudits.append(fresh)
            wire[i], fresh = fresh, fresh + 1
    pat = Pattern(c.ctx, tuple(qudits), c.inputs, tuple(wire[q] for q in c.outputs), tuple(seq))
    return completely_standardise(pat) if standardise else pat


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
    """The coherent form of a command's classical control: one controlled X per
    ``s`` signal term, one controlled Z per ``t`` term (none on an M here)."""
    return [Operation((Gate.cx if key == "s" else Gate.cz)(c), (q, cmd.site)) for key, sig in cmd.signals() for q, c in sig.coeffs]


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
        ops = [Operation(g, sites) for g, sites in _KINDS[GateName.FANOUT].define(Gate.fanout((1,) * n), ctx.d)]
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

    fanout(v): copy the control into one ancilla per nonzero coefficient
    after the first with one fan-out, apply the per-target controlled-X
    powers of the FANOUT definition in parallel, then undo the copy with
    d-1 plain fan-outs.  mod(v): the MOD definition, fanout(-v) built so.
    """
    coeffs = tuple(int(c) % ctx.d for c in coeffs)
    n = len(coeffs)
    if n < 1:
        raise ValueError("need at least one coefficient")
    if kind not in ("fanout", "mod"):
        raise ValueError(f"unknown kind {kind!r}")
    mains = tuple(range(n + 1))
    steps = [(Gate.fanout(coeffs), mains)] if kind == "fanout" else _KINDS[GateName.MOD].define(Gate.mod(coeffs), ctx.d)
    fanout = next(g for g, _ in steps if g.name == GateName.FANOUT)
    # the gate acts on 0..n, so positions are qudits; zero powers are identities
    units = [[Operation(cx, sites)] for cx, sites in _KINDS[GateName.FANOUT].define(fanout, ctx.d) if cx.k]
    body, copies = _fanned(units, n + 1, ctx.d)
    ops = [op for g, sites in steps for op in (body if g is fanout else [Operation(g, sites)])]
    return Circuit(ctx, mains + tuple(range(n + 1, n + 1 + copies)), mains, mains, tuple(ops))


# -- commuting-unitary parallelization --------------------------------------------


def _fanned(units: list, start: int, d: int) -> tuple[list[Operation], int]:
    """Op units that share qudits run side by side (Hoyer and Spalek,
    "Quantum fan-out is powerful"): a qudit stays with the first unit that
    touches it, and one fan-out copies it into a fresh ancilla, numbered
    from ``start``, for each later unit that touches it.  The units then
    act on disjoint qudits, and d-1 more copy layers undo the copies.  A
    qudit that two units touch must keep its value under both (a diagonal
    unit, or a controlled shift that only reads it).  Returns the ops and
    the number of ancillas, which end in |0>."""
    copies: dict[int, list[int]] = {}
    body: list[Operation] = []
    fresh = start
    for unit in units:
        mapping = {}
        for q in dict.fromkeys(s for op in unit for s in op.sites):
            if q in copies:
                mapping[q] = fresh
                copies[q].append(fresh)
                fresh += 1
            else:
                copies[q] = []
        body += _relabel_ops(unit, mapping)
    copy = [Operation(Gate.fanout((1,) * len(c)), (q, *c)) for q, c in copies.items() if c]
    return copy + body + copy * (d - 1), fresh - start


def _check_diagonal(c: Circuit) -> None:
    if all(_KINDS[op.gate.name].phases for op in c.ops):
        return
    u = circuit_unitary(replace(c, inputs=c.qudits, outputs=c.qudits))
    if np.max(np.abs(u - np.diag(np.diag(u)))) > UNITARY_TOL:
        raise ValueError("block is not diagonal in the computational basis")


def parallelize_commuting(b: Circuit, diagonals: list[Circuit]) -> Circuit:
    """Run n pairwise-commuting unitaries B^dagger D_i B in fan-out-parallel.

    The output applies B once, copies each qudit into one ancilla per
    further D_i that touches it with one fan-out, applies every D_i on
    its own qudits simultaneously, undoes the copies with d-1 fan-out
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
    start = max(mains, default=0) + 1
    fanned, copies = _fanned([diag.ops for diag in diagonals], start, ctx.d)
    ops = [*b.ops, *fanned, *_inverse_ops(b.ops, ctx.d)]
    return Circuit(ctx, tuple(mains) + tuple(range(start, start + copies)), mains, mains, tuple(ops))


# -- constant-depth controlled-Pauli compiler --------------------------------------


def _normalize_controlled_pauli(ops, qudits: tuple[int, ...], d: int):
    """Split {CZ^k, CX^k, Z^k, X^k} ops on ``qudits`` into a front diagonal
    phase polynomial, a controlled-X middle, and a trailing local X layer.

    Qudit ``qudits[j]``'s running value is tracked as the affine form
    ``matrix[j] . x + shift[j]`` over the input digits x, each row a
    ``Signal`` over positions in ``qudits``; diagonal gates then add
    quadratic phase terms over the inputs, all emitted up front.
    ``quad`` maps position pairs (a, b), a <= b, to their nonzero
    coefficients mod d (squares at a == b), and the ``Signal`` ``lin``
    holds the linear terms (constants only shift the global phase).
    """
    _require_gates(ops, {GateName.X, GateName.Z, GateName.CX, GateName.CZ}, d, False, "gate {} outside the controlled-Pauli set")
    n = len(qudits)
    index = {q: i for i, q in enumerate(qudits)}
    # position n is the constant 1, which a form term reads as its j = None
    matrix = [Signal.unit(d, i) for i in range(n)] + [Signal.zero(d)]
    shift = [0] * n + [1]
    quad: dict[tuple[int, int], int] = {}
    lin = Signal.zero(d)
    for op in ops:
        kind, at = _KINDS[op.gate.name], [index[q] for q in op.sites] + [n]
        for t, k, c in kind.shifts(op.gate, d) if kind.shifts else ():
            t, c = at[t], at[-1 if c is None else c]
            matrix[t] += matrix[c].scaled(k)
            shift[t] = (shift[t] + k * shift[c]) % d
        for c, i, j in kind.form(op.gate, d) if kind.form else ():
            # omega phase += c/(D/d) * (row_i . x + shift_i) * (row_j . x + shift_j), D/d = 2 - d % 2
            i, j, k = at[i], at[-1 if j is None else j], c // (2 - d % 2)
            for a, u in matrix[i].coeffs:
                for b, v in matrix[j].coeffs:
                    pair = (min(a, b), max(a, b))
                    quad[pair] = (quad.get(pair, 0) + k * u * v) % d
            lin += matrix[i].scaled(k * shift[j]) + matrix[j].scaled(k * shift[i])
    return {pair: c for pair, c in quad.items() if c}, lin, matrix[:n], shift[:n]


def _diagonal_units(qudits: tuple[int, ...], quad: dict, lin: Signal, d: int) -> list[list[Operation]]:
    """The phase polynomial as one-op units: a CZ power per cross term, then
    a phase rotation per qudit with a square or linear term."""
    units = [[Operation(Gate.cz(c), (qudits[a], qudits[b]))] for (a, b), c in sorted(quad.items()) if a != b]
    linear = lin.to_mapping()
    for a in sorted({a for a, b in quad if a == b} | linear.keys()):
        cq, cl = quad.get((a, a), 0), linear.get(a, 0)
        theta = tuple(2.0 * math.pi * ((cq * j * j + cl * j) % d) / d for j in range(d))
        units.append([Operation(Gate.r(theta), (qudits[a],))])
    return units


def _mod_units(rows, targets, controls) -> list[list[Operation]]:
    """One MOD per target adding its row's terms times the controls at
    their positions; an entry on the target itself is left out."""
    units = []
    for t, row in zip(targets, rows):
        terms = [(controls[a], k) for a, k in row.coeffs if controls[a] != t]
        if terms:
            units.append([Operation(Gate.mod(k for _, k in terms), (t, *(c for c, _ in terms)))])
    return units


def controlled_pauli_constant_depth(c: Circuit) -> Circuit:
    """Compile a {CZ^k, CX^k, Z^k, X^k} circuit to constant depth.

    The circuit is rearranged into a diagonal part followed by a
    controlled-X part (plus local X shifts).  The diagonal part runs its
    CZ and phase terms side by side on fan-out copies.  When no
    controlled-X control is also a target, each target takes one MOD
    over its controls, side by side on copies.  Otherwise the Z(d)
    matrix M is evaluated into a fresh result register with one MOD per
    row, the register is cleared by MODs of the rows of -M^-1 (the
    matrix of the inverted CX gates) and the two registers swap.
    Ancillas grow with the number of nonzero terms while depth stays
    fixed.
    """
    ops, ancillas = _controlled_pauli_ops(c.ops, c.qudits, c.ctx.d, max(c.qudits, default=0) + 1)
    return Circuit(c.ctx, c.qudits + ancillas, c.qudits, c.qudits, tuple(ops))


def _controlled_pauli_ops(source, mains: tuple[int, ...], d: int, start: int) -> tuple[list[Operation], tuple[int, ...]]:
    """The ops of ``controlled_pauli_constant_depth`` for the ops ``source``
    on ``mains``, and the ancillas they use, numbered from ``start``."""
    quad, lin, matrix, shift = _normalize_controlled_pauli(source, mains, d)
    # every stage returns its ancillas clean, so each reuses the ids from start
    ops, used = _fanned(_diagonal_units(mains, quad, lin, d), start, d)
    cx_ops = [op for op in source if op.gate.name == GateName.CX and op.gate.k % d]
    if cx_ops and {op.sites[0] for op in cx_ops}.isdisjoint(op.sites[1] for op in cx_ops):
        # no MOD changes a qudit another one reads, so each target updates in place
        mod_ops, copies = _fanned(_mod_units(matrix, mains, mains), start, d)
        ops += mod_ops
        used = max(used, copies)
    elif cx_ops:
        n = len(mains)
        result = tuple(range(start, start + n))
        # M^-1 is the matrix of the inverted CX gates (no division, so composite d works too)
        inverse = _normalize_controlled_pauli(_inverse_ops(cx_ops, d), mains, d)[2]
        if any(sum((matrix[a].scaled(k) for a, k in row.coeffs), Signal.zero(d)) != Signal.unit(d, i) for i, row in enumerate(inverse)):
            raise AssertionError("the inverted CX gates did not invert the matrix")
        inverse = [row.scaled(-1) for row in inverse]
        for rows, targets, controls in ((matrix, result, mains), (inverse, mains, result)):
            stage, copies = _fanned(_mod_units(rows, targets, controls), start + n, d)
            ops += stage
            used = max(used, n + copies)
        ops += [Operation(Gate.swap(), pair) for pair in zip(mains, result)]
    ops += [Operation(Gate.x(k), (q,)) for q, k in zip(mains, shift) if k]
    return ops, tuple(range(start, start + used))


# -- pattern -> unbounded fan-out circuit -------------------------------------------


def _measurement_layers(p: Pattern) -> list[list[Measure]]:
    """Measurements in written order, each one layer after its deepest X dependency."""
    measures = [cmd for cmd in p.seq if isinstance(cmd, Measure)]
    _, levels = longest_chain(((), m.x_signal.qudits(), m.site) for m in measures)
    layers: list[list[Measure]] = [[] for _ in range(max(levels, default=0))]
    for m, level in zip(measures, levels):
        layers[level - 1].append(m)
    return layers


def pattern_to_fanout_circuit(p: Pattern) -> Circuit:
    """Compile a completely standard pattern to the unbounded fan-out model.

    The coherent translation over the dependency layers of measurements,
    with every controlled-Pauli block compiled to constant depth: each
    layer costs one such block plus a unit-depth layer of rotations.
    """
    if not is_completely_standard(p):
        raise ValueError("fan-out compilation expects a completely standard pattern")

    def compile_block(block: list[Operation], fresh: int):
        touched = tuple(dict.fromkeys(s for op in block for s in op.sites))
        return _controlled_pauli_ops(block, touched, p.ctx.d, fresh)

    return _coherent(p, _measurement_layers(p), compile_block)


# -- constant-depth Clifford pipeline ------------------------------------------------


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


def clifford_constant_depth(c: Circuit) -> Pattern:
    """Compile a circuit of Clifford kinds, those with no angle-vector
    parameter, to a constant-depth pattern for ``pattern_to_fanout_circuit``.

    Its cluster-style pattern measures in Clifford directions only, so once
    completely standard every measurement is independent: they form one
    layer and the entangling block runs in edge-coloring depth.
    """
    clifford = {name for name, kind in _KINDS.items() if kind.param not in ("theta", "angles")}
    _require_gates(c.ops, clifford, c.ctx.d, False, "gate {} is not a Clifford gate")
    pat = circuit_to_pattern_cluster(c)
    for cmd in pat.seq:
        if isinstance(cmd, Measure) and not cmd.is_independent():
            raise AssertionError("Clifford pattern kept a dependent measurement")
    return _sorted_entangling_prefix(pat)
