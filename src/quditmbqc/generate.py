"""Seeded example-instance generators for the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .algebra import DimensionContext
from .circuit import Circuit, Operation
from .sim import Gate

__all__ = [
    "random_guni_circuit",
    "random_clifford_circuit",
    "cascade_circuit",
    "fanout_gate_circuit",
]


def random_guni_circuit(ctx: DimensionContext, n: int, gates: int, seed: int) -> Circuit:
    """Random circuit over the universal set {CZ, v(theta)} on n qudits;
    each gate is a CZ with probability 0.4 (when n >= 2)."""
    rng = np.random.default_rng(seed)
    qudits = tuple(range(1, n + 1))
    ops = []
    for _ in range(gates):
        if n >= 2 and rng.random() < 0.4:
            i, j = rng.choice(n, size=2, replace=False)
            ops.append(Operation(Gate.cz(), (qudits[i], qudits[j])))
        else:
            q = int(rng.integers(n))
            theta = tuple(rng.uniform(0.0, 2.0 * np.pi, size=ctx.d))
            ops.append(Operation(Gate.v(theta), (qudits[q],)))
    return Circuit(ctx, qudits, qudits, qudits, tuple(ops))


def random_clifford_circuit(ctx: DimensionContext, n: int, gates: int, seed: int) -> Circuit:
    """Random circuit over the Clifford generators {F, P, CZ}."""
    rng = np.random.default_rng(seed)
    qudits = tuple(range(1, n + 1))
    ops = []
    for _ in range(gates):
        kind = rng.choice(["F", "P", "CZ"] if n >= 2 else ["F", "P"])
        if kind == "CZ":
            i, j = rng.choice(n, size=2, replace=False)
            ops.append(Operation(Gate.cz(), (qudits[i], qudits[j])))
        elif kind == "F":
            ops.append(Operation(Gate.f(), (qudits[int(rng.integers(n))],)))
        else:
            ops.append(Operation(Gate.p(), (qudits[int(rng.integers(n))],)))
    return Circuit(ctx, qudits, qudits, qudits, tuple(ops))


def cascade_circuit(ctx: DimensionContext, n: int) -> Circuit:
    """The CZ cascade: CZ(1,2), CZ(2,3), ..., depth n-1 as written."""
    if n < 2:
        raise ValueError("a cascade needs at least two qudits")
    qudits = tuple(range(1, n + 1))
    ops = [Operation(Gate.cz(), (q, q + 1)) for q in range(1, n)]
    return Circuit(ctx, qudits, qudits, qudits, tuple(ops))


def fanout_gate_circuit(ctx: DimensionContext, n: int) -> Circuit:
    """A single n-target fan-out gate as a one-op circuit."""
    qudits = tuple(range(n + 1))
    op = Operation(Gate.fanout((1,) * n), qudits)
    return Circuit(ctx, qudits, qudits, qudits, (op,))
