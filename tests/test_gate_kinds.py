"""Per-kind behaviour locked against a golden record.

``tests/golden/gate_kinds.json`` holds, for every gate kind at d in
{2, 3, 5} and a spread of parameters (powers and coefficients that are
0 mod d included), the exact ``lower_to_guni`` op list, the
``gate_inverse_ops`` output and the ``circuit_to_json`` text of a
one-op circuit.  Regenerate it only on purpose:

    PYTHONPATH=src python tests/test_gate_kinds.py
"""

from __future__ import annotations

import json
from pathlib import Path

from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import Circuit, Operation, circuit_to_json, lower_to_guni
from quditmbqc.sim import _KINDS, Gate, GateName, gate_inverse_ops

GOLDEN = Path(__file__).parent / "golden" / "gate_kinds.json"
DIMENSIONS = (2, 3, 5)


def _cases(d: int) -> list[tuple[Gate, tuple[int, ...]]]:
    powers = sorted({-d, -1, 0, 1, 2 % d, d - 1, d, d + 1, 2 * d + 1})
    angles = [tuple(0.25 * j - 0.5 for j in range(d)), (0.0,) * d]
    coeffs = [(0,), (1,), (d - 1,), (-1, d), (0, 2, d + 1), (1, 0, -1)]
    cases: list[tuple[Gate, tuple[int, ...]]] = [
        (Gate.f(), (1,)),
        (Gate.finv(), (1,)),
        (Gate.p(), (1,)),
        (Gate.swap(), (2, 0)),
    ]
    for k in powers:
        cases += [(Gate.x(k), (1,)), (Gate.z(k), (1,)), (Gate.cz(k), (2, 0)), (Gate.cx(k), (2, 0))]
    for theta in angles:
        cases += [(Gate.r(theta), (1,)), (Gate.v(theta), (1,)), (Gate.diag(theta), (1,))]
    for v in coeffs:
        sites = (3, 0, 5, 1)[: len(v) + 1]
        cases += [(Gate.fanout(v), sites), (Gate.mod(v), sites)]
    return cases


def _gate_fields(gate: Gate, sites) -> list:
    return [gate.name.value, gate.k, gate.theta, gate.coeffs, gate.angles, list(sites)]


def gate_kind_record() -> str:
    """The golden record as JSON text."""
    entries = []
    for d in DIMENSIONS:
        ctx = DimensionContext.of(d)
        for gate, sites in _cases(d):
            qudits = tuple(sorted(sites))
            c = Circuit(ctx, qudits, qudits, qudits, (Operation(gate, sites),))
            entries.append(
                {
                    "d": d,
                    "op": _gate_fields(gate, sites),
                    "lowered": [_gate_fields(op.gate, op.sites) for op in lower_to_guni(c).ops],
                    "inverse": [_gate_fields(g, s) for g, s in gate_inverse_ops(gate, sites, d)],
                    "json": circuit_to_json(c),
                }
            )
    return "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"


def test_gate_kinds_match_golden_bytes():
    assert gate_kind_record() == GOLDEN.read_text()


def test_kind_table_declares_every_gate_name():
    assert set(_KINDS) == set(GateName)


def test_golden_record_covers_every_kind():
    kinds = {entry["op"][0] for entry in json.loads(GOLDEN.read_text())}
    assert kinds == {name.value for name in GateName}


if __name__ == "__main__":
    GOLDEN.write_text(gate_kind_record())
