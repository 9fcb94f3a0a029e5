"""Longest-chain depth and composition locked against a golden record.

``tests/golden/chains.json`` holds, at d in {2, 3}: ``depth_and_size``
(depth, size, witness) of generator circuits and of clifford-const and
fanout-compile outputs; ``pattern_depth_and_size`` and the measurement
layers of def7, def8 and clifford-const patterns; and the JSON of
``compose_serial`` and ``compose_parallel`` results for circuits and
patterns.  Regenerate it only on purpose:

    PYTHONPATH=src python tests/test_chains.py
"""

from __future__ import annotations

import json
from pathlib import Path

from quditmbqc import circuit, pattern
from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import Circuit, Operation, circuit_to_json, depth_and_size, lower_to_guni
from quditmbqc.convert import (
    _measurement_layers,
    basic_v_pattern,
    build_generalized,
    circuit_to_pattern_cluster,
    circuit_to_pattern_standard,
    clifford_constant_depth,
    pattern_to_fanout_circuit,
)
from quditmbqc.generate import cascade_circuit, fanout_gate_circuit, random_clifford_circuit, random_guni_circuit
from quditmbqc.pattern import Measure, pattern_depth_and_size, pattern_to_json
from quditmbqc.sim import Gate

GOLDEN = Path(__file__).parent / "golden" / "chains.json"
DIMENSIONS = (2, 3)


def _report(rep) -> dict:
    return {"depth": rep.depth, "size": rep.size, "witness": list(rep.longest_path)}


def _patterns(ctx: DimensionContext) -> dict:
    small, wide = random_guni_circuit(ctx, 2, 6, 0), random_guni_circuit(ctx, 3, 10, 1)
    return {
        "def7 guni n2": circuit_to_pattern_standard(lower_to_guni(small)),
        "def7 guni n3": circuit_to_pattern_standard(lower_to_guni(wide)),
        "def7 unstandardised guni n3": circuit_to_pattern_standard(lower_to_guni(wide), standardise=False),
        "def8 guni n2": circuit_to_pattern_cluster(small),
        "clifford-const clifford n3": clifford_constant_depth(random_clifford_circuit(ctx, 3, 9, 2)),
    }


def _circuits(ctx: DimensionContext, patterns: dict) -> dict:
    return {
        "guni n2": random_guni_circuit(ctx, 2, 6, 0),
        "guni n3": random_guni_circuit(ctx, 3, 10, 1),
        "clifford n3": random_clifford_circuit(ctx, 3, 9, 2),
        "cascade n4": cascade_circuit(ctx, 4),
        "fanout n3": fanout_gate_circuit(ctx, 3),
        "lowered fanout n3": lower_to_guni(fanout_gate_circuit(ctx, 3)),
        "clifford-const clifford n2": pattern_to_fanout_circuit(clifford_constant_depth(random_clifford_circuit(ctx, 2, 6, 0))),
        "clifford-const clifford n3": pattern_to_fanout_circuit(patterns["clifford-const clifford n3"]),
        "fanout-compile def7 guni n2": pattern_to_fanout_circuit(patterns["def7 guni n2"]),
        "fanout-compile def7 guni n3": pattern_to_fanout_circuit(patterns["def7 guni n3"]),
    }


def _compositions(ctx: DimensionContext, patterns: dict) -> dict:
    clifford = random_clifford_circuit(ctx, 3, 9, 2)
    apart = Circuit(
        ctx, (10, 11, 12), (10, 11, 12), (12, 10, 11),
        (Operation(Gate.cx(), (10, 12)), Operation(Gate.f(), (11,)), Operation(Gate.cz(2), (12, 11))),
    )
    thetas = [tuple(0.3 * (j + 1) * t for j in range(ctx.d)) for t in (1, 2)]
    chain = pattern.compose_serial(basic_v_pattern(ctx, 100, 101, thetas[1]), basic_v_pattern(ctx, 100, 101, thetas[0]))
    return {
        "circuit serial": circuit_to_json(circuit.compose_serial(build_generalized(ctx, (1, 2), "fanout"), clifford)),
        "circuit serial self": circuit_to_json(circuit.compose_serial(clifford, clifford)),
        "circuit parallel": circuit_to_json(circuit.compose_parallel(apart, clifford)),
        "pattern serial": pattern_to_json(pattern.compose_serial(patterns["def8 guni n2"], patterns["def7 guni n2"])),
        "pattern serial v chain": pattern_to_json(chain),
        "pattern parallel": pattern_to_json(pattern.compose_parallel(chain, patterns["def7 guni n3"])),
    }


def chain_record() -> str:
    """The golden record as JSON text, one entry per line."""
    entries = []
    for d in DIMENSIONS:
        ctx = DimensionContext.of(d)
        patterns = _patterns(ctx)
        for name, c in _circuits(ctx, patterns).items():
            entries.append({"d": d, "circuit": name, "depth_and_size": _report(depth_and_size(c))})
        for name, p in patterns.items():
            layers = [[m.site for m in layer] for layer in _measurement_layers(p)]
            report = _report(pattern_depth_and_size(p))
            entries.append({"d": d, "pattern": name, "pattern_depth_and_size": report, "measurement_layers": layers})
        for name, text in _compositions(ctx, patterns).items():
            entries.append({"d": d, "compose": name, "json": text})
    return "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"


def test_chains_match_golden_bytes():
    assert chain_record() == GOLDEN.read_text()


def test_measurement_layers_follow_the_deepest_x_dependency():
    for d in DIMENSIONS:
        for p in _patterns(DimensionContext.of(d)).values():
            layer_of = {}
            for number, layer in enumerate(_measurement_layers(p), start=1):
                for m in layer:
                    deps = [layer_of[q] for q in m.x_signal.qudits()]
                    assert number == 1 + max(deps, default=0)
                    layer_of[m.site] = number
            assert sorted(layer_of) == sorted(cmd.site for cmd in p.seq if isinstance(cmd, Measure))


if __name__ == "__main__":
    GOLDEN.write_text(chain_record())
