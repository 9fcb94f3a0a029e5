"""The template JSON writers against ``json.dumps(doc, indent=2)``.

``circuit_to_json`` and ``pattern_to_json`` write their text from fixed
templates.  Each artifact here is also turned into the document the
writers once handed to ``json.dumps`` (``helpers.oracle_circuit_doc`` and
``oracle_pattern_doc``), and the two texts must match byte for byte: on
every artifact behind the golden records, the CLI fuzz base documents,
every gate kind with its parameters, empty lists, zero signals and float
and id edge cases.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import test_chains
import test_cli_fuzz
import test_fanout_builders
import test_gate_kinds
import test_translations
from helpers import oracle_circuit_doc, oracle_pattern_doc
from test_pattern import families

from quditmbqc import circuit, pattern
from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import Circuit, Operation, circuit_from_json, circuit_to_json
from quditmbqc.convert import circuit_to_pattern_standard
from quditmbqc.pattern import CorrectX, CorrectZ, Entangle, Measure, Pattern, Signal, pattern_from_json, pattern_to_json
from quditmbqc.sim import Gate

GOLDEN = Path(__file__).parent / "golden"
EDGE_FLOATS = (-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 1.0, -2.5e-300, 1.7976931348623157e308)
LARGE_IDS = (0, 2**31, 2**63 + 5, 10**30)


def dumped(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def same_as_dumps_circuit(c: Circuit) -> str:
    text = circuit_to_json(c)
    assert text == dumped(oracle_circuit_doc(c))
    return text


def same_as_dumps_pattern(p: Pattern) -> str:
    text = pattern_to_json(p)
    assert text == dumped(oracle_pattern_doc(p))
    return text


def holding(ctx: DimensionContext, qudits, inputs, outputs, seq) -> Pattern:
    """A pattern on these wires that holds ``seq`` as written, wellformed or
    not: built with every non-output measured, then given ``seq`` past the
    construction check, so the writer sees commands no built pattern has."""
    zero = Signal.zero(ctx.d)
    measures = tuple(Measure(q, (0.0,) * ctx.d, zero, zero) for q in qudits if q not in outputs)
    p = Pattern(ctx, qudits, inputs, outputs, measures)
    object.__setattr__(p, "seq", tuple(seq))
    return p


def test_every_artifact_behind_the_golden_records(monkeypatch):
    """Each golden record is rebuilt with every writer call checked against
    json.dumps, and must still match its file."""
    written = []

    def checked(check):
        return lambda artifact: written.append(artifact) or check(artifact)

    for module in (test_chains, test_translations, test_fanout_builders, test_gate_kinds):
        for name, check in (("circuit_to_json", same_as_dumps_circuit), ("pattern_to_json", same_as_dumps_pattern)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, checked(check))
    records = {
        "chains.json": test_chains.chain_record,
        "translations.json": test_translations.translation_record,
        "fanout_builders.json": test_fanout_builders.fanout_builders_record,
        "gate_kinds.json": test_gate_kinds.gate_kind_record,
    }
    for name, record in records.items():
        assert record() == (GOLDEN / name).read_text()
    assert sum(isinstance(a, Circuit) for a in written) > 800
    assert sum(isinstance(a, Pattern) for a in written) >= 6
    for d in (2, 3, 4):  # the patterns behind runs.json
        for p in families(d).values():
            same_as_dumps_pattern(p)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("rotation_chain_*.json")), ids=lambda p: p.stem)
def test_rotation_chain_files_read_back_to_their_bytes(path):
    text = path.read_text()
    assert same_as_dumps_pattern(pattern_from_json(text)) == text == dumped(json.loads(text))


def test_cli_fuzz_base_documents():
    p = circuit_to_pattern_standard(test_cli_fuzz._CIRCUIT)
    assert same_as_dumps_circuit(test_cli_fuzz._CIRCUIT) == dumped(test_cli_fuzz.DOCUMENTS["circuit"])
    assert same_as_dumps_pattern(p) == dumped(test_cli_fuzz.DOCUMENTS["pattern"])


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_every_gate_kind_with_its_parameters(d):
    ctx = DimensionContext.of(d)
    cases = test_gate_kinds._cases(d) + [
        (Gate.r(EDGE_FLOATS[:d]), (1,)),
        (Gate.diag(EDGE_FLOATS[-d:]), (1,)),
        (Gate.x(True), (1,)),
        (Gate.fanout((2**40, -3, 0)), (0, 1, 2, 3)),
    ]
    for gate, sites in cases:
        qudits = tuple(sorted(sites))
        same_as_dumps_circuit(Circuit(ctx, qudits, qudits, qudits, (Operation(gate, sites),)))
    both = [Operation(gate, sites) for gate, sites in cases]
    same_as_dumps_circuit(Circuit(ctx, (0, 1, 2, 3, 5), (0, 1), (3, 5), tuple(both)))


def test_gate_objects_are_written_and_read_once_each_never_by_equality():
    """v(0.0, ...) and v(-0.0, ...) are equal Gates that write two texts, and
    one CX object sits on twelve ops: the circuit writes as json.dumps does
    and reads back with the two angle vectors apart and one object per
    distinct gate text."""
    ctx = DimensionContext.of(3)
    pos, neg = Gate.v((0.0, 1.0, 2.0)), Gate.v((-0.0, 1.0, 2.0))
    assert pos == neg
    ops = [Operation(pos, (0,)), Operation(neg, (1,))]
    ops += [Operation(Gate.cx(2), (q, (q + 1) % 3)) for q in range(3)] * 4 + [Operation(neg, (2,)), Operation(pos, (1,))]
    text = same_as_dumps_circuit(Circuit(ctx, (0, 1, 2), (0, 1, 2), (0, 1, 2), tuple(ops)))
    assert text.count('"theta": [\n          -0.0,') == 2 and text.count('"theta": [\n          0.0,') == 2
    back = circuit_from_json(text)
    signs = [math.copysign(1.0, op.gate.theta[0]) for op in back.ops if op.gate.name == "v"]
    assert signs == [1.0, -1.0, -1.0, 1.0]
    assert same_as_dumps_circuit(back) == text
    gates = [op.gate for op in back.ops]
    assert gates[0] is gates[-1] and gates[1] is gates[-2] and gates[0] is not gates[1]
    assert all(g is gates[2] for g in gates[2:-2]) and len({id(g) for g in gates}) == 3


def test_shared_constructors_keep_true_and_1_apart():
    """The integer and no-parameter constructors return one object per
    argument, typed: CZ^True writes ``true`` beside CZ^1's ``1``."""
    assert Gate.cx(2) is Gate.cx(2) and Gate.cx() is Gate.cx(1) and Gate.f() is Gate.f()
    assert Gate.cz(True) == Gate.cz(1) and Gate.cz(True) is not Gate.cz(1)
    ops = (Operation(Gate.cz(True), (0, 1)), Operation(Gate.cz(1), (1, 0)), Operation(Gate.cz(True), (1, 0)))
    text = same_as_dumps_circuit(Circuit(DimensionContext.of(2), (0, 1), (0, 1), (0, 1), ops))
    assert text.count('"k": true') == 2 and text.count('"k": 1\n') == 1


def test_empty_lists():
    for d in (2, 3):
        ctx = DimensionContext.of(d)
        same_as_dumps_circuit(Circuit(ctx, (), (), ()))
        same_as_dumps_circuit(Circuit(ctx, (4,), (), ()))
        same_as_dumps_circuit(Circuit(ctx, (4, 7), (4,), (), (Operation(Gate.f(), (7,)),)))
        same_as_dumps_pattern(Pattern(ctx, (), (), ()))
        same_as_dumps_pattern(Pattern(ctx, (1,), (1,), (1,)))


def test_signals_zero_and_multi_term():
    d = 3
    ctx = DimensionContext.of(d)
    zero, two = Signal.zero(d), Signal.of(d, {1: 2, 2: 1})
    seq = (
        Entangle(3, 2),
        Measure(1, (0.0,) * d, zero, zero),
        Measure(2, (0.5, 1.0, 1.5), two, zero),
        CorrectX(3, zero),
        CorrectZ(3, zero),
        CorrectX(3, two),
        CorrectZ(3, Signal.unit(d, 2)),
    )
    # Pattern drops zero corrections; put them back to reach the "{}" signal
    text = same_as_dumps_pattern(holding(ctx, (1, 2, 3), (1,), (3,), seq))
    assert '"s": {}' in text and '"t": {}' in text
    m = Measure(3, (0.1, 0.2, 0.3), Signal.unit(d, 1), two)
    same_as_dumps_pattern(holding(ctx, (1, 2, 3), (1,), (3,), (Measure(1, (0.0,) * d, zero, zero), m)))


def test_non_canonical_signal_reads_to_the_canonical_signal():
    """An ``M`` signal with unsorted keys, a label spelt "01", a coefficient
    >= d, a negative one and one past 2^64 that is 0 mod d loads to the
    canonical ``Signal`` and writes back as json.dumps bytes; a qudit spelt
    "1" and "01" in one signal is refused."""
    d = 3
    measure = {"kind": "M", "sites": [0], "theta": [0.0] * d}
    s = {"2": 7, "01": 5, "0": -1, "3": 3 * 2**64}
    doc = {
        "d": d,
        "qudits": [0, 1, 2, 3, 4, 5],
        "inputs": [],
        "outputs": [5],
        "commands": [{**measure, "sites": [q]} for q in range(4)] + [{**measure, "sites": [4], "s": s}],
    }
    p = pattern_from_json(json.dumps(doc))
    assert p.seq[-1].x_signal == Signal.of(d, {0: 2, 1: 2, 2: 1})
    assert p.seq[-1].x_signal.coeffs == ((0, 2), (1, 2), (2, 1))
    doc["commands"][-1]["s"] = {"0": 2, "1": 2, "2": 1}
    assert same_as_dumps_pattern(p) == dumped(doc)
    doc["commands"][-1]["s"] = {"1": 1, "01": 4}
    with pytest.raises(ValueError, match="^signal names a qudit by two labels, got"):
        pattern_from_json(json.dumps(doc))


def test_float_and_id_edge_cases():
    d = 4
    ctx = DimensionContext.of(d)
    ids = LARGE_IDS
    zero = Signal.zero(d)
    seq = [Entangle(ids[0], ids[1]), Entangle(ids[2], ids[3])]
    for k in range(0, len(EDGE_FLOATS), d):
        seq.append(Measure(ids[k // d], EDGE_FLOATS[k : k + d], zero, Signal.of(d, {ids[2]: 3, ids[3]: -1})))
    seq.append(CorrectX(ids[3], Signal.of(d, {ids[0]: 1, ids[1]: 2})))
    same_as_dumps_pattern(holding(ctx, ids, ids[:2], ids[2:], seq))
    mains = ids[2:]
    ops = (Operation(Gate.cz(3), mains), Operation(Gate.r(EDGE_FLOATS[4:]), (ids[3],)))
    same_as_dumps_circuit(Circuit(ctx, ids, ids[:2], mains, ops))


def test_non_finite_angles_keep_the_json_spelling():
    """A built pattern never holds NaN or infinite angles; a Measure that
    does, held past the construction check, is written as json writes it."""
    d = 3
    ctx = DimensionContext.of(d)
    theta = (math.nan, math.inf, -math.inf)
    p = holding(ctx, (1, 2), (1,), (2,), (Entangle(1, 2), Measure(1, theta, Signal.zero(d), Signal.zero(d))))
    text = same_as_dumps_pattern(p)
    assert "NaN" in text and "-Infinity" in text


def test_compose_results():
    for d in (2, 3):
        ctx = DimensionContext.of(d)
        pats = test_chains._patterns(ctx)
        for c in test_chains._circuits(ctx, pats).values():
            same_as_dumps_circuit(circuit.compose_serial(c, c))
        same_as_dumps_pattern(pattern.compose_serial(pats["def8 guni n2"], pats["def7 guni n2"]))
