import json
import math
import sys
from pathlib import Path

import pytest


sys.path.insert(0, str(Path(__file__).parent))
from helpers import counted_calls

import quditmbqc.cli as cli_module
import quditmbqc.convert as convert_module
from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import circuit_from_json, circuit_to_json, depth_and_size
from quditmbqc.cli import main
from quditmbqc.convert import clifford_constant_depth, pattern_to_fanout_circuit
from quditmbqc.generate import random_clifford_circuit
from quditmbqc.pattern import pattern_depth_and_size, run_rows
from quditmbqc.sim import AMPLITUDE_CAP

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    return main(list(argv))


def test_gen_convert_verify_roundtrip(tmp_path):
    circuit = tmp_path / "c.json"
    pattern = tmp_path / "p.json"
    report = tmp_path / "v.json"
    assert run_cli("gen", "guni", "--d", "3", "--n", "2", "--gates", "4", "--seed", "11", "--out", str(circuit)) == 0
    assert run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern)) == 0
    assert run_cli("verify", str(circuit), str(pattern), "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    assert doc["equivalent"] and doc["max_infidelity"] < 1e-9
    # symmetric in its arguments
    assert run_cli("verify", str(pattern), str(circuit), "--out", str(report)) == 0


def test_verify_flags_inequivalent_artifacts(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("gen", "guni", "--d", "2", "--n", "2", "--gates", "5", "--seed", "1", "--out", str(a)) == 0
    assert run_cli("gen", "guni", "--d", "2", "--n", "2", "--gates", "5", "--seed", "2", "--out", str(b)) == 0
    assert run_cli("verify", str(a), str(b)) == 1


def test_run_is_bit_reproducible(tmp_path):
    circuit = tmp_path / "c.json"
    pattern = tmp_path / "p.json"
    outs = [tmp_path / f"r{i}.json" for i in range(2)]
    run_cli("gen", "guni", "--d", "2", "--n", "2", "--gates", "6", "--seed", "3", "--out", str(circuit))
    run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
    for out in outs:
        assert run_cli("run", "--in", str(pattern), "--mode", "sampled", "--seed", "17", "--out", str(out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_run_forced_and_branches(tmp_path):
    circuit = tmp_path / "c.json"
    pattern = tmp_path / "p.json"
    out = tmp_path / "r.json"
    run_cli("gen", "guni", "--d", "2", "--n", "1", "--gates", "2", "--seed", "4", "--out", str(circuit))
    run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
    pat_doc = json.loads(Path(pattern).read_text())
    measured = [c["sites"][0] for c in pat_doc["commands"] if c["kind"] == "M"]
    forced = json.dumps({str(q): 0 for q in measured})
    assert run_cli("run", "--in", str(pattern), "--mode", "forced", "--outcomes", forced, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["outcomes"] == {str(q): 0 for q in measured}
    assert run_cli("run", "--in", str(pattern), "--mode", "all-branches", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert abs(sum(b["probability"] for b in doc["branches"]) - 1) < 1e-9


def test_rewrite_complete_matches_golden_bytes(tmp_path):
    for d in (2, 3):
        for case in ("generic", "clifford"):
            src = GOLDEN / f"rotation_chain_d{d}_{case}_input.json"
            want = GOLDEN / f"rotation_chain_d{d}_{case}_standard.json"
            out = tmp_path / f"out_{d}_{case}.json"
            assert run_cli("rewrite", "complete", "--in", str(src), "--out", str(out)) == 0
            assert out.read_bytes() == want.read_bytes()


def test_rewrite_single_passes_produce_valid_patterns(tmp_path):
    src = GOLDEN / "rotation_chain_d2_clifford_input.json"
    for pass_name in ("standardise", "pauli", "shift"):
        out = tmp_path / f"{pass_name}.json"
        assert run_cli("rewrite", pass_name, "--in", str(src), "--out", str(out)) == 0
        assert json.loads(out.read_text())["commands"]


def test_analyze_single_artifact(tmp_path, capsys):
    circuit = tmp_path / "c.json"
    run_cli("gen", "cascade", "--d", "2", "--n", "4", "--out", str(circuit))
    assert run_cli("analyze", "--in", str(circuit)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["depth"] == 3 and doc["size"] == 6


def test_analyze_sweep_depth_is_flat(tmp_path):
    # seed chosen so every instance engages the full compile structure; thin
    # instances can come in under the constant, never over it
    out = tmp_path / "sweep.json"
    assert run_cli("analyze", "--sweep", "2:4", "--d", "2", "--gates-per-n", "5", "--seed", "0", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    depths = {row["circuit_depth"] for row in doc["rows"]}
    assert len(depths) == 1


def test_sweep_rows_compile_one_pattern_per_n(tmp_path):
    out = tmp_path / "sweep.json"
    with counted_calls(convert_module, ("circuit_to_pattern_cluster",)) as calls:
        assert run_cli("analyze", "--sweep", "2:4", "--d", "3", "--seed", "5", "--out", str(out)) == 0
    assert len(calls.log) == 3
    ctx = DimensionContext.of(3)
    rows = []
    for n in (2, 3, 4):
        pat = clifford_constant_depth(random_clifford_circuit(ctx, n, 5 * n, 5 + n))
        prep, crep = pattern_depth_and_size(pat), depth_and_size(pattern_to_fanout_circuit(pat))
        rows.append({"n": n, "pattern_depth": prep.depth, "pattern_size": prep.size, "circuit_depth": crep.depth, "circuit_size": crep.size})
    assert json.loads(out.read_text()) == {"kind": "clifford-const-sweep", "d": 3, "rows": rows}


def test_text_format_mirrors_json(tmp_path, capsys):
    circuit = tmp_path / "c.json"
    run_cli("gen", "cascade", "--d", "2", "--n", "3", "--out", str(circuit))
    assert run_cli("analyze", "--in", str(circuit), "--format", "text") == 0
    text = capsys.readouterr().out
    assert "depth: 2" in text and "size: 4" in text


def test_text_format_nests_sections_and_tables(tmp_path, capsys):
    circuit, pattern, report = tmp_path / "c.json", tmp_path / "p.json", tmp_path / "rep.json"
    run_cli("gen", "guni", "--d", "3", "--n", "2", "--gates", "6", "--seed", "1", "--out", str(circuit))
    run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
    run_cli("analyze", "--in", str(pattern), "--out", str(report))
    doc = json.loads(report.read_text())
    capsys.readouterr()
    assert run_cli("analyze", "--in", str(pattern), "--format", "text") == 0
    lines = capsys.readouterr().out.splitlines()
    assert "" not in lines
    # a nested object is a heading with its keys indented under it
    section = lines.index("entanglement:")
    assert lines[section + 1 : section + 1 + len(doc["entanglement"])] == [f"  {k}: {v}" for k, v in doc["entanglement"].items()]
    assert f"depth: {doc['depth']}" in lines[:section]

    run_cli("analyze", "--sweep", "2:3", "--d", "2", "--seed", "0", "--out", str(report))
    rows = json.loads(report.read_text())["rows"]
    assert run_cli("analyze", "--sweep", "2:3", "--d", "2", "--seed", "0", "--format", "text") == 0
    lines = capsys.readouterr().out.splitlines()
    assert "" not in lines
    # a list of objects is a table: one header of its keys, one line per row
    table = lines.index("rows:")
    assert lines[table + 1].split() == list(rows[0])
    assert [line.split() for line in lines[table + 2 :]] == [[str(v) for v in row.values()] for row in rows]


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("run", "--in", str(bad)) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_wrong_artifact_kind_is_input_error(tmp_path):
    circuit = tmp_path / "c.json"
    run_cli("gen", "cascade", "--d", "2", "--n", "3", "--out", str(circuit))
    assert run_cli("rewrite", "complete", "--in", str(circuit)) == 2


@pytest.mark.parametrize(
    "command",
    [
        {"kind": "E", "sites": [1]},
        {"kind": "E", "sites": [1, 1]},
        {"kind": "E", "sites": [1, 2, 3]},
        {"kind": "M", "sites": [1, 2], "theta": [0.0, 0.0]},
        {"kind": "X", "sites": []},
        {"kind": "Z", "sites": [2, 3]},
    ],
)
def test_malformed_pattern_command_is_input_error(tmp_path, capsys, command):
    pattern = tmp_path / "p.json"
    doc = {"d": 2, "qudits": [1, 2, 3], "inputs": [1], "outputs": [3], "commands": [command]}
    pattern.write_text(json.dumps(doc))
    assert run_cli("run", "--in", str(pattern)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_nan_angle_is_input_error(tmp_path, capsys):
    circuit, pattern = tmp_path / "a.json", tmp_path / "p.json"
    run_cli("gen", "guni", "--d", "3", "--n", "2", "--gates", "4", "--seed", "1", "--out", str(circuit))
    run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
    doc = json.loads(circuit.read_text())
    next(op for op in doc["ops"] if "theta" in op["params"])["params"]["theta"][1] = float("nan")
    (tmp_path / "nan_c.json").write_text(json.dumps(doc))
    doc = json.loads(pattern.read_text())
    next(cmd for cmd in doc["commands"] if cmd["kind"] == "M")["theta"][1] = float("nan")
    (tmp_path / "nan_p.json").write_text(json.dumps(doc))
    capsys.readouterr()
    for bad in ("nan_c.json", "nan_p.json"):
        assert run_cli("verify", str(circuit), str(tmp_path / bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize(
    "gate, params",
    [
        ("CZ", {"k": 1, "theta": [0.0, 0.0], "v": [1]}),
        ("F", {"k": 2}),
        ("R", {"theta": [0.0, 0.0], "k": 1}),
        ("X", {"k": 1, "power": 2}),
    ],
)
def test_parameter_the_gate_does_not_read_is_input_error(tmp_path, capsys, gate, params):
    circuit = tmp_path / "c.json"
    op = {"gate": gate, "params": params, "sites": [0, 1] if gate == "CZ" else [0]}
    circuit.write_text(json.dumps({"d": 2, "qudits": [0, 1], "inputs": [0, 1], "outputs": [0, 1], "ops": [op]}))
    assert run_cli("analyze", "--in", str(circuit)) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "gate, params",
    [
        ("X", {"k": 1.7}),
        ("X", {"k": 1.0}),
        ("CZ", {"k": True}),
        ("Z", {"k": "1"}),
        ("FANOUT", {"v": [1.9, True]}),
        ("MOD", {"v": [1, 2.0]}),
        ("FANOUT", {"v": [False, 1]}),
    ],
)
def test_integer_gate_parameter_that_is_not_a_json_integer_is_input_error(tmp_path, capsys, gate, params):
    """A gate power or coefficient is refused unless it is a JSON integer;
    each was once truncated (1.7 read as 1, true as 1)."""
    arity = {"X": 1, "Z": 1, "CZ": 2, "FANOUT": 3, "MOD": 3}[gate]
    paths = []
    for name, value in (("bad", params), ("good", {key: 1 if key == "k" else [1] * (arity - 1) for key in params})):
        op = {"gate": gate, "params": value, "sites": list(range(arity))}
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"d": 3, "qudits": [0, 1, 2], "inputs": [0, 1, 2], "outputs": [0, 1, 2], "ops": [op]}))
    assert run_cli("verify", str(paths[1]), str(paths[1])) == 0
    capsys.readouterr()
    assert run_cli("verify", str(paths[0]), str(paths[1])) == 2
    key = next(iter(params))
    assert capsys.readouterr().err == f"error: {paths[0]}: {gate} parameter {key!r} must be integer(s), got {params[key]!r}\n"


def _teleport_doc(correction: dict) -> dict:
    """One teleportation step whose correction command is ``correction``."""
    commands = [{"kind": "E", "sites": [0, 1]}, {"kind": "M", "sites": [0], "theta": [0.0, 0.5, 1.0]}, correction]
    return {"d": 3, "qudits": [0, 1], "inputs": [0], "outputs": [1], "commands": commands}


@pytest.mark.parametrize(
    "correction, refusal",
    [
        # read as no signal once, so the correction was dropped and rewrite complete exited 0
        ({"kind": "Z", "sites": [1], "s": {"0": 1}}, "Z command takes no key(s) ['s']"),
        ({"kind": "X", "sites": [1], "s": {"0": 1}, "t": {"0": 1}}, "X command takes no key(s) ['t']"),
        ({"kind": "X", "sites": [1], "s": {"0": 1.5}}, "signal coefficients must be integers, got {'0': 1.5}"),
        ({"kind": "Z", "sites": [1], "t": {"0": True}}, "signal coefficients must be integers, got {'0': True}"),
        # a label is ASCII digits with an optional "-"; int() once read "1_0" as qudit 10
        ({"kind": "X", "sites": [1], "s": {"0_0": 1}}, "signal labels must be decimal qudit ids, got {'0_0': 1}"),
        ({"kind": "X", "sites": [1], "s": {" 0 ": 1}}, "signal labels must be decimal qudit ids, got {' 0 ': 1}"),
        ({"kind": "Z", "sites": [1], "t": {"+0": 1}}, "signal labels must be decimal qudit ids, got {'+0': 1}"),
        ({"kind": "Z", "sites": [1], "t": {"\u0660": 1}}, "signal labels must be decimal qudit ids, got {'\u0660': 1}"),
        # once summed, read as 2*s[0]
        ({"kind": "X", "sites": [1], "s": {"0": 1, "00": 1}}, "signal names a qudit by two labels, got {'0': 1, '00': 1}"),
    ],
)
def test_malformed_command_key_or_signal_is_input_error(tmp_path, capsys, correction, refusal):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_teleport_doc({"kind": correction["kind"], "sites": [1], "s" if correction["kind"] == "X" else "t": {"0": 1}})))
    assert run_cli("rewrite", "complete", "--in", str(good), "--out", str(tmp_path / "out.json")) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_teleport_doc(correction)))
    capsys.readouterr()
    assert run_cli("rewrite", "complete", "--in", str(bad), "--out", str(tmp_path / "bad-out.json")) == 2
    assert capsys.readouterr().err == f"error: {bad}: {refusal}\n"
    assert not (tmp_path / "bad-out.json").exists()


@pytest.mark.parametrize(
    "value, rule",
    [
        ("012", "must be a list of numbers"),  # once read character by character as (0.0, 1.0, 2.0)
        ({"0": 0, "1": 1, "2": 2}, "must be a list of numbers"),  # once read by its keys
        ([True, "0.5", 0], "must be a list of numbers"),  # once read as (1.0, 0.5, 0.0)
        ([0.0, 1.0, None], "must be a list of numbers"),
        ([10**400, 0.0, 0.0], "must be finite"),  # once an OverflowError traceback
    ],
)
@pytest.mark.parametrize("form", ["v", "DIAG", "M"])
def test_angle_vector_that_is_not_a_json_list_of_numbers_is_input_error(tmp_path, capsys, form, value, rule):
    """A v gate's theta, a DIAG gate's angles and an M's theta are JSON lists
    of integers and floats; each bad vector is checked against the same file
    with a good one, which the same command accepts."""
    docs = {}
    for name, theta in (("good", [0, 1.0, 2.5]), ("bad", value)):
        if form == "M":
            docs[name] = _teleport_doc({"kind": "X", "sites": [1], "s": {"0": 1}})
            docs[name]["commands"][1]["theta"] = theta
        else:
            op = {"gate": form, "params": {"theta" if form == "v" else "angles": theta}, "sites": [0]}
            docs[name] = {"d": 3, "qudits": [0], "inputs": [0], "outputs": [0], "ops": [op]}
        (tmp_path / f"{name}.json").write_text(json.dumps(docs[name]))
    argv = ["rewrite", "complete", "--out", str(tmp_path / "out.json")] if form == "M" else ["analyze"]
    assert run_cli(*argv, "--in", str(tmp_path / "good.json")) == 0
    capsys.readouterr()
    assert run_cli(*argv, "--in", str(tmp_path / "bad.json")) == 2
    what = {"v": "v parameter 'theta'", "DIAG": "DIAG parameter 'angles'", "M": "M command 'theta'"}[form]
    assert capsys.readouterr().err == f"error: {tmp_path / 'bad.json'}: {what} {rule}, got {value!r}\n"


def test_op_key_outside_params_is_input_error(tmp_path, capsys):
    """An op key other than gate, params and sites is refused by name: a
    power written beside params was once dropped, so X^2 read as X."""
    docs = {}
    for name, op in (("good", {"gate": "X", "params": {"k": 2}, "sites": [0]}), ("bad", {"gate": "X", "sites": [0], "k": 2})):
        docs[name] = tmp_path / f"{name}.json"
        docs[name].write_text(json.dumps({"d": 3, "qudits": [0], "inputs": [0], "outputs": [0], "ops": [op]}))
    assert run_cli("verify", str(docs["good"]), str(docs["good"])) == 0
    capsys.readouterr()
    assert run_cli("verify", str(docs["bad"]), str(docs["good"])) == 2
    assert capsys.readouterr().err == f"error: {docs['bad']}: X op takes no key(s) ['k']\n"


def test_all_branches_above_the_enumeration_cap_is_input_error(tmp_path, capsys):
    # one qutrit through 5 v gates gives 3^5 = 243 branches, through 6 gives 729
    for gates, code in ((5, 0), (6, 2)):
        circuit, pattern = tmp_path / f"c{gates}.json", tmp_path / f"p{gates}.json"
        run_cli("gen", "guni", "--d", "3", "--n", "1", "--gates", str(gates), "--seed", "1", "--out", str(circuit))
        run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
        assert run_cli("run", "--in", str(pattern), "--mode", "all-branches", "--out", str(tmp_path / "r.json")) == code
        # one rule: run refuses to enumerate exactly the patterns verify samples
        assert cli_module._samples(cli_module.load_artifact(str(pattern))) == bool(code)
    assert capsys.readouterr().err == "error: 3^6 branches exceed the cap of 256; use --mode sampled\n"


def test_verify_accepts_coherent_circuit_with_unreset_wires(tmp_path):
    # the def9 circuit leaves its measured wires in superpositions, not |0>
    circuit, pattern, coherent = tmp_path / "c.json", tmp_path / "p.json", tmp_path / "c9.json"
    run_cli("gen", "guni", "--d", "2", "--n", "2", "--gates", "6", "--seed", "3", "--out", str(circuit))
    run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
    run_cli("convert", "def9", "--in", str(pattern), "--out", str(coherent))
    assert run_cli("verify", str(circuit), str(coherent)) == 0


def test_verify_flags_output_entangled_with_an_ancilla(tmp_path):
    entangled, plain = tmp_path / "e.json", tmp_path / "f.json"
    fourier = {"gate": "F", "params": {}, "sites": [1]}
    copy = {"gate": "CX", "params": {}, "sites": [1, 2]}
    entangled.write_text(json.dumps({"d": 2, "qudits": [1, 2], "inputs": [1], "outputs": [1], "ops": [fourier, copy]}))
    plain.write_text(json.dumps({"d": 2, "qudits": [1], "inputs": [1], "outputs": [1], "ops": [fourier]}))
    assert run_cli("verify", str(entangled), str(plain)) == 1
    assert run_cli("verify", str(plain), str(entangled)) == 1


def test_output_arity_mismatch_is_input_error(tmp_path, capsys):
    circuit, fewer = tmp_path / "c.json", tmp_path / "c1.json"
    run_cli("gen", "guni", "--d", "2", "--n", "2", "--gates", "4", "--seed", "1", "--out", str(circuit))
    doc = json.loads(circuit.read_text())
    doc["outputs"] = doc["outputs"][:1]
    fewer.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(circuit), str(fewer)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output arities differ") and "Traceback" not in err


@pytest.mark.parametrize("kind", ["circuit", "pattern"])
def test_non_integer_dimension_is_input_error(tmp_path, capsys, kind):
    circuit, pattern, bad = tmp_path / "c.json", tmp_path / "p.json", tmp_path / "bad.json"
    run_cli("gen", "guni", "--d", "2", "--n", "2", "--gates", "4", "--seed", "1", "--out", str(circuit))
    run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
    doc = json.loads((circuit if kind == "circuit" else pattern).read_text())
    doc["d"] = 2.5
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("analyze", "--in", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2.5" in err and "Traceback" not in err


def test_convert_emits_report(tmp_path):
    circuit = tmp_path / "c.json"
    pattern = tmp_path / "p.json"
    compiled = tmp_path / "f.json"
    report = tmp_path / "rep.json"
    run_cli("gen", "guni", "--d", "2", "--n", "2", "--gates", "3", "--seed", "8", "--out", str(circuit))
    run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
    assert run_cli("convert", "fanout-compile", "--in", str(pattern), "--out", str(compiled), "--report", str(report)) == 0
    doc = json.loads(report.read_text())
    assert {"pattern", "circuit", "ancillas_added"} <= set(doc)
    assert doc["circuit"]["depth"] >= 1 and doc["ancillas_added"] >= 0


def test_clifford_const_to_fanout_circuit_composes_the_library_compilers(tmp_path):
    source, compiled, report = tmp_path / "cliff.json", tmp_path / "cliffcirc.json", tmp_path / "rep.json"
    run_cli("gen", "clifford", "--d", "2", "--n", "4", "--gates", "20", "--seed", "3", "--out", str(source))
    argv = ["convert", "clifford-const", "--in", str(source), "--target", "fanout-circuit", "--out", str(compiled)]
    assert run_cli(*argv, "--report", str(report)) == 0
    want = pattern_to_fanout_circuit(clifford_constant_depth(circuit_from_json(source.read_text())))
    assert compiled.read_text() == circuit_to_json(want)
    doc = json.loads(report.read_text())
    assert doc == {"kind": "circuit", "qudits": len(want.qudits), "depth": depth_and_size(want).depth, "size": depth_and_size(want).size}


def test_quick_start_fanout_artifact_verifies(tmp_path):
    circuit, pattern, compiled = tmp_path / "circuit.json", tmp_path / "pattern.json", tmp_path / "fanout.json"
    run_cli("gen", "guni", "--d", "3", "--n", "2", "--gates", "6", "--seed", "1", "--out", str(circuit))
    run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
    assert run_cli("convert", "fanout-compile", "--in", str(pattern), "--out", str(compiled)) == 0
    assert len(json.loads(compiled.read_text())["qudits"]) <= 14  # 3**14 < 2**24, so densely verifiable
    assert run_cli("verify", str(circuit), str(compiled)) == 0


def test_sweep_accepts_range_spellings(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli("analyze", "--sweep", "n=2..3", "--d", "2", "--seed", "0", "--out", str(out)) == 0
    assert len(json.loads(out.read_text())["rows"]) == 2
    assert run_cli("analyze", "--sweep", "oops") == 2
    assert run_cli("analyze", "--sweep", "3:2") == 2
    assert run_cli("analyze", "--sweep", "n=3..2") == 2


def test_gen_fanout_instance(tmp_path):
    out = tmp_path / "f.json"
    assert run_cli("gen", "fanout", "--d", "3", "--n", "4", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["ops"][0]["gate"] == "FANOUT"
    assert len(doc["qudits"]) == 5


def test_input_free_chain_runs_in_its_live_width(tmp_path):
    # 40 qudits, none of them inputs, but at most two live at once
    chain, out = tmp_path / "chain.json", tmp_path / "r.json"
    commands = []
    for q in range(39):
        commands += [
            {"kind": "E", "sites": [q, q + 1]},
            {"kind": "M", "sites": [q], "theta": [0.0, 0.3]},
            {"kind": "X", "sites": [q + 1], "s": {str(q): 1}},
        ]
    chain.write_text(json.dumps({"d": 2, "qudits": list(range(40)), "inputs": [], "outputs": [39], "commands": commands}))
    assert run_cli("run", "--in", str(chain), "--seed", "5", "--out", str(out)) == 0
    assert json.loads(out.read_text())["sites"] == [39]


def test_state_above_the_amplitude_cap_is_input_error(tmp_path, capsys):
    # 2^34 amplitudes for the circuit; 2^25 for the star pattern, whose
    # schedule appends every leaf when the centre is measured
    circuit, star, small = tmp_path / "c.json", tmp_path / "star.json", tmp_path / "s.json"
    qudits = list(range(34))
    op = {"gate": "F", "params": {}, "sites": [0]}
    circuit.write_text(json.dumps({"d": 2, "qudits": qudits, "inputs": qudits, "outputs": qudits, "ops": [op]}))
    leaves = range(1, 25)
    commands = [{"kind": "E", "sites": [0, q]} for q in leaves] + [{"kind": "M", "sites": [0], "theta": [0.0, 0.0]}]
    star.write_text(json.dumps({"d": 2, "qudits": [0, *leaves], "inputs": [], "outputs": list(leaves), "commands": commands}))
    run_cli("gen", "guni", "--d", "2", "--n", "1", "--gates", "2", "--seed", "1", "--out", str(small))
    capsys.readouterr()
    for argv in (("run", "--in", str(circuit)), ("verify", str(circuit), str(small)), ("run", "--in", str(star))):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceed the cap" in err and "Traceback" not in err


def test_verify_reports_what_it_checked(tmp_path):
    # d=3, n=2: 9 basis inputs plus 4 random states; the def7 pattern's 3^3
    # branches are enumerated, the def8 pattern's 3^7 are sampled 4 times
    circuit, report = tmp_path / "c.json", tmp_path / "v.json"
    run_cli("gen", "guni", "--d", "3", "--n", "2", "--gates", "5", "--seed", "1", "--out", str(circuit))
    expected = {"def7": {"kind": "pattern", "branches_exact": 13 * 3**3}, "def8": {"kind": "pattern", "runs_sampled": 13 * 4}}
    for kind, second in expected.items():
        pattern = tmp_path / f"{kind}.json"
        run_cli("convert", kind, "--in", str(circuit), "--out", str(pattern))
        assert run_cli("verify", str(circuit), str(pattern), "--out", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["equivalent"] and doc["max_infidelity"] < 1e-9
        assert doc["inputs"] == 13
        assert doc["first"] == {"kind": "circuit", "branches_exact": 13}
        assert doc["second"] == second


def test_verify_is_unchanged_when_batches_split(tmp_path, monkeypatch):
    # with the cap at the widest single row the pattern side runs its widest
    # steps one row at a time and verify takes one input per batch; the
    # verdict and the coverage stay the same
    import quditmbqc.cli as cli_module
    import quditmbqc.sim as sim_module
    from quditmbqc.cli import load_artifact, verify_equivalent
    from quditmbqc.pattern import peak_live_qudits

    circuit = tmp_path / "c.json"
    run_cli("gen", "guni", "--d", "3", "--n", "2", "--gates", "5", "--seed", "1", "--out", str(circuit))
    for kind in ("def7", "def8"):
        pattern = tmp_path / f"{kind}.json"
        run_cli("convert", kind, "--in", str(circuit), "--out", str(pattern))
        c, p = load_artifact(str(circuit)), load_artifact(str(pattern))
        worst, coverage = verify_equivalent(c, p, seed=3)
        batches = []
        with monkeypatch.context() as patch:
            patch.setattr(sim_module, "AMPLITUDE_CAP", 3 ** peak_live_qudits(p))
            patch.setattr(cli_module, "run_rows", lambda p, inputs, **kw: batches.append(len(inputs)) or run_rows(p, inputs, **kw))
            split_worst, split_coverage = verify_equivalent(c, p, seed=3)
        assert len(batches) == 13 and set(batches) == {4 if kind == "def8" else 1}
        assert split_coverage == coverage
        assert abs(split_worst - worst) < 1e-12


def test_verify_builds_every_input_once_in_order(monkeypatch):
    # the d^n basis states, then the random states drawn from the seed, in
    # one group or one input per group
    import numpy as np

    import quditmbqc.cli as cli_module
    import quditmbqc.sim as sim_module
    from quditmbqc.algebra import DimensionContext
    from quditmbqc.cli import verify_equivalent
    from quditmbqc.generate import random_guni_circuit

    ctx = DimensionContext.of(3)
    c = random_guni_circuit(ctx, 2, 3, seed=1)
    rng = np.random.default_rng(3)
    want = np.vstack([np.eye(9), [sim_module.random_state(ctx, range(2), rng).amplitudes for _ in range(4)]])
    output_rows = cli_module._output_rows
    for cap, groups in ((sim_module.AMPLITUDE_CAP, 1), (1, 13)):
        seen = []
        monkeypatch.setattr(sim_module, "AMPLITUDE_CAP", cap)
        monkeypatch.setattr(cli_module, "_output_rows", lambda x, inputs, seed: seen.append(inputs) or output_rows(x, inputs, seed))
        worst, coverage = verify_equivalent(c, c, seed=3)
        assert len(seen) == 2 * groups and all(np.array_equal(x, y) for x, y in zip(seen[::2], seen[1::2]))
        assert np.array_equal(np.vstack(seen[::2]), want)
        assert worst < 1e-12 and coverage["inputs"] == 13


def test_main_builds_one_parser_and_parses_each_call_afresh(tmp_path, monkeypatch):
    import argparse

    parsers, parse = [], argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", lambda self, *a, **k: parsers.append(self) or parse(self, *a, **k))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("gen", "guni", "--d", "2", "--n", "2", "--gates", "5", "--seed", "1", "--out", str(a)) == 0
    assert run_cli("gen", "guni", "--d", "2", "--n", "2", "--gates", "5", "--seed", "2", "--out", str(b)) == 0
    # a tolerance above any infidelity passes the inequivalent pair, and
    # does not carry over into the next call
    assert run_cli("verify", str(a), str(b), "--tol", "2") == 0
    assert run_cli("verify", str(a), str(b)) == 1
    assert len(parsers) == 4 and all(p is parsers[0] for p in parsers)


def test_convert_takes_no_seed(tmp_path, capsys):
    circuit = tmp_path / "c.json"
    run_cli("gen", "guni", "--d", "2", "--n", "1", "--gates", "2", "--seed", "1", "--out", str(circuit))
    with pytest.raises(SystemExit) as exc:
        run_cli("convert", "def7", "--in", str(circuit), "--seed", "1")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 1" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["def7", "def8", "def9", "fanout-compile"])
def test_fanout_target_outside_clifford_const_is_input_error(tmp_path, capsys, kind):
    circuit, pattern, out = tmp_path / "c.json", tmp_path / "p.json", tmp_path / "out.json"
    run_cli("gen", "guni", "--d", "2", "--n", "2", "--gates", "4", "--seed", "1", "--out", str(circuit))
    run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
    source = circuit if kind in ("def7", "def8") else pattern
    capsys.readouterr()
    assert run_cli("convert", kind, "--in", str(source), "--target", "fanout-circuit", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def _def7_pattern_doc(tmp_path) -> dict:
    circuit, pattern = tmp_path / "c.json", tmp_path / "p.json"
    run_cli("gen", "guni", "--d", "3", "--n", "2", "--gates", "4", "--seed", "1", "--out", str(circuit))
    run_cli("convert", "def7", "--in", str(circuit), "--out", str(pattern))
    return json.loads(pattern.read_text())


def _assert_input_error(capsys, *argv):
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


@pytest.mark.parametrize("key", ["s", "t"])
def test_signal_that_is_not_an_object_is_input_error(tmp_path, capsys, key):
    doc = _def7_pattern_doc(tmp_path)
    next(cmd for cmd in doc["commands"] if cmd["kind"] == "M")[key] = [1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    _assert_input_error(capsys, "analyze", "--in", str(bad))


@pytest.mark.parametrize("key, value", [("inputs", [1]), ("outputs", {}), ("qudits", [])])
def test_qudit_ids_that_are_not_integers_are_input_error(tmp_path, capsys, key, value):
    doc = _def7_pattern_doc(tmp_path)
    doc[key][-1] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    _assert_input_error(capsys, "verify", str(bad), str(bad))


@pytest.mark.parametrize(
    "argv",
    [["convert", "def7"], ["convert", "def8"], ["convert", "clifford-const"], ["analyze"], ["run"], ["verify"]],
)
def test_circuit_qudit_ids_that_are_not_integers_are_input_error(tmp_path, capsys, argv):
    circuit = tmp_path / "c.json"
    cz = {"gate": "CZ", "params": {"k": 1}, "sites": ["a", "b"]}
    circuit.write_text(json.dumps({"d": 2, "qudits": ["a", "b"], "inputs": ["a", "b"], "outputs": ["a", "b"], "ops": [cz]}))
    args = [str(circuit), str(circuit)] if argv == ["verify"] else ["--in", str(circuit)]
    _assert_input_error(capsys, *argv, *args)


@pytest.mark.parametrize(
    "argv", [["convert", "def9"], ["convert", "fanout-compile"], ["rewrite", "complete"], ["run"], ["verify"]]
)
def test_pattern_with_a_repeated_input_is_input_error(tmp_path, capsys, argv):
    doc = _def7_pattern_doc(tmp_path)
    doc["inputs"] = [doc["inputs"][0]] * len(doc["inputs"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    args = [str(bad), str(bad)] if argv == ["verify"] else ["--in", str(bad)]
    _assert_input_error(capsys, *argv, *args)


def test_circuit_with_a_repeated_output_is_input_error(tmp_path, capsys):
    circuit = tmp_path / "c.json"
    run_cli("gen", "guni", "--d", "3", "--n", "2", "--gates", "4", "--seed", "1", "--out", str(circuit))
    doc = json.loads(circuit.read_text())
    doc["outputs"] = [2, 2]
    circuit.write_text(json.dumps(doc))
    _assert_input_error(capsys, "run", "--in", str(circuit))


@pytest.mark.parametrize("outcomes", ["[1]", '{"1": [0]}', "3"])
def test_forced_outcomes_that_are_not_an_object_are_input_error(tmp_path, capsys, outcomes):
    pattern = tmp_path / "p.json"
    pattern.write_text(json.dumps(_def7_pattern_doc(tmp_path)))
    _assert_input_error(capsys, "run", "--in", str(pattern), "--mode", "forced", "--outcomes", outcomes)


@pytest.mark.parametrize(
    "spelled, refusal",
    [
        (lambda ms: {f"0_{q}": 0 for q in ms}, "--outcomes keys must be decimal qudit ids"),
        (lambda ms: {f" {q} ": 0 for q in ms}, "--outcomes keys must be decimal qudit ids"),
        (lambda ms: {str(q): 0 for q in ms} | {"x": 0}, "--outcomes keys must be decimal qudit ids"),
        (lambda ms: {str(q): 0 for q in ms} | {f"0{ms[0]}": 1}, "--outcomes names a qudit by two keys"),
    ],
    ids=["underscore", "spaces", "not-a-number", "one-qudit-twice"],
)
def test_forced_outcome_keys_are_read_as_signal_labels_are(tmp_path, capsys, spelled, refusal):
    """Each key is a decimal qudit id, once per qudit; the same outcomes under
    plain integer keys run."""
    doc = _def7_pattern_doc(tmp_path)
    pattern = tmp_path / "p.json"
    pattern.write_text(json.dumps(doc))
    measured = [cmd["sites"][0] for cmd in doc["commands"] if cmd["kind"] == "M"]
    argv = ("run", "--in", str(pattern), "--mode", "forced", "--outcomes")
    assert run_cli(*argv, json.dumps({str(q): 0 for q in measured}), "--out", str(tmp_path / "r.json")) == 0
    err = _assert_input_error(capsys, *argv, json.dumps(spelled(measured)))
    assert err.count("\n") == 1 and refusal in err


@pytest.mark.parametrize(
    "spelled, refusal",
    [
        # once read mod d: 3 as 0, 4 as 1 and -1 as 2 at d = 3
        (lambda ms: {str(q): 0 for q in ms} | {str(ms[0]): 3}, "forced outcomes must be dits in 0..2, got {"),
        (lambda ms: {str(q): 0 for q in ms} | {str(ms[-1]): -1}, "forced outcomes must be dits in 0..2, got {"),
        # once dropped without a word
        (lambda ms: {str(q): 0 for q in ms} | {"99": 1}, "forced outcomes name qudits [99] that the pattern does not measure"),
        (lambda ms: {}, "forced mode needs an outcome for qudit "),
    ],
    ids=["past-d", "negative", "unmeasured", "none"],
)
def test_forced_outcomes_outside_the_pattern_are_input_error(tmp_path, capsys, spelled, refusal):
    doc = _def7_pattern_doc(tmp_path)
    assert doc["d"] == 3
    pattern = tmp_path / "p.json"
    pattern.write_text(json.dumps(doc))
    measured = [cmd["sites"][0] for cmd in doc["commands"] if cmd["kind"] == "M"]
    argv = ("run", "--in", str(pattern), "--mode", "forced", "--outcomes")
    assert run_cli(*argv, json.dumps({str(q): 0 for q in measured}), "--out", str(tmp_path / "r.json")) == 0
    err = _assert_input_error(capsys, *argv, json.dumps(spelled(measured)))
    assert err.count("\n") == 1 and refusal in err


def _malformed_pattern(tmp_path, fault: str) -> Path:
    """The def7 pattern with every M moved after the corrections (a signal
    reads an outcome before its measurement), or with an output repeated."""
    doc = _def7_pattern_doc(tmp_path)
    if fault == "forward-signal":
        measures = [cmd for cmd in doc["commands"] if cmd["kind"] == "M"]
        assert any(cmd["kind"] in "XZ" for cmd in doc["commands"])
        doc["commands"] = [cmd for cmd in doc["commands"] if cmd["kind"] != "M"] + measures
    else:
        doc["outputs"] = [doc["outputs"][0]] * len(doc["outputs"])
    bad = tmp_path / f"{fault}.json"
    bad.write_text(json.dumps(doc))
    return bad


@pytest.mark.parametrize("fault", ["forward-signal", "repeated-output"])
@pytest.mark.parametrize(
    "argv",
    [
        ["rewrite", "standardise"],
        ["rewrite", "pauli"],
        ["rewrite", "shift"],
        ["rewrite", "complete"],
        ["run"],
        ["analyze"],
        ["convert", "def9"],
        ["convert", "fanout-compile"],
        ["verify"],
    ],
)
def test_every_subcommand_refuses_a_malformed_pattern_at_load(tmp_path, capsys, argv, fault):
    bad = _malformed_pattern(tmp_path, fault)
    out = tmp_path / "out.json"
    args = [str(bad), str(bad)] if argv == ["verify"] else ["--in", str(bad), "--out", str(out)]
    capsys.readouterr()
    assert run_cli(*argv, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_verify_reduces_a_gate_power_past_int64(tmp_path):
    # X^(10^20) then F, held together as one product of gate matrices, against X^(10^20 mod 3) then F
    paths = []
    for k in (10**20, 10**20 % 3):
        x, f = {"gate": "X", "params": {"k": k}, "sites": [0]}, {"gate": "F", "params": {}, "sites": [0]}
        path = tmp_path / f"x{k}.json"
        path.write_text(json.dumps({"d": 3, "qudits": [0], "inputs": [0], "outputs": [0], "ops": [x, f]}))
        paths.append(str(path))
    assert run_cli("verify", *paths) == 0


def test_clifford_const_refuses_a_guni_circuit_by_its_gate_set_message(tmp_path, capsys):
    circuit = tmp_path / "c.json"
    run_cli("gen", "guni", "--d", "3", "--n", "2", "--gates", "6", "--seed", "1", "--out", str(circuit))
    capsys.readouterr()
    assert run_cli("convert", "clifford-const", "--in", str(circuit)) == 2
    assert capsys.readouterr().err == "error: gate v is not a Clifford gate\n"


# 4096: the largest d whose d x d frame or Fourier matrix fits one capped state
EDGE = math.isqrt(AMPLITUDE_CAP)


def _refusing_builders(monkeypatch):
    """Make every builder a refused input would reach raise, so a refusal must come first."""
    def built(*args):
        raise AssertionError("built an artifact for a refused dimension")

    for name in ("random_guni_circuit", "random_clifford_circuit", "cascade_circuit", "_circuit_from_doc", "_pattern_from_doc"):
        monkeypatch.setattr(cli_module, name, built)


@pytest.mark.parametrize("argv", [["gen", "guni"], ["gen", "cascade"], ["analyze", "--sweep", "2:3"]])
def test_dimension_past_the_cap_is_refused_before_building(capsys, monkeypatch, argv):
    _refusing_builders(monkeypatch)
    capsys.readouterr()
    assert run_cli(*argv, "--d", str(EDGE + 1)) == 2
    err = capsys.readouterr().err
    assert err == f"error: dimension {EDGE + 1}: {EDGE + 1}^2 amplitudes exceed the cap of {AMPLITUDE_CAP}\n"


@pytest.mark.parametrize("argv", [["convert", "def7"], ["analyze"], ["verify"]])
@pytest.mark.parametrize("key", ["ops", "commands"])
def test_artifact_dimension_past_the_cap_is_refused_at_load(tmp_path, capsys, monkeypatch, argv, key):
    # one F gate (or one E command): lowering F alone would build a d-long angle vector
    bad = tmp_path / "big.json"
    entry = {"gate": "F", "params": {}, "sites": [0]} if key == "ops" else {"kind": "E", "sites": [0, 1]}
    bad.write_text(json.dumps({"d": EDGE + 1, "qudits": [0, 1], "inputs": [0, 1], "outputs": [0, 1], key: [entry]}))
    _refusing_builders(monkeypatch)
    capsys.readouterr()
    assert run_cli(*argv, *([str(bad)] * 2 if argv == ["verify"] else ["--in", str(bad)])) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: dimension {EDGE + 1}: {EDGE + 1}^2 amplitudes exceed the cap of {AMPLITUDE_CAP}\n"


def test_dimension_at_the_cap_is_accepted(tmp_path, capsys):
    cascade = tmp_path / "cascade.json"
    assert run_cli("gen", "cascade", "--d", str(EDGE), "--n", "3", "--out", str(cascade)) == 0
    assert json.loads(cascade.read_text())["d"] == EDGE
    capsys.readouterr()
    assert run_cli("analyze", "--in", str(cascade)) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "circuit", "qudits": 3, "depth": 2, "size": 4}


@pytest.mark.parametrize("sweep", ["0:0", "-2:0", "n=0..1"])
def test_sweep_below_one_qudit_is_refused(capsys, monkeypatch, sweep):
    _refusing_builders(monkeypatch)
    capsys.readouterr()
    assert run_cli("analyze", f"--sweep={sweep}", "--d", "2") == 2
    assert capsys.readouterr().err == f"error: bad sweep range {sweep!r}; use LO:HI or n=LO..HI\n"


CAP = cli_module.BUILD_CAP


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "guni", "--n", "{}"],
        ["gen", "clifford", "--gates", "{}"],
        ["gen", "cascade", "--n", "{}"],
        ["analyze", "--sweep", "1:1", "--gates-per-n", "{}"],
    ],
)
def test_counts_past_the_build_cap_are_refused_by_flag(capsys, monkeypatch, argv):
    # at the cap the builder is reached (and raises here); one past, the flag refuses
    _refusing_builders(monkeypatch)
    at_cap = [a.format(CAP) for a in argv]
    with pytest.raises(AssertionError, match="built an artifact"):
        run_cli(*at_cap)
    with pytest.raises(SystemExit) as exc:
        run_cli(*[a.format(CAP + 1) for a in argv])
    assert exc.value.code == 2
    flag = argv[argv.index("{}") - 1]
    assert capsys.readouterr().err.splitlines()[-1] == f"quditmbqc {argv[0]}: error: argument {flag}: must be at most {CAP}, got {CAP + 1}"


@pytest.mark.parametrize(
    "sweep, gates_per_n, refused",
    [
        (f"1:{CAP}", 1, False),
        (f"1:{CAP + 1}", 0, True),
        (f"n=1..{CAP + 1}", 1, True),
        ("2:2", CAP // 2, False),
        ("2:2", CAP // 2 + 1, True),
    ],
)
def test_sweep_past_the_build_cap_is_refused(capsys, monkeypatch, sweep, gates_per_n, refused):
    # the sweep's largest register and its largest gate count share the cap
    _refusing_builders(monkeypatch)
    argv = ("analyze", "--sweep", sweep, "--gates-per-n", str(gates_per_n))
    if not refused:
        with pytest.raises(AssertionError, match="built an artifact"):
            run_cli(*argv)
        return
    capsys.readouterr()
    assert run_cli(*argv) == 2
    hi = int(sweep.replace("..", ":").split(":")[1])
    assert capsys.readouterr().err == f"error: a sweep to n={hi} with {gates_per_n} gates per n exceeds the cap of {CAP} qudits or gates\n"


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["gen", "guni", "--n", "0"], "argument --n: must be at least 1, got 0"),
        (["gen", "clifford", "--n", "0"], "argument --n: must be at least 1, got 0"),
        (["gen", "cascade", "--n", "-3"], "argument --n: must be at least 1, got -3"),
        (["gen", "guni", "--gates", "-1"], "argument --gates: must be at least 0, got -1"),
        (["gen", "clifford", "--gates", "-1"], "argument --gates: must be at least 0, got -1"),
        (["analyze", "--sweep", "2:3", "--gates-per-n", "-1"], "argument --gates-per-n: must be at least 0, got -1"),
        (["gen", "guni", "--n", "1", "--gates", "0"], None),
        (["analyze", "--sweep", "2:2", "--gates-per-n", "0"], None),
    ],
)
def test_counts_below_their_floor_are_refused_by_flag(capsys, monkeypatch, argv, refusal):
    if refusal is None:
        assert run_cli(*argv) == 0
        return
    _refusing_builders(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"quditmbqc {argv[0]}: error: {refusal}"


def _write_circuit(path: Path, d: int, n: int) -> Path:
    path.write_text(json.dumps({"d": d, "qudits": list(range(n)), "inputs": list(range(n)), "outputs": list(range(n)), "ops": []}))
    return path


@pytest.mark.parametrize(
    "case, refusal",
    [
        ("missing file", "missing.json: [Errno 2] No such file or directory: "),
        ("neither", "neither a circuit ('ops') nor a pattern ('commands')"),
        ("both", "both a circuit ('ops') and a pattern ('commands')"),
        ("input arities", "input arities differ: 1 vs 2"),
        ("dimensions", "dimensions differ: 2 vs 3"),
        ("no input", "analyze needs --in FILE or --sweep LO:HI"),
        ("number", "doc.json: a circuit or pattern must be a JSON object, got 5"),
        ("string", "doc.json: a circuit or pattern must be a JSON object, got 'xopsx'"),
        ("bool d", "doc.json: qudit dimension must be an integer >= 2, got True"),
        ("cascade of one", "a cascade needs at least two qudits"),
        ("ancilla def7", "conversion expects a circuit acting in place (inputs = outputs = qudits)"),
        ("ancilla clifford-const", "conversion expects a circuit acting in place (inputs = outputs = qudits)"),
        ("out in a missing directory", "missing/x.json: [Errno 2] No such file or directory: "),
        ("out is a directory", ": [Errno 21] Is a directory: "),
        ("report in a missing directory", "missing/r.json: [Errno 2] No such file or directory: "),
    ],
)
def test_cli_refusal_is_one_error_line(tmp_path, capsys, case, refusal):
    one, two, three = (_write_circuit(tmp_path / f"c{i}.json", d, n) for i, d, n in ((1, 2, 1), (2, 2, 2), (3, 3, 1)))
    doc = tmp_path / "doc.json"
    wires = {"d": 2, "qudits": [0], "inputs": [0], "outputs": [0]}
    docs = {"both": {**wires, "ops": [], "commands": []}, "number": 5, "string": "xopsx", "bool d": {**wires, "d": True, "ops": []}}
    docs["ancilla def7"] = docs["ancilla clifford-const"] = {**wires, "qudits": [0, 1], "ops": []}
    doc.write_text(json.dumps(docs.get(case, wires)))
    argv = {
        "missing file": ["analyze", "--in", str(tmp_path / "missing.json")],
        "neither": ["analyze", "--in", str(doc)],
        "both": ["analyze", "--in", str(doc)],
        "number": ["analyze", "--in", str(doc)],
        "string": ["analyze", "--in", str(doc)],
        "bool d": ["analyze", "--in", str(doc)],
        "input arities": ["verify", str(one), str(two)],
        "dimensions": ["verify", str(one), str(three)],
        "no input": ["analyze"],
        "cascade of one": ["gen", "cascade", "--n", "1"],
        "ancilla def7": ["convert", "def7", "--in", str(doc)],
        "ancilla clifford-const": ["convert", "clifford-const", "--in", str(doc)],
        "out in a missing directory": ["gen", "guni", "--out", str(tmp_path / "missing" / "x.json")],
        "out is a directory": ["gen", "guni", "--out", str(tmp_path)],
        "report in a missing directory": ["convert", "def7", "--in", str(one), "--report", str(tmp_path / "missing" / "r.json")],
    }[case]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and refusal in err and err.count("\n") == 1


@pytest.mark.parametrize("where", ["artifact", "outcomes"])
def test_json_nested_past_the_recursion_limit_is_input_error(tmp_path, capsys, where):
    if where == "artifact":
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = ("analyze", "--in", str(deep))
    else:
        pattern = tmp_path / "p.json"
        pattern.write_text(json.dumps(_def7_pattern_doc(tmp_path)))
        argv = ("run", "--in", str(pattern), "--mode", "forced", "--outcomes", "[" * 5_000)
    err = _assert_input_error(capsys, *argv)
    assert "maximum recursion depth exceeded" in err and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "1e400", "x"])
def test_tolerance_that_is_not_finite_and_non_negative_is_refused_by_flag(tmp_path, capsys, tol):
    circuit = tmp_path / "c.json"
    run_cli("gen", "guni", "--d", "2", "--n", "1", "--gates", "2", "--seed", "1", "--out", str(circuit))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", str(circuit), str(circuit), f"--tol={tol}")
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"quditmbqc verify: error: argument --tol: must be a finite number of at least 0, got {tol}"
