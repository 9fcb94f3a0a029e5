import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers import all_digit_tuples, circuit_items, longest_dependent_path, max_diff_up_to_phase, oracle_apply_gate

from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import (
    Circuit,
    Operation,
    circuit_from_json,
    circuit_to_json,
    circuit_unitary,
    compose_parallel,
    compose_serial,
    depth_and_size,
    inverse_circuit,
    lower_to_guni,
    output_rows,
    simulate_circuit,
    validate_gate_set,
)
from quditmbqc.convert import build_generalized
from quditmbqc.generate import cascade_circuit, random_guni_circuit
from quditmbqc.sim import Gate, GateName, _kernel, basis_state, fidelity_up_to_phase, gate_matrix, random_state


def ctx_of(d):
    return DimensionContext.of(d)


def oracle_unitary(c):
    """Column b: basis input b through the index-arithmetic kernels, read
    on the outputs with every other wire at 0."""
    dim = c.ctx.d ** len(c.inputs)
    ancillas = tuple(q for q in c.qudits if q not in set(c.inputs))
    others = tuple(q for q in c.qudits if q not in set(c.outputs))
    cols = []
    for digits in all_digit_tuples(c.ctx.d, len(c.inputs)):
        state = basis_state(c.ctx, c.inputs + ancillas, digits + (0,) * len(ancillas))
        for op in c.ops:
            state = oracle_apply_gate(state, op.gate, op.sites)
        cols.append(state.with_sites_order(c.outputs + others).amplitudes.reshape(dim, -1)[:, 0])
    return np.stack(cols, axis=1)


def cz_chain(ctx, pairs, n):
    qudits = tuple(range(1, n + 1))
    ops = tuple(Operation(Gate.cz(), p) for p in pairs)
    return Circuit(ctx, qudits, qudits, qudits, ops)


class TestDepthAndSize:
    def test_disjoint_then_dependent(self):
        c = cz_chain(ctx_of(2), [(1, 2), (3, 4), (2, 3)], 4)
        rep = depth_and_size(c)
        assert rep.depth == 2 and rep.size == 6

    def test_cascade_as_written(self):
        c = cascade_circuit(ctx_of(2), 4)
        rep = depth_and_size(c)
        assert rep.depth == 3
        assert rep.depth == longest_dependent_path(circuit_items(c))

    def test_single_gate(self):
        ctx = ctx_of(2)
        c = Circuit(ctx, (1,), (1,), (1,), (Operation(Gate.f(), (1,)),))
        rep = depth_and_size(c)
        assert rep.depth == 1 and rep.size == 1

    def test_witness_path_is_a_chain(self):
        c = cascade_circuit(ctx_of(3), 6)
        rep = depth_and_size(c)
        assert len(rep.longest_path) == rep.depth
        for a, b in zip(rep.longest_path, rep.longest_path[1:]):
            assert set(c.ops[a].sites) & set(c.ops[b].sites)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        c = random_guni_circuit(ctx_of(2), 4, 12, seed)
        assert depth_and_size(c).depth == longest_dependent_path(circuit_items(c))


class TestSimulate:
    @pytest.mark.parametrize("d", [2, 3])
    def test_one_row_matches_one_gate_call_per_op(self, d):
        # a fan-out circuit with ancillas, input given in reversed site order
        ctx = ctx_of(d)
        c = build_generalized(ctx, [1, d - 1, 1], "fanout")
        psi = random_state(ctx, tuple(reversed(c.inputs)), np.random.default_rng(d))
        ancillas = tuple(q for q in c.qudits if q not in set(c.inputs))
        sites = c.inputs + ancillas
        want = psi.with_sites_order(c.inputs).extend(basis_state(ctx, ancillas, [0] * len(ancillas))).amplitudes
        for op in c.ops:
            want = _kernel(want[np.newaxis], d, len(sites), op.gate, tuple(sites.index(q) for q in op.sites))
        got = simulate_circuit(c, psi)
        assert got.sites == sites
        assert np.array_equal(got.amplitudes, want)

    def test_output_rows_split_at_the_cap_match_one_batch(self, monkeypatch):
        import quditmbqc.sim as sim_module

        ctx = ctx_of(3)
        c = build_generalized(ctx, [1, 2], "fanout")
        rng = np.random.default_rng(5)
        inputs = np.array([random_state(ctx, c.inputs, rng).amplitudes for _ in range(5)])
        whole = output_rows(c, inputs)
        # the ancillas return to |0>, so each row is the unitary's image up to phase
        images = inputs @ circuit_unitary(c).T
        assert np.max(np.abs(np.abs(np.sum(whole.conj() * images, axis=1)) - 1)) < 1e-12
        # one row per part
        monkeypatch.setattr(sim_module, "AMPLITUDE_CAP", 3 ** len(c.qudits))
        assert np.max(np.abs(output_rows(c, inputs) - whole)) < 1e-12

    def test_empty_circuit_is_identity(self):
        ctx = ctx_of(3)
        rng = np.random.default_rng(0)
        c = Circuit(ctx, (1, 2), (1, 2), (1, 2), ())
        psi = random_state(ctx, (1, 2), rng)
        assert fidelity_up_to_phase(simulate_circuit(c, psi), psi) > 1 - 1e-12

    def test_ancillas_prepared_in_zero(self):
        ctx = ctx_of(2)
        c = Circuit(ctx, (1, 2), (1,), (1,), ())
        final = simulate_circuit(c, basis_state(ctx, (1,), (1,)))
        assert fidelity_up_to_phase(final, basis_state(ctx, (1, 2), (1, 0))) > 1 - 1e-12

    def test_matches_matrix_chain(self):
        ctx = ctx_of(3)
        rng = np.random.default_rng(1)
        c = random_guni_circuit(ctx, 2, 5, seed=12)
        u = np.eye(9, dtype=complex)
        for op in c.ops:
            m = gate_matrix(op.gate, ctx)
            if op.gate.arity == 1:
                which = c.qudits.index(op.sites[0])
                m = np.kron(m, np.eye(3)) if which == 0 else np.kron(np.eye(3), m)
            elif op.sites == (2, 1):
                sw = gate_matrix(Gate.swap(), ctx)
                m = sw @ m @ sw
            u = m @ u
        assert max_diff_up_to_phase(u, circuit_unitary(c)) < 1e-9

    def test_unitary_rejects_dirty_ancillas(self):
        ctx = ctx_of(2)
        c = Circuit(ctx, (1, 2), (1,), (1,), (Operation(Gate.cx(), (1, 2)),))
        with pytest.raises(ValueError):
            circuit_unitary(c)

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_matches_the_oracle_whole_or_one_row_per_part(self, d, monkeypatch):
        import quditmbqc.circuit as circuit_module
        import quditmbqc.sim as sim_module

        ctx = ctx_of(d)
        guni = random_guni_circuit(ctx, 3, 8, seed=d)
        # ancillas, and output wires in another order than the inputs
        for c in (build_generalized(ctx, [1, d - 1, 1], "fanout"), replace(guni, outputs=guni.outputs[::-1])):
            whole = circuit_unitary(c)
            assert np.max(np.abs(whole - oracle_unitary(c))) < 1e-12
            rows, simulate = [], circuit_module._simulate_rows
            monkeypatch.setattr(circuit_module, "_simulate_rows", lambda c, part: rows.append(len(part)) or simulate(c, part))
            monkeypatch.setattr(sim_module, "AMPLITUDE_CAP", d ** len(c.qudits))
            assert np.max(np.abs(circuit_unitary(c) - whole)) < 1e-12
            assert rows == [1] * d ** len(c.inputs)
            monkeypatch.undo()

    def test_residue_names_the_first_failing_basis_input(self, monkeypatch):
        import quditmbqc.sim as sim_module

        # CX from the first input onto an ancilla leaves it at |0> exactly
        # while the first input digit is 0, i.e. for basis inputs 0, 1 and 2
        ctx = ctx_of(3)
        c = Circuit(ctx, (1, 2, 3), (1, 2), (1, 2), (Operation(Gate.cx(), (1, 3)),))
        message = r"ancillas do not return to \|0> \(residue 1\.000e\+00\) on basis input 3$"
        with pytest.raises(ValueError, match=message):
            circuit_unitary(c)
        # two rows per part: input 3 is the second row of the second part
        monkeypatch.setattr(sim_module, "AMPLITUDE_CAP", 2 * 3**3)
        with pytest.raises(ValueError, match=message):
            circuit_unitary(c)


class TestCompose:
    def test_serial_same_wire_depth_adds(self):
        ctx = ctx_of(2)
        one = Circuit(ctx, (1,), (1,), (1,), (Operation(Gate.f(), (1,)),))
        assert depth_and_size(compose_serial(one, one)).depth == 2

    def test_parallel_depth_is_max_and_sizes_add(self):
        ctx = ctx_of(2)
        a = cascade_circuit(ctx, 4)  # depth 3, size 6
        b_ops = tuple(Operation(Gate.cz(), (10, 11)) for _ in range(5))
        b = Circuit(ctx, (10, 11), (10, 11), (10, 11), b_ops)  # depth 5
        both = compose_parallel(b, a)
        rep = depth_and_size(both)
        assert rep.depth == 5
        assert rep.size == depth_and_size(a).size + depth_and_size(b).size

    def test_serial_relabels_and_matches_product(self):
        ctx = ctx_of(2)
        rng = np.random.default_rng(2)
        c0 = random_guni_circuit(ctx, 2, 4, seed=3)
        c1 = random_guni_circuit(ctx, 2, 4, seed=4)
        both = compose_serial(c1, c0)
        assert max_diff_up_to_phase(circuit_unitary(c1) @ circuit_unitary(c0), circuit_unitary(both)) < 1e-9

    def test_parallel_rejects_overlap(self):
        ctx = ctx_of(2)
        c = cascade_circuit(ctx, 2)
        with pytest.raises(ValueError):
            compose_parallel(c, c)

    def test_serial_rejects_arity_mismatch(self):
        ctx = ctx_of(2)
        with pytest.raises(ValueError):
            compose_serial(cascade_circuit(ctx, 3), cascade_circuit(ctx, 2))


class TestLowering:
    def test_fourier_becomes_single_rotation(self):
        ctx = ctx_of(3)
        c = Circuit(ctx, (1,), (1,), (1,), (Operation(Gate.f(), (1,)),))
        low = lower_to_guni(c)
        assert len(low.ops) == 1
        assert low.ops[0].gate == Gate.v((0.0, 0.0, 0.0))

    def test_cx_lowering_reproduces_matrix_d3(self):
        ctx = ctx_of(3)
        c = Circuit(ctx, (1, 2), (1, 2), (1, 2), (Operation(Gate.cx(), (1, 2)),))
        assert max_diff_up_to_phase(gate_matrix(Gate.cx(), ctx), circuit_unitary(lower_to_guni(c))) < 1e-9

    def test_idempotent_on_lowered(self):
        c = random_guni_circuit(ctx_of(2), 2, 6, seed=5)
        low = lower_to_guni(c)
        assert lower_to_guni(low).ops == low.ops

    @pytest.mark.parametrize("d", [2, 3])
    def test_preserves_unitary_on_mixed_circuits(self, d):
        ctx = ctx_of(d)
        rng = np.random.default_rng(d)
        builders = [
            lambda: Gate.f(),
            lambda: Gate.finv(),
            lambda: Gate.p(),
            lambda: Gate.x(int(rng.integers(1, d))),
            lambda: Gate.z(int(rng.integers(1, d))),
            lambda: Gate.swap(),
            lambda: Gate.cz(int(rng.integers(1, d))),
            lambda: Gate.cx(int(rng.integers(1, d))),
            lambda: Gate.r(tuple(rng.uniform(0, 2, d))),
            lambda: Gate.fanout(tuple(rng.integers(d, size=2))),
            lambda: Gate.mod(tuple(rng.integers(d, size=2))),
            lambda: Gate.diag(tuple(rng.uniform(0, 2, d))),
            lambda: Gate.v(tuple(rng.uniform(0, 2, d))),
        ]
        qudits = (1, 2, 3)
        ops = []
        for _ in range(20):
            g = builders[rng.integers(len(builders))]()
            sites = tuple(int(x) + 1 for x in rng.choice(3, size=g.arity, replace=False))
            ops.append(Operation(g, sites))
        c = Circuit(ctx, qudits, qudits, qudits, tuple(ops))
        low = lower_to_guni(c)
        assert all(op.gate.name in (GateName.CZ, GateName.V) for op in low.ops)
        assert max_diff_up_to_phase(circuit_unitary(c), circuit_unitary(low)) < 1e-9

    def test_inverse_circuit(self):
        ctx = ctx_of(3)
        c = random_guni_circuit(ctx, 2, 6, seed=8)
        round_trip = compose_serial(inverse_circuit(c), c)
        assert max_diff_up_to_phase(np.eye(9), circuit_unitary(round_trip)) < 1e-9


class TestGateSetValidation:
    def test_standard_model_flags_wide_gates(self):
        ctx = ctx_of(2)
        wide = Operation(Gate.fanout((1, 1, 1)), (1, 2, 3, 4))
        c = Circuit(ctx, (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4), (wide,))
        assert validate_gate_set(c, "standard")
        assert not validate_gate_set(c, "fanout")

    def test_fanout_model_still_bounds_other_gates(self):
        ctx = ctx_of(2)
        c = cascade_circuit(ctx, 3)
        assert not validate_gate_set(c, "standard")
        assert not validate_gate_set(c, "fanout", max_arity=1) == []


class TestJson:
    def test_round_trip(self):
        c = random_guni_circuit(ctx_of(3), 3, 8, seed=9)
        again = circuit_from_json(circuit_to_json(c))
        assert again == c

    def test_round_trip_exotic_gates(self):
        ctx = ctx_of(3)
        ops = (
            Operation(Gate.fanout((2, 1)), (1, 2, 3)),
            Operation(Gate.mod((1, 1)), (3, 1, 2)),
            Operation(Gate.diag((0.1, 0.2, 0.3)), (2,)),
            Operation(Gate.x(2), (1,)),
        )
        c = Circuit(ctx, (1, 2, 3), (1, 2, 3), (1, 2, 3), ops)
        assert circuit_from_json(circuit_to_json(c)) == c

    def test_serialization_is_stable(self):
        c = random_guni_circuit(ctx_of(2), 2, 5, seed=10)
        assert circuit_to_json(c) == circuit_to_json(circuit_from_json(circuit_to_json(c)))
