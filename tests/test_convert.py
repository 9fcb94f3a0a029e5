import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers import (
    max_diff_up_to_phase,
    oracle_apply_gate,
    phase_poly_equivalent,
    random_controlled_pauli_circuit,
)

from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import (
    Circuit,
    Operation,
    circuit_unitary,
    depth_and_size,
    lower_to_guni,
    simulate_circuit,
)
from quditmbqc.convert import (
    _cx_inverse,
    _normalize_controlled_pauli,
    basic_cz_pattern,
    basic_v_pattern,
    build_fanout,
    build_generalized,
    circuit_to_pattern_cluster,
    circuit_to_pattern_standard,
    clifford_constant_depth,
    controlled_pauli_constant_depth,
    insert_fourier_breaks,
    parallelize_commuting,
    pattern_to_circuit_coherent,
    pattern_to_fanout_circuit,
)
from quditmbqc.generate import random_clifford_circuit, random_guni_circuit
from quditmbqc.pattern import (
    CorrectX,
    Entangle,
    Measure,
    Pattern,
    Signal,
    entanglement_graph,
    run_branches,
)
from quditmbqc.rewrite import is_completely_standard
from quditmbqc.sim import (
    Gate,
    GateName,
    StateVector,
    basis_state,
    fidelity_up_to_phase,
    gate_matrix,
    purity,
    random_state,
    reduced_density_matrix,
)


def ctx_of(d):
    return DimensionContext.of(d)


def one_gate_circuit(ctx, gate, sites, qudits):
    return Circuit(ctx, qudits, qudits, qudits, (Operation(gate, sites),))


class TestCircuitToPattern:
    def test_single_rotation_gives_exact_teleport_pattern(self):
        ctx = ctx_of(2)
        theta = (0.3, 1.2)
        c = one_gate_circuit(ctx, Gate.v(theta), (1,), (1,))
        pat = circuit_to_pattern_standard(c)
        assert pat == basic_v_pattern(ctx, 1, 2, theta)

    def test_single_entangler_is_measurement_free(self):
        ctx = ctx_of(3)
        c = one_gate_circuit(ctx, Gate.cz(), (1, 2), (1, 2))
        pat = circuit_to_pattern_standard(c)
        assert pat.seq == (Entangle(1, 2),)
        assert pat.measured_qudits() == ()

    def test_three_rotation_chain_matches_composite(self):
        ctx = ctx_of(2)
        thetas = [(0.1, 0.2), (0.4, 0.5), (0.7, 0.8)]
        ops = tuple(Operation(Gate.v(t), (1,)) for t in thetas)
        c = Circuit(ctx, (1,), (1,), (1,), ops)
        raw = circuit_to_pattern_standard(c, standardise=False)
        assert raw.qudits == (1, 2, 3, 4)
        assert raw.inputs == (1,) and raw.outputs == (4,)
        assert raw.seq == (
            Entangle(1, 2),
            Measure(1, thetas[0], Signal.zero(2), Signal.zero(2)),
            CorrectX(2, Signal.unit(2, 1)),
            Entangle(2, 3),
            Measure(2, thetas[1], Signal.zero(2), Signal.zero(2)),
            CorrectX(3, Signal.unit(2, 2)),
            Entangle(3, 4),
            Measure(3, thetas[2], Signal.zero(2), Signal.zero(2)),
            CorrectX(4, Signal.unit(2, 3)),
        )

    def test_rejects_foreign_gates(self):
        ctx = ctx_of(2)
        with pytest.raises(ValueError):
            circuit_to_pattern_standard(one_gate_circuit(ctx, Gate.f(), (1,), (1,)))

    @pytest.mark.parametrize("d,seed", [(2, 0), (3, 1)])
    def test_run_equivalent_on_random_circuits(self, d, seed):
        ctx = ctx_of(d)
        circ = random_guni_circuit(ctx, 2, 4, seed)
        pat = circuit_to_pattern_standard(lower_to_guni(circ))
        u = circuit_unitary(circ)
        rng = np.random.default_rng(seed + 9)
        for trial in range(2):
            psi = random_state(ctx, circ.inputs, rng)
            want = u @ psi.with_sites_order(circ.inputs).amplitudes
            for b in run_branches(pat, psi):
                got = b.state.with_sites_order(pat.outputs).amplitudes
                assert abs(abs(np.vdot(want, got)) - 1) < 1e-9


    def test_conversions_validate_the_pattern_and_the_result_once(self, monkeypatch):
        import quditmbqc.pattern as pattern_module

        validate = pattern_module.validate
        calls = []
        monkeypatch.setattr(pattern_module, "validate", lambda p: calls.append(p) or validate(p))
        circ = lower_to_guni(random_guni_circuit(ctx_of(2), 2, 4, 0))
        for convert in (circuit_to_pattern_standard, circuit_to_pattern_cluster):
            calls.clear()
            pat = convert(circ)
            assert len(calls) == 2 and calls[-1] == pat
        calls.clear()
        circuit_to_pattern_standard(circ, standardise=False)
        assert len(calls) == 1


class TestClusterConversion:
    def test_breaks_inserted_between_consecutive_entanglers(self):
        ctx = ctx_of(2)
        ops = (Operation(Gate.cz(), (1, 2)), Operation(Gate.cz(), (2, 3)))
        c = Circuit(ctx, (1, 2, 3), (1, 2, 3), (1, 2, 3), ops)
        broken = insert_fourier_breaks(c)
        kinds = [(op.gate.name, op.sites) for op in broken.ops]
        assert kinds == [
            (GateName.CZ, (1, 2)),
            (GateName.F, (2,)),
            (GateName.F, (2,)),
            (GateName.F, (2,)),
            (GateName.F, (2,)),
            (GateName.CZ, (2, 3)),
        ]
        pat = circuit_to_pattern_cluster(c)
        assert entanglement_graph(pat).max_degree() <= 3

    def test_no_consecutive_entanglers_matches_standard_conversion(self):
        ctx = ctx_of(2)
        ops = (
            Operation(Gate.v((0.2, 0.4)), (1,)),
            Operation(Gate.cz(), (1, 2)),
            Operation(Gate.v((0.5, 0.1)), (2,)),
        )
        c = Circuit(ctx, (1, 2), (1, 2), (1, 2), ops)
        assert circuit_to_pattern_cluster(c) == circuit_to_pattern_standard(c)

    def test_ten_gate_clifford_independent_measurements(self):
        ctx = ctx_of(3)
        circ = random_clifford_circuit(ctx, 2, 10, seed=3)
        pat = circuit_to_pattern_cluster(lower_to_guni(circ))
        assert is_completely_standard(pat)
        assert all(m.is_independent() for m in pat.seq if isinstance(m, Measure))
        assert entanglement_graph(pat).max_degree() <= 3
        u = circuit_unitary(circ)
        from quditmbqc.pattern import run

        for digits in [(0, 0), (1, 2)]:
            psi = basis_state(ctx, circ.inputs, digits)
            want = u @ psi.amplitudes
            for seed in range(3):  # deterministic pattern: any branch agrees
                b = run(pat, psi, mode="sampled", seed=seed, lazy=True)
                got = b.state.with_sites_order(pat.outputs).amplitudes
                assert abs(abs(np.vdot(want, got)) - 1) < 1e-9


class TestCoherentConversion:
    def test_teleport_pattern_becomes_four_gates(self):
        ctx = ctx_of(2)
        theta = (0.9, 0.3)
        coh = pattern_to_circuit_coherent(basic_v_pattern(ctx, 1, 2, theta))
        assert [op.gate.name for op in coh.ops] == [GateName.F, GateName.CZ, GateName.V, GateName.CX]
        rng = np.random.default_rng(1)
        psi = random_state(ctx, (1,), rng)
        final = simulate_circuit(coh, psi)
        rho = reduced_density_matrix(final, (2,))
        want = gate_matrix(Gate.v(theta), ctx) @ psi.amplitudes
        assert purity(rho) > 1 - 1e-8
        assert np.real(want.conj() @ rho @ want) > 1 - 1e-8

    def test_measurement_free_pattern_is_the_entangling_circuit(self):
        ctx = ctx_of(3)
        coh = pattern_to_circuit_coherent(basic_cz_pattern(ctx, 1, 2))
        assert [op.gate.name for op in coh.ops] == [GateName.CZ]
        assert max_diff_up_to_phase(circuit_unitary(coh), gate_matrix(Gate.cz(), ctx)) < 1e-12

    def test_worked_chain_reduces_to_rotation_product(self):
        from quditmbqc.rewrite import completely_standardise
        from quditmbqc.pattern import compose_serial

        ctx = ctx_of(2)
        thetas = [(0.1, 0.2), (0.4, 0.5), (0.7, 0.8)]
        pat = completely_standardise(
            compose_serial(
                basic_v_pattern(ctx, 1, 2, thetas[2]),
                compose_serial(basic_v_pattern(ctx, 1, 2, thetas[1]), basic_v_pattern(ctx, 1, 2, thetas[0])),
            )
        )
        coh = pattern_to_circuit_coherent(pat)
        u = np.eye(2, dtype=complex)
        for t in thetas:
            u = gate_matrix(Gate.v(t), ctx) @ u
        rng = np.random.default_rng(2)
        psi = random_state(ctx, (1,), rng)
        rho = reduced_density_matrix(simulate_circuit(coh, psi), (4,))
        want = u @ psi.amplitudes
        assert purity(rho) > 1 - 1e-8
        assert np.real(want.conj() @ rho @ want) > 1 - 1e-8

    def test_rejects_non_standard_input(self):
        ctx = ctx_of(2)
        theta = (0.3, 0.6)
        raw = basic_v_pattern(ctx, 1, 2, theta).with_seq(
            (
                Entangle(1, 2),
                Measure(1, theta, Signal.zero(2), Signal.unit(2, 1) - Signal.unit(2, 1)),
                CorrectX(2, Signal.unit(2, 1)),
            )
        )
        shuffled = raw.with_seq((raw.seq[1], raw.seq[0], raw.seq[2]))
        with pytest.raises(ValueError):
            pattern_to_circuit_coherent(shuffled)


class TestFanoutBuilders:
    def test_seven_target_tree_has_three_layers(self):
        c = build_fanout(ctx_of(2), 7, "logdepth")
        assert depth_and_size(c).depth == 3
        assert len(c.ops) == 7

    def test_single_target_either_way(self):
        for variant in ("naive", "logdepth"):
            c = build_fanout(ctx_of(3), 1, variant)
            assert len(c.ops) == 1 and depth_and_size(c).depth == 1

    @pytest.mark.parametrize("n", [1, 3, 7, 15])
    def test_tree_depth_is_log(self, n):
        c = build_fanout(ctx_of(2), n, "logdepth")
        assert depth_and_size(c).depth == int(np.ceil(np.log2(n + 1)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_naive_matches_gate_unitary(self, d):
        ctx = ctx_of(d)
        n = 5
        c = build_fanout(ctx, n, "naive")
        gate = Gate.fanout((1,) * n)
        for idx in range(d ** (n + 1)):
            digits = np.unravel_index(idx, (d,) * (n + 1))
            inp = basis_state(ctx, c.inputs, digits)
            got = simulate_circuit(c, inp)
            want = oracle_apply_gate(inp, gate, c.qudits)
            assert fidelity_up_to_phase(got, want) > 1 - 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_tree_matches_gate_on_copy_configuration(self, d):
        ctx = ctx_of(d)
        n = 5
        c = build_fanout(ctx, n, "logdepth")
        gate = Gate.fanout((1,) * n)
        rng = np.random.default_rng(d)
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        amps /= np.linalg.norm(amps)
        controls = [basis_state(ctx, (0,), (x,)) for x in range(d)] + [StateVector(ctx, (0,), amps)]
        for ctrl in controls:
            inp = ctrl.extend(basis_state(ctx, tuple(range(1, n + 1)), (0,) * n))
            got = simulate_circuit(c, inp)
            want = oracle_apply_gate(inp, gate, c.qudits)
            assert fidelity_up_to_phase(got, want) > 1 - 1e-9


class TestGeneralizedGates:
    def test_plain_coefficients_reduce_to_fanout(self):
        ctx = ctx_of(3)
        circ = build_generalized(ctx, (1, 1), "fanout")
        assert max_diff_up_to_phase(circuit_unitary(circ), gate_matrix(Gate.fanout((1, 1)), ctx)) < 1e-9

    def test_weighted_fanout_on_basis_state(self):
        ctx = ctx_of(3)
        circ = build_generalized(ctx, (2, 1), "fanout")
        inp = basis_state(ctx, circ.inputs, (1, 0, 0))
        final = simulate_circuit(circ, inp)
        want = basis_state(ctx, circ.qudits, (1, 2, 1) + (0,) * (len(circ.qudits) - 3))
        assert fidelity_up_to_phase(final, want) > 1 - 1e-9

    @pytest.mark.parametrize("d,coeffs", [(2, (1, 1)), (3, (1, 2)), (3, (2, 0, 1))])
    def test_modulo_gate_matches_conjugation_identity(self, d, coeffs):
        ctx = ctx_of(d)
        circ = build_generalized(ctx, coeffs, "mod")
        nq = len(coeffs) + 1
        f = gate_matrix(Gate.f(), ctx)
        layer = f
        for _ in range(nq - 1):
            layer = np.kron(layer, f)
        neg = tuple((-c) % d for c in coeffs)
        want = layer @ gate_matrix(Gate.fanout(neg), ctx) @ layer.conj().T
        assert max_diff_up_to_phase(circuit_unitary(circ), want) < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_depth_bounded_by_dimension(self, d):
        circ = build_generalized(ctx_of(d), (1,) * 5, "fanout")
        assert depth_and_size(circ).depth <= d + 1


class TestParallelize:
    def test_single_block_runs_directly(self):
        ctx = ctx_of(2)
        mains = (1,)
        b = Circuit(ctx, mains, mains, mains, (Operation(Gate.f(), (1,)),))
        diag = Circuit(ctx, mains, mains, mains, (Operation(Gate.z(), (1,)),))
        out = parallelize_commuting(b, [diag])
        assert len(out.qudits) == 1
        want = gate_matrix(Gate.finv(), ctx) @ gate_matrix(Gate.z(), ctx) @ gate_matrix(Gate.f(), ctx)
        assert max_diff_up_to_phase(circuit_unitary(out), want) < 1e-9

    def test_three_phase_blocks_compose_to_one(self):
        ctx = ctx_of(2)
        mains = (1,)
        b = Circuit(ctx, mains, mains, mains, ())
        diag = Circuit(ctx, mains, mains, mains, (Operation(Gate.z(), (1,)),))
        out = parallelize_commuting(b, [diag, diag, diag])
        assert max_diff_up_to_phase(circuit_unitary(out), gate_matrix(Gate.z(), ctx)) < 1e-9
        # ancillas must come back clean for superposed inputs too
        rng = np.random.default_rng(4)
        psi = random_state(ctx, mains, rng)
        final = simulate_circuit(out, psi)
        ancillas = tuple(q for q in out.qudits if q != 1)
        rho = reduced_density_matrix(final, ancillas)
        ref = np.zeros(2 ** len(ancillas))
        ref[0] = 1
        assert np.real(ref @ rho @ ref) > 1 - 1e-8

    def test_entangler_only_subcircuit_constant_depth(self):
        ctx = ctx_of(2)
        mains = (1, 2, 3)
        b = Circuit(ctx, mains, mains, mains, ())
        layers = [
            Circuit(ctx, mains, mains, mains, (Operation(Gate.cz(), (1, 2)),)),
            Circuit(ctx, mains, mains, mains, (Operation(Gate.cz(), (2, 3)),)),
            Circuit(ctx, mains, mains, mains, (Operation(Gate.cz(), (1, 3)),)),
        ]
        out = parallelize_commuting(b, layers)
        want = np.eye(8, dtype=complex)
        for layer in layers:
            want = circuit_unitary(layer) @ want
        assert max_diff_up_to_phase(circuit_unitary(out), want) < 1e-9
        assert depth_and_size(out).depth == 1 + 1 + (ctx.d - 1)

    def test_ancilla_count(self):
        ctx = ctx_of(3)
        mains = (1, 2)
        b = Circuit(ctx, mains, mains, mains, ())
        diag = Circuit(ctx, mains, mains, mains, (Operation(Gate.cz(), (1, 2)),))
        out = parallelize_commuting(b, [diag] * 4)
        assert len(out.qudits) - len(mains) == len(mains) * 3

    def test_accepts_diagonal_block_of_non_diagonal_kinds(self):
        ctx = ctx_of(3)
        mains = (1,)
        b = Circuit(ctx, mains, mains, mains, ())
        ops = (Operation(Gate.x(1), (1,)), Operation(Gate.z(1), (1,)), Operation(Gate.x(2), (1,)))
        diag = Circuit(ctx, mains, mains, mains, ops)
        out = parallelize_commuting(b, [diag, diag])
        want = circuit_unitary(diag) @ circuit_unitary(diag)
        assert max_diff_up_to_phase(circuit_unitary(out), want) < 1e-9

    def test_rejects_non_diagonal_block(self):
        ctx = ctx_of(2)
        mains = (1,)
        b = Circuit(ctx, mains, mains, mains, ())
        bad = Circuit(ctx, mains, mains, mains, (Operation(Gate.f(), (1,)),))
        with pytest.raises(ValueError):
            parallelize_commuting(b, [bad, bad])


class TestControlledPauliCompiler:
    def test_single_controlled_shift(self):
        ctx = ctx_of(2)
        c = one_gate_circuit(ctx, Gate.cx(), (1, 2), (1, 2))
        out = controlled_pauli_constant_depth(c)
        assert max_diff_up_to_phase(circuit_unitary(out), gate_matrix(Gate.cx(), ctx)) < 1e-9

    @pytest.mark.parametrize("d,n,seed", [(2, 2, 0), (2, 3, 1), (3, 2, 2)])
    def test_random_circuits_compile_exactly(self, d, n, seed):
        ctx = ctx_of(d)
        src = random_controlled_pauli_circuit(ctx, n, 5 * n, seed, locals_too=True)
        out = controlled_pauli_constant_depth(src)
        assert all(op.gate.k % d for op in out.ops if op.gate.name == GateName.CZ)
        assert phase_poly_equivalent(out, src)
        assert max_diff_up_to_phase(circuit_unitary(out), circuit_unitary(src)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_emits_no_identity_entanglers(self, d):
        ctx = ctx_of(d)
        # the two entanglers on (1, 2) cancel; the one on (2, 3) stays
        ops = (Operation(Gate.cz(), (1, 2)), Operation(Gate.cz(), (2, 3)), Operation(Gate.cz(d - 1), (2, 1)))
        src = Circuit(ctx, (1, 2, 3), (1, 2, 3), (1, 2, 3), ops)
        out = controlled_pauli_constant_depth(src)
        assert any(op.gate.name == GateName.CZ for op in out.ops)
        assert all(op.gate.k % d for op in out.ops if op.gate.name == GateName.CZ)
        assert max_diff_up_to_phase(circuit_unitary(out), circuit_unitary(src)) < 1e-9

    def test_commutation_identities(self):
        # the residual factor for pushing an entangler past a shared-pair
        # shift is diag(omega^(q*q)); at d = 2 it reduces to a plain Z on
        # the control
        for d in (2, 3):
            ctx = ctx_of(d)
            cz = gate_matrix(Gate.cz(), ctx)
            cx = gate_matrix(Gate.cx(), ctx)
            eye = np.eye(d)
            z1 = np.kron(gate_matrix(Gate.z(), ctx), eye)
            z2 = np.kron(eye, gate_matrix(Gate.z(), ctx))
            quad = np.kron(np.diag([ctx.omega ** (q * q) for q in range(d)]), eye)
            # shared control and target
            assert np.max(np.abs(cz @ cx - cx @ cz @ quad)) < 1e-12
            if d == 2:
                assert np.max(np.abs(cz @ cx - cx @ cz @ z1)) < 1e-12
            # disjoint targets commute freely; shared target spawns an entangler
            dim = d**3
            cz12 = _embed3(ctx, Gate.cz(), (0, 1))
            cz13 = _embed3(ctx, Gate.cz(), (0, 2))
            cx13 = _embed3(ctx, Gate.cx(), (0, 2))
            cx23 = _embed3(ctx, Gate.cx(), (1, 2))
            assert np.max(np.abs(cz12 @ cx13 - cx13 @ cz12)) < 1e-12
            assert np.max(np.abs(cz13 @ cx23 - cx23 @ cz13 @ cz12)) < 1e-12
            # local shifts against a controlled shift
            assert np.max(np.abs(z1 @ cx - cx @ z1)) < 1e-12
            assert np.max(np.abs(z2 @ cx - cx @ z1 @ z2)) < 1e-12

    def test_linear_matrix_inverse_by_replay(self):
        gates = [(0, 1, 2), (1, 2, 1), (2, 0, 2)]
        ops = tuple(Operation(Gate.cx(k), (c, t)) for c, t, k in gates)
        src = Circuit(ctx_of(3), (0, 1, 2), (0, 1, 2), (0, 1, 2), ops)
        _, _, m, cx_gates, _ = _normalize_controlled_pauli(src.ops, src.qudits, 3)
        assert cx_gates == gates
        inv = _cx_inverse(3, m, cx_gates)
        assert (m @ inv % 3).tolist() == [[1 if i == j else 0 for i in range(3)] for j in range(3)]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_normal_form_keeps_the_phase_polynomial(self, d, n):
        # composite d included: the inverse replay never divides
        ctx = ctx_of(d)
        for seed in range(3):
            src = random_controlled_pauli_circuit(ctx, n, 5 * n, seed, locals_too=True)
            out = controlled_pauli_constant_depth(src)
            assert all(op.gate.k % d for op in out.ops if op.gate.name == GateName.CZ)
            assert phase_poly_equivalent(out, src)

    def test_rejects_foreign_gates(self):
        ctx = ctx_of(2)
        with pytest.raises(ValueError):
            controlled_pauli_constant_depth(one_gate_circuit(ctx, Gate.f(), (1,), (1,)))

    def test_ancillas_end_clean(self):
        ctx = ctx_of(2)
        src = random_controlled_pauli_circuit(ctx, 2, 8, seed=5)
        out = controlled_pauli_constant_depth(src)
        rng = np.random.default_rng(6)
        psi = random_state(ctx, src.qudits, rng)
        final = simulate_circuit(out, psi)
        ancillas = tuple(q for q in out.qudits if q not in set(src.qudits))
        rho = reduced_density_matrix(final, ancillas)
        ref = np.zeros(2 ** len(ancillas))
        ref[0] = 1
        assert np.real(ref @ rho @ ref) > 1 - 1e-8


def _embed3(ctx, gate, pair):
    c = Circuit(ctx, (0, 1, 2), (0, 1, 2), (0, 1, 2), (Operation(gate, pair),))
    return circuit_unitary(c)


class TestFanoutCompileAndCliffordPipeline:
    def test_validates_once(self, monkeypatch):
        import quditmbqc.pattern as pattern_module

        validate = pattern_module.validate
        calls = []
        monkeypatch.setattr(pattern_module, "validate", lambda p: calls.append(p) or validate(p))
        pattern_to_fanout_circuit(basic_v_pattern(ctx_of(2), 1, 2, (0.1, 0.2)))
        assert len(calls) == 1
        zero = Signal.zero(2)
        bad = Pattern(ctx_of(2), (1,), (1,), (1,), (Measure(1, (0.0, 0.0), zero, zero),))
        with pytest.raises(ValueError, match="not wellformed"):
            pattern_to_fanout_circuit(bad)

    def test_teleport_pattern_compiles_small(self):
        for d in (2, 3):
            ctx = ctx_of(d)
            rng = np.random.default_rng(d)
            theta = tuple(rng.uniform(0, 2 * np.pi, d))
            res = pattern_to_fanout_circuit(basic_v_pattern(ctx, 1, 2, theta))
            psi = random_state(ctx, (1,), rng)
            final = simulate_circuit(res.circuit, psi)
            rho = reduced_density_matrix(final, (2,))
            want = gate_matrix(Gate.v(theta), ctx) @ psi.amplitudes
            assert purity(rho) > 1 - 1e-8
            assert np.real(want.conj() @ rho @ want) > 1 - 1e-8

    def test_two_dependency_layers_bounded_depth_and_correct(self):
        ctx = ctx_of(2)
        thetas = [(0.1, 0.8), (0.5, 0.2)]
        from quditmbqc.pattern import compose_serial
        from quditmbqc.rewrite import completely_standardise

        pat = completely_standardise(
            compose_serial(basic_v_pattern(ctx, 1, 2, thetas[1]), basic_v_pattern(ctx, 1, 2, thetas[0]))
        )
        res = pattern_to_fanout_circuit(pat)
        single = pattern_to_fanout_circuit(basic_v_pattern(ctx, 1, 2, thetas[0]))
        per_layer = single.circuit_report.depth
        assert res.circuit_report.depth <= 2 * per_layer + 4
        # dense partial-trace check of the compiled circuit (two dependency
        # layers exercise the per-layer correction blocks)
        rng = np.random.default_rng(33)
        psi = random_state(ctx, (1,), rng)
        want = gate_matrix(Gate.v(thetas[1]), ctx) @ gate_matrix(Gate.v(thetas[0]), ctx) @ psi.amplitudes
        final = simulate_circuit(res.circuit, psi)
        rho = reduced_density_matrix(final, pat.outputs)
        assert purity(rho) > 1 - 1e-8
        assert np.real(want.conj() @ rho @ want) > 1 - 1e-8

    def test_single_fourier_gate_gives_one_independent_measurement(self):
        ctx = ctx_of(2)
        c = one_gate_circuit(ctx, Gate.f(), (1,), (1,))
        pat = clifford_constant_depth(c, "pattern")
        measures = [m for m in pat.seq if isinstance(m, Measure)]
        assert len(measures) == 1 and measures[0].is_independent()

    def test_rejects_non_clifford_gate(self):
        ctx = ctx_of(2)
        with pytest.raises(ValueError):
            clifford_constant_depth(one_gate_circuit(ctx, Gate.x(1), (1,), (1,)), "pattern")
