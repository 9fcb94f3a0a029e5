import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers import (
    max_diff_up_to_phase,
    oracle_apply_gate,
    oracle_normal_form,
    pattern_checks,
    phase_poly_equivalent,
    purity,
    random_clifford_kinds_circuit,
    random_controlled_pauli_circuit,
    reduced_density_matrix,
)

import quditmbqc.convert as convert_module
from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import (
    Circuit,
    Operation,
    _inverse_ops,
    circuit_unitary,
    depth_and_size,
    lower_to_guni,
    simulate_circuit,
)
from quditmbqc.cli import verify_equivalent
from quditmbqc.convert import (
    _measurement_layers,
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
    Signal,
    compose_serial,
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
    random_state,
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
        # an unlowered circuit: a gate outside {CZ, v}, or a CZ power other than 1
        for gate, sites in [(Gate.f(), (1,)), (Gate.cz(2), (1, 2))]:
            with pytest.raises(ValueError, match=rf"^unsupported gate {gate.name.value} \(lower to the \{{CZ, v\}} set first\)$"):
                circuit_to_pattern_standard(one_gate_circuit(ctx_of(3), gate, sites, sites))

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
        # one check per pattern built: the raw pattern, then the result;
        # completely_standardise builds no intermediate pattern
        built, checked = pattern_checks(monkeypatch)
        circ = lower_to_guni(random_guni_circuit(ctx_of(2), 2, 4, 0))
        for convert in (circuit_to_pattern_standard, circuit_to_pattern_cluster):
            built.clear()
            checked.clear()
            pat = convert(circ)
            assert len(built) == 2 and checked == built and built[-1] is pat
        built.clear()
        checked.clear()
        pat = circuit_to_pattern_standard(circ, standardise=False)
        assert checked == built == [pat]


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
                b = run(pat, psi, mode="sampled", seed=seed)
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
        # two teleportation steps in a row: wellformed, but an E follows an M
        ctx = ctx_of(2)
        step = basic_v_pattern(ctx, 1, 2, (0.3, 0.6))
        with pytest.raises(ValueError, match="expects a completely standard pattern"):
            pattern_to_circuit_coherent(compose_serial(step, step))


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

    @pytest.mark.parametrize("n", [12, 13])
    def test_block_of_non_diagonal_kinds_past_the_cap_is_refused_before_simulating(self, n, monkeypatch):
        # X X is diagonal, but only its 2^n x 2^n unitary shows it: 2^24
        # entries at n = 12 fit the cap, 2^26 at n = 13 do not
        import quditmbqc.circuit as circuit_module

        def simulated(*args):
            raise AssertionError("simulated the block")

        monkeypatch.setattr(circuit_module, "_simulate_rows", simulated)
        ctx = ctx_of(2)
        mains = tuple(range(n))
        b = Circuit(ctx, mains, mains, mains, ())
        diag = Circuit(ctx, mains, mains, mains, (Operation(Gate.x(1), (0,)), Operation(Gate.x(1), (0,))))
        if n == 12:
            with pytest.raises(AssertionError, match="simulated the block"):
                parallelize_commuting(b, [diag, diag])
        else:
            with pytest.raises(ValueError, match=f"a 2\\^13-dimensional unitary exceeds the cap of {1 << 24} entries"):
                parallelize_commuting(b, [diag, diag])


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
        _, _, m, _ = _normalize_controlled_pauli(src.ops, src.qudits, 3)
        _, _, inv, _ = _normalize_controlled_pauli(_inverse_ops(src.ops, 3), src.qudits, 3)
        # row i of m @ inv is sum over a of m[i, a] * inv[a]
        product = [sum((inv[a].scaled(k) for a, k in row.coeffs), Signal.zero(3)) for row in m]
        assert product == [Signal.unit(3, i) for i in range(3)]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_sparse_normal_form_matches_the_dense_replay(self, d, n):
        ctx = ctx_of(d)
        chained = False
        for seed in range(3):
            src = random_controlled_pauli_circuit(ctx, n, 5 * n, seed, locals_too=True)
            cx = [op.sites for op in src.ops if op.gate.name == GateName.CX]
            chained |= not {c for c, _ in cx}.isdisjoint(t for _, t in cx)
            # the same block again at powers outside [1, d), which the normal
            # form reads unreduced from the kinds' shifts and form
            powers = [0, -1, d, d + 1, 10**20, -(10**20)]
            at_powers = tuple(replace(op, gate=replace(op.gate, k=powers[i % len(powers)])) for i, op in enumerate(src.ops))
            for ops in (src.ops, at_powers):
                quad, lin, matrix, shift = _normalize_controlled_pauli(ops, src.qudits, d)
                dense_quad, dense_lin, dense_matrix, dense_shift = oracle_normal_form(ops, src.qudits, d)
                assert quad == {(a, b): dense_quad[a, b] for a, b in np.argwhere(dense_quad).tolist()}
                assert lin.to_mapping() == {a: c for a, c in enumerate(dense_lin.tolist()) if c}
                assert [row.to_mapping() for row in matrix] == [{a: c for a, c in enumerate(r) if c} for r in dense_matrix.tolist()]
                assert shift == dense_shift.tolist()
        assert chained

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
        with pytest.raises(ValueError, match=r"^gate F outside the controlled-Pauli set$"):
            controlled_pauli_constant_depth(one_gate_circuit(ctx, Gate.f(), (1,), (1,)))

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_bipartite_block_compiles_in_place_beyond_dense_reach(self, d):
        # the shape of every pipeline block: no controlled-X control is also
        # a target, so each target takes one MOD and no result register is
        # needed; 40 qudits put d**40 far past dense simulation
        ctx, rng = ctx_of(d), np.random.default_rng(d)
        controls, targets = tuple(range(1, 21)), tuple(range(21, 41))
        ops = []
        for kind in rng.choice(["CX", "CZ", "local"], size=80):
            k = int(rng.integers(1, d))
            if kind == "CX":
                ops.append(Operation(Gate.cx(k), (int(rng.choice(controls)), int(rng.choice(targets)))))
            elif kind == "CZ":
                i, j = rng.choice(controls + targets, size=2, replace=False)
                ops.append(Operation(Gate.cz(k), (int(i), int(j))))
            else:
                gate = Gate.x(k) if rng.integers(2) else Gate.z(k)
                ops.append(Operation(gate, (int(rng.choice(controls + targets)),)))
        mains = controls + targets
        src = Circuit(ctx, mains, mains, mains, tuple(ops))
        out = controlled_pauli_constant_depth(src)
        assert phase_poly_equivalent(out, src)
        assert not any(op.gate.name == GateName.SWAP for op in out.ops)
        # every ancilla copies a qudit for one use by a term of the normal
        # form: a CZ cross term uses two qudits, a phase or a CX entry one
        quad, lin, matrix, _ = _normalize_controlled_pauli(src.ops, mains, d)
        cz_uses = 2 * sum(a != b for a, b in quad)
        local_uses = len({a for a, b in quad if a == b} | set(lin.qudits()))
        cx_uses = sum(a != i for i, row in enumerate(matrix) for a, _ in row.coeffs)
        assert len(out.qudits) - len(mains) <= max(cz_uses + local_uses, cx_uses)
        # copy, diagonal units, d-1 uncopies; the same for the MODs; X shifts
        assert depth_and_size(out).depth <= 2 * (d + 1) + 1

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
        # checked once, when built: compiling it checks nothing again
        built, checked = pattern_checks(monkeypatch)
        pat = basic_v_pattern(ctx_of(2), 1, 2, (0.1, 0.2))
        pattern_to_fanout_circuit(pat)
        assert checked == built == [pat]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_def7_blocks_take_the_disjoint_branch(self, d, monkeypatch):
        # X-signal controls were measured in an earlier layer and correction
        # targets are outputs, never measured, so no block of a pattern is
        # chained: no result register, no -M^-1 stage, no SWAP
        def chained(*args):
            raise AssertionError("a pattern block took the chained branch")

        monkeypatch.setattr(convert_module, "_inverse_ops", chained)
        ctx = ctx_of(d)
        for n, seed in [(2, 0), (2, 1), (3, 2), (3, 3), (4, 4)]:
            pattern = circuit_to_pattern_standard(lower_to_guni(random_guni_circuit(ctx, n, 4 * n, seed)))
            compiled = pattern_to_fanout_circuit(pattern)
            assert any(op.gate.name == GateName.MOD for op in compiled.ops)
            assert not any(op.gate.name == GateName.SWAP for op in compiled.ops)
        # the patch reaches the chained branch: a CX whose control is also a target
        chain = Circuit(ctx, (1, 2, 3), (1, 2, 3), (1, 2, 3), (Operation(Gate.cx(), (1, 2)), Operation(Gate.cx(), (2, 3))))
        with pytest.raises(AssertionError, match="chained branch"):
            controlled_pauli_constant_depth(chain)

    def test_teleport_pattern_compiles_small(self):
        for d in (2, 3):
            ctx = ctx_of(d)
            rng = np.random.default_rng(d)
            theta = tuple(rng.uniform(0, 2 * np.pi, d))
            compiled = pattern_to_fanout_circuit(basic_v_pattern(ctx, 1, 2, theta))
            psi = random_state(ctx, (1,), rng)
            final = simulate_circuit(compiled, psi)
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
        compiled = pattern_to_fanout_circuit(pat)
        single = pattern_to_fanout_circuit(basic_v_pattern(ctx, 1, 2, thetas[0]))
        per_layer = depth_and_size(single).depth
        assert depth_and_size(compiled).depth <= 2 * per_layer + 4
        # dense partial-trace check of the compiled circuit (two dependency
        # layers exercise the per-layer correction blocks)
        rng = np.random.default_rng(33)
        psi = random_state(ctx, (1,), rng)
        want = gate_matrix(Gate.v(thetas[1]), ctx) @ gate_matrix(Gate.v(thetas[0]), ctx) @ psi.amplitudes
        final = simulate_circuit(compiled, psi)
        rho = reduced_density_matrix(final, pat.outputs)
        assert purity(rho) > 1 - 1e-8
        assert np.real(want.conj() @ rho @ want) > 1 - 1e-8

    def test_single_fourier_gate_gives_one_independent_measurement(self):
        ctx = ctx_of(2)
        c = one_gate_circuit(ctx, Gate.f(), (1,), (1,))
        pat = clifford_constant_depth(c)
        measures = [m for m in pat.seq if isinstance(m, Measure)]
        assert len(measures) == 1 and measures[0].is_independent()

    @pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (4, 2), (5, 2), (6, 2)])
    def test_every_clifford_kind_gives_one_measurement_layer(self, d, n):
        """Lowered X, Z, CX, SWAP, FANOUT and MOD measure in directions
        F.P^a.Z^b other than F and F.P, which lose their X dependency too."""
        for seed in range(2):
            c = random_clifford_kinds_circuit(ctx_of(d), n, 12, 10 * d + seed)
            assert {op.gate.name for op in c.ops} == set(GateName) - {GateName.R, GateName.V, GateName.DIAG}
            pat = clifford_constant_depth(c)
            assert len(_measurement_layers(pat)) == 1
            assert verify_equivalent(c, pat, seed)[0] < 1e-9

    def test_rejects_non_clifford_gate(self):
        ctx = ctx_of(2)
        with pytest.raises(ValueError, match=r"^gate v is not a Clifford gate$"):
            clifford_constant_depth(one_gate_circuit(ctx, Gate.v((0.1, 0.2)), (1,), (1,)))
