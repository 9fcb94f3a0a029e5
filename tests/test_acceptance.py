"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and per-criterion timings.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers import (
    StabilizerTable,
    max_diff_up_to_phase,
    oracle_apply_gate,
    phase_poly_equivalent,
    purity,
    random_controlled_pauli_circuit,
    reduced_density_matrix,
    target_stabilizers,
)

from quditmbqc.algebra import DimensionContext, PauliOperator, pauli_conjugate, pauli_to_matrix
from quditmbqc.circuit import (
    Circuit,
    Operation,
    _outputs_first,
    _simulate_rows,
    circuit_unitary,
    compose_parallel,
    compose_serial,
    depth_and_size,
    lower_to_guni,
    simulate_circuit,
)
from quditmbqc.convert import (
    basic_v_pattern,
    build_fanout,
    circuit_to_pattern_standard,
    clifford_constant_depth,
    controlled_pauli_constant_depth,
    pattern_to_circuit_coherent,
    pattern_to_fanout_circuit,
)
from quditmbqc.generate import random_clifford_circuit, random_guni_circuit
from quditmbqc.pattern import (
    CorrectX,
    CorrectZ,
    EntanglementGraph,
    Measure,
    Pattern,
    Signal,
    compose_parallel as pattern_parallel,
    compose_serial as pattern_serial,
    entanglement_depth,
    entanglement_graph,
    pattern_depth_and_size,
    pattern_from_json,
    pattern_to_json,
    run,
    run_branches,
)
from quditmbqc.rewrite import (
    completely_standardise,
    pauli_simplify,
    signal_shift,
    standardise,
)
from quditmbqc.sim import (
    Gate,
    StateVector,
    basis_state,
    fidelity_up_to_phase,
    gate_matrix,
    random_state,
)

GOLDEN = Path(__file__).parent / "golden"
STATE_TOL = 1e-9
ALGEBRA_TOL = 1e-12
PURITY_TOL = 1e-8


def announce(number, title, started, limit):
    elapsed = time.time() - started
    print(f"PASS: criterion {number} ({title}) in {elapsed:.1f}s")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def test_criterion_01_algebra_exactness():
    started = time.time()
    for d in (2, 3, 4, 5):
        ctx = DimensionContext.of(d)
        fm = gate_matrix(Gate.f(), ctx)
        pm = gate_matrix(Gate.p(), ctx)
        for a in range(d):
            for b in range(d):
                p = PauliOperator(ctx, 1, (a * b + 1) % ctx.D, (a,), (b,))
                for gen, u in [(("F", 0), fm), (("P", 0), pm)]:
                    got = pauli_to_matrix(pauli_conjugate(gen, p))
                    want = u @ pauli_to_matrix(p) @ u.conj().T
                    assert np.max(np.abs(got - want)) < ALGEBRA_TOL
        czm = gate_matrix(Gate.cz(), ctx)
        for a1 in range(d):
            for a2 in range(d):
                for b1 in range(d):
                    for b2 in range(d):
                        p = PauliOperator(ctx, 2, (a1 + b2) % ctx.D, (a1, a2), (b1, b2))
                        got = pauli_to_matrix(pauli_conjugate(("CZ", 0, 1), p))
                        want = czm @ pauli_to_matrix(p) @ czm.conj().T
                        assert np.max(np.abs(got - want)) < ALGEBRA_TOL
    announce(1, "algebra exactness", started, 10)


def test_criterion_02_teleportation_identity():
    started = time.time()
    for d in (2, 3, 5):
        ctx = DimensionContext.of(d)
        rng = np.random.default_rng(d)
        theta = tuple(rng.uniform(0, 2 * np.pi, d))
        pat = basic_v_pattern(ctx, 1, 2, theta)
        v = gate_matrix(Gate.v(theta), ctx)
        inputs = [basis_state(ctx, (1,), (j,)) for j in range(d)]
        inputs += [random_state(ctx, (1,), rng) for _ in range(20)]
        for psi in inputs:
            want = StateVector(ctx, (2,), v @ psi.amplitudes)
            branches = run_branches(pat, psi)
            assert len(branches) == d
            assert abs(sum(b.probability for b in branches) - 1) < STATE_TOL
            for b in branches:
                assert fidelity_up_to_phase(b.state, want) > 1 - STATE_TOL
    announce(2, "teleportation identity on all branches", started, 10)


def test_criterion_03_standardisation_golden():
    started = time.time()
    for d in (2, 3):
        for case in ("generic", "clifford"):
            src = (GOLDEN / f"rotation_chain_d{d}_{case}_input.json").read_text()
            want_text = (GOLDEN / f"rotation_chain_d{d}_{case}_standard.json").read_text()
            got = completely_standardise(pattern_from_json(src))
            want = pattern_from_json(want_text)
            assert got.seq == want.seq, f"command mismatch d={d} {case}"
            assert pattern_to_json(got) == want_text
            # the decisive correction signals: X^(s3-s2-s1) / X^(s3-s1) and Z^(s2)
            xcorr = [c for c in got.seq if isinstance(c, CorrectX)][0]
            zcorr = [c for c in got.seq if isinstance(c, CorrectZ)][0]
            if case == "clifford":
                assert xcorr.signal == Signal.of(d, {1: d - 1, 2: d - 1, 3: 1})
            else:
                assert xcorr.signal == Signal.of(d, {1: d - 1, 3: 1})
            assert zcorr.signal == Signal.of(d, {2: 1})
    announce(3, "worked-example golden sequences", started, 1)


def _structured_guni_circuit(ctx, n, v_count, cz_count, seed):
    rng = np.random.default_rng(seed)
    qudits = tuple(range(1, n + 1))
    kinds = ["v"] * v_count + (["cz"] * cz_count if n >= 2 else [])
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        if kind == "cz":
            i, j = (int(x) + 1 for x in rng.choice(n, size=2, replace=False))
            ops.append(Operation(Gate.cz(), (i, j)))
        else:
            q = int(rng.integers(n)) + 1
            ops.append(Operation(Gate.v(tuple(rng.uniform(0, 2 * np.pi, ctx.d))), (q,)))
    return Circuit(ctx, qudits, qudits, qudits, tuple(ops))


def test_criterion_04_rewrite_soundness():
    started = time.time()
    cases = []
    for k in range(140):
        cases.append((2, 4 + k % 3, 2 + k % 2, k))  # up to 6 measured qudits
    for k in range(60):
        cases.append((3, 3 + k % 2, 1 + k % 2, 1000 + k))
    size_increases = 0
    for d, v_count, cz_count, seed in cases:
        ctx = DimensionContext.of(d)
        circ = _structured_guni_circuit(ctx, 2, v_count, cz_count, seed)
        raw = circuit_to_pattern_standard(lower_to_guni(circ), standardise=False)
        assert len(raw.measured_qudits()) <= 6
        p1 = standardise(raw)
        p2 = pauli_simplify(p1)
        p3 = signal_shift(p2)
        rng = np.random.default_rng(seed + 5000)
        psi = random_state(ctx, raw.inputs, rng)
        want = circuit_unitary(circ) @ psi.with_sites_order(circ.inputs).amplitudes
        metrics = {}
        for name, pat in [("raw", raw), ("standardise", p1), ("pauli", p2), ("shift", p3)]:
            branches = run_branches(pat, psi)
            assert abs(sum(b.probability for b in branches) - 1) < STATE_TOL
            for b in branches:
                got = b.state.with_sites_order(pat.outputs).amplitudes
                assert abs(abs(np.vdot(want, got)) - 1) < STATE_TOL, (name, seed)
            metrics[name] = pattern_depth_and_size(pat)
        # depth is monotone through the whole pipeline
        assert metrics["standardise"].depth <= metrics["raw"].depth
        assert metrics["pauli"].depth <= metrics["standardise"].depth
        assert metrics["shift"].depth <= metrics["pauli"].depth
        assert metrics["pauli"].size <= metrics["standardise"].size
        assert metrics["shift"].size <= metrics["pauli"].size
        size_increases += metrics["standardise"].size > metrics["raw"].size
        # on the already-standard form (the conversion's actual output) every
        # pass is metric-monotone and idempotent, size included
        standard = completely_standardise(raw)
        again = completely_standardise(standard)
        assert again.seq == standard.seq
        rep0, rep1 = pattern_depth_and_size(standard), pattern_depth_and_size(again)
        assert rep1.depth <= rep0.depth and rep1.size <= rep0.size
    print(
        f"  note: standardisation grew the correction count on {size_increases}/200 raw"
        " composites (forced by the entangler/X-correction exchange; see ledger)"
    )
    announce(4, "rewrite soundness over 200 composites", started, 300)


def _pick_clifford_instances(ctx, n, base_seed, count=4):
    return [random_clifford_circuit(ctx, n, 5 * n, seed=base_seed + k) for k in range(count)]


def test_criterion_05_clifford_constancy():
    started = time.time()
    for d in (2, 3):
        ctx = DimensionContext.of(d)
        pattern_profile = {}
        circuit_profile = {}
        firsts = {}
        for n in range(2, 7):
            pattern_depths, circuit_depths = [], []
            for k, circ in enumerate(_pick_clifford_instances(ctx, n, 100 * d + 10 * n)):
                pat = clifford_constant_depth(circ)
                # (a) no dependent measurements
                assert all(m.is_independent() for m in pat.seq if isinstance(m, Measure))
                # (b) bounded entanglement degree
                assert entanglement_graph(pat).max_degree() <= 3
                pattern_depths.append(pattern_depth_and_size(pat).depth)
                compiled = pattern_to_fanout_circuit(pat)
                circuit_depths.append(depth_and_size(compiled).depth)
                if k == 0:
                    firsts[n] = (circ, pat, compiled)
            pattern_profile[n] = max(pattern_depths)
            circuit_profile[n] = max(circuit_depths)
        # (c)/(d): the depth profile of the family is flat in n (thin
        # instances may dip below the structural constant, never above)
        assert len(set(pattern_profile.values())) == 1, pattern_profile
        assert len(set(circuit_profile.values())) == 1, circuit_profile

        for n, (circ, pat, compiled) in firsts.items():
            u = circuit_unitary(circ)
            digit_sets = [tuple([0] * n), tuple((j + 1) % d for j in range(n))]
            for digits in digit_sets:
                psi = basis_state(ctx, circ.inputs, digits)
                want = u @ psi.amplitudes
                runs = 3 if n <= 3 else 2
                for seed in range(runs):
                    res = run(pat, psi, mode="sampled", seed=seed, lazy=True)
                    got = res.state.with_sites_order(pat.outputs).amplitudes
                    assert abs(abs(np.vdot(want, got)) - 1) < STATE_TOL
            if n <= 3:
                # dense check against every unitary column plus a random state
                for idx in range(d**n):
                    digits = np.unravel_index(idx, (d,) * n)
                    psi = basis_state(ctx, circ.inputs, digits)
                    res = run(pat, psi, mode="sampled", seed=7, lazy=True)
                    got = res.state.with_sites_order(pat.outputs).amplitudes
                    assert abs(abs(np.vdot(u[:, idx], got)) - 1) < STATE_TOL
                rng = np.random.default_rng(n)
                psi = random_state(ctx, circ.inputs, rng)
                want = u @ psi.with_sites_order(circ.inputs).amplitudes
                res = run(pat, psi, mode="sampled", seed=11, lazy=True)
                got = res.state.with_sites_order(pat.outputs).amplitudes
                assert abs(abs(np.vdot(want, got)) - 1) < STATE_TOL

            # compiled circuit: exact symbolic verification (the Theta(n^2)
            # ancilla registers rule out dense simulation at every listed n)
            coh = pattern_to_circuit_coherent(pat)
            for digits in digit_sets:
                table = StabilizerTable.computational_input(ctx, coh.qudits, dict(zip(coh.inputs, digits)))
                table.conjugate_through(coh)
                relabel = dict(zip(circ.outputs, coh.outputs))
                for xs, zs, ph in target_stabilizers(circ, digits):
                    assert table.contains(
                        {relabel[s]: v for s, v in xs.items()},
                        {relabel[s]: v for s, v in zs.items()},
                        ph,
                    )
            _assert_fanout_compile_matches_coherent(ctx, pat, compiled, coh)
    announce(5, "constant-depth Clifford pipeline", started, 600)


def _assert_fanout_compile_matches_coherent(ctx, pat, compiled, coherent):
    """The compiled circuit shares the coherent circuit's prefix op-for-op;
    its correction tail must be phase-polynomial-equivalent to the verbatim
    correction gates."""
    n_corr = sum(
        len(c.signal.coeffs) for c in pat.seq if isinstance(c, (CorrectX, CorrectZ))
    )
    if n_corr == 0:
        assert compiled.ops == coherent.ops
        return
    prefix = coherent.ops[: len(coherent.ops) - n_corr]
    tail_source_ops = coherent.ops[len(coherent.ops) - n_corr :]
    assert compiled.ops[: len(prefix)] == prefix
    tail_ops = compiled.ops[len(prefix) :]
    touched = tuple(dict.fromkeys(s for op in tail_source_ops for s in op.sites))
    source = Circuit(ctx, touched, touched, touched, tail_source_ops)
    tail_qudits = touched + tuple(
        q for q in dict.fromkeys(s for op in tail_ops for s in op.sites) if q not in set(touched)
    )
    block = Circuit(ctx, tail_qudits, touched, touched, tail_ops)
    assert phase_poly_equivalent(block, source)


def test_criterion_06_fanout_separation():
    started = time.time()
    for n in (1, 3, 7, 15):
        tree = build_fanout(DimensionContext.of(2), n, "logdepth")
        assert depth_and_size(tree).depth == int(np.ceil(np.log2(n + 1)))
    for d in (2, 3):
        ctx = DimensionContext.of(d)
        for n in (1, 4, 7):
            naive = build_fanout(ctx, n, "naive")
            assert depth_and_size(naive).depth == n
            # basis input x leaves the basis state of the fan-out permutation:
            # every target digit plus the control digit, mod d.  The inputs
            # run as rows, 16 at a time, so no d^(n+1)-square unitary is held
            dim, shape = d ** (n + 1), (d,) * (n + 1)
            digits = np.array(np.unravel_index(np.arange(dim), shape))
            digits[1:] = (digits[1:] + digits[0]) % d
            want = np.ravel_multi_index(digits, shape)
            for lo in range(0, dim, 16):
                basis = np.arange(lo, min(lo + 16, dim))
                rows = np.zeros((len(basis), dim), dtype=np.complex128)
                rows[np.arange(len(basis)), basis] = 1.0
                got = _outputs_first(naive, _simulate_rows(naive, rows))[:, :, 0]
                assert np.all(np.abs(got[np.arange(len(basis)), want[basis]]) > 1 - STATE_TOL)
            # the log-depth tree is exact on the quantum-copy configuration
            gate = Gate.fanout((1,) * n)
            tree = build_fanout(ctx, n, "logdepth")
            rng = np.random.default_rng(n * d)
            amps = rng.normal(size=d) + 1j * rng.normal(size=d)
            amps /= np.linalg.norm(amps)
            controls = [basis_state(ctx, (0,), (x,)) for x in range(d)]
            controls.append(StateVector(ctx, (0,), amps))
            for ctrl in controls:
                inp = ctrl.extend(basis_state(ctx, tuple(range(1, n + 1)), (0,) * n))
                got = simulate_circuit(tree, inp)
                want = oracle_apply_gate(inp, gate, tree.qudits)
                assert fidelity_up_to_phase(got, want) > 1 - STATE_TOL
    announce(6, "fan-out depth separation", started, 60)


def test_criterion_07_constant_depth_controlled_pauli():
    started = time.time()
    # commutation identities used by the compiler; the shared-pair residual
    # is diag(omega^(q*q)), which is a plain Z on the control at d=2
    for d in (2, 3):
        ctx = DimensionContext.of(d)
        eye = np.eye(d)
        cz = gate_matrix(Gate.cz(), ctx)
        cx = gate_matrix(Gate.cx(), ctx)
        z1 = np.kron(gate_matrix(Gate.z(), ctx), eye)
        z2 = np.kron(eye, gate_matrix(Gate.z(), ctx))
        quad = np.kron(np.diag([ctx.omega ** (q * q) for q in range(d)]), eye)
        assert np.max(np.abs(cz @ cx - cx @ cz @ quad)) < ALGEBRA_TOL
        if d == 2:
            assert np.max(np.abs(cz @ cx - cx @ cz @ z1)) < ALGEBRA_TOL
        cz12, cz13 = _embed_pair(ctx, Gate.cz(), (0, 1)), _embed_pair(ctx, Gate.cz(), (0, 2))
        cx13, cx23 = _embed_pair(ctx, Gate.cx(), (0, 2)), _embed_pair(ctx, Gate.cx(), (1, 2))
        assert np.max(np.abs(cz12 @ cx13 - cx13 @ cz12)) < ALGEBRA_TOL
        assert np.max(np.abs(cz13 @ cx23 - cx23 @ cz13 @ cz12)) < ALGEBRA_TOL
        assert np.max(np.abs(z1 @ cx - cx @ z1)) < ALGEBRA_TOL
        assert np.max(np.abs(z2 @ cx - cx @ z1 @ z2)) < ALGEBRA_TOL

    for d, sizes in [(2, (2, 3, 4)), (3, (2,))]:
        ctx = DimensionContext.of(d)
        depth_profile, size_profile = {}, {}
        for n in sizes:
            depths, szs = [], []
            for k in range(4):
                src = random_controlled_pauli_circuit(ctx, n, 5 * n, seed=200 * d + 10 * n + k)
                out = controlled_pauli_constant_depth(src)
                rep = depth_and_size(out)
                depths.append(rep.depth)
                szs.append(rep.size)
                assert phase_poly_equivalent(out, src)  # exact, any width
                if k == 0 and d ** len(out.qudits) <= 2**15:
                    assert max_diff_up_to_phase(circuit_unitary(out), circuit_unitary(src)) < STATE_TOL
            depth_profile[n] = max(depths)
            size_profile[n] = max(szs)
        # the family's depth profile is flat in n; a draw without one of the
        # stages can only come in under the structural constant
        assert len(set(depth_profile.values())) == 1, depth_profile
        constant = 1.5 * size_profile[sizes[0]] / sizes[0] ** 2
        for n in sizes:
            assert size_profile[n] <= constant * n * n
    announce(7, "constant-depth controlled-Pauli compiler", started, 300)


def _embed_pair(ctx, gate, pair):
    c = Circuit(ctx, (0, 1, 2), (0, 1, 2), (0, 1, 2), (Operation(gate, pair),))
    return circuit_unitary(c)


def test_criterion_08_coherent_simulation():
    started = time.time()
    ctx = DimensionContext.of(2)
    for k in range(50):
        circ = _structured_guni_circuit(ctx, 2, 3 + k % 3, 1 + k % 2, seed=3000 + k)
        pat = circuit_to_pattern_standard(lower_to_guni(circ))
        assert len(pat.measured_qudits()) <= 5
        coh = pattern_to_circuit_coherent(pat)
        u = circuit_unitary(circ)
        rng = np.random.default_rng(4000 + k)
        psi = random_state(ctx, circ.inputs, rng)
        final = simulate_circuit(coh, psi)
        rho = reduced_density_matrix(final, coh.outputs)
        want = u @ psi.with_sites_order(circ.inputs).amplitudes
        assert purity(rho) > 1 - PURITY_TOL
        assert np.real(want.conj() @ rho @ want) > 1 - PURITY_TOL
    announce(8, "coherent circuit simulation", started, 120)


def test_criterion_09_composition_laws():
    started = time.time()
    ctx2, ctx3 = DimensionContext.of(2), DimensionContext.of(3)
    rng = np.random.default_rng(17)
    for k in range(100):
        ctx = ctx2 if k % 2 else ctx3
        n = int(rng.integers(2, 4))
        a = random_guni_circuit(ctx, n, int(rng.integers(2, 9)), seed=100 + k)
        b = random_guni_circuit(ctx, n, int(rng.integers(2, 9)), seed=200 + k)
        ra, rb = depth_and_size(a), depth_and_size(b)
        serial = depth_and_size(compose_serial(b, a))
        assert serial.depth <= ra.depth + rb.depth
        assert serial.size == ra.size + rb.size
        b_shifted = Circuit(
            ctx,
            tuple(q + 100 for q in b.qudits),
            tuple(q + 100 for q in b.inputs),
            tuple(q + 100 for q in b.outputs),
            tuple(Operation(op.gate, tuple(s + 100 for s in op.sites)) for op in b.ops),
        )
        par = depth_and_size(compose_parallel(b_shifted, a))
        assert par.depth == max(ra.depth, rb.depth)
        assert par.size == ra.size + rb.size
    for k in range(100):
        ctx = ctx2 if k % 2 else ctx3
        pa = circuit_to_pattern_standard(
            lower_to_guni(_structured_guni_circuit(ctx, 2, 2, 1, seed=500 + k)), standardise=False
        )
        pb = circuit_to_pattern_standard(
            lower_to_guni(_structured_guni_circuit(ctx, 2, 2, 1, seed=600 + k)), standardise=False
        )
        ra, rb = pattern_depth_and_size(pa), pattern_depth_and_size(pb)
        serial = pattern_depth_and_size(pattern_serial(pb, pa))
        assert serial.depth <= ra.depth + rb.depth
        assert serial.size == ra.size + rb.size
        shift = {q: q + 100 for q in pb.qudits}
        from quditmbqc.pattern import _relabel_commands

        pb_shifted = Pattern(
            ctx,
            tuple(shift[q] for q in pb.qudits),
            tuple(shift[q] for q in pb.inputs),
            tuple(shift[q] for q in pb.outputs),
            _relabel_commands(pb.seq, shift),
        )
        par = pattern_depth_and_size(pattern_parallel(pb_shifted, pa))
        assert par.depth == max(ra.depth, rb.depth)
        assert par.size == ra.size + rb.size
    announce(9, "composition laws", started, 30)


def test_criterion_10_entanglement_depth():
    started = time.time()
    rng = np.random.default_rng(23)
    exceptions = []
    for k in range(60):
        d = int(rng.integers(2, 5))
        nodes = int(rng.integers(3, 7))
        entries = {}
        for _ in range(int(rng.integers(2, 7))):
            i, j = sorted(rng.choice(nodes, size=2, replace=False))
            mult = int(rng.integers(1, d))
            entries[(int(i), int(j))] = mult
        g = EntanglementGraph(tuple(range(nodes)), tuple(sorted(entries.items())))
        if g.edge_count() > 12:
            continue
        rep = entanglement_depth(g)
        assert rep.achieved >= rep.lower_bound
        assert rep.exact
        if not rep.within_degree_lemma:
            exceptions.append((k, rep.lower_bound, rep.achieved))
    # multigraphs with parallel edges may exceed the degree+1 window; report
    # rather than fail, per the open question about the qubit lemma
    fat = EntanglementGraph((1, 2, 3), (((1, 2), 2), ((1, 3), 2), ((2, 3), 2)))
    rep = entanglement_depth(fat)
    assert rep.achieved == 6 and rep.lower_bound == 4
    exceptions.append(("fat-triangle", rep.lower_bound, rep.achieved))
    print(f"  note: {len(exceptions)} multigraph instance(s) outside the degree+1 window: {exceptions}")
    # converter outputs stay within the window
    for d in (2, 3):
        ctx = DimensionContext.of(d)
        circ = random_clifford_circuit(ctx, 3, 12, seed=29)
        pat = clifford_constant_depth(circ)
        rep = entanglement_depth(entanglement_graph(pat))
        assert rep.achieved >= rep.lower_bound
        if rep.exact:
            assert rep.within_degree_lemma
    announce(10, "entanglement depth bounds", started, 60)
