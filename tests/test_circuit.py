import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers import (
    all_digit_tuples,
    circuit_items,
    counted_calls,
    longest_dependent_path,
    max_diff_up_to_phase,
    oracle_apply_gate,
)

from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import (
    Circuit,
    Operation,
    _simulate_rows,
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
from quditmbqc.sim import _BLOCK_ROW, _KINDS, Gate, GateName, _kernel, basis_state, fidelity_up_to_phase, gate_matrix, random_state


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
        got = simulate_circuit(c, psi)
        assert got.sites == c.inputs + tuple(q for q in c.qudits if q not in set(c.inputs))
        assert np.array_equal(got.amplitudes, kernel_final(c, psi))

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

    @pytest.mark.parametrize("d", [2, 3])
    def test_output_rows_without_other_wires_are_the_final_rows(self, d, monkeypatch):
        import quditmbqc.circuit as circuit_module
        import quditmbqc.sim as sim_module

        ctx = ctx_of(d)
        c = random_guni_circuit(ctx, 3, 12, seed=d)
        # an idle ancilla is one more wire, so this twin takes the SVD
        idle = replace(c, qudits=c.qudits + (max(c.qudits) + 1,))
        rng = np.random.default_rng(d)
        inputs = np.array([random_state(ctx, c.inputs, rng).amplitudes for _ in range(5)])
        final = circuit_module._simulate_rows(c, inputs)
        assert np.array_equal(output_rows(c, inputs), final)
        # the whole batch, then parts of one row (the twin) and of d rows
        for cap in (sim_module.AMPLITUDE_CAP, d ** len(idle.qudits)):
            monkeypatch.setattr(sim_module, "AMPLITUDE_CAP", cap)
            direct, svd = output_rows(c, inputs), output_rows(idle, inputs)
            assert np.max(np.abs(direct - final)) < 1e-12
            phases = np.sum(svd.conj() * direct, axis=1)
            assert np.max(np.abs(np.abs(phases) - 1)) < 1e-12
            assert np.max(np.abs(direct - phases[:, None] * svd)) < 1e-12

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

    def test_unitary_above_the_amplitude_cap_is_refused_before_allocating(self, monkeypatch):
        import quditmbqc.circuit as circuit_module

        # 13 inputs at d=2: a 2^13 x 2^13 matrix, 2^26 entries against the cap of 2^24
        c = Circuit(ctx_of(2), tuple(range(13)), tuple(range(13)), tuple(range(13)))
        monkeypatch.setattr(circuit_module.np, "empty", None)  # any allocation would fail with a TypeError
        with pytest.raises(ValueError, match="exceeds the cap of 16777216 entries"):
            circuit_unitary(c)

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


def runs_circuit(ctx, n, inputs, seed):
    """Runs of one to four single-site gates of every kind on random sites,
    each followed by a multi-site gate of every kind in turn, and a run of
    two on every site at the end; a run waits on its site while other
    sites take theirs."""
    d, rng = ctx.d, np.random.default_rng(seed)

    def angles():
        return tuple(rng.uniform(0, 2 * np.pi, d))

    singles = [
        Gate.f, Gate.finv, Gate.p,
        lambda: Gate.x(int(rng.integers(1, d))), lambda: Gate.z(int(rng.integers(1, d))),
        lambda: Gate.r(angles()), lambda: Gate.v(angles()), lambda: Gate.diag(angles()),
    ]
    multis = [
        lambda: Gate.cz(int(rng.integers(1, d))), lambda: Gate.cx(int(rng.integers(1, d))), Gate.swap,
        lambda: Gate.fanout(rng.integers(1, d, size=2)), lambda: Gate.mod(rng.integers(1, d, size=2)),
    ]
    kinds = iter(np.concatenate([rng.permutation(len(singles)) for _ in range(8)]).tolist())
    qudits = tuple(range(1, n + 1))
    ops = []
    for k in range(3 * len(multis)):
        site = int(rng.choice(qudits))
        ops += [Operation(singles[next(kinds)](), (site,)) for _ in range(rng.integers(1, 5))]
        g = multis[k % len(multis)]()
        ops.append(Operation(g, tuple(int(q) for q in rng.choice(qudits, size=g.arity, replace=False))))
    ops += [Operation(g(), (q,)) for q in qudits for g in (Gate.f, Gate.p)]
    return Circuit(ctx, qudits, qudits[:inputs], qudits[:inputs], tuple(ops))


def oracle_final(c, psi):
    """``psi`` on the inputs, the ancillas in |0>, then one oracle gate per op."""
    ancillas = tuple(q for q in c.qudits if q not in c.inputs)
    state = psi.extend(basis_state(c.ctx, ancillas, (0,) * len(ancillas))) if ancillas else psi
    for op in c.ops:
        state = oracle_apply_gate(state, op.gate, op.sites)
    return state


def check_one_row(c, seed):
    """``simulate_circuit`` on a random input against one oracle gate per op."""
    psi = random_state(c.ctx, c.inputs, np.random.default_rng(seed))
    want, got = oracle_final(c, psi), simulate_circuit(c, psi)
    assert got.sites == want.sites
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12


def check_many_rows(c, seed):
    """``circuit_unitary`` and ``output_rows`` of random inputs against the
    oracle unitary, built one oracle gate per op."""
    want = oracle_unitary(c)
    assert np.max(np.abs(circuit_unitary(c) - want)) < 1e-12
    rng = np.random.default_rng(seed)
    inputs = np.array([random_state(c.ctx, c.inputs, rng).amplitudes for _ in range(4)])
    got, images = output_rows(c, inputs), inputs @ want.T
    # each row is its image up to a phase of its own
    phases = np.sum(images.conj() * got, axis=1)
    assert np.max(np.abs(np.abs(phases) - 1)) < 1e-12
    assert np.max(np.abs(got - phases[:, None] * images)) < 1e-12


class TestSingleSiteRuns:
    """Each site's single-site gates run as one pass when a multi-site op or
    the end of the circuit reaches them, against one oracle gate per op."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_one_row_matches_one_oracle_gate_per_op(self, d):
        check_one_row(runs_circuit(ctx_of(d), 4, 3, seed=d), d)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_many_rows_match_one_oracle_gate_per_op(self, d):
        check_many_rows(runs_circuit(ctx_of(d), 3, 3, seed=10 + d), d)

    def test_the_lowered_mixed_circuit_makes_six_passes(self):
        import quditmbqc.circuit as circuit_module

        # X CZ v Z CX F P v, the k-th gate from qudit k, lowers to 25 ops:
        # CZ, CZ and 23 v gates in runs on qudits 1, 3, 4, 6, 6, 7 and 8.
        # Qudit 6's first run is flushed alone by the second CZ; at the end
        # the runs make blocks on qudits 1, 3-4 and 6-8: six passes
        ctx, theta = ctx_of(3), (0.1, 0.7, 2.3)
        gates = [Gate.x(), Gate.cz(), Gate.v(theta), Gate.z(2), Gate.cx(), Gate.f(), Gate.p(), Gate.v(theta)]
        qudits = tuple(range(1, 10))
        ops = [Operation(g, (k + 1, k + 2)[: g.arity]) for k, g in enumerate(gates)]
        low = lower_to_guni(Circuit(ctx, qudits, qudits, qudits, ops))
        psi = random_state(ctx, qudits, np.random.default_rng(0))
        want = psi
        for op in low.ops:
            want = oracle_apply_gate(want, op.gate, op.sites)
        with counted_calls(circuit_module) as passes:
            got = simulate_circuit(low, psi)
        assert len(low.ops) == 25 and passes.total() == 6
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12


def block_runs_circuit(ctx, n, inputs, seed, rounds=6):
    """Rounds of single-site runs of one to three gates on a window of
    adjacent wires, each wire's run all diagonal, all X or of any kind, then
    a basis permutation (CX, SWAP or FANOUT) and a CZ on random wires; the
    window starts on the first wire, ends on the last or lies anywhere, in
    turn.  A layer of v on every wire ends the circuit, so the last blocks
    cover the first and the last axis.  The qudit ids are in axis order."""
    d, rng = ctx.d, np.random.default_rng(seed)

    def angles():
        return tuple(rng.uniform(0, 2 * np.pi, d))

    def power():
        return int(rng.integers(1, d))

    families = [
        [lambda: Gate.z(power()), Gate.p, lambda: Gate.r(angles()), lambda: Gate.diag(angles())],
        [lambda: Gate.x(power())],
        [Gate.f, Gate.finv, Gate.p, lambda: Gate.x(power()), lambda: Gate.v(angles())],
    ]
    permutations = [lambda: Gate.cx(power()), Gate.swap, lambda: Gate.fanout(rng.integers(1, d, size=2))]
    qudits = tuple(range(1, n + 1))
    ops = []
    for r in range(rounds):
        width = int(rng.integers(2, n + 1))
        start = (0, n - width, int(rng.integers(n - width + 1)))[r % 3]
        for q in qudits[start : start + width]:
            family = families[int(rng.integers(len(families)))]
            ops += [Operation(family[int(rng.integers(len(family)))](), (q,)) for _ in range(rng.integers(1, 4))]
        for g in (permutations[int(rng.integers(len(permutations)))](), Gate.cz(power())):
            ops.append(Operation(g, tuple(int(q) for q in rng.choice(qudits, size=g.arity, replace=False))))
    ops += [Operation(Gate.v(angles()), (q,)) for q in qudits]
    return Circuit(ctx, qudits, qudits[:inputs], qudits[:inputs], tuple(ops))


def block_shapes(passes, d, n):
    """(d**k, rest) of every ``_apply_single`` matrix in a ``counted_calls`` log."""
    return [(len(args[3]), d ** (n - args[4]) // len(args[3])) for name, args in passes.log if name == "_apply_single"]


class TestBlockRuns:
    """Held runs on adjacent axes are flushed as one block, one matmul by the
    Kronecker product of their matrices with d**k <= _BLOCK_ROW, against one
    oracle gate per op."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_one_row_matches_one_oracle_gate_per_op(self, d):
        import quditmbqc.circuit as circuit_module

        # (wires, inputs): the first block of the last layer is one matmul,
        # its last block a block-row product
        n, inputs = {2: (8, 4), 3: (6, 3), 4: (5, 3), 6: (4, 2)}[d]
        for seed in range(3):
            with counted_calls(circuit_module) as passes:
                check_one_row(block_runs_circuit(ctx_of(d), n, inputs, seed=50 + seed), d)
            shapes = block_shapes(passes, d, n)
            assert all(size <= _BLOCK_ROW for size, _ in shapes)
            blocks = [size * rest for size, rest in shapes if size > d]
            assert max(blocks) > _BLOCK_ROW and min(blocks) <= _BLOCK_ROW

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_many_rows_match_one_oracle_gate_per_op(self, d):
        import quditmbqc.circuit as circuit_module

        n = {2: 5, 3: 4, 4: 3, 6: 3}[d]  # every wire an input: one oracle column each
        with counted_calls(circuit_module) as passes:
            check_many_rows(block_runs_circuit(ctx_of(d), n, n, seed=60 + d), d)
        shapes = block_shapes(passes, d, n)
        assert all(size <= _BLOCK_ROW for size, _ in shapes) and max(shapes)[0] > d

    @pytest.mark.parametrize("d, want", [(2, 2), (3, 4), (5, 6), (9, 12)])
    def test_a_layer_makes_one_pass_per_widest_block(self, d, want):
        import quditmbqc.circuit as circuit_module

        # v on each of 12 wires in wire order: blocks of the largest k with
        # d**k <= 64, run on no rows so that no amplitude is allocated
        ctx, n = ctx_of(d), 12
        qudits = tuple(range(1, n + 1))
        ops = [Operation(Gate.v(np.linspace(0, 1, d)), (q,)) for q in qudits]
        c = Circuit(ctx, qudits, (), (), tuple(ops))
        with counted_calls(circuit_module) as passes:
            _simulate_rows(c, np.empty((0, 1), dtype=np.complex128))
        k = max(k for k in range(1, n) if d**k <= _BLOCK_ROW)
        assert passes.total() == want == -(-n // k)
        assert all(size <= _BLOCK_ROW for size, _ in block_shapes(passes, d, n))


def diagonal_runs_circuit(ctx, n, inputs, seed, length=48):
    """Random ops on random sites, two in three of them diagonal (CZ^k, Z^k,
    P, R, DIAG) and the rest F, v, X, CX, FANOUT, MOD or SWAP, then a
    diagonal layer: Z on every site and CZ on a ring over all of them.  The
    qudit ids are shuffled, so a run's sites in id order are not in axis
    order."""
    d, rng = ctx.d, np.random.default_rng(seed)

    def angles():
        return tuple(rng.uniform(0, 2 * np.pi, d))

    def power():
        return int(rng.integers(1, d))

    diagonals = [lambda: Gate.cz(power()), lambda: Gate.z(power()), Gate.p, lambda: Gate.r(angles()), lambda: Gate.diag(angles())]
    others = [
        Gate.f, lambda: Gate.v(angles()), lambda: Gate.x(power()), lambda: Gate.cx(power()), Gate.swap,
        lambda: Gate.fanout(rng.integers(1, d, size=2)), lambda: Gate.mod(rng.integers(1, d, size=2)),
    ]
    qudits = tuple(int(q) for q in rng.permutation(np.arange(1, n + 1)))
    ops = []
    for _ in range(length):
        pool = diagonals if rng.random() < 2 / 3 else others
        g = pool[int(rng.integers(len(pool)))]()
        ops.append(Operation(g, tuple(int(q) for q in rng.choice(qudits, size=g.arity, replace=False))))
    ops += [Operation(Gate.z(power()), (q,)) for q in qudits]
    ops += [Operation(Gate.cz(power()), (q, p)) for q, p in zip(qudits, qudits[1:] + qudits[:1])]
    return Circuit(ctx, qudits, qudits[:inputs], qudits[:inputs], tuple(ops))


class TestDiagonalRuns:
    """Diagonal ops wait in one commuting run until a non-diagonal op touches
    one of its sites, and the run is one pass with its product table, against
    one oracle gate per op."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_one_row_matches_one_oracle_gate_per_op(self, d):
        check_one_row(diagonal_runs_circuit(ctx_of(d), 6, 4, seed=d), d)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_many_rows_match_one_oracle_gate_per_op(self, d):
        n = 4 if d < 6 else 3  # 6**4 oracle columns take seconds
        check_many_rows(diagonal_runs_circuit(ctx_of(d), n, n, seed=20 + d), d)

    def test_a_clifford_circuit_makes_fewer_passes_than_ops(self):
        import quditmbqc.circuit as circuit_module

        # P on every site, CZ on the matching (1 2)(3 4)..., F on every odd
        # site, then CZ on the matching (2 3)...(20 1): 50 ops on 20 sites.
        # The P layer and the first CZ layer make two runs of 10 sites; the
        # first F on a site of the second run flushes it.  In the last layer
        # each CZ applies the F on its odd site (10 passes) and joins a run
        # of at most 10 sites (two passes): 14 passes, against 50 with one
        # per op (the reference) and 50 with single-site runs alone.
        ctx, n = ctx_of(2), 20
        qudits = tuple(range(1, n + 1))
        ops = [Operation(Gate.p(), (q,)) for q in qudits]
        ops += [Operation(Gate.cz(), (q, q + 1)) for q in qudits[::2]]
        ops += [Operation(Gate.f(), (q,)) for q in qudits[::2]]
        ops += [Operation(Gate.cz(), (q, q % n + 1)) for q in qudits[1::2]]
        c = Circuit(ctx, qudits, qudits, qudits, tuple(ops))
        psi = random_state(ctx, qudits, np.random.default_rng(7))
        with counted_calls(circuit_module) as passes:
            got = simulate_circuit(c, psi)
        assert len(ops) == 50 and passes.total() == 14
        want = psi.amplitudes[np.newaxis]
        for op in ops:
            want = _kernel(want, 2, n, op.gate, tuple(qudits.index(q) for q in op.sites))
        assert np.max(np.abs(got.amplitudes - want.reshape(-1))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_run_over_every_site_is_split(self, d):
        import quditmbqc.circuit as circuit_module

        ctx, n = ctx_of(d), 7
        qudits = tuple(range(1, n + 1))
        ops = [Operation(Gate.cz(), (q, q % n + 1)) for q in qudits] + [Operation(Gate.p(), (q,)) for q in qudits]
        c = Circuit(ctx, qudits, qudits, qudits, tuple(ops))
        psi = random_state(ctx, qudits, np.random.default_rng(d))
        with counted_calls(circuit_module) as passes:
            got = simulate_circuit(c, psi)
        tables = [args[3] for name, args in passes.log if name == "_phase"]
        assert len(tables) > 1 and max(t.size for t in tables) <= d ** (n // 2)
        assert passes.total() < len(ops)
        assert np.max(np.abs(got.amplitudes - oracle_final(c, psi).amplitudes)) < 1e-12

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_held_diagonal_wires_join_the_run_at_the_end(self, d, n):
        import quditmbqc.circuit as circuit_module

        # a FANOUT over every wire, then P and Z on each: the P on its first
        # site applies the FANOUT, and at the end each wire's held P and Z join
        # the diagonal run, at most n // 2 = 2 wires to a run, rather than
        # making block passes
        ctx = ctx_of(d)
        qudits = tuple(range(1, n + 1))
        ops = [Operation(Gate.fanout((1,) * (n - 1)), qudits)]
        ops += [Operation(g, (q,)) for q in qudits for g in (Gate.p(), Gate.z(d - 1))]
        c = Circuit(ctx, qudits, qudits, qudits, tuple(ops))
        psi = random_state(ctx, qudits, np.random.default_rng(d + n))
        with counted_calls(circuit_module) as passes:
            got = simulate_circuit(c, psi)
        assert dict(passes) == {("_permute", None): 1, ("_phase", None): -(-n // 2)}
        assert sorted(a for name, args in passes.log if name == "_phase" for a in args[4]) == list(range(n))
        assert np.max(np.abs(got.amplitudes - oracle_final(c, psi).amplitudes)) < 1e-12


def permutation_runs_circuit(ctx, n, inputs, seed, length=48, others=True):
    """Random ops on random sites, two in three of them basis permutations
    (X^k, CX^k, SWAP, FANOUT and MOD on two or more targets) and the rest
    single-site gates of every kind and CZ^k, then an X on every site and a
    CX ring over all of them; ``others=False`` keeps the permutations
    alone.  The qudit ids are shuffled, so a run's sites in id order are
    not in axis order."""
    d, rng = ctx.d, np.random.default_rng(seed)

    def angles():
        return tuple(rng.uniform(0, 2 * np.pi, d))

    def power():
        return int(rng.integers(1, d))

    def coeffs():
        return rng.integers(0, d, size=int(rng.integers(2, n)))

    permutations = [
        lambda: Gate.x(power()), lambda: Gate.cx(power()), Gate.swap,
        lambda: Gate.fanout(coeffs()), lambda: Gate.mod(coeffs()),
    ]
    rest = [
        Gate.f, Gate.p, lambda: Gate.v(angles()), lambda: Gate.z(power()),
        lambda: Gate.r(angles()), lambda: Gate.diag(angles()), lambda: Gate.cz(power()),
    ]
    qudits = tuple(int(q) for q in rng.permutation(np.arange(1, n + 1)))
    ops = []
    for _ in range(length):
        pool = permutations if not others or rng.random() < 2 / 3 else rest
        g = pool[int(rng.integers(len(pool)))]()
        ops.append(Operation(g, tuple(int(q) for q in rng.choice(qudits, size=g.arity, replace=False))))
    ops += [Operation(Gate.x(power()), (q,)) for q in qudits]
    ops += [Operation(Gate.cx(power()), (q, p)) for q, p in zip(qudits, qudits[1:] + qudits[:1])]
    return Circuit(ctx, qudits, qudits[:inputs], qudits[:inputs], tuple(ops))


def kernel_final(c, psi):
    """``psi`` on the inputs, the ancillas in |0>, then one ``_kernel`` call per op."""
    sites = c.inputs + tuple(q for q in c.qudits if q not in c.inputs)
    ancillas = basis_state(c.ctx, sites[len(c.inputs):], (0,) * (len(sites) - len(c.inputs)))
    amps = psi.with_sites_order(c.inputs).extend(ancillas).amplitudes[np.newaxis]
    for op in c.ops:
        amps = _kernel(amps, c.ctx.d, len(sites), op.gate, tuple(sites.index(q) for q in op.sites))
    return amps.reshape(-1)


class TestPermutationRuns:
    """Basis permutations wait in one run, which a single-site X on one of
    its sites joins, and the run is one gather by its composed affine map,
    against one oracle gate per op."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_one_row_matches_one_oracle_gate_per_op(self, d):
        check_one_row(permutation_runs_circuit(ctx_of(d), 6, 4, seed=d), d)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_many_rows_match_one_oracle_gate_per_op(self, d):
        n = 4 if d < 6 else 3  # 6**4 oracle columns take seconds
        check_many_rows(permutation_runs_circuit(ctx_of(d), n, n, seed=30 + d), d)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_shift_only_circuits_are_bit_equal_to_one_kernel_per_op(self, d):
        import quditmbqc.circuit as circuit_module

        c = permutation_runs_circuit(ctx_of(d), 5, 3, seed=40 + d, length=24, others=False)
        psi = random_state(c.ctx, c.inputs, np.random.default_rng(d))
        with counted_calls(circuit_module) as passes:
            got = simulate_circuit(c, psi)
        assert dict(passes) == {("_permute", None): 1}
        assert np.array_equal(got.amplitudes, kernel_final(c, psi))

    def test_a_long_run_and_large_powers_stay_in_z_d(self):
        import quditmbqc.circuit as circuit_module

        # 120 alternating CXs compose to entries that grow like Fibonacci
        # numbers, past int64 unless reduced mod d as they go
        ctx, qudits = ctx_of(3), (1, 2, 3)
        ops = [Operation(Gate.cx(), (1, 2)), Operation(Gate.cx(), (2, 1))] * 60
        ops += [Operation(Gate.cx(10**20), (1, 3)), Operation(Gate.x(-(10**20)), (3,))]
        c = Circuit(ctx, qudits, qudits, qudits, tuple(ops))
        psi = random_state(ctx, qudits, np.random.default_rng(1))
        with counted_calls(circuit_module) as passes:
            got = simulate_circuit(c, psi)
        assert dict(passes) == {("_permute", None): 1}
        assert np.array_equal(got.amplitudes, kernel_final(c, psi))

    @pytest.mark.parametrize("kind", ["fanout", "mod"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_a_fanout_construction_makes_one_permutation_pass(self, d, kind):
        import quditmbqc.circuit as circuit_module

        # copy layer, parallel CX powers, d-1 uncopy layers; mod(v) also
        # takes a Fourier layer on each side of its 5 inputs, in blocks of
        # up to 6 adjacent sites at d=2 (one pass per layer) and 3 at d=3 (two)
        ctx = ctx_of(d)
        coeffs = [1, d - 1, 1, 1]
        c = build_generalized(ctx, coeffs, kind)
        psi = random_state(ctx, c.inputs, np.random.default_rng(d))
        with counted_calls(circuit_module) as passes:
            got = simulate_circuit(c, psi)
        assert passes["_permute", None] == 1
        assert len(c.inputs) == 5
        assert passes.total() == ({2: 3, 3: 5}[d] if kind == "mod" else 1)
        assert np.max(np.abs(got.amplitudes - oracle_final(c, psi).amplitudes)) < 1e-12

    @pytest.mark.parametrize("kind", ["fanout", "mod"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_a_lone_op_on_three_or_more_sites_is_one_gather(self, d, kind):
        import quditmbqc.circuit as circuit_module

        # the lone-kernel fork takes a run of one op on at most two sites;
        # a lone FANOUT or MOD over more is one gather, whether the end of
        # the circuit or an F on one of its sites applies it
        ctx, qudits = ctx_of(d), (1, 2, 3, 4)
        psi = random_state(ctx, qudits, np.random.default_rng(d))
        for coeffs in ((1, d - 1), (d - 1, 1, 1)):
            gate = Gate.fanout(coeffs) if kind == "fanout" else Gate.mod(coeffs)
            lone = Operation(gate, qudits[: len(coeffs) + 1])
            for ops, want in (
                ((lone,), {("_permute", None): 1}),
                ((lone, Operation(Gate.f(), (2,))), {("_permute", None): 1, ("_kernel", GateName.F): 1}),
            ):
                c = Circuit(ctx, qudits, qudits, qudits, ops)
                with counted_calls(circuit_module) as passes:
                    got = simulate_circuit(c, psi)
                assert dict(passes) == want, ops
                assert np.max(np.abs(got.amplitudes - oracle_final(c, psi).amplitudes)) < 1e-12

    def test_a_lone_shift_keeps_its_kernel_and_an_x_joins_the_run(self):
        import quditmbqc.circuit as circuit_module

        ctx = ctx_of(3)
        qudits = (1, 2, 3)
        psi = random_state(ctx, qudits, np.random.default_rng(0))
        runs = {
            # a lone CX and a lone X: one slice-copy pass each
            (Operation(Gate.cx(2), (1, 2)),): {("_kernel", GateName.CX): 1},
            (Operation(Gate.x(), (3,)),): {("_kernel", GateName.X): 1},
            # an X on a site of the run joins it; F on a site of the run applies it first
            (Operation(Gate.cx(), (1, 2)), Operation(Gate.x(2), (2,)), Operation(Gate.f(), (1,))): {
                ("_permute", None): 1, ("_kernel", GateName.F): 1,
            },
            # held X gates join the run ahead of a permutation on their site;
            # held gates that are not all X are applied first
            (Operation(Gate.x(), (2,)), Operation(Gate.x(2), (2,)), Operation(Gate.swap(), (2, 3))): {("_permute", None): 1},
            (Operation(Gate.x(), (2,)), Operation(Gate.f(), (2,)), Operation(Gate.swap(), (2, 3)), Operation(Gate.cx(), (1, 3))): {
                ("_apply_single", None): 1, ("_permute", None): 1,
            },
            # a CZ on a site of the run applies it first; a CX on the diagonal run applies that
            (Operation(Gate.cx(), (1, 2)), Operation(Gate.swap(), (2, 3)), Operation(Gate.cz(), (3, 1)),
             Operation(Gate.cx(), (1, 2))): {("_permute", None): 1, ("_kernel", GateName.CZ): 1, ("_kernel", GateName.CX): 1},
        }
        for ops, want in runs.items():
            c = Circuit(ctx, qudits, qudits, qudits, ops)
            with counted_calls(circuit_module) as passes:
                got = simulate_circuit(c, psi)
            assert dict(passes) == want, ops
            assert np.max(np.abs(got.amplitudes - oracle_final(c, psi).amplitudes)) < 1e-12


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

    def test_the_standard_model_names_each_wide_op(self):
        ctx = ctx_of(3)
        ops = (Operation(Gate.cx(), (0, 1)), Operation(Gate.fanout((1, 2)), (0, 1, 2)), Operation(Gate.mod((1, 1, 1)), (3, 2, 1, 0)))
        c = Circuit(ctx, (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3), ops)
        assert validate_gate_set(c) == ["op 1: FANOUT on 3 qudits exceeds arity 2", "op 2: MOD on 4 qudits exceeds arity 2"]
        assert validate_gate_set(c, "fanout") == []
        with pytest.raises(ValueError, match="unknown model 'bounded'"):
            validate_gate_set(c, "bounded")

    def test_only_fanout_and_mod_can_act_on_more_than_two_qudits(self):
        """The premise of the one arity rule: every other kind has a fixed arity of at most 2."""
        wide = {name for name, kind in _KINDS.items() if kind.arity is None}
        assert wide == {GateName.FANOUT, GateName.MOD}
        assert all(kind.arity <= 2 for name, kind in _KINDS.items() if name not in wide)

    def test_a_two_qudit_cascade_passes_both_models(self):
        ctx = ctx_of(2)
        c = cascade_circuit(ctx, 3)
        assert not validate_gate_set(c, "standard")
        assert not validate_gate_set(c, "fanout")


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


def per_op_checks(ctx, qudits, ops) -> str | None:
    """The first refusal of the checks made on every op in full, in the
    order ``Circuit`` keeps: arity, distinct sites, known sites, then
    ``Gate.validate``; None when every op passes."""
    qs = set(qudits)
    for op in ops:
        if len(op.sites) != op.gate.arity:
            return f"{op.gate.name.value} expects {op.gate.arity} sites, got {len(op.sites)}"
        if len(set(op.sites)) != len(op.sites):
            return "op sites must be distinct"
        if not set(op.sites) <= qs:
            return f"op touches unknown qudit(s) {set(op.sites) - qs}"
        try:
            op.gate.validate(ctx)
        except ValueError as exc:
            return str(exc)
    return None


class TestOneCheckPerGateObject:
    def test_validate_runs_once_per_gate_object(self, monkeypatch):
        """Two equal v gates are two objects and are validated twice; one CX
        object on fifteen ops is validated once."""
        theta = (0.1, 0.2, 0.3)
        twins = Gate.v(theta), Gate.v(theta)
        ops = [Operation(g, (q,)) for q in range(4) for g in twins]
        ops += [Operation(Gate.cx(2), (q, q + 1)) for q in range(3)] * 5
        seen = []
        validate = Gate.validate
        monkeypatch.setattr(Gate, "validate", lambda g, ctx: seen.append(g) or validate(g, ctx))
        Circuit(ctx_of(3), range(4), range(4), range(4), ops)
        assert twins[0] == twins[1] and len(seen) == 3
        assert seen[0] is twins[0] and seen[1] is twins[1] and seen[2] is Gate.cx(2)

    def test_a_shared_invalid_gate_raises_at_its_first_op(self, monkeypatch):
        bad = Gate.v((0.0, float("nan")))
        ops = [Operation(Gate.cz(), (0, 1)), Operation(bad, (0,)), Operation(Gate.f(), (7,)), Operation(bad, (1,))]
        seen = []
        validate = Gate.validate
        monkeypatch.setattr(Gate, "validate", lambda g, ctx: seen.append(g) or validate(g, ctx))
        with pytest.raises(ValueError) as exc:
            Circuit(ctx_of(2), (0, 1), (0, 1), (0, 1), ops)
        assert str(exc.value) == "v angles must be finite, got [0.0, nan]"
        assert seen == [Gate.cz(), bad]
        # a valid shared gate still has each op's sites checked
        ops = [Operation(Gate.f(), (0,)), Operation(Gate.f(), (7,))]
        with pytest.raises(ValueError, match=r"^op touches unknown qudit\(s\) \{7\}$"):
            Circuit(ctx_of(2), (0, 1), (0, 1), (0, 1), ops)

    @pytest.mark.parametrize("seed", range(60))
    def test_refusals_match_the_per_op_checks(self, seed):
        """Random op lists over a pool of shared gate objects, some invalid,
        with some ops given too many, repeated or unknown sites."""
        ctx, rng = ctx_of(2), np.random.default_rng(seed)
        pool = [
            Gate.cz(), Gate.x(3), Gate.v((0.0, 1.0)), Gate.fanout((1, 1)), Gate.f(),
            Gate.v((0.0, float("nan"))), Gate(GateName.CZ, theta=(0.0, 0.0)), Gate.fanout(()), Gate.diag((0.0,)),
        ]
        ops = []
        for _ in range(int(rng.integers(1, 8))):
            gate = pool[rng.integers(len(pool))]
            sites = [int(q) for q in rng.choice(4, size=gate.arity, replace=False)]
            fault = rng.integers(10)
            if fault == 0:
                sites.append(sites[0] ^ 1 if len(sites) == 1 else 4 - sum(sites) % 4)
            elif fault == 1:
                sites[-1] = sites[0] if len(sites) > 1 else 9
            elif fault == 2:
                sites[0] = 9
            ops.append(Operation(gate, tuple(sites)))
        want = per_op_checks(ctx, range(4), ops)
        if want is None:
            assert Circuit(ctx, range(4), (), (), ops).ops == tuple(ops)
        else:
            with pytest.raises(ValueError) as exc:
                Circuit(ctx, range(4), (), (), ops)
            assert str(exc.value) == want
