import numpy as np
import pytest

from helpers import (
    DIAGONAL_GATES,
    PERMUTATION_GATES,
    apply_matrix,
    oracle_apply_gate,
    oracle_collapse_rows,
    oracle_measure_branches,
    oracle_reordered,
    plus_state,
    purity,
    reduced_density_matrix,
)
from quditmbqc.algebra import DimensionContext, xi_p
from quditmbqc.circuit import Circuit, Operation, _outputs_first, _run_sites, output_rows, simulate_circuit
from quditmbqc.convert import basic_v_pattern
from quditmbqc.pattern import Measure, Pattern, Signal, run, run_branches, run_rows
from quditmbqc.sim import (
    _KINDS,
    _collapse_rows,
    _reordered,
    _kernel,
    _phase,
    _rotate_rows,
    _sample_outcomes,
    Gate,
    GateName,
    StateVector,
    basis_state,
    fidelity_up_to_phase,
    gate_inverse_ops,
    gate_matrix,
    random_state,
)


def ctx_of(d):
    return DimensionContext.of(d)


def random_theta(rng, d):
    return tuple(rng.uniform(0.0, 2.0 * np.pi, size=d))


def kernel(state, gate, targets):
    """The gate on one state, run as a one-row batch of the simulator kernel."""
    axes = tuple(state.site_axis(t) for t in targets)
    amps = _kernel(state.amplitudes[np.newaxis], state.ctx.d, state.num_sites, gate, axes)
    return StateVector(state.ctx, state.sites, amps.reshape(-1))


def measuring(ctx, sites, site, theta, s_val=0, t_val=0):
    """A pattern on the input ``sites`` that measures ``site`` in the frame
    v(theta) X^s Z^t, leaving the other sites as outputs.  Its signals read
    the one non-input qudit, measured first with outcome 1 for certain:
    F|0> in the frame v(-2 pi k / d) is |1>."""
    d = ctx.d
    signal = max(sites) + 1
    seq = (
        Measure(signal, tuple(-2.0 * np.pi * k / d for k in range(d)), Signal.zero(d), Signal.zero(d)),
        Measure(site, theta, Signal.of(d, {signal: s_val}), Signal.of(d, {signal: t_val})),
    )
    return Pattern(ctx, tuple(sites) + (signal,), tuple(sites), tuple(q for q in sites if q != site), seq)


def forced(p, site, j):
    """Forced outcomes of a ``measuring`` pattern: j on ``site``."""
    return {p.qudits[-1]: 1, site: j}


ALL_GATE_BUILDERS = [
    lambda d, rng: Gate.f(),
    lambda d, rng: Gate.finv(),
    lambda d, rng: Gate.x(int(rng.integers(1, d))),
    lambda d, rng: Gate.z(int(rng.integers(1, d))),
    lambda d, rng: Gate.p(),
    lambda d, rng: Gate.r(random_theta(rng, d)),
    lambda d, rng: Gate.v(random_theta(rng, d)),
    lambda d, rng: Gate.cz(int(rng.integers(1, d))),
    lambda d, rng: Gate.cx(int(rng.integers(1, d))),
    lambda d, rng: Gate.swap(),
    lambda d, rng: Gate.fanout(tuple(rng.integers(d, size=2))),
    lambda d, rng: Gate.mod(tuple(rng.integers(d, size=2))),
    lambda d, rng: Gate.diag(random_theta(rng, d)),
]


class TestGateMatrices:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_every_kind_is_unitary(self, d):
        ctx = ctx_of(d)
        rng = np.random.default_rng(d)
        for build in ALL_GATE_BUILDERS:
            g = build(d, rng)
            u = gate_matrix(g, ctx)
            assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-10, g

    def test_v_is_fourier_after_phases(self):
        ctx = ctx_of(3)
        rng = np.random.default_rng(0)
        theta = random_theta(rng, 3)
        got = gate_matrix(Gate.v(theta), ctx)
        want = gate_matrix(Gate.f(), ctx) @ gate_matrix(Gate.r(theta), ctx)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_mod_is_fourier_conjugated_fanout(self, d):
        # MOD(v) = F^(x) FANOUT(-v) Finv^(x) for arity up to 3
        ctx = ctx_of(d)
        for coeffs in [(1,), (1, 1), (2 % d, 1)]:
            nq = len(coeffs) + 1
            f = gate_matrix(Gate.f(), ctx)
            layer = f
            for _ in range(nq - 1):
                layer = np.kron(layer, f)
            neg = tuple((-c) % d for c in coeffs)
            got = layer @ gate_matrix(Gate.fanout(neg), ctx) @ layer.conj().T
            assert np.max(np.abs(got - gate_matrix(Gate.mod(coeffs), ctx))) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("coeffs", [(1,), (1, 1)])
    def test_fanout_has_order_d(self, d, coeffs):
        ctx = ctx_of(d)
        u = gate_matrix(Gate.fanout(coeffs), ctx)
        dim = d ** (len(coeffs) + 1)
        assert np.max(np.abs(np.linalg.matrix_power(u, d) - np.eye(dim))) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_powers_past_int64_are_reduced_mod_d(self, d):
        ctx, huge = ctx_of(d), 10**20
        for build in (Gate.x, Gate.cx, lambda k: Gate.fanout((k, 1)), lambda k: Gate.mod((1, k))):
            assert np.array_equal(gate_matrix(build(huge), ctx), gate_matrix(build(huge % d), ctx))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_inverse_ops(self, d):
        ctx = ctx_of(d)
        rng = np.random.default_rng(d + 5)
        for build in ALL_GATE_BUILDERS:
            g = build(d, rng)
            u = gate_matrix(g, ctx)
            inv = np.eye(u.shape[0], dtype=complex)
            for ig, _ in gate_inverse_ops(g, (0,) * g.arity, d):
                inv = gate_matrix(ig, ctx) @ inv
            assert np.max(np.abs(inv @ u - np.eye(u.shape[0]))) < 1e-10, g


class TestCliffordForms:
    """Each Clifford diagonal's exact phase form against its phase table."""

    @pytest.mark.parametrize("d", range(2, 10))
    def test_form_gives_the_phase_table(self, d):
        ctx = ctx_of(d)
        gates = [Gate.p()] + [make(k) for make in (Gate.z, Gate.cz) for k in range(-d - 1, 2 * d + 1)]
        assert {g.name for g in gates} == {name for name, kind in _KINDS.items() if kind.form}
        for g in gates:
            kind = _KINDS[g.name]
            table = kind.phases(g, d)
            x = np.indices(table.shape)
            exponent = sum(c * x[i] * (1 if j is None else x[j]) for c, i, j in kind.form(g, d))
            assert np.max(np.abs(np.exp(2j * np.pi * (exponent % ctx.D) / ctx.D) - table)) < 1e-12, g

    def test_phase_gate_form_is_xi_p(self):
        for d in range(2, 40):
            ctx = ctx_of(d)
            form = _KINDS[GateName.P].form(Gate.p(), d)
            for n in range(-5 * d, 5 * d):
                assert sum(c * n * (1 if j is None else n) for c, _, j in form) % ctx.D == xi_p(ctx, n), (d, n)


class TestApplyGate:
    """Gates on one state as a one-row batch; argument checks where a
    circuit is built."""

    def test_fourier_on_zero_is_uniform(self):
        ctx = ctx_of(3)
        out = kernel(basis_state(ctx, (0,), (0,)), Gate.f(), (0,))
        assert np.max(np.abs(out.amplitudes - np.full(3, 1 / np.sqrt(3)))) < 1e-12

    def test_fanout_adds_control_to_targets(self):
        ctx = ctx_of(3)
        state = basis_state(ctx, (0, 1, 2), (1, 0, 2))
        out = kernel(state, Gate.fanout((1, 1)), (0, 1, 2))
        want = basis_state(ctx, (0, 1, 2), (1, 1, 0))
        assert fidelity_up_to_phase(out, want) > 1 - 1e-12

    def test_cz_phases_one_one(self):
        ctx = ctx_of(2)
        out = kernel(basis_state(ctx, (0, 1), (1, 1)), Gate.cz(), (0, 1))
        assert abs(out.amplitudes[3] + 1) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_specialized_paths_match_dense(self, d):
        ctx = ctx_of(d)
        rng = np.random.default_rng(d + 1)
        sites = (5, 9, 11)
        for build in ALL_GATE_BUILDERS:
            g = build(d, rng)
            target = sites[: g.arity]
            state = random_state(ctx, sites, rng)
            got = kernel(state, g, target)
            want = apply_matrix(state, gate_matrix(g, ctx), target)
            assert np.max(np.abs(got.amplitudes - want)) < 1e-10, g

    def test_norm_preserved_over_many_gates(self):
        ctx = ctx_of(2)
        rng = np.random.default_rng(3)
        state = random_state(ctx, (0, 1, 2, 3), rng)
        for _ in range(1000):
            g = ALL_GATE_BUILDERS[rng.integers(len(ALL_GATE_BUILDERS))](2, rng)
            targets = tuple(int(t) for t in rng.choice(4, size=g.arity, replace=False))
            state = kernel(state, g, targets)
        assert abs(state.norm() - 1) < 1e-9

    def test_arity_and_site_errors(self):
        ctx = ctx_of(2)
        for gate, sites in [(Gate.cz(), (0,)), (Gate.f(), (7,)), (Gate.cz(), (0, 0))]:
            with pytest.raises(ValueError):
                Circuit(ctx, (0, 1), (0, 1), (0, 1), (Operation(gate, sites),))

    @pytest.mark.parametrize(
        "gate",
        [
            Gate(GateName.CZ, theta=(0.0, 0.0)),
            Gate(GateName.F, k=2),
            Gate(GateName.SWAP, coeffs=(1,)),
            Gate(GateName.FANOUT, coeffs=(1,), angles=(0.0, 0.0)),
            Gate(GateName.V, k=0, theta=(0.0, 0.0)),
            Gate.r((0.0, float("nan"))),
            Gate.v((float("inf"), 0.0)),
            Gate.diag((0.0, float("-inf"))),
        ],
        ids=["CZ-theta", "F-k", "SWAP-coeffs", "FANOUT-angles", "v-k", "R-nan", "v-inf", "DIAG-neginf"],
    )
    def test_rejects_unread_and_non_finite_parameters(self, gate):
        with pytest.raises(ValueError):
            Circuit(ctx_of(2), (0, 1), (0, 1), (0, 1), (Operation(gate, (0, 1)[: gate.arity]),))


# One builder per gate kind; ``trial`` 0 gives FANOUT/MOD a zero coefficient.
KIND_BUILDERS = {
    GateName.F: lambda d, rng, trial: Gate.f(),
    GateName.FINV: lambda d, rng, trial: Gate.finv(),
    GateName.X: lambda d, rng, trial: Gate.x(int(rng.integers(-d, 2 * d))),
    GateName.Z: lambda d, rng, trial: Gate.z(int(rng.integers(-d, 2 * d))),
    GateName.P: lambda d, rng, trial: Gate.p(),
    GateName.R: lambda d, rng, trial: Gate.r(random_theta(rng, d)),
    GateName.V: lambda d, rng, trial: Gate.v(random_theta(rng, d)),
    GateName.CZ: lambda d, rng, trial: Gate.cz(int(rng.integers(1, d))),
    GateName.CX: lambda d, rng, trial: Gate.cx(int(rng.integers(1, d))),
    GateName.SWAP: lambda d, rng, trial: Gate.swap(),
    GateName.FANOUT: lambda d, rng, trial: Gate.fanout(
        (0, int(rng.integers(1, d))) if trial == 0 else tuple(rng.integers(d, size=2))
    ),
    GateName.MOD: lambda d, rng, trial: Gate.mod(
        (int(rng.integers(1, d)), 0) if trial == 0 else tuple(rng.integers(d, size=2))
    ),
    GateName.DIAG: lambda d, rng, trial: Gate.diag(random_theta(rng, d)),
}
ORACLE_SITES = {2: 6, 3: 4, 5: 3}


def oracle_case(d, seed):
    ctx = ctx_of(d)
    rng = np.random.default_rng(seed)
    sites = tuple(int(s) for s in rng.permutation(np.arange(10, 10 + ORACLE_SITES[d])))
    return ctx, rng, sites


class TestKernelOracle:
    """The axis-based kernels against the index-arithmetic oracle."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("kind", list(GateName), ids=lambda k: k.value)
    def test_kernel_matches_oracle(self, kind, d):
        ctx, rng, sites = oracle_case(d, 100 * d + list(GateName).index(kind))
        for trial in range(8):
            g = KIND_BUILDERS[kind](d, rng, trial)
            targets = tuple(int(t) for t in rng.choice(sites, size=g.arity, replace=False))
            state = random_state(ctx, sites, rng)
            for order in [targets, targets[::-1]] if g.arity == 2 else [targets]:
                got = kernel(state, g, order).amplitudes
                want = oracle_apply_gate(state, g, order).amplitudes
                if kind in PERMUTATION_GATES or kind in DIAGONAL_GATES:
                    assert np.array_equal(got, want), (g, order)
                else:
                    assert np.max(np.abs(got - want)) < 1e-12, (g, order)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_measurement_frame_matches_three_passes(self, d):
        ctx, rng, sites = oracle_case(d, d)
        for s_val, t_val in [(1, 1), (d - 1, 1), (1, d - 1), (2 * d + 1, -1)]:
            state = random_state(ctx, sites, rng)
            site = sites[int(rng.integers(len(sites)))]
            theta = random_theta(rng, d)
            want = oracle_measure_branches(state, site, theta, s_val, t_val)
            p = measuring(ctx, sites, site, theta, s_val, t_val)
            got = run_branches(p, state)
            assert [b.outcomes[site] for b in got] == [j for j, _, _ in want]
            for b, (j, prob, amps) in zip(got, want):
                assert abs(b.probability - prob) < 1e-12
                assert b.state.sites == tuple(s for s in sites if s != site)
                assert np.max(np.abs(b.state.amplitudes - amps)) < 1e-12
                one = run(p, state, mode="forced", forced_outcomes=forced(p, site, j))
                assert one.probability == b.probability
                assert np.array_equal(one.state.amplitudes, b.state.amplitudes)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("kind", list(GateName), ids=lambda k: k.value)
    def test_kernel_acts_on_every_row_of_a_batch(self, kind, d):
        # the leading batch folds into the first block of the split view, so a
        # batch gives the rows one state at a time would
        ctx, rng, sites = oracle_case(d, 300 * d + list(GateName).index(kind))
        for trial in range(4):
            g = KIND_BUILDERS[kind](d, rng, trial)
            targets = tuple(int(t) for t in rng.choice(sites, size=g.arity, replace=False))
            states = [random_state(ctx, sites, rng) for _ in range(3)]
            rows = np.array([st.amplitudes for st in states])
            axes = tuple(sites.index(t) for t in targets)
            got = _kernel(rows, d, len(sites), g, axes).reshape(len(rows), -1)
            for row, st in zip(got, states):
                want = kernel(st, g, targets).amplitudes
                if kind in PERMUTATION_GATES or kind in DIAGONAL_GATES:
                    assert np.array_equal(row, want), (g, targets)
                else:  # a larger matmul may sum in another order
                    assert np.max(np.abs(row - want)) < 1e-12, (g, targets)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_each_row_rotates_by_its_own_frame(self, d):
        ctx, rng, sites = oracle_case(d, 40 + d)
        theta = random_theta(rng, d)
        axis = int(rng.integers(len(sites)))
        states = [random_state(ctx, sites, rng) for _ in range(6)]
        s_vals, t_vals = rng.integers(0, d, size=6), rng.integers(0, d, size=6)
        view, probs = _rotate_rows(np.array([st.amplitudes for st in states]), ctx, len(sites), axis, theta, s_vals, t_vals)
        for r, st in enumerate(states):
            want = oracle_measure_branches(st, sites[axis], theta, int(s_vals[r]), int(t_vals[r]))
            for j, p, amps in want:
                assert abs(probs[r, j] - p) < 1e-12
                assert np.max(np.abs(view[r, :, j, :].reshape(-1) / np.sqrt(p) - amps)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_phase_tables_follow_the_axes_in_the_order_given(self, d):
        # DIAG on each target times CZ^k on the first two: an asymmetric table
        # over the targets in the order given, descending or mixed in axis
        ctx, rng, sites = oracle_case(d, 60 + d)
        lo, mid, hi = sorted(int(a) for a in rng.choice(len(sites), size=3, replace=False))
        for axes in [(hi, lo), (hi, mid, lo), (mid, lo, hi), (hi, lo, mid)]:
            targets = tuple(sites[a] for a in axes)
            k = int(rng.integers(1, d))
            gates = [(Gate.diag(random_theta(rng, d)), (t,)) for t in targets] + [(Gate.cz(k), targets[:2])]
            table = np.ones((d,) * len(axes), dtype=complex)
            for g, on in gates:
                shape = [d if t in on else 1 for t in targets]
                table = table * gate_matrix(g, ctx).diagonal().reshape(shape)
            assert not np.allclose(table, np.transpose(table, np.roll(range(len(axes)), 1)))
            state = want = random_state(ctx, sites, rng)
            for g, on in gates:
                want = oracle_apply_gate(want, g, on)
            got = _phase(state.amplitudes[np.newaxis], d, len(sites), table, axes)
            assert np.max(np.abs(got - want.amplitudes)) < 1e-12, axes

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_collapse_matches_the_abs_square_sum_at_every_axis(self, d):
        # one row per frame (s, t), every outcome of every row kept
        ctx, rng, sites = oracle_case(d, 50 + d)
        s_vals, t_vals = np.divmod(np.arange(d * d), d)
        theta = random_theta(rng, d)
        for axis in range(len(sites)):
            amps = np.array([random_state(ctx, sites, rng).amplitudes for _ in range(d * d)])
            view, probs = _rotate_rows(amps, ctx, len(sites), axis, theta, s_vals, t_vals)
            rows, outcomes = np.divmod(np.arange(d**3), d)
            want, want_probs = oracle_collapse_rows(view, rows, outcomes)
            assert np.max(np.abs(probs - want_probs)) < 1e-12
            kept, p = _collapse_rows(view, probs, rows, outcomes)
            assert np.array_equal(p, probs[rows, outcomes])
            assert np.max(np.abs(kept - want)) < 1e-12, axis

    @pytest.mark.parametrize("d", [2, 3])
    def test_mutating_results_leaves_tables_intact(self, d):
        ctx, rng, sites = oracle_case(d, 7 * d)
        gates = [KIND_BUILDERS[kind](d, rng, 1) for kind in GateName]
        state = random_state(ctx, sites, rng)

        def scribble(arr):
            arr[...] = np.nan

        for g in gates:
            scribble(kernel(state, g, sites[: g.arity]).amplitudes)
            scribble(gate_matrix(g, ctx))
        scribble(plus_state(ctx, 0).amplitudes)
        for b in run_branches(measuring(ctx, sites, sites[0], random_theta(rng, d), 1, 1), state):
            scribble(b.state.amplitudes)
        for g in gates:
            got = kernel(state, g, sites[: g.arity]).amplitudes
            want = oracle_apply_gate(state, g, sites[: g.arity]).amplitudes
            assert np.max(np.abs(got - want)) < 1e-12, g
        assert np.max(np.abs(plus_state(ctx, 0).amplitudes - np.full(d, 1 / np.sqrt(d)))) < 1e-12


class TestMeasure:
    """One measurement, run as a pattern."""

    def test_conjugate_basis_state_is_deterministic(self):
        ctx = ctx_of(2)
        p = measuring(ctx, (0,), 0, (0.0, 0.0))
        res = run(p, plus_state(ctx, 0), mode="forced", forced_outcomes=forced(p, 0, 0))
        assert res.outcomes[0] == 0 and abs(res.probability - 1) < 1e-12

    def test_unbiased_on_computational_state(self):
        ctx = ctx_of(3)
        branches = run_branches(measuring(ctx, (0,), 0, (0.0, 0.0, 0.0)), basis_state(ctx, (0,), (0,)))
        assert len(branches) == 3
        for b in branches:
            assert abs(b.probability - 1 / 3) < 1e-9

    def test_branch_probabilities_sum_to_one(self):
        ctx = ctx_of(3)
        rng = np.random.default_rng(4)
        state = random_state(ctx, (0, 1), rng)
        branches = run_branches(measuring(ctx, (0, 1), 0, random_theta(rng, 3), 1, 2), state)
        assert abs(sum(b.probability for b in branches) - 1) < 1e-9
        for b in branches:
            assert abs(b.state.norm() - 1) < 1e-9

    def test_distribution_independent_of_unentangled_partner(self):
        ctx = ctx_of(2)
        rng = np.random.default_rng(5)
        theta = random_theta(rng, 2)
        psi = random_state(ctx, (0,), rng)
        reference = None
        p = measuring(ctx, (0, 1), 0, theta)
        for _ in range(5):
            phi = random_state(ctx, (1,), rng)
            probs = sorted((b.outcomes[0], round(b.probability, 12)) for b in run_branches(p, psi.extend(phi)))
            if reference is None:
                reference = probs
            assert probs == reference

    def test_forced_zero_probability_branch_raises(self):
        ctx = ctx_of(2)
        # measuring F|+_0> in the rotated frame leaves outcome 1 impossible
        p = measuring(ctx, (0,), 0, (0.0, 0.0))
        with pytest.raises(ValueError, match="has probability"):
            run(p, plus_state(ctx, 0), mode="forced", forced_outcomes=forced(p, 0, 1))

    def test_sampling_rule_is_generator_choice(self):
        # one uniform per draw, against the cumulative distribution: the same
        # outcome Generator.choice picks from the same stream position
        rng = np.random.default_rng(17)
        for _ in range(20000):
            d = int(rng.integers(2, 7))
            probs = rng.random(d) ** int(rng.integers(1, 6))
            if rng.random() < 0.3:
                probs[rng.integers(d)] = 0.0
            position = rng.bit_generator.state
            want = int(rng.choice(d, p=probs / probs.sum()))
            rng.bit_generator.state = position
            assert int(_sample_outcomes(probs[np.newaxis], [rng.random()])[0]) == want

    def test_sampled_reproducible(self):
        ctx = ctx_of(3)
        rng_state = np.random.default_rng(6)
        state = random_state(ctx, (0, 1), rng_state)
        p = measuring(ctx, (0, 1), 0, (0.1, 0.2, 0.3))
        outs = []
        for _ in range(2):
            res = run(p, state, mode="sampled", seed=42)
            outs.append((res.outcomes, res.probability))
        assert outs[0] == outs[1]


class TestFidelityAndLayout:
    def test_global_phase_invariance(self):
        ctx = ctx_of(3)
        rng = np.random.default_rng(8)
        psi = random_state(ctx, (0, 1), rng)
        rotated = StateVector(ctx, psi.sites, np.exp(0.7j) * psi.amplitudes)
        assert abs(fidelity_up_to_phase(psi, rotated) - 1) < 1e-12

    def test_orthogonal_states(self):
        ctx = ctx_of(2)
        a = basis_state(ctx, (0,), (0,))
        b = basis_state(ctx, (0,), (1,))
        assert fidelity_up_to_phase(a, b) < 1e-12

    def test_mutually_unbiased_overlap_d4(self):
        ctx = ctx_of(4)
        assert abs(fidelity_up_to_phase(plus_state(ctx, 0), basis_state(ctx, (0,), (0,))) - 0.5) < 1e-12

    def test_site_order_alignment(self):
        ctx = ctx_of(2)
        rng = np.random.default_rng(9)
        psi = random_state(ctx, (0, 1, 2), rng)
        shuffled = psi.with_sites_order((2, 0, 1))
        assert abs(fidelity_up_to_phase(psi, shuffled) - 1) < 1e-12

    def test_site_set_mismatch(self):
        ctx = ctx_of(2)
        with pytest.raises(ValueError):
            fidelity_up_to_phase(basis_state(ctx, (0,), (0,)), basis_state(ctx, (1,), (0,)))

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda ctx: StateVector(ctx, (1, 1), np.zeros(4)), ValueError, "^duplicate site identifiers$"),
            (lambda ctx: StateVector(ctx, (1, 2), np.zeros(3)), ValueError, "^amplitude vector has wrong length$"),
            (lambda ctx: basis_state(ctx, (1, 2), (0, 1)).site_axis(3), KeyError, "site 3 not in state"),
            (lambda ctx: basis_state(ctx, (1, 2), (0, 1)).with_sites_order((1, 3)), ValueError, "^new ordering must be a permutation of the sites$"),
            (lambda ctx: basis_state(ctx, (1, 2), (0, 1)).with_sites_order((1, 2, 2)), ValueError, "^new ordering must be a permutation of the sites$"),
            (lambda ctx: basis_state(ctx, (1, 2), (0, 1)).extend(basis_state(ctx, (2,), (0,))), ValueError, "^site sets overlap$"),
            (lambda ctx: basis_state(ctx, (1, 2), (0,)), ValueError, "^one digit per site required$"),
        ],
        ids=["duplicate-sites", "wrong-length", "unknown-site", "reorder-to-other-sites", "reorder-repeating-a-site", "overlapping-extend", "digit-count"],
    )
    def test_state_refusals(self, make, error, message):
        with pytest.raises(error, match=message):
            make(ctx_of(2))

    def test_first_site_most_significant(self):
        ctx = ctx_of(3)
        state = basis_state(ctx, (4, 7), (2, 1))
        assert abs(state.amplitudes[2 * 3 + 1] - 1) < 1e-12

    def test_reduced_density_and_purity(self):
        ctx = ctx_of(2)
        rng = np.random.default_rng(11)
        psi = random_state(ctx, (0,), rng).extend(random_state(ctx, (1,), rng))
        rho = reduced_density_matrix(psi, (0,))
        assert abs(purity(rho) - 1) < 1e-12
        bell = StateVector(ctx, (0, 1), np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert abs(purity(reduced_density_matrix(bell, (0,))) - 0.5) < 1e-12


class TestRowHelpers:
    """The one reorder of rows to a new site order, the one input row of a
    run and the one rows check, each read by every caller."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("count", [1, 6])
    def test_every_reorder_matches_the_former_transposes(self, d, count):
        rng = np.random.default_rng(d * 10 + count)
        sites = tuple(int(q) for q in rng.permutation([3, 8, 1, 6]))
        rows = rng.normal(size=(count, d ** len(sites))) + 1j * rng.normal(size=(count, d ** len(sites)))
        for _ in range(4):
            order = tuple(int(q) for q in rng.permutation(sites))
            want = oracle_reordered(rows, d, sites, order)
            got = _reordered(rows, d, sites, order)
            assert got.flags.c_contiguous and np.array_equal(got, want)
            state = StateVector(ctx_of(d), sites, rows[0])
            assert np.array_equal(state.with_sites_order(order).amplitudes, want[0])
            # a circuit whose inputs and outputs are two shuffled halves of its qudits
            c = Circuit(ctx_of(d), sites, order[:2], order[1:3])
            final = rows.reshape(count, -1)
            others = tuple(q for q in _run_sites(c) if q not in c.outputs)
            want = oracle_reordered(final, d, _run_sites(c), c.outputs + others).reshape(count, d**2, -1)
            assert np.array_equal(_outputs_first(c, final), want)

    def test_a_run_refuses_a_state_on_other_sites(self):
        ctx = ctx_of(3)
        c = Circuit(ctx, (0, 1), (0, 1), (0, 1), (Operation(Gate.cx(), (0, 1)),))
        p = basic_v_pattern(ctx, 0, 1, (0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="^input state must be defined exactly on the circuit inputs$"):
            simulate_circuit(c, basis_state(ctx, (0, 2), (1, 1)))
        for go in (lambda psi: run(p, psi), lambda psi: run_branches(p, psi)):
            with pytest.raises(ValueError, match="^input state must be defined exactly on the pattern inputs$"):
                go(basis_state(ctx, (1,), (1,)))

    def test_a_run_refuses_a_state_of_another_dimension_by_name(self):
        c = Circuit(ctx_of(2), (0, 1), (0, 1), (0, 1), (Operation(Gate.cx(), (0, 1)),))
        p = basic_v_pattern(ctx_of(2), 0, 1, (0.1, 0.2))
        with pytest.raises(ValueError, match="^input state lives in dimension 4, the circuit in 2$"):
            simulate_circuit(c, basis_state(ctx_of(4), (0,), (1,)))
        for go in (lambda psi: run(p, psi), lambda psi: run_branches(p, psi)):
            with pytest.raises(ValueError, match="^input state lives in dimension 4, the pattern in 2$"):
                go(basis_state(ctx_of(4), (0,), (1,)))

    def test_rows_of_the_wrong_shape_are_refused_alike(self):
        """A 1-D vector is not read as one row per amplitude, and a wrong
        width is refused before numpy broadcasts it."""
        ctx = ctx_of(2)
        c = Circuit(ctx, (0, 1), (0, 1), (0, 1), (Operation(Gate.cx(), (0, 1)),))
        p = basic_v_pattern(ctx, 0, 1, (0.1, 0.2))
        for go, width in ((lambda rows: output_rows(c, rows), 4), (lambda rows: run_rows(p, rows), 2)):
            for rows in (np.ones(width), np.ones((1, width + 1)), np.ones((1, 1, width))):
                with pytest.raises(ValueError, match=f"^inputs must be rows of {width} amplitudes$"):
                    go(rows)
            assert go(np.eye(width)) is not None
