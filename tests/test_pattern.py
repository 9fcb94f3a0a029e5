import math
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from helpers import (
    counted_calls,
    longest_dependent_path,
    oracle_run,
    oracle_run_branches,
    oracle_schedule,
    oracle_signal,
    pattern_checks,
    pattern_items,
)

from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import Circuit, Operation, lower_to_guni, simulate_circuit
from quditmbqc.convert import (
    basic_cz_pattern,
    basic_v_pattern,
    circuit_to_pattern_cluster,
    circuit_to_pattern_standard,
    clifford_constant_depth,
    pattern_to_circuit_coherent,
)
from quditmbqc.generate import random_clifford_circuit, random_guni_circuit
from quditmbqc.pattern import (
    EXACT_COLORING_EDGE_LIMIT,
    CorrectX,
    CorrectZ,
    Entangle,
    EntanglementGraph,
    Measure,
    Pattern,
    Signal,
    compose_parallel,
    compose_serial,
    entanglement_depth,
    entanglement_graph,
    pattern_depth_and_size,
    pattern_from_json,
    pattern_to_json,
    peak_live_qudits,
    _greedy_coloring,
    _schedule,
    _signal_from_json,
    run,
    run_branches,
    run_rows,
    validate,
)
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


def zero(d):
    return Signal.zero(d)


def families(d: int) -> dict[str, Pattern]:
    """def7, its unstandardised form, def8 (with Fourier breaks at d = 2, 3)
    and clifford-const patterns of at most 9 qudits."""
    ctx = ctx_of(d)
    circuit = random_guni_circuit(ctx, 2, 5, seed=1)
    lowered = lower_to_guni(circuit)
    return {
        "def7": circuit_to_pattern_standard(lowered),
        "raw7": circuit_to_pattern_standard(lowered, standardise=False),
        "def8": circuit_to_pattern_cluster(circuit),
        "clifford-const": clifford_constant_depth(random_clifford_circuit(ctx, 2, 3, seed=1)),
    }


def same_rows(rows, picked, want, tol=1e-12):
    """The batched rows ``picked`` against the one-state results ``want``:
    identical outcomes in identical order, probabilities and amplitudes within tol."""
    assert [dict(zip(rows.measured, rows.outcomes[k].tolist())) for k in picked] == [r.outcomes for r in want]
    assert np.max(np.abs(rows.probability[picked] - [r.probability for r in want])) < tol
    assert np.max(np.abs(rows.amplitudes[picked] - np.array([r.state.amplitudes for r in want]))) < tol


def same_results(got, want, tol=1e-12):
    """Two lists of run results: identical outcomes in identical order,
    probabilities and amplitudes within tol."""
    assert [r.outcomes for r in got] == [r.outcomes for r in want]
    assert np.max(np.abs(np.array([r.probability for r in got]) - [r.probability for r in want])) < tol
    assert np.max(np.abs(np.array([r.state.amplitudes for r in got]) - [r.state.amplitudes for r in want])) < tol


class TestSignal:
    def test_reduction_and_zero_removal(self):
        s = Signal(3, ((1, 2), (1, 4), (2, 3)))
        assert s.coeffs == ((1, 0),) or s.coeffs == ()  # 2+4=6=0 mod 3, 3=0 mod 3
        assert s.is_zero()

    def test_linear_arithmetic(self):
        a = Signal.unit(3, 1)
        b = Signal.of(3, {1: 1, 2: 2})
        assert (a + b).to_mapping() == {1: 2, 2: 2}
        assert (a - b).to_mapping() == {2: 1}
        assert a.scaled(3).is_zero()

    def test_evaluate(self):
        s = Signal.of(5, {1: 2, 3: 4})
        assert s.evaluate({1: 3, 3: 2}) == (6 + 8) % 5

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            Signal.unit(2, 1) + Signal.unit(3, 1)

    # few labels, so terms repeat; coefficients small, negative, >= d and past 2^63
    _COEFFS = st.one_of(st.integers(-20, 20), st.integers(2**63 - 3, 2**70), st.integers(-(2**70), -(2**63) + 3))
    _TERMS = st.lists(st.tuples(st.integers(0, 6), _COEFFS), max_size=10)

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(2, 7),
        a=_TERMS,
        b=_TERMS,
        cancel=st.lists(st.tuples(st.integers(0, 6), _COEFFS), max_size=3),
        factor=_COEFFS,
        mapping=st.dictionaries(st.integers(0, 6), st.integers(0, 6)),
    )
    def test_every_constructor_matches_the_oracle(self, d, a, b, cancel, factor, mapping):
        a = a + cancel + [(q, -c) for q, c in cancel]  # these terms sum to zero
        sa, sb = Signal(d, tuple(a)), Signal(d, tuple(b))
        # a JSON object spells a repeated label with leading zeros: "1", "01", ...
        doc = {"0" * k + str(q): c for k, (q, c) in enumerate(a)}
        cases = [
            (sa, a),
            (sa + sb, a + b),
            (sa - sb, a + [(q, -c) for q, c in b]),
            (sa.scaled(factor), [(q, c * factor) for q, c in a]),
            (sa.relabel(mapping), [(mapping.get(q, q), c) for q, c in a]),
            (_signal_from_json(d, doc), a),
        ]
        for got, terms in cases:
            want = oracle_signal(d, terms)
            assert got == want and got.coeffs == want.coeffs and hash(got) == hash(want)


class TestValidate:
    def test_entangling_only_pattern_ok(self):
        assert validate(basic_cz_pattern(ctx_of(2), 1, 2)) is None

    def test_teleport_pattern_ok(self):
        assert validate(basic_v_pattern(ctx_of(3), 1, 2, (0.0, 0.0, 0.0))) is None

    def test_measuring_output_flagged(self):
        ctx = ctx_of(2)
        with pytest.raises(ValueError, match="^pattern is not wellformed: command 0: output qudit 1 must not be measured$"):
            Pattern(ctx, (1,), (1,), (1,), (Measure(1, (0.0, 0.0), zero(2), zero(2)),))

    def test_forward_signal_reference_flagged(self):
        ctx = ctx_of(2)
        seq = (
            Entangle(1, 3),
            Entangle(2, 3),
            Measure(1, (0.0, 0.0), Signal.unit(2, 2), zero(2)),
            Measure(2, (0.0, 0.0), zero(2), zero(2)),
        )
        with pytest.raises(ValueError, match="command 2: signal depends on qudit 2 not yet measured"):
            Pattern(ctx, (1, 2, 3), (1,), (3,), seq)

    def test_unmeasured_non_output_flagged(self):
        ctx = ctx_of(2)
        with pytest.raises(ValueError, match=r"pattern: non-output qudit\(s\) \[2\] never measured"):
            Pattern(ctx, (1, 2), (1,), (1,), ())

    def test_command_after_measurement_flagged(self):
        ctx = ctx_of(2)
        seq = (Measure(1, (0.0, 0.0), zero(2), zero(2)), Entangle(1, 2))
        with pytest.raises(ValueError, match="command 1: qudit 1 was already measured"):
            Pattern(ctx, (1, 2), (1, 2), (2,), seq)

    @pytest.mark.parametrize(
        "wires, seq, message",
        [
            (((1, 1), (1,), (1,)), (), "duplicate qudit identifiers"),
            (((1,), (2,), (1,)), (), "inputs and outputs must be subsets of the qudit set"),
            (((1,), (1,), (1, 1)), (), "inputs and outputs must not repeat a qudit"),
            (((1,), (1,), (1,)), (CorrectX(2, Signal.unit(2, 1)),), "command 0: unknown qudit 2"),
            (((1, 2), (1,), (2,)), (Measure(1, (0.0, 0.0), Signal.unit(3, 1), zero(2)),), "signal modulus differs"),
            (((1, 2), (1,), (2,)), (Measure(1, (0.0,), zero(2), zero(2)),), "angle vector must have length 2"),
            (((1, 2), (1,), (2,)), (Measure(1, (0.0, math.inf), zero(2), zero(2)),), r"angle vector must be finite, got \[0.0, inf\]"),
        ],
    )
    def test_every_other_rule_refused_at_construction(self, wires, seq, message):
        with pytest.raises(ValueError, match=message):
            Pattern(ctx_of(2), *wires, seq)

    def test_zero_signal_corrections_normalized_away(self):
        ctx = ctx_of(2)
        p = Pattern(ctx, (1,), (1,), (1,), (CorrectX(1, zero(2)),))
        assert p.seq == ()


class TestRun:
    def test_run_branches_validates_once(self, monkeypatch):
        # checked once, when built: running it checks nothing again
        built, checked = pattern_checks(monkeypatch)
        pat = basic_v_pattern(ctx_of(2), 1, 2, (0.1, 0.2))
        run_branches(pat)
        assert checked == built == [pat]

    def test_run_branches_follows_a_long_deterministic_chain(self):
        # F|0> measured at theta = 0 gives outcome 0 with certainty, 1,200 times;
        # the one input qudit is the untouched output
        ctx = ctx_of(2)
        n = 1200
        seq = tuple(Measure(q, (0.0, 0.0), zero(2), zero(2)) for q in range(n))
        pat = Pattern(ctx, tuple(range(n + 1)), (n,), (n,), seq)
        (branch,) = run_branches(pat, lazy=True)
        assert branch.outcomes == {q: 0 for q in range(n)}
        assert abs(branch.probability - 1) < 1e-9

    def test_input_free_chain_runs_in_its_live_width(self):
        # E(q, q+1) M(q) X(q+1): live width 2 however long the chain
        ctx = ctx_of(2)
        n = 40
        seq = []
        for q in range(n - 1):
            seq += [Entangle(q, q + 1), Measure(q, (0.0, 0.3), zero(2), zero(2)), CorrectX(q + 1, Signal.unit(2, q))]
        pat = Pattern(ctx, tuple(range(n)), (), (n - 1,), tuple(seq))
        assert peak_live_qudits(pat) == 2
        res = run(pat, mode="sampled", seed=3, lazy=True)
        assert res.state.sites == (n - 1,) and abs(res.state.norm() - 1) < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    # def7 measures 3 qudits; the def8 circuit has two CZ gates in a row, so
    # it gains Fourier breaks and measures 5
    @pytest.mark.parametrize("convert,seed", [(circuit_to_pattern_standard, 0), (circuit_to_pattern_cluster, 2)])
    def test_branches_match_the_coherent_circuit(self, d, convert, seed):
        # the def9 circuit holds every branch at once: after the v(theta) on a
        # measured qudit its digit is the outcome, so the branch for outcomes m
        # is the normalised slice at those digits and its probability the
        # slice's squared norm
        ctx = ctx_of(d)
        rng = np.random.default_rng(40 + d)
        pat = convert(lower_to_guni(random_guni_circuit(ctx, 2, 3, seed=seed)))
        measured = pat.measured_qudits()
        psi = random_state(ctx, pat.inputs, rng)
        final = simulate_circuit(pattern_to_circuit_coherent(pat), psi).with_sites_order(measured + pat.outputs)
        slices = final.amplitudes.reshape((d,) * len(measured) + (-1,))
        kept = sum(np.linalg.norm(slices[m]) ** 2 >= 1e-12 for m in np.ndindex(slices.shape[:-1]))
        for lazy in (False, True):
            branches = run_branches(pat, psi, lazy=lazy)
            assert len(branches) == kept
            for b in branches:
                block = slices[tuple(b.outcomes[q] for q in measured)]
                assert abs(b.probability - np.linalg.norm(block) ** 2) < 1e-9
                got = b.state.with_sites_order(pat.outputs).amplitudes
                assert np.allclose(got, block / np.linalg.norm(block), atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_teleport_implements_rotation_on_every_branch(self, d):
        ctx = ctx_of(d)
        rng = np.random.default_rng(d)
        theta = tuple(rng.uniform(0, 2 * np.pi, d))
        pat = basic_v_pattern(ctx, 1, 2, theta)
        v = gate_matrix(Gate.v(theta), ctx)
        for j in range(d):
            inp = basis_state(ctx, (1,), (j,))
            want = StateVector(ctx, (2,), v[:, j])
            branches = run_branches(pat, inp)
            assert len(branches) == d
            for b in branches:
                assert fidelity_up_to_phase(b.state, want) > 1 - 1e-9

    def test_entangling_pattern_picks_up_phase(self):
        ctx = ctx_of(2)
        pat = basic_cz_pattern(ctx, 1, 2)
        res = run(pat, basis_state(ctx, (1, 2), (1, 1)), mode="sampled", seed=0)
        assert abs(res.state.amplitudes[3] + 1) < 1e-12

    def test_serial_composition_runs_like_matrix_product(self):
        ctx = ctx_of(3)
        rng = np.random.default_rng(11)
        thetas = [tuple(rng.uniform(0, 2 * np.pi, 3)) for _ in range(3)]
        pats = [basic_v_pattern(ctx, 1, 2, t) for t in thetas]
        composite = compose_serial(pats[2], compose_serial(pats[1], pats[0]))
        u = np.eye(3, dtype=complex)
        for t in thetas:
            u = gate_matrix(Gate.v(t), ctx) @ u
        psi = random_state(ctx, (1,), rng)
        want = StateVector(ctx, composite.outputs, u @ psi.amplitudes)
        branches = run_branches(composite, psi)
        assert len(branches) == 27
        assert abs(sum(b.probability for b in branches) - 1) < 1e-9
        for b in branches:
            assert fidelity_up_to_phase(b.state, want) > 1 - 1e-9

    def test_composition_soundness_on_random_inputs(self):
        ctx = ctx_of(2)
        rng = np.random.default_rng(13)
        t0 = tuple(rng.uniform(0, 2 * np.pi, 2))
        t1 = tuple(rng.uniform(0, 2 * np.pi, 2))
        p0 = basic_v_pattern(ctx, 1, 2, t0)
        p1 = basic_v_pattern(ctx, 1, 2, t1)
        both = compose_serial(p1, p0)
        psi = random_state(ctx, (1,), rng)
        mid = run(p0, psi, mode="forced", forced_outcomes={1: 1})
        end = run(p1, StateVector(ctx, (1,), mid.state.amplitudes), mode="forced", forced_outcomes={1: 0})
        chained = run(both, psi, mode="forced", forced_outcomes={1: 1, 2: 0})
        assert fidelity_up_to_phase(chained.state, StateVector(ctx, both.outputs, end.state.amplitudes)) > 1 - 1e-9

    def test_forced_matches_branch_enumeration(self):
        ctx = ctx_of(2)
        rng = np.random.default_rng(14)
        pat = basic_v_pattern(ctx, 1, 2, tuple(rng.uniform(0, 2 * np.pi, 2)))
        psi = random_state(ctx, (1,), rng)
        for b in run_branches(pat, psi):
            forced = run(pat, psi, mode="forced", forced_outcomes={1: b.outcomes[1]})
            assert abs(forced.probability - b.probability) < 1e-12
            assert fidelity_up_to_phase(forced.state, b.state) > 1 - 1e-12

    def test_sampled_reproducible_and_seed_sensitive(self):
        ctx = ctx_of(3)
        rng = np.random.default_rng(15)
        pats = [basic_v_pattern(ctx, 1, 2, tuple(rng.uniform(0, 2 * np.pi, 3))) for _ in range(2)]
        composite = compose_serial(pats[1], pats[0])
        psi = random_state(ctx, (1,), rng)
        a = run(composite, psi, mode="sampled", seed=5)
        b = run(composite, psi, mode="sampled", seed=5)
        assert a.outcomes == b.outcomes
        assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
        seen = {tuple(sorted(run(composite, psi, mode="sampled", seed=s).outcomes.items())) for s in range(12)}
        assert len(seen) > 1

    def test_lazy_matches_eager_on_all_branches(self):
        ctx = ctx_of(2)
        rng = np.random.default_rng(16)
        pats = [basic_v_pattern(ctx, 1, 2, tuple(rng.uniform(0, 2 * np.pi, 2))) for _ in range(3)]
        composite = compose_serial(pats[2], compose_serial(pats[1], pats[0]))
        psi = random_state(ctx, (1,), rng)
        eager = run_branches(composite, psi)
        lazy = run_branches(composite, psi, lazy=True)
        assert len(eager) == len(lazy)
        for a, b in zip(eager, lazy):
            assert a.outcomes == b.outcomes
            assert abs(a.probability - b.probability) < 1e-12
            assert fidelity_up_to_phase(a.state, b.state) > 1 - 1e-9

    def test_dependency_absorption_identity(self):
        # prefixing X^s' Z^t' equals adding (s', t') to the measurement signals:
        # same branch probabilities and post-states, checked per dimension
        for d in (2, 3, 5):
            ctx = ctx_of(d)
            rng = np.random.default_rng(d + 20)
            theta = tuple(rng.uniform(0, 2 * np.pi, d))
            s_extra, t_extra = int(rng.integers(d)), int(rng.integers(d))
            base = Pattern(
                ctx,
                (1, 2, 3),
                (3,),
                (2,),
                (
                    Entangle(3, 1),
                    Entangle(3, 2),
                    Measure(3, (0.0,) * d, zero(d), zero(d)),
                    Measure(1, theta, Signal.of(d, {3: s_extra}), Signal.of(d, {3: t_extra})),
                    CorrectX(2, Signal.unit(d, 1)),
                ),
            )
            prefixed = base.with_seq(
                base.seq[:3]
                + (
                    CorrectZ(1, Signal.of(d, {3: t_extra})),
                    CorrectX(1, Signal.of(d, {3: s_extra})),
                    Measure(1, theta, zero(d), zero(d)),
                    CorrectX(2, Signal.unit(d, 1)),
                )
            )
            psi = random_state(ctx, (3,), rng)
            ba = run_branches(base, psi)
            bb = run_branches(prefixed, psi)
            key = lambda rs: tuple(sorted(r for r in rs.outcomes.items()))
            for a, b in zip(sorted(ba, key=key), sorted(bb, key=key)):
                assert a.outcomes == b.outcomes
                assert abs(a.probability - b.probability) < 1e-9
                assert fidelity_up_to_phase(a.state, b.state) > 1 - 1e-9


class TestBatchedWalk:
    """One walk for a batch of (input, branch) rows against the one-state
    oracle walk."""

    @pytest.mark.parametrize("family", ["def7", "raw7", "def8", "clifford-const"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batched_walk_matches_the_one_state_walk(self, d, family):
        p = families(d)[family]
        rng = np.random.default_rng(d)
        states = [random_state(p.ctx, p.inputs, rng) for _ in range(3)]
        inputs = np.array([st.amplitudes for st in states])
        exact = d ** len(p.measured_qudits()) <= 256
        if exact:
            rows = run_rows(p, inputs)
            for i, psi in enumerate(states):
                same_rows(rows, np.flatnonzero(rows.origin == i), oracle_run_branches(p, psi, lazy=True))
            assert list(rows.origin) == sorted(rows.origin)
        seeds = [0, 1, 5, 9]
        rows = run_rows(p, np.repeat(inputs, len(seeds), axis=0), seeds=np.tile(seeds, len(states)))
        for k, (psi, seed) in enumerate(product(states, seeds)):
            same_rows(rows, [k], [oracle_run(p, psi, seed=seed, lazy=True)])
        for lazy, psi in product((False, True), states):
            if exact:
                same_results(run_branches(p, psi, lazy=lazy), oracle_run_branches(p, psi, lazy=lazy))
            for seed in seeds:
                same_results([run(p, psi, mode="sampled", seed=seed, lazy=lazy)], [oracle_run(p, psi, seed=seed, lazy=lazy)])

    def test_run_rows_checks_its_seeds_and_takes_no_rows(self):
        p = families(3)["def7"]
        inputs = np.eye(3 ** len(p.inputs), dtype=np.complex128)[:2]
        for seeds in ([0], [0, 1, 2]):
            with pytest.raises(ValueError, match="seeds for 2 input rows"):
                run_rows(p, inputs, seeds=seeds)
        for seeds in (None, []):
            rows = run_rows(p, inputs[:0], seeds=seeds)
            assert rows.amplitudes.shape == (0, 3 ** len(p.outputs))
            assert rows.outcomes.shape == (0, len(p.measured_qudits()))
            assert len(rows.probability) == len(rows.origin) == 0

    @pytest.mark.parametrize("d", [2, 3])
    def test_split_batches_match_the_whole_batch(self, d, monkeypatch):
        # with the cap at the widest single row, the peak steps run one row
        # at a time, depth first, and the rows come out as from one batch
        import quditmbqc.pattern as pattern_module
        import quditmbqc.sim as sim_module

        p = families(d)["def7"]
        rng = np.random.default_rng(30 + d)
        inputs = np.array([random_state(p.ctx, p.inputs, rng).amplitudes for _ in range(5)])
        psi = StateVector(p.ctx, p.inputs, inputs[0])
        whole, one = run_rows(p, inputs), run_branches(p, psi, lazy=True)
        cap = d ** peak_live_qudits(p)
        widths = []
        kernel = pattern_module._kernel
        monkeypatch.setattr(sim_module, "AMPLITUDE_CAP", cap)
        monkeypatch.setattr(pattern_module, "_kernel", lambda amps, *args: widths.append(amps.size) or kernel(amps, *args))
        split = run_rows(p, inputs)
        assert widths and max(widths) == cap
        assert np.array_equal(split.outcomes, whole.outcomes) and np.array_equal(split.origin, whole.origin)
        assert np.max(np.abs(split.probability - whole.probability)) < 1e-12
        assert np.max(np.abs(split.amplitudes - whole.amplitudes)) < 1e-12
        same_rows(split, np.flatnonzero(split.origin == 0), one)
        widths.clear()
        same_results(run_branches(p, psi, lazy=True), one)
        assert max(widths) == cap


    @pytest.mark.parametrize("family", ["def7", "def8", "clifford-const"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fresh_qudits_are_prepared_entangled(self, d, family, monkeypatch):
        # each append puts its qudits on the leading axes; a lazy append (q,)
        # followed at once by the E on q and a live qudit is one multiply, so
        # those E commands run no CZ kernel of their own
        import quditmbqc.pattern as pattern_module
        import quditmbqc.sim as sim_module

        p = families(d)[family]
        steps = _schedule(p, lazy=True)
        joined = sum(
            isinstance(a, tuple) and len(a) == 1 and isinstance(b, Entangle) and a[0] in (b.i, b.j)
            for a, b in zip(steps, steps[1:])
        )
        assert joined
        psi = random_state(p.ctx, p.inputs, np.random.default_rng(40 + d))
        want = oracle_run_branches(p, psi, lazy=True)
        with counted_calls(pattern_module, ("_kernel",)) as calls:
            same_results(run_branches(p, psi, lazy=True), want)
        assert calls["_kernel", GateName.CZ] == sum(isinstance(step, Entangle) for step in steps) - joined
        # the eager schedule appends every ancilla in one step
        assert len(_schedule(p, lazy=False)[0]) > 1
        same_results(run_branches(p, psi, lazy=False), oracle_run_branches(p, psi, lazy=False))
        # the rows stay ordered over p.outputs, whatever order that is
        backwards = replace(p, outputs=p.outputs[::-1])
        rows, back = run_rows(p, psi.amplitudes[np.newaxis]), run_rows(backwards, psi.amplitudes[np.newaxis])
        flipped = rows.amplitudes.reshape((-1,) + (d,) * len(p.outputs))
        assert np.array_equal(back.amplitudes, flipped.transpose([0] + list(range(len(p.outputs), 0, -1))).reshape(len(flipped), -1))
        # with the cap at the widest single row, an append after a measurement
        # splits the batch of branches into one row per part
        parts, split = [], pattern_module.row_parts
        monkeypatch.setattr(pattern_module, "row_parts", lambda *args: parts.append(len(split(*args))) or split(*args))
        monkeypatch.setattr(sim_module, "AMPLITUDE_CAP", d ** peak_live_qudits(p))
        rows = run_rows(p, psi.amplitudes[np.newaxis])
        assert max(parts) > 1
        same_rows(rows, np.arange(len(rows.origin)), want)


class TestSchedule:
    def test_indexed_schedule_matches_the_rescan(self):
        patterns = [p for d in (2, 3, 4) for p in families(d).values()]
        ctx = ctx_of(2)
        chain = []
        for q in range(9):
            chain += [Entangle(q, q + 1), Measure(q, (0.0, 0.3), zero(2), zero(2)), CorrectX(q + 1, Signal.unit(2, q))]
        patterns.append(Pattern(ctx, tuple(range(10)), (), (9,), tuple(chain)))
        # the 4,379-command def8 pattern (d=3, n=16, 800 gates) whose schedule
        # took 0.3 s to build when every deferred E command was rescanned
        patterns.append(circuit_to_pattern_cluster(random_guni_circuit(ctx_of(3), 16, 800, seed=1)))
        assert len(patterns[-1].seq) == 4379
        for p in patterns:
            for lazy in (False, True):
                assert _schedule(p, lazy) == oracle_schedule(p, lazy)


class TestDepthAndSize:
    def test_independent_measurements_share_a_level(self):
        ctx = ctx_of(2)
        p = Pattern(
            ctx,
            (1, 2, 3, 4),
            (1, 2, 3, 4),
            (3, 4),
            (
                Entangle(1, 3),
                Entangle(2, 4),
                Measure(1, (0.0, 0.0), zero(2), zero(2)),
                Measure(2, (0.0, 0.0), zero(2), zero(2)),
            ),
        )
        rep = pattern_depth_and_size(p)
        assert rep.depth == 2  # one entangling level, one measurement level
        assert rep.size == 2 + 2 + 1 + 1

    def test_two_corrections_on_one_qudit_stack(self):
        ctx = ctx_of(2)
        p = Pattern(
            ctx,
            (1, 2),
            (1, 2),
            (2,),
            (
                Measure(1, (0.0, 0.0), zero(2), zero(2)),
                CorrectX(2, Signal.unit(2, 1)),
                CorrectZ(2, Signal.unit(2, 1)),
            ),
        )
        assert pattern_depth_and_size(p).depth == 3

    def test_outcome_dependency_counts(self):
        # the two measurements touch disjoint qudits; only the signal
        # reference forces them onto consecutive levels
        ctx = ctx_of(2)
        p = Pattern(
            ctx,
            (1, 2, 3),
            (1, 2, 3),
            (3,),
            (
                Measure(1, (0.0, 0.0), zero(2), zero(2)),
                Measure(2, (0.0, 0.0), Signal.unit(2, 1), zero(2)),
            ),
        )
        rep = pattern_depth_and_size(p)
        assert rep.depth == 2
        assert rep.depth == longest_dependent_path(pattern_items(p))
        independent = p.with_seq((p.seq[0], Measure(2, (0.0, 0.0), zero(2), zero(2))))
        assert pattern_depth_and_size(independent).depth == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_on_random_composites(self, seed):
        from quditmbqc.circuit import lower_to_guni
        from quditmbqc.convert import circuit_to_pattern_standard
        from quditmbqc.generate import random_guni_circuit

        c = random_guni_circuit(ctx_of(2), 2, 6, seed)
        for pat in (
            circuit_to_pattern_standard(lower_to_guni(c), standardise=False),
            circuit_to_pattern_standard(lower_to_guni(c)),
        ):
            assert pattern_depth_and_size(pat).depth == longest_dependent_path(pattern_items(pat))


class TestEntanglement:
    def path_graph(self):
        ctx = ctx_of(2)
        seq = (Entangle(1, 2), Entangle(2, 3), Entangle(3, 4))
        return Pattern(ctx, (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4), seq)

    def test_path_graph_colors_with_two(self):
        rep = entanglement_depth(entanglement_graph(self.path_graph()))
        assert rep.lower_bound == 2 and rep.achieved == 2 and rep.exact

    def test_star_needs_degree_colors(self):
        ctx = ctx_of(5)
        seq = tuple(Entangle(0, leaf) for leaf in (1, 2, 3, 4))
        p = Pattern(ctx, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4), seq)
        rep = entanglement_depth(entanglement_graph(p))
        assert rep.lower_bound == 4 and rep.achieved == 4

    def test_multiplicities_reduce_mod_d(self):
        ctx = ctx_of(2)
        seq = (Entangle(1, 2), Entangle(1, 2))
        p = Pattern(ctx, (1, 2), (1, 2), (1, 2), seq)
        g = entanglement_graph(p)
        assert g.multiplicities == ()

    def test_parallel_edges_are_sequential(self):
        ctx = ctx_of(3)
        seq = (Entangle(1, 2), Entangle(1, 2))
        p = Pattern(ctx, (1, 2), (1, 2), (1, 2), seq)
        rep = entanglement_depth(entanglement_graph(p))
        assert rep.lower_bound == 2 and rep.achieved == 2

    def test_fat_triangle_exceeds_degree_plus_one(self):
        # three pairwise-doubled edges need six colors, degree bound is four
        g = EntanglementGraph((1, 2, 3), (((1, 2), 2), ((1, 3), 2), ((2, 3), 2)))
        rep = entanglement_depth(g)
        assert rep.lower_bound == 4
        assert rep.achieved == 6
        assert rep.exact and not rep.within_degree_lemma

    @pytest.mark.parametrize("seed", range(10))
    def test_fan_rotation_matches_exhaustive_window(self, seed):
        # on graphs small enough for exhaustive search, the fan-rotation
        # coloring must be proper and use at most one color more than optimal
        from quditmbqc.pattern import _exact_coloring, _fan_rotation_coloring

        rng = np.random.default_rng(100 + seed)
        edges = set()
        while len(edges) < 9:
            i, j = sorted(rng.choice(7, size=2, replace=False))
            edges.add((int(i), int(j)))
        edges = sorted(edges)
        degree = {}
        for i, j in edges:
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        delta = max(degree.values())
        rotation = _fan_rotation_coloring(list(edges), delta)
        used = {}
        for (i, j), color in zip(edges, rotation):
            assert 1 <= color <= delta + 1
            for v in (i, j):
                assert color not in used.setdefault(v, set())
                used[v].add(color)
        exact = _exact_coloring(list(edges), delta, rotation)
        assert max(rotation) <= max(exact) + 1

    @pytest.mark.parametrize("seed", range(8))
    def test_fan_rotation_stays_within_degree_plus_one(self, seed):
        rng = np.random.default_rng(seed)
        nodes = 10
        edges = set()
        while len(edges) < 14:
            i, j = sorted(rng.choice(nodes, size=2, replace=False))
            edges.add((int(i), int(j)))
        ctx = ctx_of(3)
        seq = tuple(Entangle(i, j) for i, j in sorted(edges))
        p = Pattern(ctx, tuple(range(nodes)), tuple(range(nodes)), tuple(range(nodes)), seq)
        g = entanglement_graph(p)
        rep = entanglement_depth(g)
        assert not rep.exact  # above the exhaustive limit
        assert g.max_degree() <= rep.achieved <= g.max_degree() + 1
        # proper coloring: no two incident edges share a color
        by_node = {}
        for (i, j), color in zip(g.unit_edges(), rep.coloring):
            for v in (i, j):
                assert color not in by_node.setdefault(v, set())
                by_node[v].add(color)

    def test_multigraph_above_the_exhaustive_limit_colors_first_fit(self):
        # a repeated CZ gives a def7 pattern a doubled edge among 13 unit edges,
        # past both the exhaustive search and the simple-graph fan rotation
        ctx, wires, theta = ctx_of(3), (1, 2, 3), (0.1, 0.2, 0.3)
        layer = [Operation(Gate.v(theta), (q,)) for q in wires]
        cz = [Operation(Gate.cz(), pair) for pair in ((1, 2), (1, 2), (2, 3), (1, 3))]
        ops = layer + cz[:2] + layer + cz[2:] + layer
        g = entanglement_graph(circuit_to_pattern_standard(Circuit(ctx, wires, wires, wires, tuple(ops))))
        edges = g.unit_edges()
        assert len(edges) > EXACT_COLORING_EDGE_LIMIT and len(set(edges)) < len(edges)
        rep = entanglement_depth(g)
        assert not rep.exact and rep.achieved >= g.max_degree() == rep.lower_bound
        assert list(rep.coloring) == _greedy_coloring(edges)
        by_node = {}
        for (i, j), color in zip(edges, rep.coloring):
            for v in (i, j):
                assert color not in by_node.setdefault(v, set())
                by_node[v].add(color)


class TestComposeAndJson:
    def test_parallel_disjointness(self):
        p = basic_cz_pattern(ctx_of(2), 1, 2)
        with pytest.raises(ValueError):
            compose_parallel(p, p)

    def test_parallel_metrics(self):
        ctx = ctx_of(2)
        a = basic_v_pattern(ctx, 1, 2, (0.0, 0.0))
        b = basic_cz_pattern(ctx, 5, 6)
        both = compose_parallel(b, a)
        assert validate(both) is None
        ra, rb, rc = (pattern_depth_and_size(x) for x in (a, b, both))
        assert rc.size == ra.size + rb.size
        assert rc.depth == max(ra.depth, rb.depth)

    def test_json_round_trip(self):
        ctx = ctx_of(3)
        rng = np.random.default_rng(21)
        pats = [basic_v_pattern(ctx, 1, 2, tuple(rng.uniform(0, 2 * np.pi, 3))) for _ in range(2)]
        composite = compose_serial(pats[1], pats[0])
        again = pattern_from_json(pattern_to_json(composite))
        assert again == composite
        assert pattern_to_json(again) == pattern_to_json(composite)
