import json
import math
import re
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
    oracle_chain_item,
    oracle_pattern_doc,
    oracle_relabel_commands,
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
    _COMMANDS,
    _chain_item,
    _greedy_coloring,
    _relabel_commands,
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
        # a JSON object names each label once, its sum of terms, spelt with
        # leading zeros: "1", "02", "003", ...
        sums: dict[int, int] = {}
        for q, c in a:
            sums[q] = sums.get(q, 0) + c
        doc = {"0" * k + str(q): c for k, (q, c) in enumerate(sums.items())}
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
        (branch,) = run_branches(pat)
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
        res = run(pat, mode="sampled", seed=3)
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
        branches = run_branches(pat, psi)
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
        # the one (lazy) schedule against the oracle walk on the eager
        # schedule, which appends every ancilla first, and on the lazy one
        ctx = ctx_of(2)
        rng = np.random.default_rng(16)
        pats = [basic_v_pattern(ctx, 1, 2, tuple(rng.uniform(0, 2 * np.pi, 2))) for _ in range(3)]
        composite = compose_serial(pats[2], compose_serial(pats[1], pats[0]))
        psi = random_state(ctx, (1,), rng)
        got = run_branches(composite, psi)
        for lazy in (False, True):
            want = oracle_run_branches(composite, psi, lazy=lazy)
            assert len(got) == len(want) == 8
            for a, b in zip(got, want):
                assert a.outcomes == b.outcomes
                assert abs(a.probability - b.probability) < 1e-12
                assert fidelity_up_to_phase(a.state, b.state) > 1 - 1e-9

    def test_run_refuses_an_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown run mode 'x'$"):
            run(families(3)["def7"], mode="x")

    def test_run_takes_only_the_lazy_schedule(self):
        p = families(3)["def7"]
        with pytest.raises(ValueError, match="every pattern runs on the lazy schedule"):
            run(p, lazy=False)
        same_results([run(p, seed=4, lazy=True)], [run(p, seed=4)])

    def test_input_state_in_any_site_order(self):
        # the input rows are laid out over p.inputs, whatever the state's order
        p = families(2)["def8"]
        psi = random_state(p.ctx, p.inputs, np.random.default_rng(17))
        backwards = psi.with_sites_order(p.inputs[::-1])
        assert len(p.inputs) > 1 and backwards.sites != psi.sites
        same_results(run_branches(p, backwards), run_branches(p, psi))
        same_results([run(p, backwards, seed=2)], [run(p, psi, seed=2)])
        with pytest.raises(ValueError, match="defined exactly on the pattern inputs"):
            run_branches(p, random_state(p.ctx, p.inputs[:1], np.random.default_rng(17)))

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
        # the one schedule against the oracle walk on the eager and the lazy schedule
        for lazy, psi in product((False, True), states):
            if exact:
                same_results(run_branches(p, psi), oracle_run_branches(p, psi, lazy=lazy))
            for seed in seeds:
                same_results([run(p, psi, mode="sampled", seed=seed)], [oracle_run(p, psi, seed=seed, lazy=lazy)])

    def test_an_all_zero_row_has_no_branch(self):
        # every outcome of the first measurement has probability 0, so the walk's batch empties there
        p = families(3)["def7"]
        width = 3 ** len(p.inputs)
        rows = run_rows(p, np.zeros((1, width)))
        assert rows.amplitudes.shape == (0, 3 ** len(p.outputs)) and len(rows.origin) == 0
        # beside a basis row, only the basis row's branches come out
        rows = run_rows(p, np.vstack([np.zeros(width), np.eye(width)[0]]))
        assert len(rows.origin) and set(rows.origin) == {1}

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
        whole, one = run_rows(p, inputs), run_branches(p, psi)
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
        same_results(run_branches(p, psi), one)
        assert max(widths) == cap


    @pytest.mark.parametrize("family", ["def7", "def8", "clifford-const"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fresh_qudits_are_prepared_entangled(self, d, family, monkeypatch):
        # each append puts its qudit on the leading axis; an append (q, e),
        # q prepared already entangled by e with a live qudit, is one
        # multiply, so those E commands run no CZ kernel of their own
        import quditmbqc.pattern as pattern_module
        import quditmbqc.sim as sim_module

        p = families(d)[family]
        steps = _schedule(p)
        joined = [step for step in steps if isinstance(step, tuple)]
        assert joined and all(q in (e.i, e.j) for q, e in joined)
        total = sum(isinstance(step, Entangle) for step in oracle_schedule(p, lazy=True))
        psi = random_state(p.ctx, p.inputs, np.random.default_rng(40 + d))
        want = oracle_run_branches(p, psi, lazy=True)
        with counted_calls(pattern_module, ("_kernel",)) as calls:
            same_results(run_branches(p, psi), want)
        assert calls["_kernel", GateName.CZ] == total - len(joined)
        # the oracle's eager schedule appends every ancilla in one step
        assert len(oracle_schedule(p, lazy=False)[0]) > 1
        same_results(run_branches(p, psi), oracle_run_branches(p, psi, lazy=False))
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
            # the oracle appends (q,) and then applies e where the schedule has
            # one step (q, e), and the schedule fuses every such pair
            steps, expanded = _schedule(p), []
            for step in steps:
                if isinstance(step, tuple):
                    expanded += [(step[0],), step[1]]
                else:
                    expanded.append(step if isinstance(step, (Entangle, Measure, CorrectX, CorrectZ)) else (step,))
            want = oracle_schedule(p, lazy=True)
            assert expanded == want
            fusable = sum(isinstance(a, tuple) and isinstance(b, Entangle) and a[0] in (b.i, b.j) for a, b in zip(want, want[1:]))
            assert sum(isinstance(step, tuple) for step in steps) == fusable
            width = peak = len(p.inputs)
            for step in want:
                width += isinstance(step, tuple) - isinstance(step, Measure)
                peak = max(peak, width)
            assert peak_live_qudits(p) == peak


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

    def test_serial_rejects_two_dimensions(self):
        with pytest.raises(ValueError, match="^patterns live in different dimensions$"):
            compose_serial(basic_cz_pattern(ctx_of(3), 1, 2), basic_cz_pattern(ctx_of(2), 1, 2))

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


def random_commands(d: int, rng, count: int = 40) -> list:
    """Commands on qudits 0..7, wellformed as a sequence or not: repeated
    labels, coefficients outside [0, d), and in about half the signals a
    label repeated d times, whose terms cancel."""

    def signal() -> Signal:
        terms = [(int(q), int(c)) for q, c in zip(rng.integers(0, 8, 3), rng.integers(-2 * d, 2 * d, 3))]
        terms = terms[: int(rng.integers(0, 4))]
        if rng.random() < 0.5:
            terms += [(int(rng.integers(0, 8)), int(rng.integers(1, d)))] * d
        return Signal(d, tuple(terms))

    seq = []
    for _ in range(count):
        kind = "EMXZ"[int(rng.integers(4))]
        q = int(rng.integers(0, 8))
        if kind == "E":
            seq.append(Entangle(q, (q + int(rng.integers(1, 8))) % 8))
        elif kind == "M":
            seq.append(Measure(q, tuple(rng.uniform(0, 2 * np.pi, d)), signal(), signal()))
        else:
            seq.append((CorrectX if kind == "X" else CorrectZ)(q, signal()))
    return seq


class TestCommandDescription:
    def test_each_class_states_its_kind_sites_and_signal_keys(self):
        s, t = Signal.unit(3, 0), Signal.of(3, {0: 2, 1: 1})
        commands = (Entangle(4, 2), Measure(2, (0.0,) * 3, s, t), CorrectX(4, s), CorrectZ(4, t))
        assert _COMMANDS == {"E": Entangle, "M": Measure, "X": CorrectX, "Z": CorrectZ}
        assert [cmd.kind for cmd in commands] == list("EMXZ")
        assert [cmd.sites() for cmd in commands] == [(4, 2), (2,), (4,), (4,)]
        assert [cmd.signals() for cmd in commands] == [(), (("s", s), ("t", t)), (("s", s),), (("t", t),)]
        for cmd in commands:
            assert tuple(key for key, _ in cmd.signals()) == cmd.keys
            assert len(cmd.sites()) == cmd.arity

    def test_entangle_refuses_one_qudit_twice(self):
        with pytest.raises(ValueError, match="^entangling command needs two distinct qudits$"):
            Entangle(1, 1)

    def test_corrections_of_the_two_kinds_differ(self):
        s = Signal.unit(3, 0)
        x, z = CorrectX(1, s), CorrectZ(1, s)
        assert x != z and hash(x) != hash(z) and len({x, z}) == 2
        assert x == CorrectX(1, Signal.unit(3, 0)) and hash(x) == hash(CorrectX(1, Signal.unit(3, 0)))
        assert repr(x) == "CorrectX(site=1, signal=s[0])" and repr(z) == "CorrectZ(site=1, signal=s[0])"

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_depth_items_and_relabelling_match_the_per_kind_oracles(self, d):
        rng = np.random.default_rng(100 + d)
        cancelled = 0
        for _ in range(25):
            seq = random_commands(d, rng)
            for cmd in seq:
                sites, refs, measured = _chain_item(cmd)
                assert (sites, tuple(refs), measured) == oracle_chain_item(cmd)
            mapping = dict(zip(range(8), rng.permutation(np.arange(20, 40))[:8].tolist()))
            got = _relabel_commands(seq, mapping)
            assert got == oracle_relabel_commands(seq, mapping)
            assert [type(cmd) for cmd in got] == [type(cmd) for cmd in seq]
            cancelled += sum(sig.is_zero() for cmd in seq for _, sig in cmd.signals())
        assert cancelled  # zero signals, some of them from terms that cancel, were among the inputs

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_random_commands_write_as_the_reference_document(self, d):
        rng = np.random.default_rng(200 + d)
        ctx = ctx_of(d)
        for _ in range(10):
            p = Pattern(ctx, tuple(range(8)), (), tuple(range(8)))
            object.__setattr__(p, "seq", tuple(random_commands(d, rng)))
            assert pattern_to_json(p) == json.dumps(oracle_pattern_doc(p), indent=2) + "\n"


def _command_doc(d: int, correction: dict) -> dict:
    """A wellformed pattern document whose last command is ``correction``."""
    commands = [{"kind": "E", "sites": [0, 1]}, {"kind": "M", "sites": [0], "theta": [0.0] * d}, correction]
    return {"d": d, "qudits": [0, 1], "inputs": [0], "outputs": [1], "commands": commands}


class TestJsonReader:
    def test_control_documents_load(self):
        for kind, key in (("X", "s"), ("Z", "t")):
            p = pattern_from_json(json.dumps(_command_doc(3, {"kind": kind, "sites": [1], key: {"0": 2}})))
            assert len(p.seq) == 3 and p.seq[-1].kind == kind and p.seq[-1].signal == Signal.of(3, {0: 2})

    @pytest.mark.parametrize(
        "command, message",
        [
            # the Z correction's signal keyed as an X correction's: read as no signal at the parent, so dropped
            ({"kind": "Z", "sites": [1], "s": {"0": 1}}, "Z command takes no key(s) ['s']"),
            ({"kind": "X", "sites": [1], "s": {"0": 1}, "t": {"0": 1}}, "X command takes no key(s) ['t']"),
            ({"kind": "X", "sites": [1], "s": {"0": 1}, "theta": [0.0] * 3}, "X command takes no key(s) ['theta']"),
            ({"kind": "E", "sites": [0, 1], "theta": [0.0] * 3}, "E command takes no key(s) ['theta']"),
            ({"kind": "M", "sites": [1], "theta": [0.0] * 3, "u": {}, "p": 1}, "M command takes no key(s) ['p', 'u']"),
        ],
    )
    def test_refuses_a_key_the_kind_does_not_read(self, command, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pattern_from_json(json.dumps(_command_doc(3, command)))

    @pytest.mark.parametrize("coeff", [1.5, 1.0, True, False, "1", None, [1]])
    def test_refuses_a_signal_coefficient_that_is_not_an_integer(self, coeff):
        doc = _command_doc(3, {"kind": "X", "sites": [1], "s": {"0": coeff}})
        with pytest.raises(ValueError, match="^signal coefficients must be integers, got "):
            pattern_from_json(json.dumps(doc))
        doc["commands"][1]["s"] = {"0": coeff}  # a measurement's signal too
        doc["commands"][2]["s"] = {"0": 1}
        with pytest.raises(ValueError, match="^signal coefficients must be integers, got "):
            pattern_from_json(json.dumps(doc))

    def test_signal_errors_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^a signal must be an object \{qudit: coefficient\}, got \[1\]$"):
            _signal_from_json(3, [1])
        assert _signal_from_json(3, None) == Signal.zero(3)
        assert _signal_from_json(3, {"0": 3, "01": 6}) == Signal.zero(3)
        with pytest.raises(ValueError, match=r"^signal names a qudit by two labels, got \{'0': 4, '00': -1, '1': 3\}$"):
            _signal_from_json(3, {"0": 4, "00": -1, "1": 3})
