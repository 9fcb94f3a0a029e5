import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers import longest_dependent_path, match_clifford_diagonal, pattern_items

from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import Circuit, Operation, lower_to_guni
from quditmbqc.cli import verify_equivalent
from quditmbqc.convert import _measurement_layers, basic_v_pattern, circuit_to_pattern_standard
from quditmbqc.generate import random_guni_circuit
from quditmbqc.pattern import (
    CorrectX,
    CorrectZ,
    Entangle,
    Measure,
    Pattern,
    Signal,
    compose_serial,
    pattern_depth_and_size,
    run_branches,
    validate,
)
from quditmbqc.rewrite import (
    _clifford_power,
    angles_match,
    completely_standardise,
    is_completely_standard,
    is_standard,
    pauli_angles,
    pauli_simplify,
    signal_shift,
    standardise,
    zero_angles,
)
from quditmbqc.sim import Gate, fidelity_up_to_phase, gate_matrix, random_state


def ctx_of(d):
    return DimensionContext.of(d)


def sig(d, mapping):
    return Signal.of(d, mapping)


def rotation_chain(d, theta, phi, psi):
    """The three-step teleportation chain on wires 1 -> 2 -> 3 -> 4."""
    ctx = ctx_of(d)
    return compose_serial(
        basic_v_pattern(ctx, 1, 2, psi),
        compose_serial(basic_v_pattern(ctx, 1, 2, phi), basic_v_pattern(ctx, 1, 2, theta)),
    )


GENERIC_THETAS = {
    2: ((0.1, 0.2), (0.4, 0.5), (0.7, 0.8)),
    3: ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), (0.7, 0.8, 0.9)),
}


class TestDistinguishedAngles:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_zero_vector_is_fourier(self, d):
        ctx = ctx_of(d)
        got = gate_matrix(Gate.v(zero_angles(d)), ctx)
        assert np.max(np.abs(got - gate_matrix(Gate.f(), ctx))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_pauli_vector_is_fourier_phase(self, d):
        ctx = ctx_of(d)
        got = gate_matrix(Gate.v(pauli_angles(d)), ctx)
        want = gate_matrix(Gate.f(), ctx) @ gate_matrix(Gate.p(), ctx)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_pauli_vector_matches_closed_form(self, d):
        # p_j = pi * j * (j + delta_d) / d, up to multiples of 2*pi per entry
        delta = 1 if d % 2 else 0
        closed = [np.pi * j * (j + delta) / d for j in range(d)]
        got = pauli_angles(d)
        for a, b in zip(closed, got):
            diff = (a - b) % (2 * np.pi)
            assert min(diff, 2 * np.pi - diff) < 1e-12

    @pytest.mark.parametrize("huge", [1e17, 1e308])
    def test_huge_entries_match_their_reduction(self, huge):
        # huge - (huge mod 2*pi) rounds to huge, which is no multiple of 2*pi
        reduced = huge % (2 * np.pi)
        assert angles_match((huge, 0.0), (reduced, 0.0))
        assert angles_match((reduced, 0.0), (huge, 0.0))
        assert not angles_match((huge, 0.0), ((reduced + 0.5) % (2 * np.pi), 0.0))


class TestStandardise:
    def test_worked_chain_generic(self):
        # the three-rotation chain standardises to E E E, M, M^s1, M^{s2}_{s1},
        # then X^{s3} Z^{s2} on the output wire
        d = 3
        theta, phi, psi = GENERIC_THETAS[d]
        out = standardise(rotation_chain(d, theta, phi, psi))
        assert out.seq == (
            Entangle(1, 2),
            Entangle(2, 3),
            Entangle(3, 4),
            Measure(1, theta, sig(d, {}), sig(d, {})),
            Measure(2, phi, sig(d, {1: 1}), sig(d, {})),
            Measure(3, psi, sig(d, {2: 1}), sig(d, {1: 1})),
            CorrectX(4, sig(d, {3: 1})),
            CorrectZ(4, sig(d, {2: 1})),
        )
        assert is_standard(out)

    def test_idempotent(self):
        d = 2
        out = standardise(rotation_chain(d, *GENERIC_THETAS[d]))
        assert standardise(out).seq == out.seq

    @pytest.mark.parametrize("d,seed", [(2, 0), (2, 1), (3, 2)])
    def test_run_equivalent_over_all_branches(self, d, seed):
        ctx = ctx_of(d)
        circ = random_guni_circuit(ctx, 2, 3, seed)
        raw = circuit_to_pattern_standard(lower_to_guni(circ), standardise=False)
        std = standardise(raw)
        assert validate(std) is None
        rng = np.random.default_rng(seed + 30)
        psi = random_state(ctx, raw.inputs, rng)
        reference = None
        for pat in (raw, std):
            branches = run_branches(pat, psi)
            assert abs(sum(b.probability for b in branches) - 1) < 1e-9
            rep = branches[0].state
            if reference is None:
                reference = rep
            for b in branches:
                assert fidelity_up_to_phase(b.state, reference) > 1 - 1e-9


def _chain(*order, x2=None, z2=None, theta2=(0.1, 0.2, 0.3), s3=None):
    """E E M M X on wires 1 -> 2 -> 3 at d=3, the commands in ``order``
    (by letter: a b are the E, c d the M, e the correction, which reads
    ``s3``, by default the outcome of qudit 2)."""
    d = 3
    cmds = {
        "a": Entangle(1, 2),
        "b": Entangle(2, 3),
        "c": Measure(1, (0.1, 0.2, 0.3), sig(d, {}), sig(d, {})),
        "d": Measure(2, theta2, sig(d, x2 or {}), sig(d, z2 or {})),
        "e": CorrectX(3, sig(d, s3 or {2: 1})),
    }
    return Pattern(ctx_of(d), (1, 2, 3), (1,), (3,), tuple(cmds[k] for k in order))


@pytest.mark.parametrize(
    "pattern, standard, complete",
    [
        (_chain(*"abcde", x2={1: 1}), True, True),
        (_chain(*"acbde"), False, False),  # E after an M
        (_chain(*"abced", s3={1: 1}), False, False),  # M after a correction
        (_chain(*"abcde", z2={1: 1}), True, False),  # Z-dependent M
        (_chain(*"abcde", x2={1: 1}, theta2=zero_angles(3)), True, False),  # X signal on a Fourier-direction M
        (_chain(*"abcde", x2={1: 1}, theta2=pauli_angles(3)), True, False),  # ... on a phase-direction M
        (_chain(*"abcde", x2={1: 1}, theta2=(0.5, 0.5 + 2 * np.pi / 3, 0.5 + 4 * np.pi / 3)), True, False),  # ... on v = F.Z
    ],
)
def test_standard_form_predicates(pattern, standard, complete):
    assert is_standard(pattern) == standard
    assert is_completely_standard(pattern) == complete


class TestPauliSimplify:
    def test_fourier_direction_drops_x_dependency(self):
        d = 2
        p = Pattern(
            ctx_of(d),
            (1, 2, 3),
            (1, 2, 3),
            (3,),
            (
                Measure(1, (0.3, 0.9), sig(d, {}), sig(d, {})),
                Measure(2, zero_angles(d), sig(d, {1: 1}), sig(d, {1: 1})),
            ),
        )
        out = pauli_simplify(p)
        m = out.seq[1]
        assert m.x_signal.is_zero()
        assert m.z_signal == sig(d, {1: 1})

    def test_phase_direction_merges_into_z(self):
        d = 3
        p = Pattern(
            ctx_of(d),
            (1, 2, 3),
            (1, 2, 3),
            (3,),
            (
                Measure(1, (0.3, 0.9, 0.1), sig(d, {}), sig(d, {})),
                Measure(2, pauli_angles(d), sig(d, {1: 2}), sig(d, {1: 1})),
            ),
        )
        m = pauli_simplify(p).seq[1]
        assert m.x_signal.is_zero()
        assert m.z_signal == sig(d, {1: 3 % d})

    def test_generic_angles_untouched(self):
        d = 2
        p = rotation_chain(d, *GENERIC_THETAS[d])
        assert pauli_simplify(standardise(p)).seq == standardise(p).seq

    def test_run_equivalence_with_clifford_angles(self):
        d = 2
        theta, phi, _ = GENERIC_THETAS[d]
        chain = rotation_chain(d, theta, phi, pauli_angles(d))
        std = standardise(chain)
        simp = pauli_simplify(std)
        rng = np.random.default_rng(40)
        psi = random_state(ctx_of(d), chain.inputs, rng)
        ref = run_branches(std, psi)[0].state
        for pat in (std, simp):
            for b in run_branches(pat, psi):
                assert fidelity_up_to_phase(b.state, ref) > 1 - 1e-9


def _clifford_theta(rng, d: int, a: int, b: int) -> tuple[float, ...]:
    """Angles of v = F.P^a.Z^b times a random phase, each entry off by a
    random whole number of turns."""
    j = np.arange(d)
    turns = rng.integers(-3, 4, size=d)
    return tuple(a * np.asarray(pauli_angles(d)) + 2 * np.pi * (b * j / d + turns) + rng.uniform(-np.pi, np.pi))


class TestCliffordDirections:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_clifford_power_matches_the_oracle(self, d):
        """Every F.P^a.Z^b direction gives a mod d (P^d is Z^(d/2) at even d),
        as the brute-force search over P^a Z^b diagonals does; generic angles
        give None."""
        ctx, rng = ctx_of(d), np.random.default_rng(d)
        for a in range(ctx.D):
            for b in range(d):
                theta = _clifford_theta(rng, d, a, b)
                assert _clifford_power(theta, d) == a % d == match_clifford_diagonal(ctx, theta)[0] % d
        for _ in range(50):
            theta = tuple(rng.uniform(0, 2 * np.pi, d))
            assert _clifford_power(theta, d) is None and match_clifford_diagonal(ctx, theta) is None

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_huge_entries_neither_raise_nor_misclassify(self, d):
        # unreduced, t2 - 2*t1 + t0 overflows to -inf and round() raises
        for big in (1e308, -1e308):
            assert _clifford_power((big,) * d, d) == 0  # a global phase
        for theta in [(1e308, -1e308) + (0.0,) * (d - 2), (0.0,) * (d - 1) + (1e308,)]:
            reduced = [t % (2 * np.pi) for t in theta]
            assert match_clifford_diagonal(ctx_of(d), reduced) is None
            assert _clifford_power(theta, d) is None

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_def7_of_clifford_directions_verifies_in_one_layer(self, d):
        """v gates in random F.P^a.Z^b directions, some circuits mixed with
        generic ones: def7 verifies, the pattern is completely standard, every
        Clifford-direction M loses its X dependency and pauli_simplify leaves
        the generic ones as they were; with no generic gate, one layer."""
        ctx = ctx_of(d)
        for seed in range(6):
            rng = np.random.default_rng(100 * d + seed)
            generic = seed % 2
            ops = []
            for _ in range(7):
                if rng.random() < 0.3:
                    ops.append(Operation(Gate.cz(), (1, 2)))
                    continue
                theta = _clifford_theta(rng, d, int(rng.integers(2 * d)), int(rng.integers(d)))
                if generic and rng.random() < 0.4:
                    theta = tuple(rng.uniform(0, 2 * np.pi, d))
                ops.append(Operation(Gate.v(theta), (int(rng.integers(1, 3)),)))
            c = Circuit(ctx, (1, 2), (1, 2), (1, 2), tuple(ops))
            std = standardise(circuit_to_pattern_standard(c, standardise=False))
            for before, after in zip(std.seq, pauli_simplify(std).seq):
                if isinstance(before, Measure) and _clifford_power(before.theta, d) is None:
                    assert after is before
            pat = circuit_to_pattern_standard(c)
            assert is_completely_standard(pat)
            measures = [m for m in pat.seq if isinstance(m, Measure)]
            assert all(m.x_signal.is_zero() for m in measures if _clifford_power(m.theta, d) is not None)
            if not generic:
                assert len(_measurement_layers(pat)) == 1
            assert verify_equivalent(c, pat, seed)[0] < 1e-9


class TestSignalShift:
    def test_worked_chain_generic_shift(self):
        d = 3
        theta, phi, psi = GENERIC_THETAS[d]
        out = signal_shift(standardise(rotation_chain(d, theta, phi, psi)))
        ms = [c for c in out.seq if isinstance(c, Measure)]
        assert all(m.z_signal.is_zero() for m in ms)
        corr_x = [c for c in out.seq if isinstance(c, CorrectX)][0]
        corr_z = [c for c in out.seq if isinstance(c, CorrectZ)][0]
        assert corr_x.signal == sig(d, {3: 1, 1: d - 1})  # s3 - s1
        assert corr_z.signal == sig(d, {2: 1})

    def test_no_op_without_z_dependencies(self):
        d = 2
        p = standardise(rotation_chain(d, *GENERIC_THETAS[d]))
        cleaned = signal_shift(signal_shift(p))
        assert cleaned.seq == signal_shift(p).seq

    def test_chained_shifts_compose(self):
        # two nested Z-dependencies: the second shift must substitute the
        # already-resolved form of the first
        d = 3
        p = Pattern(
            ctx_of(d),
            (1, 2, 3, 4),
            (1, 2, 3, 4),
            (4,),
            (
                Measure(1, (0.1, 0.2, 0.3), sig(d, {}), sig(d, {})),
                Measure(2, (0.2, 0.3, 0.4), sig(d, {}), sig(d, {1: 1})),
                Measure(3, (0.3, 0.4, 0.5), sig(d, {}), sig(d, {2: 1})),
                CorrectX(4, sig(d, {3: 1})),
            ),
        )
        out = signal_shift(p)
        corr = [c for c in out.seq if isinstance(c, CorrectX)][0]
        # s3 - (s2 - s1) = s3 - s2 + s1
        assert corr.signal == sig(d, {3: 1, 2: d - 1, 1: 1})
        rng = np.random.default_rng(41)
        psi = random_state(ctx_of(d), p.inputs, rng)
        # deterministic output is not promised here; compare branch sets by outcome relabelling is
        # overkill -- instead check total probability and validity
        assert validate(out) is None
        assert abs(sum(b.probability for b in run_branches(out, psi)) - 1) < 1e-9


class TestCompletePipeline:
    def test_worked_chain_clifford_final_form(self):
        d = 3
        theta, phi, _ = GENERIC_THETAS[d]
        chain = rotation_chain(d, theta, phi, pauli_angles(d))
        out = completely_standardise(chain)
        assert out.seq == (
            Entangle(1, 2),
            Entangle(2, 3),
            Entangle(3, 4),
            Measure(1, theta, sig(d, {}), sig(d, {})),
            Measure(2, phi, sig(d, {1: 1}), sig(d, {})),
            Measure(3, pauli_angles(d), sig(d, {}), sig(d, {})),
            CorrectX(4, sig(d, {3: 1, 2: d - 1, 1: d - 1})),  # s3 - s2 - s1
            CorrectZ(4, sig(d, {2: 1})),
        )
        assert is_completely_standard(out)

    def test_worked_chain_depth_six(self):
        d = 3
        out = completely_standardise(rotation_chain(d, *GENERIC_THETAS[d]))
        rep = pattern_depth_and_size(out)
        assert rep.depth == 6
        assert rep.depth == longest_dependent_path(pattern_items(out))

    def test_idempotent(self):
        d = 2
        theta, phi, _ = GENERIC_THETAS[d]
        out = completely_standardise(rotation_chain(d, theta, phi, pauli_angles(d)))
        assert completely_standardise(out).seq == out.seq

    def test_clifford_only_pattern_loses_all_dependencies(self):
        d = 2
        chain = rotation_chain(d, zero_angles(d), pauli_angles(d), pauli_angles(d))
        out = completely_standardise(chain)
        assert all(m.is_independent() for m in out.seq if isinstance(m, Measure))

    @pytest.mark.parametrize("d,seed", [(2, 5), (2, 6), (3, 7)])
    def test_random_composites_run_equivalent_and_depth_bounded(self, d, seed):
        ctx = ctx_of(d)
        circ = random_guni_circuit(ctx, 2, 4, seed)
        raw = circuit_to_pattern_standard(lower_to_guni(circ), standardise=False)
        out = completely_standardise(raw)
        assert is_completely_standard(out)
        before = pattern_depth_and_size(raw)
        after = pattern_depth_and_size(out)
        assert after.depth <= before.depth
        rng = np.random.default_rng(seed)
        psi = random_state(ctx, raw.inputs, rng)
        ref = run_branches(raw, psi)[0].state
        for pat in (raw, out):
            for b in run_branches(pat, psi):
                assert fidelity_up_to_phase(b.state, ref) > 1 - 1e-9

    def test_size_can_grow_by_spawned_output_corrections(self):
        # one teleportation step followed by an entangling command: the X
        # correction must jump the entangling command, leaving a Z on the
        # partner output, which is a new command
        d = 2
        ctx = ctx_of(d)
        raw = Pattern(
            ctx,
            (1, 2, 3),
            (1, 2),
            (3, 2),
            (
                Entangle(1, 3),
                Measure(1, (0.1, 0.7), sig(d, {}), sig(d, {})),
                CorrectX(3, sig(d, {1: 1})),
                Entangle(3, 2),
            ),
        )
        out = completely_standardise(raw)
        assert pattern_depth_and_size(out).size == pattern_depth_and_size(raw).size + 1
        rng = np.random.default_rng(8)
        psi = random_state(ctx, raw.inputs, rng)
        ref = None
        for pat in (raw, out):
            for b in run_branches(pat, psi):
                st = b.state.with_sites_order(pat.outputs)
                if ref is None:
                    ref = st
                assert abs(abs(np.vdot(ref.amplitudes, st.amplitudes)) - 1) < 1e-9
