"""Randomized rewrite-pass checks on arbitrary wellformed patterns.

The converter-produced composites only ever carry X corrections, so
these fuzzed patterns add interleaved Z corrections, corrections on
input wires, multi-term signals and repeated entangling commands.

standardise and pauli_simplify hold branch by branch (they never touch
outcome meanings); signal_shift relabels outcomes, so the full pipeline
is compared as a channel: same branch-probability multiset and the same
output density operator.  standardise's one Pauli frame and signal_shift's
back-substitution are also compared command for command with the
former two-dict pass and the former term-by-term substitution, on
relabelled patterns (label order unlike measurement order) and with the
rows split into parts as well.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers import oracle_signal_shift, oracle_standardise

from quditmbqc import rewrite, sim
from quditmbqc.algebra import DimensionContext
from quditmbqc.circuit import lower_to_guni
from quditmbqc.convert import circuit_to_pattern_standard
from quditmbqc.generate import random_guni_circuit
from quditmbqc.pattern import (
    CorrectX,
    CorrectZ,
    Entangle,
    Measure,
    Pattern,
    Signal,
    _relabel_commands,
    run_branches,
    validate,
)
from quditmbqc.rewrite import (
    _signal_shift,
    _standardise,
    completely_standardise,
    pauli_angles,
    pauli_simplify,
    signal_shift,
    standardise,
    zero_angles,
)
from quditmbqc.sim import fidelity_up_to_phase, random_state


def random_pattern(d, seed):
    """A wellformed pattern with adversarial command interleavings."""
    rng = np.random.default_rng(seed)
    ctx = DimensionContext.of(d)
    n_total = int(rng.integers(3, 5))
    qudits = tuple(range(1, n_total + 1))
    n_out = int(rng.integers(1, 3))
    outputs = tuple(int(q) for q in rng.choice(qudits, size=n_out, replace=False))
    inputs = tuple(int(q) for q in rng.choice(qudits, size=int(rng.integers(1, n_total)), replace=False))
    to_measure = [q for q in qudits if q not in outputs]
    rng.shuffle(to_measure)
    measured: list[int] = []
    alive = set(qudits)
    seq = []

    def random_signal():
        if not measured or rng.random() < 0.3:
            return Signal.zero(d)
        terms = {}
        for q in rng.choice(measured, size=min(len(measured), int(rng.integers(1, 3))), replace=False):
            terms[int(q)] = int(rng.integers(1, d))
        return Signal.of(d, terms)

    while to_measure or rng.random() < 0.5:
        roll = rng.random()
        if roll < 0.35 and len(alive) >= 2:
            i, j = rng.choice(sorted(alive), size=2, replace=False)
            seq.append(Entangle(int(i), int(j)))
        elif roll < 0.6 and alive:
            q = int(rng.choice(sorted(alive)))
            cls = CorrectX if rng.random() < 0.5 else CorrectZ
            seq.append(cls(q, random_signal()))
        elif to_measure:
            q = to_measure.pop()
            angle_pool = [
                tuple(rng.uniform(0, 2 * np.pi, d)),
                zero_angles(d),
                pauli_angles(d),
            ]
            theta = angle_pool[int(rng.integers(3))]
            seq.append(Measure(q, theta, random_signal(), random_signal()))
            measured.append(q)
            alive.discard(q)
        else:
            break
    pat = Pattern(ctx, qudits, inputs, outputs, tuple(seq))
    assert validate(pat) is None
    return pat


def branch_table(pat, psi):
    out = {}
    for b in run_branches(pat, psi):
        key = tuple(sorted(b.outcomes.items()))
        out[key] = b
    return out


def channel_summary(pat, psi):
    probs = []
    dim = pat.ctx.d ** len(pat.outputs)
    rho = np.zeros((dim, dim), dtype=complex)
    for b in run_branches(pat, psi):
        probs.append(round(b.probability, 9))
        vec = b.state.with_sites_order(pat.outputs).amplitudes
        rho += b.probability * np.outer(vec, vec.conj())
    return sorted(probs), rho


@pytest.mark.parametrize("d,seed", [(2, s) for s in range(10)] + [(3, s) for s in range(6)])
def test_outcome_preserving_passes_hold_branchwise(d, seed):
    pat = random_pattern(d, seed)
    rng = np.random.default_rng(seed + 900)
    psi = random_state(pat.ctx, pat.inputs, rng)
    reference = branch_table(pat, psi)
    for rewritten in (standardise(pat), pauli_simplify(standardise(pat))):
        assert validate(rewritten) is None
        table = branch_table(rewritten, psi)
        assert set(table) == set(reference)
        for key, b in table.items():
            ref = reference[key]
            assert abs(b.probability - ref.probability) < 1e-9
            assert fidelity_up_to_phase(b.state, ref.state) > 1 - 1e-9


@pytest.mark.parametrize("d,seed", [(2, s) for s in range(10)] + [(3, s) for s in range(6)])
def test_full_pipeline_preserves_the_channel(d, seed):
    pat = random_pattern(d, seed)
    rng = np.random.default_rng(seed + 901)
    psi = random_state(pat.ctx, pat.inputs, rng)
    probs_a, rho_a = channel_summary(pat, psi)
    out = completely_standardise(pat)
    assert validate(out) is None
    probs_b, rho_b = channel_summary(out, psi)
    assert np.allclose(probs_a, probs_b, atol=1e-8)
    assert np.max(np.abs(rho_a - rho_b)) < 1e-8


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_complete_is_the_three_passes_composed(d):
    for seed in range(25):
        for p in (random_pattern(d, seed), random_standard_pattern(d, seed)):
            assert completely_standardise(p).seq == signal_shift(pauli_simplify(standardise(p))).seq


@pytest.mark.parametrize("d", [2, 3, 4])
def test_standardise_matches_the_two_dict_oracle(d):
    """The frame pass returns the former pass's command tuple, zero
    corrections included, and reuses exactly the commands it reused."""
    reused = 0
    for seed in range(40):
        p = random_pattern(d, seed)
        new, old = tuple(_standardise(d, p.seq)), oracle_standardise(p)
        assert new == old
        source = {id(cmd) for cmd in p.seq}
        assert [id(cmd) in source for cmd in new] == [id(cmd) in source for cmd in old]
        reused += sum(isinstance(cmd, Measure) and id(cmd) in source for cmd in new)
    assert reused > 0


@pytest.mark.parametrize("d,seed", [(2, 3), (3, 4)])
def test_shift_alone_preserves_the_channel(d, seed):
    pat = standardise(random_pattern(d, seed))
    rng = np.random.default_rng(seed + 902)
    psi = random_state(pat.ctx, pat.inputs, rng)
    probs_a, rho_a = channel_summary(pat, psi)
    out = signal_shift(pat)
    assert all(m.z_signal.is_zero() for m in out.seq if isinstance(m, Measure))
    probs_b, rho_b = channel_summary(out, psi)
    assert np.allclose(probs_a, probs_b, atol=1e-8)
    assert np.max(np.abs(rho_a - rho_b)) < 1e-8


def random_standard_pattern(d, seed):
    """A standard pattern whose many-term X and Z signals reuse a few
    outcomes with coefficients in [-d, 2d), so substitutions often cancel."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    qudits = tuple(range(1, n + 1))
    outputs = qudits[-2:]
    seq = [Entangle(i, i + 1) for i in qudits[:-1]]
    measured: list[int] = []

    def random_signal():
        picks = rng.choice(measured, size=int(rng.integers(0, 2 * len(measured) + 1))) if measured else ()
        return Signal(d, tuple((int(q), int(rng.integers(-d, 2 * d))) for q in picks))

    for q in qudits[:-2]:
        seq.append(Measure(q, tuple(rng.uniform(0, 2 * np.pi, d)), random_signal(), random_signal()))
        measured.append(q)
    for q in outputs:
        seq += [CorrectX(q, random_signal()), CorrectZ(q, random_signal())]
    return Pattern(DimensionContext.of(d), qudits, qudits[:1], outputs, tuple(seq))


def _cancellations(p) -> int:
    """Substituted signals of ``p`` in which the terms of some outcome sum
    to 0 mod d."""
    d, shifts, count = p.ctx.d, {}, 0

    def raw(sig):  # the substitution's integer sums, before reduction mod d
        total = dict(sig.coeffs)
        for q, c in sig.coeffs:
            for r, e in shifts.get(q, {}).items():
                total[r] = total.get(r, 0) - c * e
        return total

    for cmd in p.seq:
        signals = (cmd.x_signal, cmd.z_signal) if isinstance(cmd, Measure) else (getattr(cmd, "signal", None),)
        for sig in filter(None, signals):
            count += any(q in shifts for q in sig.qudits()) and any(v % d == 0 for v in raw(sig).values())
        if isinstance(cmd, Measure):
            shifts[cmd.site] = {q: v % d for q, v in raw(cmd.z_signal).items() if v % d}
    return count


def relabelled(p, rng):
    """``p`` over distinct random qudit ids, negative ones included, so that
    label order and measurement order differ."""
    n = len(p.qudits)
    mapping = dict(zip(p.qudits, rng.choice(np.arange(-3 * n, 3 * n), size=n, replace=False).tolist()))
    ids = [tuple(mapping[q] for q in wires) for wires in (p.qudits, p.inputs, p.outputs)]
    return Pattern(p.ctx, *ids, _relabel_commands(p.seq, mapping))


def raw_def7(d, seed):
    """The pattern of a 3-qudit, 20-gate guni circuit before any rewrite pass, whose
    teleportation steps put Z signals on later measurements."""
    circuit = lower_to_guni(random_guni_circuit(DimensionContext.of(d), 3, 20, seed=seed))
    return circuit_to_pattern_standard(circuit, standardise=False)


def assert_shift_matches_the_oracle(p) -> int:
    """``signal_shift`` of ``p`` against the oracle; a command returned
    unchanged is the same object.  Returns how many were reused."""
    out = _signal_shift(p.ctx.d, p.seq)
    assert p.with_seq(out).seq == oracle_signal_shift(p).seq
    assert all(new is old or new != old for new, old in zip(out, p.seq))
    return sum(new is old for new, old in zip(out, p.seq) if not isinstance(new, Entangle))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 12])
def test_signal_shift_matches_the_term_by_term_oracle(d):
    cancelled = reused = 0
    rng = np.random.default_rng(d)
    for seed in range(25):
        for p in (random_standard_pattern(d, seed), pauli_simplify(standardise(random_pattern(d, seed))), pauli_simplify(standardise(raw_def7(d, seed)))):
            for q in (p, relabelled(p, rng)):
                reused += assert_shift_matches_the_oracle(q)
            cancelled += _cancellations(p)
    assert cancelled > 0 and reused > 0


@pytest.mark.parametrize("d", [2, 3, 5, 12])
def test_signal_shift_drops_cancelled_terms_and_keeps_unchanged_signals(d):
    """s2 is shifted by s1, and s3 by s2 + s1, which resolves to s2: the s1
    term cancels.  s2 + s3 resolves to s3 - s1, its s2 term cancelling in
    the sweep.  s2 - s5, with s5 also shifted by s1, resolves to itself."""
    s = {q: Signal.unit(d, q) for q in range(1, 6)}
    theta = tuple(np.linspace(0.3, 2.0, d))
    seq = [Entangle(q, q + 1) for q in range(1, 6)] + [
        Measure(1, theta, Signal.zero(d), Signal.zero(d)),
        Measure(2, theta, Signal.zero(d), s[1]),
        Measure(3, theta, Signal.zero(d), s[2] + s[1]),
        Measure(4, theta, s[2] + s[3], Signal.zero(d)),
        Measure(5, theta, Signal.zero(d), s[1]),
        CorrectX(6, s[2] - s[5]),
        CorrectZ(6, s[3] + s[2]),
    ]
    p = Pattern(DimensionContext.of(d), tuple(range(1, 7)), (1,), (6,), tuple(seq))
    out = _signal_shift(d, p.seq)
    assert out[8].x_signal == out[11].signal == s[3] - s[1]
    assert out[10] is p.seq[10] and out[5] is p.seq[5]
    for q in (p, relabelled(p, np.random.default_rng(d))):
        assert_shift_matches_the_oracle(q)


@pytest.mark.parametrize("cap", [1, 64])
def test_signal_shift_rows_run_in_parts_within_the_cap(monkeypatch, cap):
    """With AMPLITUDE_CAP small the output signals run in several parts of
    rows (one row each when a row alone is past the cap), with the same result."""
    parts = []

    def counted(count, per_row):
        parts.append(sim.row_parts(count, per_row))
        return parts[-1]

    monkeypatch.setattr(sim, "AMPLITUDE_CAP", cap)
    monkeypatch.setattr(rewrite, "row_parts", counted)
    for d, seed in ((2, 0), (3, 1), (6, 2)):
        p = pauli_simplify(standardise(raw_def7(d, seed)))
        assert_shift_matches_the_oracle(p)
        assert_shift_matches_the_oracle(relabelled(p, np.random.default_rng(seed)))
    assert min(len(x) for x in parts) > 1
