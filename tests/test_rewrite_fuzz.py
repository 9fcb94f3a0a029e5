"""Randomized rewrite-pass checks on arbitrary wellformed patterns.

The converter-produced composites only ever carry X corrections, so
these fuzzed patterns add interleaved Z corrections, corrections on
input wires, multi-term signals and repeated entangling commands.

standardise and pauli_simplify hold branch by branch (they never touch
outcome meanings); signal_shift relabels outcomes, so the full pipeline
is compared as a channel: same branch-probability multiset and the same
output density operator.  standardise's one Pauli frame and signal_shift's
one-dict substitution are also compared command for command with the
former two-dict pass and the former term-by-term substitution.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from helpers import oracle_signal_shift, oracle_standardise

from quditmbqc.algebra import DimensionContext
from quditmbqc.pattern import (
    CorrectX,
    CorrectZ,
    Entangle,
    Measure,
    Pattern,
    Signal,
    run_branches,
    validate,
)
from quditmbqc.rewrite import (
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


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_signal_shift_matches_the_term_by_term_oracle(d):
    cancelled = 0
    for seed in range(25):
        for p in (random_standard_pattern(d, seed), pauli_simplify(standardise(random_pattern(d, seed)))):
            shifted = signal_shift(p)
            assert shifted.seq == oracle_signal_shift(p).seq
            cancelled += _cancellations(p)
    assert cancelled > 0
