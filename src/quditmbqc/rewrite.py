"""Semantics-preserving pattern rewrite passes.

``standardise`` moves every entangling command to the front, absorbs
interleaved Pauli corrections into the measurements they precede, and
merges what remains into at most one X and one Z correction per output
qudit.  ``pauli_simplify`` turns the X dependency of each measurement in a
Clifford direction, v(theta) = F.P^a.Z^b up to a phase, into a Z
dependency.  ``signal_shift`` removes all
Z-type dependencies by classical post-processing.  Running the three
passes in that order yields a completely standard pattern.

Each pass body maps a command list to a command list, reusing every
command whose signals do not change; ``completely_standardise`` composes
the three and builds one ``Pattern``, which drops the zero corrections.
"""

from __future__ import annotations

import math

from .pattern import (
    Command,
    CorrectX,
    CorrectZ,
    Entangle,
    Measure,
    Pattern,
    Signal,
    pattern_depth_and_size,
)
from .sim import pauli_angles

__all__ = [
    "zero_angles",
    "pauli_angles",
    "angles_match",
    "standardise",
    "pauli_simplify",
    "signal_shift",
    "completely_standardise",
    "is_standard",
    "is_completely_standard",
]

ANGLE_TOL = 1e-12


def zero_angles(d: int) -> tuple[float, ...]:
    """Angle vector of the Fourier-direction measurement: v(0) = F."""
    return (0.0,) * d


def angles_match(theta, reference) -> bool:
    """Exact match for canonically constructed vectors, small-tolerance
    comparison modulo 2*pi otherwise."""
    if tuple(theta) == tuple(reference):
        return True
    for a, b in zip(theta, reference):
        # each side reduced first: a - b rounds b away when a is huge
        diff = (a % math.tau - b % math.tau) % math.tau
        if min(diff, math.tau - diff) > ANGLE_TOL:
            return False
    return len(tuple(theta)) == len(tuple(reference))


def _clifford_power(theta, d: int) -> int | None:
    """a when v(theta) = F.P^a.Z^b up to a global phase, else None: theta is
    then a constant plus a*p plus 2*pi*b*j/d mod 2*pi.  a is read off the
    second difference (2*pi/d for p; at d = 2 the one step, pi/2 for p), b
    off the first step, and one match confirms both; reducing mod 2*pi
    first keeps huge entries finite."""
    p, t = pauli_angles(d), [x % math.tau for x in theta]
    a = round((t[1] - t[0]) / p[1] if d == 2 else (t[2] - 2.0 * t[1] + t[0]) * d / math.tau) % d
    b = round((t[1] - t[0] - a * p[1]) * d / math.tau)
    return a if angles_match(t, [t[0] + a * pj + math.tau * b * j / d for j, pj in enumerate(p)]) else None


def is_standard(p: Pattern) -> bool:
    """Entangling commands first, then measurements, then corrections on
    output qudits only: the stage of each command in ``p.seq`` never
    decreases, and every correction acts on an output."""
    outputs = set(p.outputs)
    order = {"E": 0, "M": 1}  # a correction is stage 2
    stages = [order.get(cmd.kind, 2) for cmd in p.seq]
    return stages == sorted(stages) and all(cmd.site in outputs for cmd, stage in zip(p.seq, stages) if stage == 2)


def is_completely_standard(p: Pattern) -> bool:
    """Standard form, no Z dependency anywhere, and no X dependency on a
    measurement in a Clifford direction: ``pauli_simplify`` and
    ``signal_shift`` have nothing left to do."""
    return is_standard(p) and all(
        cmd.z_signal.is_zero() and (cmd.x_signal.is_zero() or _clifford_power(cmd.theta, p.ctx.d) is None)
        for cmd in p.seq
        if isinstance(cmd, Measure)
    )


def standardise(p: Pattern) -> Pattern:
    """Rewrite into standard form: all E first, then M, then output corrections."""
    return p.with_seq(_standardise(p.ctx.d, p.seq))


def pauli_simplify(p: Pattern) -> Pattern:
    """Turn the X dependency of each Clifford-direction measurement into a Z dependency."""
    return p.with_seq(_pauli_simplify(p.ctx.d, p.seq))


def signal_shift(p: Pattern) -> Pattern:
    """Remove every Z dependency, re-pointing later signal references."""
    return p.with_seq(_signal_shift(p.ctx.d, p.seq))


def _standardise(d: int, seq) -> list[Command]:
    """A single left-to-right pass keeps one Pauli frame: per signal key
    ("s" for X, "t" for Z), the net correction of each qudit floating at the
    current position (the X/Z order inside a pending pair only affects a
    global phase).  A correction adds its signal under its own key; an
    entangling command jumps over a pending X at the cost of a Z of the same
    signal on the opposite qudit; a measurement pops the frame under its two
    keys into its signals; whatever remains at the end lands on the output
    qudits as one X then one Z correction each.
    """
    zero = Signal.zero(d)
    frame: dict[str, dict[int, Signal]] = {"s": {}, "t": {}}
    entangles: list[Command] = []
    measures: list[Command] = []
    for cmd in seq:
        if isinstance(cmd, Entangle):
            for q, partner in ((cmd.i, cmd.j), (cmd.j, cmd.i)):
                sx = frame["s"].get(q, zero)
                if not sx.is_zero():
                    frame["t"][partner] = frame["t"].get(partner, zero) + sx
            entangles.append(cmd)
        elif isinstance(cmd, Measure):
            sx, sz = [frame[key].pop(cmd.site, zero) for key in cmd.keys]
            if sx is not zero or sz is not zero:
                cmd = Measure(cmd.site, cmd.theta, cmd.x_signal + sx, cmd.z_signal + sz)
            measures.append(cmd)
        else:
            (key,) = cmd.keys
            frame[key][cmd.site] = frame[key].get(cmd.site, zero) + cmd.signal
    # zero corrections pass through the later passes; the pattern drops them
    tail = [cls(q, frame[cls.keys[0]].get(q, zero)) for q in sorted(frame["s"] | frame["t"]) for cls in (CorrectX, CorrectZ)]
    return entangles + measures + tail


def _pauli_simplify(d: int, seq) -> list[Command]:
    """A measurement in direction v(theta) = F.P^a.Z^b trades its X dependency
    s for the Z dependency a*s: v(theta).X^s = Z^s.v(theta).Z^(a*s) up to a
    phase (as P.X^s = X^s.P.Z^s), and Z^s after the frame rephases only."""
    out = []
    for cmd in seq:
        if isinstance(cmd, Measure) and not cmd.x_signal.is_zero():
            a = _clifford_power(cmd.theta, d)
            if a is not None:
                cmd = Measure(cmd.site, cmd.theta, Signal.zero(d), cmd.z_signal + cmd.x_signal.scaled(a))
        out.append(cmd)
    return out


def _signal_shift(d: int, seq) -> list[Command]:
    """Processing measurements in execution order, each measurement's Z
    signal t is dropped and every later reference to that outcome s_i
    is replaced by s_i - t (classical post-processing mod d)."""
    shifts: dict[int, Signal] = {}

    def substituted(sig: Signal) -> Signal:
        # shift expressions are already fully resolved, so every -c*shift
        # term joins the argument's own terms in one dict, summed mod d
        if not any(q in shifts for q, _ in sig.coeffs):
            return sig
        raw = dict(sig.coeffs)
        for q, c in sig.coeffs:
            if q in shifts:
                for r, e in shifts[q].coeffs:
                    raw[r] = raw.get(r, 0) - c * e
        return Signal._of_raw(d, raw)

    out = []
    for cmd in seq:
        if isinstance(cmd, Measure):
            s = substituted(cmd.x_signal)
            if not cmd.z_signal.is_zero():
                t = substituted(cmd.z_signal)
                if not t.is_zero():
                    shifts[cmd.site] = t
                cmd = Measure(cmd.site, cmd.theta, s, Signal.zero(d))
            elif s is not cmd.x_signal:
                cmd = Measure(cmd.site, cmd.theta, s, cmd.z_signal)
        elif not isinstance(cmd, Entangle):
            cmd = type(cmd)(cmd.site, substituted(cmd.signal))
        out.append(cmd)
    return out


def completely_standardise(p: Pattern) -> Pattern:
    """standardise, then pauli_simplify, then signal_shift.

    Depth never increases; this is asserted.  Size can grow by a
    handful of correction commands: pushing an entangling command past
    an X correction necessarily leaves a Z correction on the partner
    qudit, and when the partner is an output that previously carried no
    correction this is a new command (smallest case: the composite of
    one teleportation step followed by one entangling command).
    """
    d = p.ctx.d
    out = p.with_seq(_signal_shift(d, _pauli_simplify(d, _standardise(d, p.seq))))
    before = pattern_depth_and_size(p)
    after = pattern_depth_and_size(out)
    if after.depth > before.depth:
        raise AssertionError(
            f"standardisation increased depth: {before.depth} -> {after.depth}"
        )
    return out
