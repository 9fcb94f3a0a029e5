"""Shared test oracles, independent of the code paths they check.

- brute-force longest dependent-path search for depth reports
- single-site conjugate-basis states, partial traces and purity
- global-phase-insensitive unitary comparison
- a sparse phase-polynomial simulator for circuits built from basis
  permutations and Z(d)-integer diagonal phases (the controlled-Pauli
  gate family), exact at any register width
- the former dense int64 controlled-Pauli normal form, as the reference for
  the sparse ``Signal``-row form
- a stabilizer-table tracker with group-membership tests, built on the
  matrix-verified symbolic Pauli conjugation (prime d)
- the simulator's former index-arithmetic kernels, three-pass
  measurement frame and abs-square-sum collapse, as the reference for the
  axis-based kernels
- the former per-caller transposes of rows to a new site order, as the
  reference for ``sim._reordered``
- a one-state pattern walk on those kernels (one state per branch, each
  measurement through the three-pass frame, each sampled outcome drawn by
  ``Generator.choice`` from the oracle's own probabilities), the former
  quadratic lazy schedule and the former eager schedule (every ancilla
  appended first), as the reference for the batched walk and the indexed
  schedule
- the former ``Signal`` canonicaliser, the former term-by-term
  ``signal_shift`` substitution built on it, and the artifact
  documents the JSON writers once handed to ``json.dumps(doc, indent=2)``
- the former per-kind depth items and relabelling of pattern commands, as
  the reference for the commands' one description
- the former two-dict ``standardise`` pass (pending X and pending Z per
  qudit), as the reference for the one Pauli frame
- a context manager that counts the kernel calls a module makes
- a context manager that unfuses the schedule's teleportation steps
  (q, e, M), so that the walk runs its generic append, CZ, frame rotation
  and collapse in their place, as the reference for that step
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from functools import reduce
from itertools import product

import numpy as np

from quditmbqc.algebra import DimensionContext, PauliOperator, xi_p
from quditmbqc.circuit import _JSON_PARAMS, Circuit, Operation
from quditmbqc.pattern import CorrectX, CorrectZ, Entangle, Measure, Pattern, RunResult, Signal
from quditmbqc.sim import _KINDS, Gate, GateName, StateVector, basis_state, gate_matrix

CONST = "#const"


# -- state inspection -------------------------------------------------------------


def plus_state(ctx: DimensionContext, site: int, n: int = 0) -> StateVector:
    """The conjugate-basis state F|n> on a single site."""
    return StateVector(ctx, (site,), gate_matrix(Gate.f(), ctx)[:, n % ctx.d].copy())


def reduced_density_matrix(state: StateVector, keep) -> np.ndarray:
    """Partial trace onto the kept sites (in the order given)."""
    keep = tuple(keep)
    d = state.ctx.d
    axes = [state.site_axis(s) for s in keep]
    rest = [i for i in range(state.num_sites) if i not in axes]
    tensor = np.transpose(state.tensor(), axes + rest)
    mat = tensor.reshape(d ** len(keep), -1)
    return mat @ mat.conj().T


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


# -- depth oracle ---------------------------------------------------------------


def longest_dependent_path(items: list[tuple[tuple[int, ...], tuple[int, ...], int | None]]) -> int:
    """Longest chain by dynamic programming over the explicit link relation.

    Each item is (sites, referenced_outcome_qudits, measured_qudit_or_None).
    Item j links to an earlier item i when they share a site or item j
    references the outcome that item i produced.
    """
    best = [0] * len(items)
    for j, (sites_j, refs_j, _) in enumerate(items):
        longest = 0
        for i in range(j):
            sites_i, _, measured_i = items[i]
            linked = bool(set(sites_i) & set(sites_j))
            if not linked and measured_i is not None and measured_i in refs_j:
                linked = True
            if linked:
                longest = max(longest, best[i])
        best[j] = longest + 1
    return max(best, default=0)


def circuit_items(c: Circuit):
    return [(op.sites, (), None) for op in c.ops]


def oracle_chain_item(cmd) -> tuple:
    """The former per-kind ``pattern._chain_item``: (sites, referenced
    outcome qudits, measured qudit or None) of a command."""
    if isinstance(cmd, Entangle):
        return (cmd.i, cmd.j), (), None
    if isinstance(cmd, Measure):
        return (cmd.site,), cmd.x_signal.qudits() + cmd.z_signal.qudits(), cmd.site
    if isinstance(cmd, (CorrectX, CorrectZ)):
        return (cmd.site,), cmd.signal.qudits(), None
    raise TypeError(cmd)


def pattern_items(p: Pattern):
    return [oracle_chain_item(cmd) for cmd in p.seq]


# -- unitary comparison -----------------------------------------------------------


def max_diff_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    if u.shape != v.shape:
        raise ValueError("shape mismatch")
    k = np.argmax(np.abs(u))
    if abs(v.flat[k]) < 1e-14:
        return float(np.max(np.abs(u - v)))
    phase = u.flat[k] / v.flat[k]
    phase /= abs(phase)
    return float(np.max(np.abs(u - phase * v)))


# -- phase-polynomial oracle --------------------------------------------------------


def _poly_from_angles(angles, d: int):
    """Match exp(i*angles[q]) against omega^(c2*q^2 + c1*q + c0); returns
    (c2, c1) or None when the vector is not an integer phase polynomial."""
    target = np.exp(1j * np.asarray(angles, dtype=float))
    omega = np.exp(2j * np.pi / d)
    qs = np.arange(d)
    for c2 in range(d):
        for c1 in range(d):
            probe = omega ** ((c2 * qs * qs + c1 * qs) % d)
            ratio = target / probe
            if np.max(np.abs(ratio - ratio[0])) < 1e-9:
                return c2, c1
    return None


class PhasePoly:
    """Exact symbolic state of a permutation-plus-diagonal circuit.

    Every qudit's running value is a sparse affine form over the initial
    digits, and the accumulated phase is a sparse quadratic form; both
    live in Z(d).  Constant phase terms are dropped (global phase).
    """

    def __init__(self, ctx: DimensionContext, qudits):
        self.d = ctx.d
        self.rows: dict[int, dict] = {q: {q: 1} for q in qudits}
        self.cross: dict[tuple, int] = {}
        self.lin: dict[int, int] = {}

    def _add_lin(self, form: dict, k: int) -> None:
        for var, c in form.items():
            if var == CONST:
                continue
            self.lin[var] = (self.lin.get(var, 0) + k * c) % self.d

    def _add_product(self, f: dict, g: dict, k: int) -> None:
        for va, ca in f.items():
            for vb, cb in g.items():
                coeff = (k * ca * cb) % self.d
                if not coeff:
                    continue
                if va == CONST and vb == CONST:
                    continue
                if va == CONST:
                    self.lin[vb] = (self.lin.get(vb, 0) + coeff) % self.d
                elif vb == CONST:
                    self.lin[va] = (self.lin.get(va, 0) + coeff) % self.d
                else:
                    key = (va, vb) if va <= vb else (vb, va)
                    self.cross[key] = (self.cross.get(key, 0) + coeff) % self.d

    def _row_add(self, target: int, source_form: dict, k: int) -> None:
        row = self.rows[target]
        for var, c in source_form.items():
            row[var] = (row.get(var, 0) + k * c) % self.d
            if not row[var]:
                del row[var]

    def apply(self, gate: Gate, sites) -> None:
        d = self.d
        name = gate.name
        if name == GateName.X:
            self._row_add(sites[0], {CONST: 1}, gate.k % d)
        elif name == GateName.CX:
            self._row_add(sites[1], dict(self.rows[sites[0]]), gate.k % d)
        elif name == GateName.SWAP:
            self.rows[sites[0]], self.rows[sites[1]] = self.rows[sites[1]], self.rows[sites[0]]
        elif name == GateName.FANOUT:
            src = dict(self.rows[sites[0]])
            for t, coeff in zip(sites[1:], gate.coeffs):
                self._row_add(t, src, coeff % d)
        elif name == GateName.MOD:
            for ctl, coeff in zip(sites[1:], gate.coeffs):
                self._row_add(sites[0], dict(self.rows[ctl]), coeff % d)
        elif name == GateName.Z:
            self._add_lin(self.rows[sites[0]], gate.k % d)
        elif name == GateName.CZ:
            self._add_product(self.rows[sites[0]], self.rows[sites[1]], gate.k % d)
        elif name in (GateName.R, GateName.DIAG):
            vec = gate.theta if name == GateName.R else gate.angles
            poly = _poly_from_angles(vec, d)
            if poly is None:
                raise ValueError("diagonal gate is not an integer phase polynomial")
            c2, c1 = poly
            form = self.rows[sites[0]]
            self._add_product(form, form, c2)
            self._add_lin(form, c1)
        else:
            raise ValueError(f"gate {name.value} outside the phase-polynomial family")

    def run(self, circuit: Circuit) -> "PhasePoly":
        for op in circuit.ops:
            self.apply(op.gate, op.sites)
        return self

    def restricted(self, keep_vars) -> tuple[dict, dict, dict]:
        """Substitute zero for every variable outside ``keep_vars``; returns
        (rows, cross, diag) in canonical form.  The per-variable diagonal
        phase is canonicalized as the length-d function it computes, since
        coefficient pairs are not unique mod d (for even d the square and
        linear monomials differ by a multiple of d/2)."""
        keep = set(keep_vars) | {CONST}
        rows = {}
        for q, row in self.rows.items():
            rows[q] = {v: c for v, c in row.items() if v in keep and c % self.d}
        cross = {}
        squares: dict = {}
        for (va, vb), c in self.cross.items():
            if not {va, vb} <= keep or not c % self.d:
                continue
            if va == vb:
                squares[va] = c % self.d
            else:
                cross[(va, vb)] = c % self.d
        diag = {}
        for v in set(squares) | {v for v, c in self.lin.items() if v in keep and c % self.d}:
            c2 = squares.get(v, 0)
            c1 = self.lin.get(v, 0)
            fun = tuple((c2 * q * q + c1 * q) % self.d for q in range(self.d))
            if any(fun):
                diag[v] = fun
        return rows, cross, diag


def phase_poly_equivalent(compiled: Circuit, source: Circuit) -> bool:
    """Exact equality (up to global phase) of two controlled-Pauli-family
    computations: same value map on the source wires, clean ancillas, and
    the same phase polynomial, with non-input digits fixed to zero."""
    mains = tuple(source.qudits)
    if tuple(compiled.inputs) != tuple(source.inputs) or tuple(compiled.outputs) != tuple(source.outputs):
        return False
    a = PhasePoly(compiled.ctx, compiled.qudits).run(compiled)
    b = PhasePoly(source.ctx, source.qudits).run(source)
    rows_a, cross_a, diag_a = a.restricted(mains)
    rows_b, cross_b, diag_b = b.restricted(mains)
    for q in mains:
        if rows_a[q] != rows_b[q]:
            return False
    for q in compiled.qudits:
        if q in set(mains):
            continue
        if rows_a[q]:  # ancilla must come back to zero
            return False
    return cross_a == cross_b and diag_a == diag_b


def oracle_normal_form(ops, qudits: tuple[int, ...], d: int):
    """The controlled-Pauli normal form as the compiler once kept it: dense
    int64 arrays over positions in ``qudits``, reduced mod d.  ``quad``
    holds the squares on its diagonal and the cross terms above it, ``lin``
    the linear terms, and qudit j's value is ``matrix[j] . x + shift[j]``."""
    n = len(qudits)
    index = {q: i for i, q in enumerate(qudits)}
    matrix = np.eye(n, dtype=np.int64)
    shift = np.zeros(n, dtype=np.int64)
    quad = np.zeros((n, n), dtype=np.int64)
    lin = np.zeros(n, dtype=np.int64)
    for op in ops:
        g = op.gate
        k = g.k % d
        i = index[op.sites[0]]
        if g.name == GateName.X:
            shift[i] = (shift[i] + k) % d
        elif g.name == GateName.Z:
            lin = (lin + k * matrix[i]) % d
        else:
            j = index[op.sites[1]]
            if g.name == GateName.CX:
                matrix[j] = (matrix[j] + k * matrix[i]) % d
                shift[j] = (shift[j] + k * shift[i]) % d
            else:
                quad = (quad + k * np.outer(matrix[i], matrix[j])) % d
                lin = (lin + k * (matrix[i] * shift[j] + matrix[j] * shift[i])) % d
    quad = (np.triu(quad) + np.tril(quad, -1).T) % d
    return quad, lin, matrix, shift


# -- stabilizer-table oracle ---------------------------------------------------------


def match_clifford_diagonal(ctx: DimensionContext, angles) -> tuple[int, int] | None:
    """Match exp(i*angles[q]) against the diagonal of P^a Z^b (up to a global
    phase); returns (a, b) or None.  Covers both omega- and omega_hat-valued
    Clifford diagonals."""
    target = np.exp(1j * np.asarray(angles, dtype=float))
    d, D = ctx.d, ctx.D
    omega_hat = np.exp(2j * np.pi / D)
    unit = D // d
    xi = np.array([xi_p(ctx, q) for q in range(d)])
    qs = np.arange(d)
    for a in range(D):
        base = omega_hat ** ((a * xi) % D)
        for b in range(d):
            probe = base * omega_hat ** ((unit * b * qs) % D)
            ratio = target / probe
            if np.max(np.abs(ratio - ratio[0])) < 1e-9:
                return a, b
    return None


def diagonal_clifford_word(ctx: DimensionContext, site: int, a: int, b: int):
    word = [("P", site)] * (a % ctx.D)
    if b % ctx.d:
        word.append(("PAULI", site, 0, b % ctx.d))
    return word


def clifford_word(ctx: DimensionContext, gate: Gate, sites) -> list[tuple]:
    """Elementary conjugation steps, in execution order, for every gate kind
    this repo's Clifford pipelines emit."""
    d = ctx.d
    name = gate.name
    if name == GateName.F:
        return [("F", sites[0])]
    if name == GateName.FINV:
        return [("F", sites[0])] * 3
    if name == GateName.P:
        return [("P", sites[0])]
    if name == GateName.CZ:
        return [("CZ", sites[0], sites[1])] * (gate.k % d)
    if name == GateName.CX:
        i, j = sites
        return [("F", j)] + [("CZ", i, j)] * (gate.k % d) + [("F", j)] * 3
    if name == GateName.X:
        return [("PAULI", sites[0], gate.k % d, 0)]
    if name == GateName.Z:
        return [("PAULI", sites[0], 0, gate.k % d)]
    if name == GateName.SWAP:
        i, j = sites
        out = clifford_word(ctx, Gate.cx(), (i, j))
        out += clifford_word(ctx, Gate.cx(d - 1), (j, i))
        out += clifford_word(ctx, Gate.cx(), (i, j))
        out += [("F", i), ("F", i)]
        return out
    if name == GateName.FANOUT:
        out = []
        for t, coeff in zip(sites[1:], gate.coeffs):
            out += clifford_word(ctx, Gate.cx(coeff % d), (sites[0], t))
        return out
    if name == GateName.MOD:
        out = [("F", q) for q in sites] * 3
        inner = Gate.fanout(tuple((-c) % d for c in gate.coeffs))
        out += clifford_word(ctx, inner, sites)
        out += [("F", q) for q in sites]
        return out
    if name in (GateName.V, GateName.R, GateName.DIAG):
        vec = gate.theta if name != GateName.DIAG else gate.angles
        match = match_clifford_diagonal(ctx, vec)
        if match is None:
            raise ValueError("angle vector is not Clifford")
        word = diagonal_clifford_word(ctx, sites[0], *match)
        if name == GateName.V:
            word = word + [("F", sites[0])]
        return word
    raise ValueError(f"no Clifford word for {name.value}")


class StabilizerTable:
    """Pauli generators as integer arrays, conjugated gate by gate.

    Columns are indexed by position in ``sites``; x/z hold exponents in
    Z(d), phase holds omega_hat exponents in Z(D).  Every update follows
    the exact conjugation rules of the symbolic algebra.
    """

    def __init__(self, ctx: DimensionContext, sites):
        self.ctx = ctx
        self.sites = tuple(sites)
        self.index = {s: i for i, s in enumerate(self.sites)}
        n = len(self.sites)
        self.x = np.zeros((0, n), dtype=np.int64)
        self.z = np.zeros((0, n), dtype=np.int64)
        self.phase = np.zeros(0, dtype=np.int64)

    @classmethod
    def computational_input(cls, ctx, sites, digits: dict[int, int]) -> "StabilizerTable":
        """Stabilizers of the product state with each site in |digit>
        (default 0): generator omega^{-digit} Z per site."""
        table = cls(ctx, sites)
        n = len(table.sites)
        table.x = np.zeros((n, n), dtype=np.int64)
        table.z = np.eye(n, dtype=np.int64)
        unit = ctx.D // ctx.d
        table.phase = np.array(
            [(-unit * digits.get(s, 0)) % ctx.D for s in table.sites], dtype=np.int64
        )
        return table

    def _apply_step(self, step: tuple) -> None:
        d, D = self.ctx.d, self.ctx.D
        delta = self.ctx.delta_d
        unit = D // d
        kind = step[0]
        if kind == "F":
            i = self.index[step[1]]
            a, b = self.x[:, i].copy(), self.z[:, i].copy()
            self.phase = (self.phase + (a * b) * (delta - 2)) % D
            self.x[:, i] = (-b) % d
            self.z[:, i] = a
        elif kind == "P":
            i = self.index[step[1]]
            a = self.x[:, i]
            num = a * (2 - (a - 1) * (delta - 2))
            assert not np.any(num % 2)
            self.phase = (self.phase + num // 2) % D
            self.z[:, i] = (self.z[:, i] + a) % d
        elif kind == "CZ":
            i, j = self.index[step[1]], self.index[step[2]]
            self.phase = (self.phase + unit * self.x[:, i] * self.x[:, j]) % D
            zi = (self.z[:, i] + self.x[:, j]) % d
            zj = (self.z[:, j] + self.x[:, i]) % d
            self.z[:, i], self.z[:, j] = zi, zj
        elif kind == "PAULI":
            _, site, a, b = step
            i = self.index[site]
            self.phase = (self.phase + unit * (a * self.z[:, i] - b * self.x[:, i])) % D
        else:
            raise ValueError(kind)

    def conjugate_through(self, circuit: Circuit) -> "StabilizerTable":
        for op in circuit.ops:
            for step in clifford_word(self.ctx, op.gate, op.sites):
                self._apply_step(step)
        return self

    def generators(self) -> list[PauliOperator]:
        out = []
        for r in range(self.x.shape[0]):
            out.append(
                PauliOperator(
                    self.ctx,
                    len(self.sites),
                    int(self.phase[r]),
                    tuple(int(v) for v in self.x[r]),
                    tuple(int(v) for v in self.z[r]),
                )
            )
        return out

    def contains(self, x_exp: dict[int, int], z_exp: dict[int, int], phase: int) -> bool:
        """Exact group membership of one Pauli (given site -> exponent maps),
        including the phase, by symplectic elimination mod prime d."""
        d, D = self.ctx.d, self.ctx.D
        unit = D // d
        n = len(self.sites)
        gx, gz, gp = self.x.copy(), self.z.copy(), self.phase.copy()
        tx = np.zeros(n, dtype=np.int64)
        tz = np.zeros(n, dtype=np.int64)
        for s, e in x_exp.items():
            tx[self.index[s]] = e % d
        for s, e in z_exp.items():
            tz[self.index[s]] = e % d
        tp = phase % D

        def mul_into(ax, az, ap, bx, bz, bp, k):
            # (a) *= (b)^k in normal form; returns new (x, z, phase)
            # b^k carries k*phase_b plus the Weyl reordering term C(k,2)*z.x
            kp = (k * bp + unit * (k * (k - 1) // 2) * int((bz * bx).sum())) % D
            kx = (k * bx) % d
            kz = (k * bz) % d
            cross = unit * int((az * kx).sum())
            return (ax + kx) % d, (az + kz) % d, (ap + kp + cross) % D

        # eliminate the target's symplectic coordinates column by column
        rows = list(range(gx.shape[0]))
        used = set()
        for col, block in [(c, "x") for c in range(n)] + [(c, "z") for c in range(n)]:
            vec = gx if block == "x" else gz
            pivot = None
            for r in rows:
                if r in used:
                    continue
                if vec[r, col] % d:
                    pivot = r
                    break
            if pivot is None:
                continue
            used.add(pivot)
            pv = int(vec[pivot, col]) % d
            pv_inv = pow(pv, -1, d)  # prime d only
            tgt = int((tx if block == "x" else tz)[col]) % d
            if tgt:
                k = (-tgt * pv_inv) % d
                tx, tz, tp = mul_into(tx, tz, tp, gx[pivot], gz[pivot], int(gp[pivot]), k)
            for r in rows:
                if r == pivot or r in used and r != pivot:
                    continue
                cur = int(vec[r, col]) % d
                if cur:
                    k = (-cur * pv_inv) % d
                    nx, nz, nph = mul_into(gx[r], gz[r], int(gp[r]), gx[pivot], gz[pivot], int(gp[pivot]), k)
                    gx[r], gz[r], gp[r] = nx, nz, nph
        return not tx.any() and not tz.any() and tp % D == 0


def target_stabilizers(circuit: Circuit, digits) -> list[tuple[dict, dict, int]]:
    """Stabilizer generators of the circuit's action on the basis input
    |digits>, as (x_map, z_map, phase) keyed by output site."""
    ctx = circuit.ctx
    table = StabilizerTable.computational_input(
        ctx, circuit.qudits, dict(zip(circuit.inputs, digits))
    )
    table.conjugate_through(circuit)
    out = []
    for gen in table.generators():
        xs = {circuit.qudits[i]: v for i, v in enumerate(gen.x_exp) if v}
        zs = {circuit.qudits[i]: v for i, v in enumerate(gen.z_exp) if v}
        out.append((xs, zs, gen.phase_exp))
    return out


# -- kernel oracle -------------------------------------------------------------------
#
# Gate application by arithmetic on full flat indices: every amplitude's
# target digits are computed from its index, then permuted or phased.


def apply_matrix(state: StateVector, matrix: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a d^k x d^k matrix on the target sites; returns a flat array."""
    d = state.ctx.d
    k = len(targets)
    axes = [state.site_axis(t) for t in targets]
    tensor = state.tensor()
    moved = np.moveaxis(tensor, axes, range(k))
    shaped = moved.reshape(d**k, -1)
    shaped = matrix @ shaped
    moved = shaped.reshape((d,) * k + moved.shape[k:])
    return np.ascontiguousarray(np.moveaxis(moved, range(k), axes)).reshape(-1)


def _digit_grid(state: StateVector, targets: tuple[int, ...]) -> list[np.ndarray]:
    """Per-target digit value of every flat amplitude index."""
    d = state.ctx.d
    n = state.num_sites
    idx = np.arange(state.amplitudes.size)
    grids = []
    for t in targets:
        pos = state.site_axis(t)
        weight = d ** (n - 1 - pos)
        grids.append((idx // weight) % d)
    return grids


def _apply_permutation(state: StateVector, gate: Gate, targets: tuple[int, ...]) -> np.ndarray:
    """Basis-permutation gates (X, CX, SWAP, FANOUT, MOD) via index shifts."""
    d = state.ctx.d
    n = state.num_sites
    idx = np.arange(state.amplitudes.size)
    grids = _digit_grid(state, targets)
    weights = [d ** (n - 1 - state.site_axis(t)) for t in targets]
    name = gate.name
    if name == GateName.X:
        new = [(grids[0] + gate.k) % d]
    elif name == GateName.CX:
        new = [grids[0], (grids[1] + gate.k * grids[0]) % d]
    elif name == GateName.SWAP:
        new = [grids[1], grids[0]]
    elif name == GateName.FANOUT:
        new = [grids[0]] + [(y + c * grids[0]) % d for y, c in zip(grids[1:], gate.coeffs)]
    elif name == GateName.MOD:
        total = grids[0].copy()
        for c, y in zip(gate.coeffs, grids[1:]):
            total = total + c * y
        new = [total % d] + grids[1:]
    else:
        raise ValueError(name)
    dest = idx.copy()
    for g_old, g_new, w in zip(grids, new, weights):
        dest = dest + (g_new - g_old) * w
    out = np.zeros_like(state.amplitudes)
    out[dest] = state.amplitudes
    return out


def _apply_diagonal(state: StateVector, gate: Gate, targets: tuple[int, ...]) -> np.ndarray:
    ctx = state.ctx
    d = ctx.d
    grids = _digit_grid(state, targets)
    name = gate.name
    if name == GateName.Z:
        phases = np.asarray(ctx.omega) ** ((gate.k * grids[0]) % d)
    elif name == GateName.CZ:
        phases = np.asarray(ctx.omega) ** ((gate.k * grids[0] * grids[1]) % d)
    elif name == GateName.P:
        phases = np.array([ctx.phase(xi_p(ctx, n)) for n in range(d)])[grids[0]]
    elif name == GateName.R:
        phases = np.exp(1j * np.asarray(gate.theta))[grids[0]]
    elif name == GateName.DIAG:
        phases = np.exp(1j * np.asarray(gate.angles))[grids[0]]
    else:
        raise ValueError(name)
    return state.amplitudes * phases


PERMUTATION_GATES = {GateName.X, GateName.CX, GateName.SWAP, GateName.FANOUT, GateName.MOD}
DIAGONAL_GATES = {GateName.Z, GateName.CZ, GateName.P, GateName.R, GateName.DIAG}


def oracle_apply_gate(state: StateVector, gate: Gate, targets) -> StateVector:
    """Gate application through the index-arithmetic kernels; dense gates
    through the moved-axis matrix product."""
    targets = tuple(targets)
    if gate.name in PERMUTATION_GATES:
        amps = _apply_permutation(state, gate, targets)
    elif gate.name in DIAGONAL_GATES:
        amps = _apply_diagonal(state, gate, targets)
    else:
        amps = apply_matrix(state, gate_matrix(gate, state.ctx), targets)
    return StateVector(state.ctx, state.sites, amps)


def oracle_measure_branches(state: StateVector, site: int, theta, s_val: int, t_val: int):
    """(outcome, probability, post-state amplitudes) for every outcome, with
    the frame applied as three gates: Z^t, then X^s, then v(theta)."""
    d = state.ctx.d
    work = state
    if t_val % d:
        work = oracle_apply_gate(work, Gate.z(t_val % d), (site,))
    if s_val % d:
        work = oracle_apply_gate(work, Gate.x(s_val % d), (site,))
    work = oracle_apply_gate(work, Gate.v(theta), (site,))
    axis = work.site_axis(site)
    other = tuple(i for i in range(work.num_sites) if i != axis)
    probs = (np.abs(work.tensor()) ** 2).sum(axis=other)
    out = []
    for j in range(d):
        p = float(probs[j])
        taken = np.ascontiguousarray(np.take(work.tensor(), j, axis=axis)).reshape(-1)
        out.append((j, p, taken / np.sqrt(p) if p > 0 else taken))
    return out


def oracle_collapse_rows(view: np.ndarray, rows: np.ndarray, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sim._collapse_rows`` on the rotated (rows, d**axis, d, rest) ``view``
    as it was: probabilities by abs, square and sum, then each kept slice
    gathered and divided by the square root of its probability."""
    probs = (np.abs(view) ** 2).sum(axis=(1, 3))
    p = probs[rows, outcomes]
    kept = view[rows, :, outcomes, :] / np.sqrt(p)[:, None, None]
    return kept.reshape(len(p), -1), probs


# -- site reorder oracle -----------------------------------------------------------


def oracle_reordered(rows: np.ndarray, d: int, sites, order) -> np.ndarray:
    """Rows over ``sites`` relaid out over ``order`` as each caller once did
    it, one row at a time: the row's digit tensor transposed by the old
    position of each new site."""
    perm = [tuple(sites).index(q) for q in order]
    return np.array([np.transpose(row.reshape((d,) * len(perm)), perm).reshape(-1) for row in rows])


# -- the one-state pattern walk ---------------------------------------------------


def oracle_schedule(p: Pattern, lazy: bool) -> list:
    """The lazy schedule by rescanning every deferred E command at each other
    command, with each append a tuple of qudits; or the eager schedule, every
    ancilla appended in one step and the commands verbatim."""
    steps: list = []
    appended, pending = set(p.inputs), []
    if not lazy:
        ancillas = tuple(q for q in p.qudits if q not in appended)
        return ([ancillas] if ancillas else []) + list(p.seq)

    def touch(q: int) -> None:
        if q not in appended:
            appended.add(q)
            steps.append((q,))

    def flush(q: int | None = None) -> None:
        keep = []
        for e in pending:
            if q is None or q in (e.i, e.j):
                touch(e.i)
                touch(e.j)
                steps.append(e)
            else:
                keep.append(e)
        pending[:] = keep

    for cmd in p.seq:
        if isinstance(cmd, Entangle):
            pending.append(cmd)
        else:
            touch(cmd.site)
            flush(cmd.site)
            steps.append(cmd)
    for q in p.outputs:
        touch(q)
    flush()
    return steps


def oracle_walk(p: Pattern, input_state: StateVector | None, lazy: bool, branches) -> list[RunResult]:
    """One state per branch, depth first in outcome order: at each measurement
    ``branches(every, index)`` picks, from the (outcome, probability,
    amplitudes) triple of every outcome, the ones to follow; ``index``
    counts the measurements before this one."""
    if input_state is None:
        input_state = basis_state(p.ctx, p.inputs, [0] * len(p.inputs))
    steps = oracle_schedule(p, lazy)
    results: list[RunResult] = []
    stack = [(0, input_state, {}, 1.0)]
    while stack:
        pos, state, outcomes, prob = stack.pop()
        for i in range(pos, len(steps)):
            step = steps[i]
            if isinstance(step, tuple):
                new = reduce(StateVector.extend, (plus_state(p.ctx, q) for q in step))
                state = state.extend(new) if state.num_sites else new
            elif isinstance(step, Entangle):
                state = oracle_apply_gate(state, Gate.cz(), (step.i, step.j))
            elif isinstance(step, Measure):
                s_val, t_val = step.x_signal.evaluate(outcomes), step.z_signal.evaluate(outcomes)
                every = oracle_measure_branches(state, step.site, step.theta, s_val, t_val)
                rest = tuple(q for q in state.sites if q != step.site)
                for j, p_j, amps in reversed(branches(every, len(outcomes))):
                    stack.append((i + 1, StateVector(p.ctx, rest, amps), {**outcomes, step.site: j}, prob * p_j))
                break
            else:
                k = step.signal.evaluate(outcomes)
                if k:
                    gate = Gate.x(k) if isinstance(step, CorrectX) else Gate.z(k)
                    state = oracle_apply_gate(state, gate, (step.site,))
        else:  # no measurement left: the branch is complete
            results.append(RunResult(state.with_sites_order(p.outputs), outcomes, prob))
    return results


def oracle_run(p: Pattern, input_state: StateVector | None = None, seed: int = 0, lazy: bool = False) -> RunResult:
    """One sampled branch: measurement k draws with ``Generator.choice`` from
    the stream spawned off ``seed`` with key (k,)."""

    def choose(every, index):
        probs = np.array([p_j for _, p_j, _ in every])
        stream = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        return [every[int(stream.choice(len(every), p=probs / probs.sum()))]]

    return oracle_walk(p, input_state, lazy, choose)[0]


def oracle_run_branches(p: Pattern, input_state: StateVector | None = None, lazy: bool = False) -> list[RunResult]:
    """Every branch of probability at least 1e-12, in outcome order."""
    return oracle_walk(p, input_state, lazy, lambda every, index: [b for b in every if b[1] >= 1e-12])


# -- pass counting -------------------------------------------------------------------


class Calls(Counter):
    """Kernel calls counted by (name, kind), where kind is the GateName of the
    call's Gate argument, or None when it has none; ``log`` holds each
    call's (name, arguments) in call order."""

    def __init__(self):
        super().__init__()
        self.log: list[tuple[str, tuple]] = []


@contextmanager
def counted_calls(module, names=("_kernel", "_phase", "_apply_single", "_permute")):
    """Count the calls ``module`` makes to its functions ``names`` while the
    block runs, in a ``Calls``.  A call from one of these functions to
    another inside the module that defines them (a dense gate's ``_kernel``
    reaching ``_apply_single`` in ``sim``) is the same pass and is not
    seen.  The functions are restored on exit."""
    calls = Calls()
    saved = {name: getattr(module, name) for name in names}

    def counting(name, fn):
        def call(*args):
            calls[name, next((a.name for a in args if isinstance(a, Gate)), None)] += 1
            calls.log.append((name, args))
            return fn(*args)

        return call

    for name, fn in saved.items():
        setattr(module, name, counting(name, fn))
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


@contextmanager
def unfused_schedule(module):
    """Wrap ``module._schedule`` so that each teleportation step (q, e, M)
    becomes the plain append q, then e, then M: the walk then runs no step
    as one map.  The schedule is restored on exit."""
    schedule = module._schedule

    def unfused(p):
        return [part for step in schedule(p) for part in (step if isinstance(step, tuple) else (step,))]

    module._schedule = unfused
    try:
        yield
    finally:
        module._schedule = schedule


# -- misc generators -----------------------------------------------------------------


def random_controlled_pauli_circuit(
    ctx: DimensionContext, n: int, gates: int, seed: int, locals_too: bool = False
) -> Circuit:
    rng = np.random.default_rng(seed)
    qudits = tuple(range(1, n + 1))
    kinds = ["CZ", "CX"] + (["Z", "X"] if locals_too else [])
    ops = []
    for _ in range(gates):
        kind = kinds[rng.integers(len(kinds))]
        k = int(rng.integers(1, ctx.d))
        if kind in ("CZ", "CX"):
            i, j = (int(x) + 1 for x in rng.choice(n, size=2, replace=False))
            ops.append(Operation(Gate.cz(k) if kind == "CZ" else Gate.cx(k), (i, j)))
        else:
            q = int(rng.integers(n)) + 1
            ops.append(Operation(Gate.z(k) if kind == "Z" else Gate.x(k), (q,)))
    return Circuit(ctx, qudits, qudits, qudits, tuple(ops))


def random_clifford_kinds_circuit(ctx: DimensionContext, n: int, gates: int, seed: int) -> Circuit:
    """A random circuit over every gate kind with no angle-vector parameter,
    each kind once first, then drawn uniformly; powers and coefficients are
    drawn from 1..d-1, and FANOUT and MOD take the n-1 other qudits."""
    rng = np.random.default_rng(seed)
    d, qudits = ctx.d, tuple(range(1, n + 1))

    def power() -> int:
        return int(rng.integers(1, d))

    makers = {
        GateName.F: (1, Gate.f),
        GateName.FINV: (1, Gate.finv),
        GateName.X: (1, lambda: Gate.x(power())),
        GateName.Z: (1, lambda: Gate.z(power())),
        GateName.P: (1, Gate.p),
        GateName.CZ: (2, lambda: Gate.cz(power())),
        GateName.CX: (2, lambda: Gate.cx(power())),
        GateName.SWAP: (2, Gate.swap),
        GateName.FANOUT: (n, lambda: Gate.fanout(power() for _ in range(n - 1))),
        GateName.MOD: (n, lambda: Gate.mod(power() for _ in range(n - 1))),
    }
    names = list(makers)
    ops = []
    for g in range(gates):
        arity, make = makers[names[g] if g < len(names) else names[int(rng.integers(len(names)))]]
        ops.append(Operation(make(), tuple(int(q) for q in rng.choice(qudits, size=arity, replace=False))))
    return Circuit(ctx, qudits, qudits, qudits, tuple(ops))


def all_digit_tuples(d: int, n: int):
    return product(range(d), repeat=n)


# -- rewrite and serialisation references ------------------------------------------


def oracle_signal(d: int, terms) -> Signal:
    """The canonical ``Signal`` of a term list by the former ``__post_init__``
    rule: reduce each term mod d, sum per label mod d, drop zeros, sort.
    The instance is filled in directly, past ``Signal``'s own canonicaliser."""
    reduced = {}
    for q, c in terms:
        c = c % d
        if c:
            reduced[q] = (reduced.get(q, 0) + c) % d
    sig = object.__new__(Signal)
    object.__setattr__(sig, "d", d)
    object.__setattr__(sig, "coeffs", tuple(sorted((q, c) for q, c in reduced.items() if c)))
    return sig


def oracle_signal_shift(p: Pattern) -> Pattern:
    """``signal_shift`` by substituting one referenced shift at a time, each
    step a new ``oracle_signal``."""
    d = p.ctx.d
    zero = oracle_signal(d, ())
    shifts: dict[int, Signal] = {}

    def substituted(sig: Signal) -> Signal:
        out = sig
        for q, c in sig.coeffs:
            if q in shifts:
                out = oracle_signal(d, out.coeffs + tuple((r, -c * e) for r, e in shifts[q].coeffs))
        return out

    seq = []
    for cmd in p.seq:
        if isinstance(cmd, Measure):
            s = substituted(cmd.x_signal)
            t = substituted(cmd.z_signal)
            if not t.is_zero():
                shifts[cmd.site] = t
            seq.append(Measure(cmd.site, cmd.theta, s, zero))
        elif isinstance(cmd, CorrectX):
            seq.append(CorrectX(cmd.site, substituted(cmd.signal)))
        elif isinstance(cmd, CorrectZ):
            seq.append(CorrectZ(cmd.site, substituted(cmd.signal)))
        else:
            seq.append(cmd)
    return p.with_seq(seq)


def oracle_standardise(p: Pattern) -> tuple:
    """The former two-dict ``rewrite._standardise``: the X and Z corrections
    pending on each qudit kept apart, one branch per correction class, and
    the tail written by hand."""
    d = p.ctx.d
    pending_x: dict[int, Signal] = {}
    pending_z: dict[int, Signal] = {}
    zero = Signal.zero(d)

    def px(q):
        return pending_x.get(q, zero)

    def pz(q):
        return pending_z.get(q, zero)

    entangles, measures = [], []
    for cmd in p.seq:
        if isinstance(cmd, Entangle):
            sx_i, sx_j = px(cmd.i), px(cmd.j)
            if not sx_i.is_zero():
                pending_z[cmd.j] = pz(cmd.j) + sx_i
            if not sx_j.is_zero():
                pending_z[cmd.i] = pz(cmd.i) + sx_j
            entangles.append(cmd)
        elif isinstance(cmd, Measure):
            sx, sz = pending_x.pop(cmd.site, zero), pending_z.pop(cmd.site, zero)
            if sx is not zero or sz is not zero:
                cmd = Measure(cmd.site, cmd.theta, cmd.x_signal + sx, cmd.z_signal + sz)
            measures.append(cmd)
        elif isinstance(cmd, CorrectX):
            pending_x[cmd.site] = px(cmd.site) + cmd.signal
        else:
            pending_z[cmd.site] = pz(cmd.site) + cmd.signal
    tail = [cmd for q in sorted(set(pending_x) | set(pending_z)) for cmd in (CorrectX(q, px(q)), CorrectZ(q, pz(q)))]
    return tuple(entangles + measures + tail)


def oracle_relabel_commands(seq, mapping: dict[int, int]) -> tuple:
    """The former per-kind ``pattern._relabel_commands``: each command's sites
    moved by ``mapping``, and its signals relabelled by it."""
    out = []
    for cmd in seq:
        if isinstance(cmd, Entangle):
            out.append(Entangle(mapping[cmd.i], mapping[cmd.j]))
        elif isinstance(cmd, Measure):
            out.append(Measure(mapping[cmd.site], cmd.theta, cmd.x_signal.relabel(mapping), cmd.z_signal.relabel(mapping)))
        elif isinstance(cmd, CorrectX):
            out.append(CorrectX(mapping[cmd.site], cmd.signal.relabel(mapping)))
        else:
            out.append(CorrectZ(mapping[cmd.site], cmd.signal.relabel(mapping)))
    return tuple(out)


def _artifact_doc(a, key: str, items: list) -> dict:
    return {"d": a.ctx.d, "qudits": list(a.qudits), "inputs": list(a.inputs), "outputs": list(a.outputs), key: items}


def oracle_circuit_doc(c: Circuit) -> dict:
    """The document whose ``json.dumps(doc, indent=2)`` is ``circuit_to_json(c)``."""

    def params(gate: Gate) -> dict:
        param = _KINDS[gate.name].param
        if param is None:
            return {}
        value = getattr(gate, param)
        return {_JSON_PARAMS[param][0]: value if param == "k" else list(value)}

    ops = [{"gate": op.gate.name.value, "params": params(op.gate), "sites": list(op.sites)} for op in c.ops]
    return _artifact_doc(c, "ops", ops)


def oracle_pattern_doc(p: Pattern) -> dict:
    """The document whose ``json.dumps(doc, indent=2)`` is ``pattern_to_json(p)``."""

    def signal(sig: Signal) -> dict:
        return {str(q): c for q, c in sig.coeffs}

    cmds = []
    for cmd in p.seq:
        if isinstance(cmd, Entangle):
            cmds.append({"kind": "E", "sites": [cmd.i, cmd.j]})
        elif isinstance(cmd, Measure):
            entry = {"kind": "M", "sites": [cmd.site], "theta": list(cmd.theta)}
            if not cmd.x_signal.is_zero():
                entry["s"] = signal(cmd.x_signal)
            if not cmd.z_signal.is_zero():
                entry["t"] = signal(cmd.z_signal)
            cmds.append(entry)
        elif isinstance(cmd, CorrectX):
            cmds.append({"kind": "X", "sites": [cmd.site], "s": signal(cmd.signal)})
        else:
            cmds.append({"kind": "Z", "sites": [cmd.site], "t": signal(cmd.signal)})
    return _artifact_doc(p, "commands", cmds)


def pattern_checks(monkeypatch) -> tuple[list, list]:
    """Lists that record, for the rest of the test, every ``Pattern`` built
    (once its construction succeeds) and every ``validate`` call."""
    import quditmbqc.pattern as pattern_module

    built, checked = [], []
    validate, post_init = pattern_module.validate, Pattern.__post_init__
    monkeypatch.setattr(pattern_module, "validate", lambda p: checked.append(p) or validate(p))
    monkeypatch.setattr(Pattern, "__post_init__", lambda self: post_init(self) or built.append(self))
    return built, checked
