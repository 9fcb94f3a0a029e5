"""Dense statevector simulation over qudits of dimension d.

This is the ground-truth oracle for every transformation in the
repository.  Amplitudes are stored as a flat complex vector indexed in
mixed radix over the state's site ordering, the first site being the
most significant digit.  Every state evolves as one row of a (rows x
amplitudes) batch: the kernels and the measurement frame act on all rows
at once and return new arrays, never mutating their input.  The pattern
walk and the circuit simulation are their callers, and the walk chooses
the measurement outcomes.

Kernels act on the target axes of the amplitudes reshaped around them:
a lone basis permutation is slice copies, a run of them one gather by the
index of their composed affine map, diagonal gates one broadcast multiply
by a phase table, dense gates one matmul: a single-site gate, or the
Kronecker product of gates on k adjacent sites, d**k at most ``_BLOCK_ROW``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .algebra import DimensionContext, xi_p

__all__ = [
    "GateName",
    "Gate",
    "StateVector",
    "fidelity_up_to_phase",
    "gate_matrix",
    "gate_inverse_ops",
    "basis_state",
    "random_state",
    "pauli_angles",
]

# headroom for double precision at d**n up to ~1e7 amplitudes: states are
# compared at 1e-9, unitarity at 1e-10, symbolic-vs-matrix algebra at 1e-12
NORM_TOL = 1e-9
UNITARY_TOL = 1e-10
ZERO_BRANCH_TOL = 1e-12

# One dense state, or one batch of rows, holds at most this many amplitudes:
# 256 MiB of complex128.
AMPLITUDE_CAP = 1 << 24


class GateName(str, Enum):
    F = "F"
    FINV = "Finv"
    X = "X"
    Z = "Z"
    P = "P"
    R = "R"
    V = "v"
    CZ = "CZ"
    CX = "CX"
    SWAP = "SWAP"
    FANOUT = "FANOUT"
    MOD = "MOD"
    DIAG = "DIAG"


@dataclass(frozen=True)
class Gate:
    """A gate kind plus the one parameter its ``_KINDS`` entry reads: the
    integer power ``k``, the angle vector ``theta`` (v = F followed by the
    phase layer R(theta)), the Z(d) coefficient vector ``coeffs`` or the
    explicit diagonal ``angles``.
    """

    name: GateName
    k: int = 1
    theta: tuple[float, ...] | None = None
    coeffs: tuple[int, ...] | None = None
    angles: tuple[float, ...] | None = None

    @staticmethod
    def f() -> "Gate":
        return Gate(GateName.F)

    @staticmethod
    def finv() -> "Gate":
        return Gate(GateName.FINV)

    @staticmethod
    def x(k: int = 1) -> "Gate":
        return Gate(GateName.X, k=k)

    @staticmethod
    def z(k: int = 1) -> "Gate":
        return Gate(GateName.Z, k=k)

    @staticmethod
    def p() -> "Gate":
        return Gate(GateName.P)

    @staticmethod
    def r(theta) -> "Gate":
        return Gate(GateName.R, theta=tuple(float(t) for t in theta))

    @staticmethod
    def v(theta) -> "Gate":
        return Gate(GateName.V, theta=tuple(float(t) for t in theta))

    @staticmethod
    def cz(k: int = 1) -> "Gate":
        return Gate(GateName.CZ, k=k)

    @staticmethod
    def cx(k: int = 1) -> "Gate":
        return Gate(GateName.CX, k=k)

    @staticmethod
    def swap() -> "Gate":
        return Gate(GateName.SWAP)

    @staticmethod
    def fanout(coeffs) -> "Gate":
        return Gate(GateName.FANOUT, coeffs=tuple(int(c) for c in coeffs))

    @staticmethod
    def mod(coeffs) -> "Gate":
        return Gate(GateName.MOD, coeffs=tuple(int(c) for c in coeffs))

    @staticmethod
    def diag(angles) -> "Gate":
        return Gate(GateName.DIAG, angles=tuple(float(a) for a in angles))

    @property
    def arity(self) -> int:
        arity = _KINDS[self.name].arity
        return len(self.coeffs) + 1 if arity is None else arity

    def validate(self, ctx: DimensionContext) -> None:
        param = _KINDS[self.name].param
        for field_name, unset in _UNSET.items():
            if field_name != param and getattr(self, field_name) != unset:
                raise ValueError(f"{self.name.value} takes no {field_name!r} parameter")
        value = getattr(self, param) if param else None
        if param == "coeffs" and not value:
            raise ValueError(f"{self.name.value} needs a nonempty coefficient vector")
        if param in ("theta", "angles"):
            if value is None or len(value) != ctx.d:
                raise ValueError(f"{self.name.value} needs a length-{ctx.d} angle vector")
            if not all(map(math.isfinite, value)):
                raise ValueError(f"{self.name.value} angles must be finite, got {list(value)}")


# the Gate parameter fields at their defaults, i.e. not set
_UNSET = {"k": 1, "theta": None, "coeffs": None, "angles": None}


def pauli_angles(d: int) -> tuple[float, ...]:
    """Angle vector p with v(p) = F.P, i.e. p_j = pi * j * (j + delta_d) / d."""
    ctx = DimensionContext.of(d)
    # equivalently 2*pi*xi_p(j)/D, which keeps the entries exactly
    # representable for the runtime phase-gate diagonal
    return tuple(2.0 * math.pi * xi_p(ctx, j) / ctx.D for j in range(d))


def _permutation_matrix(d: int, arity: int, new_digits) -> np.ndarray:
    """Matrix sending each basis word to ``new_digits(digits)`` (taken mod d);
    ``digits`` holds one index array per site, most significant first."""
    shape = (d,) * arity
    cols = np.arange(d**arity)
    rows = np.ravel_multi_index([g % d for g in new_digits(np.unravel_index(cols, shape))], shape)
    out = np.zeros((cols.size, cols.size), dtype=np.complex128)
    out[rows, cols] = 1
    return out


# -- read-only constant tables, cached per (k mod d, d): callers reduce k -------


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _fourier(d: int) -> np.ndarray:
    n = np.arange(d)
    return _read_only(np.asarray(DimensionContext.of(d).omega) ** np.multiply.outer(n, n) / math.sqrt(d))


@lru_cache(maxsize=None)
def _z_phases(k: int, d: int, arity: int = 1) -> np.ndarray:
    """Phases omega^(k * product of the digits): Z^k on one site, CZ^k on two."""
    n = np.arange(d)
    digits = n if arity == 1 else np.multiply.outer(n, n)
    return _read_only(np.asarray(DimensionContext.of(d).omega) ** ((k * digits) % d))


@lru_cache(maxsize=None)
def _p_phases(d: int) -> np.ndarray:
    ctx = DimensionContext.of(d)
    return _read_only(np.array([ctx.phase(xi_p(ctx, j)) for j in range(d)]))


@lru_cache(maxsize=None)
def _x_matrix(k: int, d: int) -> np.ndarray:
    return _read_only(_permutation_matrix(d, 1, lambda g: [g[0] + k]))


# -- the gate-kind table ------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """Everything the stack derives per gate kind: arity, validation, kernel,
    dense matrix, inverse, lowering and JSON.

    ``param`` is the one Gate field the kind reads; ``arity`` its site count
    (None: one site plus one per coefficient).  The action is exactly one
    of ``shifts`` [(target, k, control)] by site position, each adding k
    times the control digit (k alone without a control) to the target
    digit; ``swap`` of two sites; ``phases``, a diagonal's phase table with
    one dimension per site, whose exponent of omega_hat a Clifford diagonal
    states in Z(D) as its ``form``, terms [(c, i, j)] each adding c * x_i * x_j
    (x_j = 1 when j is None); ``matrix``, a single-site d x d matrix.
    ``inverse`` lists gates on the same sites, replacing the default of the
    same kind with its parameter negated.  ``define`` expands the gate one
    step into [(gate, site positions)], or gives None for a primitive of the
    universal set {CZ, v}.  The callables take (gate, d).
    """

    param: str | None
    arity: int | None
    shifts: Callable | None = None
    swap: bool = False
    phases: Callable | None = None
    form: Callable | None = None
    matrix: Callable | None = None
    inverse: Callable | None = None
    define: Callable = lambda g, d: None


_KINDS: dict[GateName, _Kind] = {
    GateName.F: _Kind(
        None, 1, matrix=lambda g, d: _fourier(d),
        inverse=lambda g, d: [Gate.finv()],
        define=lambda g, d: [(Gate.v((0.0,) * d), (0,))],
    ),
    GateName.FINV: _Kind(
        None, 1, matrix=lambda g, d: _fourier(d).conj().T,
        inverse=lambda g, d: [Gate.f()],
        define=lambda g, d: [(Gate.f(), (0,))] * 3,
    ),
    GateName.X: _Kind(
        "k", 1, shifts=lambda g, d: [(0, g.k, None)],
        # X^k = F^dagger Z^k F
        define=lambda g, d: [(Gate.f(), (0,)), (Gate.z(g.k), (0,)), (Gate.finv(), (0,))] if g.k % d else [],
    ),
    GateName.Z: _Kind(
        "k", 1, phases=lambda g, d: _z_phases(g.k % d, d), form=lambda g, d: [((2 - d % 2) * g.k, 0, None)],
        define=lambda g, d: [(Gate.r(2.0 * math.pi * ((g.k * j) % d) / d for j in range(d)), (0,))] if g.k % d else [],
    ),
    GateName.P: _Kind(
        None, 1, phases=lambda g, d: _p_phases(d),
        form=lambda g, d: [(1, 0, 0)] if d % 2 == 0 else [((d + 1) // 2, 0, j) for j in (0, None)],  # xi_p
        inverse=lambda g, d: [Gate.diag(-a for a in pauli_angles(d))],
        define=lambda g, d: [(Gate.r(pauli_angles(d)), (0,))],
    ),
    GateName.R: _Kind(
        "theta", 1, phases=lambda g, d: np.exp(1j * np.asarray(g.theta)),
        # R = F^3 . v(theta)
        define=lambda g, d: [(Gate.v(g.theta), (0,)), (Gate.finv(), (0,))],
    ),
    GateName.DIAG: _Kind(
        "angles", 1, phases=lambda g, d: np.exp(1j * np.asarray(g.angles)),
        define=lambda g, d: [(Gate.r(g.angles), (0,))],
    ),
    GateName.V: _Kind(
        "theta", 1, matrix=lambda g, d: _fourier(d) * np.exp(1j * np.asarray(g.theta)),
        inverse=lambda g, d: [Gate.finv(), Gate.r(-t for t in g.theta)],
    ),
    GateName.CZ: _Kind(
        "k", 2, phases=lambda g, d: _z_phases(g.k % d, d, 2), form=lambda g, d: [((2 - d % 2) * g.k, 0, 1)],
        define=lambda g, d: None if g.k == 1 else [(Gate.cz(), (0, 1))] * (g.k % d),
    ),
    GateName.CX: _Kind(
        "k", 2, shifts=lambda g, d: [(1, g.k, 0)],
        # CX^k(i -> j) = F_j^dagger CZ^k F_j
        define=lambda g, d: [(Gate.f(), (1,)), (Gate.cz(g.k), (0, 1)), (Gate.finv(), (1,))],
    ),
    GateName.SWAP: _Kind(
        None, 2, swap=True,
        # three CX-type gates plus the F^2 negation fix-up on the first site
        define=lambda g, d: [
            (Gate.cx(), (0, 1)), (Gate.cx(d - 1), (1, 0)), (Gate.cx(), (0, 1)), (Gate.f(), (0,)), (Gate.f(), (0,))
        ],
    ),
    GateName.FANOUT: _Kind(
        "coeffs", None, shifts=lambda g, d: [(t, c, 0) for t, c in enumerate(g.coeffs, 1)],
        define=lambda g, d: [(Gate.cx(c % d), (0, t)) for t, c in enumerate(g.coeffs, 1)],
    ),
    GateName.MOD: _Kind(
        "coeffs", None, shifts=lambda g, d: [(0, c, t) for t, c in enumerate(g.coeffs, 1)],
        # MOD(v) = F^(x) . FANOUT(-v) . Finv^(x)
        define=lambda g, d: [(Gate.finv(), (q,)) for q in range(g.arity)]
        + [(Gate.fanout((-c) % d for c in g.coeffs), tuple(range(g.arity)))]
        + [(Gate.f(), (q,)) for q in range(g.arity)],
    ),
}


def gate_matrix(gate: Gate, ctx: DimensionContext) -> np.ndarray:
    """Dense unitary of any gate kind, in the site ordering of its targets.
    Permutations are built by index arithmetic from the declared shifts,
    independently of the kernels."""
    gate.validate(ctx)
    d, kind = ctx.d, _KINDS[gate.name]
    if kind.matrix:
        return np.array(kind.matrix(gate, d))
    if kind.phases:
        return np.diag(kind.phases(gate, d).ravel())
    if kind.swap:
        return _permutation_matrix(d, 2, lambda g: g[::-1])
    shifts = kind.shifts(gate, d)

    def new_digits(g):
        g = list(g)
        for target, k, control in shifts:
            k %= d  # a power past int64 must not reach the index arrays
            g[target] = g[target] + (k if control is None else k * g[control])
        return g

    return _permutation_matrix(d, gate.arity, new_digits)


def _negated(gate: Gate, param: str | None, d: int) -> Gate:
    """The same kind with its parameter negated (mod d for integers)."""
    if param == "k":
        return replace(gate, k=(-gate.k) % d)
    if param == "coeffs":
        return replace(gate, coeffs=tuple(int((-c) % d) for c in gate.coeffs))
    if param:
        return replace(gate, **{param: tuple(float(-a) for a in getattr(gate, param))})
    return gate


def gate_inverse_ops(gate: Gate, sites: tuple[int, ...], d: int) -> list[tuple[Gate, tuple[int, ...]]]:
    """Replacement op list implementing the inverse of one gate."""
    kind = _KINDS[gate.name]
    gates = kind.inverse(gate, d) if kind.inverse else [_negated(gate, kind.param, d)]
    return [(g, sites) for g in gates]


@dataclass(frozen=True)
class StateVector:
    """A pure state over an ordered collection of named qudits.

    ``amplitudes`` has length d**len(sites); the flat index is the
    mixed-radix word whose first (most significant) digit belongs to
    ``sites[0]``.  Removing a site after a destructive measurement
    keeps the identifiers of the remaining sites and recomputes the
    layout.
    """

    ctx: DimensionContext
    sites: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate site identifiers")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.ctx.d ** len(self.sites),):
            raise ValueError("amplitude vector has wrong length")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def site_axis(self, site: int) -> int:
        try:
            return self.sites.index(site)
        except ValueError:
            raise KeyError(f"site {site} not in state") from None

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((self.ctx.d,) * self.num_sites)

    def with_sites_order(self, new_order) -> "StateVector":
        """Same state, amplitudes relaid out for a new site ordering."""
        new_order = tuple(new_order)
        if set(new_order) != set(self.sites) or len(new_order) != len(self.sites):
            raise ValueError("new ordering must be a permutation of the sites")
        if new_order == self.sites:
            return self
        perm = [self.sites.index(s) for s in new_order]
        amps = np.transpose(self.tensor(), perm).reshape(-1)
        return StateVector(self.ctx, new_order, np.ascontiguousarray(amps))

    def extend(self, other: "StateVector") -> "StateVector":
        """Tensor product, appending the other state's sites after ours."""
        if set(self.sites) & set(other.sites):
            raise ValueError("site sets overlap")
        amps = np.kron(self.amplitudes, other.amplitudes)
        return StateVector(self.ctx, self.sites + other.sites, amps)


def basis_state(ctx: DimensionContext, sites, digits) -> StateVector:
    sites = tuple(sites)
    digits = tuple(int(v) % ctx.d for v in digits)
    if len(digits) != len(sites):
        raise ValueError("one digit per site required")
    amps = np.zeros(ctx.d ** len(sites), dtype=np.complex128)
    amps[np.ravel_multi_index(digits, (ctx.d,) * len(sites))] = 1.0
    return StateVector(ctx, sites, amps)


def random_state(ctx: DimensionContext, sites, rng: np.random.Generator) -> StateVector:
    sites = tuple(sites)
    dim = ctx.d ** len(sites)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    return StateVector(ctx, sites, amps)


def row_parts(count: int, per_row: int) -> list[slice]:
    """Consecutive slices of ``count`` rows of ``per_row`` amplitudes, each
    holding at most AMPLITUDE_CAP amplitudes, or one row when a row alone
    holds more."""
    step = max(1, AMPLITUDE_CAP // per_row)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


# -- kernels: each acts on the target axes of the reshaped amplitudes -----------


def _split_view(amps: np.ndarray, d: int, n: int, axes) -> tuple[np.ndarray, list[int]]:
    """The amplitudes as (-1, d, d**(a1-a0-1), d, ..., d**(n-1-ak)) around the
    sorted target axes a0 < ... < ak, plus each target's dimension in that
    view, in the order given.  The leading block, d**a0 for one state, folds
    in any leading batch of rows, so every kernel acts on all rows at once."""
    order = sorted(axes)
    shape, prev = [], -1
    for a in order:
        shape += [d ** (a - prev - 1), d]
        prev = a
    shape.append(d ** (n - 1 - prev))
    shape[0] = -1
    return amps.reshape(shape), [2 * order.index(a) + 1 for a in axes]


def _roll_into(out: np.ndarray, src: np.ndarray, shift: int, axis: int) -> None:
    """Write ``src`` cyclically shifted by ``shift`` along ``axis`` into ``out``."""
    lead = (slice(None),) * axis
    size = src.shape[axis]
    out[lead + (slice(shift, None),)] = src[lead + (slice(None, size - shift),)]
    out[lead + (slice(None, shift),)] = src[lead + (slice(size - shift, None),)]


def _shift(amps: np.ndarray, d: int, n: int, target: int, k: int, control: int | None = None) -> np.ndarray:
    """Basis permutation adding k times the control digit (k alone without a
    control) to the target digit: one cyclic shift of the target axis per
    control digit."""
    view, dims = _split_view(amps, d, n, (target,) if control is None else (control, target))
    out = np.empty_like(view)
    if control is None:
        _roll_into(out, view, k % d, dims[0])
    else:
        c, t = dims
        for m in range(d):
            at = (slice(None),) * c + (m,)
            _roll_into(out[at], view[at], k * m % d, t - (t > c))  # fixing m drops the control dimension
    return out.reshape(-1)


def _permute(amps: np.ndarray, d: int, n: int, steps) -> np.ndarray:
    """A run of basis permutations [(gate, target axes)], in order, as one
    gather of every row.

    The run is an affine map y = M.x + s (mod d) of the digits.  Its inverse
    x = A.y + b is composed from each kind's shifts and swap by column
    operations on A, and output word y reads input word A.y + b.  The index
    holds one entry per amplitude of a row: each digit that A.y + b moves
    adds its change, one table over the axes its row of A reads, broadcast
    over the view around those axes."""
    inverse, offset = np.eye(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for gate, axes in steps:
        kind = _KINDS[gate.name]
        if kind.swap:
            inverse[:, axes] = inverse[:, axes[::-1]]
        for target, k, control in kind.shifts(gate, d) if kind.shifts else ():
            # reduced at every step: entries grown past int64 would wrap out of Z(d)
            column = k % d * inverse[:, axes[target]]
            if control is None:
                offset = (offset - column) % d
            else:
                inverse[:, axes[control]] = (inverse[:, axes[control]] - column) % d
    index = np.arange(d**n)
    for j, row in enumerate(inverse.tolist()):
        reads = [i for i, k in enumerate(row) if k or i == j]
        if reads == [j] and row[j] == 1 and not offset[j]:
            continue  # digit j stays
        view, _ = _split_view(index, d, n, reads)
        digits = np.ix_(*[np.arange(d)] * len(reads))
        change = (sum(row[i] * g for i, g in zip(reads, digits)) + offset[j]) % d - digits[reads.index(j)]
        view += (change * d ** (n - 1 - j)).reshape([x for size in change.shape for x in (size, 1)])
    return np.take(amps.reshape(-1, d**n), index, axis=1).reshape(-1)


def _phase(amps: np.ndarray, d: int, n: int, table: np.ndarray, axes) -> np.ndarray:
    """Diagonal gate: one broadcast multiply by its phase table, whose
    dimensions follow the target axes in the order given."""
    view, _ = _split_view(amps, d, n, axes)
    table = np.transpose(table, sorted(range(len(axes)), key=axes.__getitem__))
    return (view * table.reshape([x for size in table.shape for x in (size, 1)])).reshape(-1)


# A batched matmul makes one BLAS call per leading block, which dominates
# when few amplitudes follow the target axis (up to 5x slower than moving
# the axis, on 2**20 amplitudes).  Rows of at most this many amplitudes
# are contracted instead in one gemm against the block matrix M (x) 1.
_BLOCK_ROW = 64


def _apply_single(amps: np.ndarray, d: int, n: int, matrix: np.ndarray, axis: int) -> np.ndarray:
    """Dense gate on the k adjacent axes from ``axis``, k read off the
    d**k x d**k matrix (k = 1 for a single-site gate): one matmul on the
    (d**axis, d**k, rest) view, or on its rows of d**k * rest amplitudes
    when rest is short."""
    size = len(matrix)
    view = amps.reshape(-1, size, d ** (n - axis) // size)
    before, _, rest = view.shape
    if size * rest > _BLOCK_ROW:
        return np.matmul(matrix, view).reshape(-1)
    block = (matrix.T[:, None, :, None] * np.eye(rest)[None, :, None, :]).reshape(size * rest, size * rest)
    return (view.reshape(before, size * rest) @ block).reshape(-1)


def _kernel(amps: np.ndarray, d: int, n: int, gate: Gate, axes: tuple[int, ...]) -> np.ndarray:
    """One gate on the target axes of every row of ``amps`` (n sites each),
    flattened; the caller has validated the gate."""
    kind = _KINDS[gate.name]
    if kind.shifts:
        for target, k, control in kind.shifts(gate, d):
            amps = _shift(amps, d, n, axes[target], k, None if control is None else axes[control])
        return amps
    if kind.phases:
        return _phase(amps, d, n, kind.phases(gate, d), axes)
    if kind.matrix:
        return _apply_single(amps, d, n, kind.matrix(gate, d), axes[0])
    view, (a, b) = _split_view(amps, d, n, axes)
    return np.ascontiguousarray(np.swapaxes(view, a, b)).reshape(-1)


def _per_row(amps: np.ndarray, keys: np.ndarray, kernel: Callable[[int, np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply ``kernel(key, rows)`` to each group of rows of the (rows, amplitudes)
    matrix that share a key (a small nonnegative integer), returning the new
    matrix in row order.  When every row has the same key, as a single row
    does, the kernel runs once on the whole batch."""
    distinct = np.flatnonzero(np.bincount(keys)).tolist()
    if len(distinct) == 1:
        return kernel(distinct[0], amps).reshape(amps.shape)
    out = np.empty_like(amps)
    for key in distinct:
        rows = np.flatnonzero(keys == key)
        out[rows] = kernel(key, amps[rows]).reshape(len(rows), -1)
    return out


def _rotate_rows(amps: np.ndarray, ctx: DimensionContext, n: int, axis: int, theta, s_vals, t_vals) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the measured axis of each row by its own frame M = v(theta) X^s Z^t
    (``s_vals`` and ``t_vals`` hold one power per row), so that outcome j is
    digit j after M; one matmul per distinct frame.  Returns the rows as
    (rows, d**axis, d, rest) and the (rows, d) outcome probabilities, read
    in one contraction of the rows' real and imaginary parts."""
    d = ctx.d
    keys = np.asarray(s_vals) % d * d + np.asarray(t_vals) % d
    v = gate_matrix(Gate.v(theta), ctx)

    def rotate(key: int, rows: np.ndarray) -> np.ndarray:
        frame = (v @ _x_matrix(key // d, d)) * _z_phases(key % d, d)
        return _apply_single(rows, d, n, frame, axis)

    view = _per_row(amps, keys, rotate).reshape(len(amps), d**axis, d, -1)
    floats = view.view(np.float64)  # real and imaginary parts side by side
    return view, np.einsum("rajb,rajb->rj", floats, floats)


def _sample_outcomes(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The outcome of each row of (rows, d) probabilities for its uniform draw
    in [0, 1): the first index whose normalised cumulative probability exceeds
    it, as ``Generator.choice`` picks from the same draw."""
    cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= np.asarray(uniforms)[:, None]).sum(axis=1)


def _collapse_rows(view: np.ndarray, probs: np.ndarray, rows: np.ndarray, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each (row, outcome) pair the outcome's slice of the rotated row,
    renormalized, with the measured axis dropped; and its probability."""
    p = probs[rows, outcomes]
    kept = view[rows, :, outcomes, :]
    kept *= (1 / np.sqrt(p))[:, None, None]  # a real multiply, not a complex division
    return kept.reshape(len(p), view.shape[1] * view.shape[3]), p


def fidelity_up_to_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>| after aligning site orderings; 1 means equal up to global phase."""
    if a.ctx != b.ctx:
        raise ValueError("states live in different dimensions")
    if set(a.sites) != set(b.sites):
        raise ValueError(f"site sets differ: {sorted(a.sites)} vs {sorted(b.sites)}")
    b_aligned = b.with_sites_order(a.sites)
    return float(abs(np.vdot(a.amplitudes, b_aligned.amplitudes)))
