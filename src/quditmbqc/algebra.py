"""Exact symbolic qudit Pauli algebra with integer phase bookkeeping.

Generalized Pauli operators on n qudits of dimension d are kept in the
normal form

    omega_hat^phase_exp * (X^x_1 Z^z_1) (x) ... (x) (X^x_n Z^z_n)

where omega_hat is a primitive D-th root of unity (D = d for odd d and
2d for even d), the phase exponent lives in Z(D) and the X/Z exponents
live in Z(d).  All arithmetic is exact integer arithmetic; matrices are
only produced on demand for verification.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "DimensionContext",
    "PauliOperator",
    "pauli_multiply",
    "pauli_conjugate",
    "pauli_to_matrix",
    "xi_f",
    "xi_p",
]


@lru_cache(maxsize=None)
def _context_cached(d: int) -> "DimensionContext":
    return DimensionContext(d)


@dataclass(frozen=True, slots=True)
class DimensionContext:
    """Dimension d together with the derived constants D, delta_d, omega, omega_hat.

    D is the order of the Pauli phase group: d for odd d, 2d for even d.
    delta_d is 1 for odd d and 0 for even d, omega = exp(2*pi*i/d) and
    omega_hat = exp(2*pi*i/D) so that omega = omega_hat**(D // d).
    """

    d: int
    D: int = field(init=False, repr=False, compare=False)
    delta_d: int = field(init=False, repr=False, compare=False)
    omega: complex = field(init=False, repr=False, compare=False)
    omega_hat: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.d
        if not isinstance(d, int) or d < 2:
            raise ValueError(f"qudit dimension must be an integer >= 2, got {d!r}")
        object.__setattr__(self, "D", d if d % 2 else 2 * d)
        object.__setattr__(self, "delta_d", 1 if d % 2 else 0)
        object.__setattr__(self, "omega", cmath.exp(2j * cmath.pi / d))
        object.__setattr__(self, "omega_hat", cmath.exp(2j * cmath.pi / self.D))

    @staticmethod
    def of(d: int) -> "DimensionContext":
        """Shared cached context for dimension d; any integer type, never a float."""
        try:
            d = operator.index(d)
        except TypeError:
            raise ValueError(f"qudit dimension must be an integer >= 2, got {d!r}") from None
        return _context_cached(d)

    def phase(self, exponent: int) -> complex:
        """omega_hat raised to an integer exponent."""
        return cmath.exp(2j * cmath.pi * (exponent % self.D) / self.D)


def xi_f(ctx: DimensionContext, n: int) -> int:
    """Phase-exponent shift picked up when the Fourier gate conjugates X^a Z^b, n = a*b."""
    return (n * (ctx.delta_d - 2)) % ctx.D


def xi_p(ctx: DimensionContext, n: int) -> int:
    """Phase-exponent shift picked up when the phase gate conjugates X^a Z^b, n = a.

    The closed form n*(1 - (n-1)*(delta_d - 2)/2) is evaluated in exact
    integer arithmetic; the numerator is always even.
    """
    num = n * (2 - (n - 1) * (ctx.delta_d - 2))
    if num % 2 != 0:
        raise ArithmeticError(f"phase-gate exponent {num}/2 is not an integer (n={n}, d={ctx.d})")
    return (num // 2) % ctx.D


@dataclass(frozen=True)
class PauliOperator:
    """An n-qudit Pauli in normal form with exact phase exponent.

    Attributes
    ----------
    ctx : DimensionContext
    n : int
        Number of qudit sites.
    phase_exp : int
        Exponent of omega_hat, reduced into Z(D).
    x_exp, z_exp : tuple[int, ...]
        Per-site X and Z powers, reduced into Z(d).
    """

    ctx: DimensionContext
    n: int
    phase_exp: int
    x_exp: tuple[int, ...]
    z_exp: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.x_exp) != self.n or len(self.z_exp) != self.n:
            raise ValueError("exponent vectors must have length n >= 1")
        d, D = self.ctx.d, self.ctx.D
        object.__setattr__(self, "phase_exp", operator.index(self.phase_exp) % D)
        object.__setattr__(self, "x_exp", tuple(operator.index(a) % d for a in self.x_exp))
        object.__setattr__(self, "z_exp", tuple(operator.index(b) % d for b in self.z_exp))

    @classmethod
    def identity(cls, ctx: DimensionContext, n: int) -> "PauliOperator":
        return cls(ctx, n, 0, (0,) * n, (0,) * n)

    @classmethod
    def x_op(cls, ctx: DimensionContext, n: int, site: int, power: int = 1) -> "PauliOperator":
        x = [0] * n
        x[site] = power
        return cls(ctx, n, 0, tuple(x), (0,) * n)

    @classmethod
    def z_op(cls, ctx: DimensionContext, n: int, site: int, power: int = 1) -> "PauliOperator":
        z = [0] * n
        z[site] = power
        return cls(ctx, n, 0, (0,) * n, tuple(z))

    def is_identity(self) -> bool:
        return self.phase_exp == 0 and not any(self.x_exp) and not any(self.z_exp)

    def inverse(self) -> "PauliOperator":
        """The group inverse, in normal form.

        (w^xi X^a Z^b)^-1 = w^-xi Z^-b X^-a, reordered with the Weyl
        relation into X^-a Z^-b at the cost of omega^{a*b}.
        """
        d, D = self.ctx.d, self.ctx.D
        unit = D // d
        xi = -self.phase_exp
        for a, b in zip(self.x_exp, self.z_exp):
            xi += unit * ((-b) % d) * ((-a) % d)
        return PauliOperator(
            self.ctx,
            self.n,
            xi % D,
            tuple((-a) % d for a in self.x_exp),
            tuple((-b) % d for b in self.z_exp),
        )


def _check_compatible(p: PauliOperator, q: PauliOperator) -> None:
    if p.ctx != q.ctx:
        raise ValueError("Pauli operators live in different dimensions")
    if p.n != q.n:
        raise ValueError(f"Pauli operators act on different site counts ({p.n} vs {q.n})")


def pauli_multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Normal-form product p*q.

    Per site, X^a Z^b X^c Z^e = omega^{b c} X^{a+c} Z^{b+e}; the omega
    phases accumulate in the Z(D) exponent via omega = omega_hat^{D/d}.
    """
    _check_compatible(p, q)
    ctx = p.ctx
    d, D = ctx.d, ctx.D
    unit = D // d
    xi = p.phase_exp + q.phase_exp
    xs, zs = [], []
    for a, b, c, e in zip(p.x_exp, p.z_exp, q.x_exp, q.z_exp):
        xi += unit * b * c
        xs.append((a + c) % d)
        zs.append((b + e) % d)
    return PauliOperator(ctx, p.n, xi % D, tuple(xs), tuple(zs))


def pauli_conjugate(generator: tuple, p: PauliOperator) -> PauliOperator:
    """Conjugate p by a Clifford gate: U p U^dagger.

    ``generator`` is ``(gate, *sites)``, the gate a ``sim.Gate`` or a kind
    name, as in ``("F", 0)`` or ``("CZ", 0, 1)``.  F sends (a, b) to (-b, a)
    and adds xi_f(a*b) to the phase.  Any other kind acts by its ``_KINDS``
    shifts (y_t += k*y_c sends x_t += k*x_c, z_c -= k*z_t) or diagonal form
    f (adding f(y + x) - f(y) over the digits y), else by its ``define``;
    V, R and DIAG are refused.  Z exponents are kept as exponents of
    omega_hat, and site -1 is the digit 1 of a term with no second site.
    """
    from .sim import _KINDS, Gate, GateName  # sim imports this module

    ctx, (gate, *sites) = p.ctx, generator
    gate = gate if isinstance(gate, Gate) else Gate(GateName(gate))
    gate.validate(ctx)
    if len(sites) != gate.arity or len(set(sites) & set(range(p.n))) < len(sites):
        raise ValueError(f"{gate.name.value} needs {gate.arity} distinct sites of a {p.n}-site Pauli, got {tuple(sites)}")
    d, unit = ctx.d, ctx.D // ctx.d
    xs, zs, phase = [*p.x_exp, 0], [unit * b for b in p.z_exp] + [0], p.phase_exp
    stack = [(gate, sites)]
    while stack:
        g, at = stack.pop()
        kind, at = _KINDS[g.name], [*at, -1]
        if g.name == GateName.F:
            s = at[0]
            phase += xi_f(ctx, xs[s] * zs[s] // unit)
            xs[s], zs[s] = -zs[s] // unit, unit * xs[s]
        elif kind.shifts:
            for t, k, c in kind.shifts(g, d):
                t, c = at[t], at[-1 if c is None else c]
                xs[t] += k * xs[c]
                zs[c] -= k * zs[t]
        elif kind.form:
            for c, i, j in kind.form(g, d):
                i, j = at[i], at[-1 if j is None else j]
                phase += c * xs[i] * xs[j]
                zs[i] += c * xs[j]
                zs[j] += c * xs[i]
        elif kind.define(g, d) is not None:
            stack += [(part, [at[q] for q in positions]) for part, positions in reversed(kind.define(g, d))]
        else:
            raise ValueError(f"{gate.name.value} is not a Clifford gate")
    # a Clifford leaves every z a multiple of D/d
    return PauliOperator(ctx, p.n, phase + zs.pop(), xs[:-1], [z // unit for z in zs])


def _single_site_matrix(ctx: DimensionContext, a: int, b: int) -> np.ndarray:
    d = ctx.d
    m = np.zeros((d, d), dtype=np.complex128)
    for n in range(d):
        m[(n + a) % d, n] = ctx.omega ** (b * n)
    return m


def pauli_to_matrix(p: PauliOperator) -> np.ndarray:
    """Dense matrix omega_hat^phase * tensor_k X^{x_k} Z^{z_k}.

    Site 0 is the most significant tensor factor, matching the
    statevector amplitude layout.  The matrix must fit AMPLITUDE_CAP
    entries.
    """
    from . import sim  # sim imports this module

    dim = p.ctx.d ** p.n
    if dim * dim > sim.AMPLITUDE_CAP:
        raise ValueError(f"a {p.ctx.d}^{p.n}-dimensional Pauli matrix exceeds the cap of {sim.AMPLITUDE_CAP} entries")
    out = np.array([[p.ctx.phase(p.phase_exp)]], dtype=np.complex128)
    for a, b in zip(p.x_exp, p.z_exp):
        out = np.kron(out, _single_site_matrix(p.ctx, a, b))
    return out
