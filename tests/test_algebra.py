import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc.algebra import (
    DimensionContext,
    PauliOperator,
    pauli_conjugate,
    pauli_multiply,
    pauli_to_matrix,
    xi_f,
    xi_p,
)
from quditmbqc.sim import _KINDS, Gate, GateName, gate_matrix, pauli_angles

DIMS = [2, 3, 4, 5]


def ctx_of(d):
    return DimensionContext.of(d)


class TestDimensionContext:
    @pytest.mark.parametrize("d,D,delta", [(2, 4, 0), (3, 3, 1), (4, 8, 0), (5, 5, 1)])
    def test_derived_constants(self, d, D, delta):
        ctx = ctx_of(d)
        assert ctx.D == D
        assert ctx.delta_d == delta
        assert ctx.D == d * (2 - (d % 2))

    @pytest.mark.parametrize("d", DIMS)
    def test_root_relations(self, d):
        ctx = ctx_of(d)
        assert abs(ctx.omega_hat**ctx.D - 1) < 1e-12
        assert abs(ctx.omega - ctx.omega_hat ** (ctx.D // d)) < 1e-12

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            DimensionContext(1)

    @pytest.mark.parametrize("d", [True, False, 2.0, "3"])
    def test_of_refuses_a_non_integer_and_echoes_it(self, d):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(d))}$"):
            DimensionContext.of(d)


class TestMultiply:
    def test_z_times_x_gains_one_phase_unit(self):
        # the Weyl relation at d=3: Z X = omega X Z
        ctx = ctx_of(3)
        z = PauliOperator.z_op(ctx, 1, 0)
        x = PauliOperator.x_op(ctx, 1, 0)
        prod = pauli_multiply(z, x)
        assert prod.phase_exp == ctx.D // 3
        assert prod.x_exp == (1,) and prod.z_exp == (1,)

    @pytest.mark.parametrize("d", DIMS)
    def test_identity_neutral(self, d):
        ctx = ctx_of(d)
        rng = np.random.default_rng(d)
        p = PauliOperator(ctx, 2, 1, tuple(rng.integers(d, size=2)), tuple(rng.integers(d, size=2)))
        ident = PauliOperator.identity(ctx, 2)
        assert pauli_multiply(ident, p) == p
        assert pauli_multiply(p, ident) == p

    def test_matches_dense_product_d2(self):
        ctx = ctx_of(2)
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 3))
            p = PauliOperator(ctx, n, int(rng.integers(4)), tuple(rng.integers(2, size=n)), tuple(rng.integers(2, size=n)))
            q = PauliOperator(ctx, n, int(rng.integers(4)), tuple(rng.integers(2, size=n)), tuple(rng.integers(2, size=n)))
            got = pauli_to_matrix(pauli_multiply(p, q))
            want = pauli_to_matrix(p) @ pauli_to_matrix(q)
            assert np.max(np.abs(got - want)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from(DIMS),
        data=st.data(),
    )
    def test_associative(self, d, data):
        ctx = ctx_of(d)
        trip = []
        for _ in range(3):
            xi = data.draw(st.integers(0, ctx.D - 1))
            a = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
            b = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
            trip.append(PauliOperator(ctx, 2, xi, a, b))
        p, q, r = trip
        left = pauli_multiply(pauli_multiply(p, q), r)
        right = pauli_multiply(p, pauli_multiply(q, r))
        assert left == right
        assert np.max(np.abs(pauli_to_matrix(left) - pauli_to_matrix(p) @ pauli_to_matrix(q) @ pauli_to_matrix(r))) < 1e-12

    @pytest.mark.parametrize("d", DIMS)
    def test_exponent_cycling(self, d):
        ctx = ctx_of(d)
        x = PauliOperator.x_op(ctx, 1, 0)
        z = PauliOperator.z_op(ctx, 1, 0)
        acc = PauliOperator.identity(ctx, 1)
        for _ in range(d):
            acc = pauli_multiply(acc, x)
        assert acc.is_identity()
        acc = PauliOperator.identity(ctx, 1)
        for _ in range(d):
            acc = pauli_multiply(acc, z)
        assert acc.is_identity()
        # (XZ)^D returns all the way to the identity, phase included
        xz = pauli_multiply(x, z)
        acc = PauliOperator.identity(ctx, 1)
        for _ in range(ctx.D):
            acc = pauli_multiply(acc, xz)
        assert acc.is_identity()

    @pytest.mark.parametrize("d", DIMS)
    def test_inverse(self, d):
        ctx = ctx_of(d)
        rng = np.random.default_rng(d + 10)
        for _ in range(20):
            p = PauliOperator(ctx, 2, int(rng.integers(ctx.D)), tuple(rng.integers(d, size=2)), tuple(rng.integers(d, size=2)))
            assert pauli_multiply(p, p.inverse()).is_identity()

    def test_mismatch_raises(self):
        p2 = PauliOperator.identity(ctx_of(2), 1)
        p3 = PauliOperator.identity(ctx_of(3), 1)
        with pytest.raises(ValueError):
            pauli_multiply(p2, p3)
        with pytest.raises(ValueError):
            pauli_multiply(p2, PauliOperator.identity(ctx_of(2), 2))


class TestConjugate:
    def test_fourier_sends_x_to_z_d2(self):
        ctx = ctx_of(2)
        x = PauliOperator.x_op(ctx, 1, 0)
        out = pauli_conjugate(("F", 0), x)
        assert out == PauliOperator.z_op(ctx, 1, 0)

    def test_phase_gate_makes_y_d2(self):
        # P X P^dagger is the qubit Y = omega_hat X Z with omega_hat = i
        ctx = ctx_of(2)
        out = pauli_conjugate(("P", 0), PauliOperator.x_op(ctx, 1, 0))
        assert out == PauliOperator(ctx, 1, 1, (1,), (1,))
        y = np.array([[0, -1j], [1j, 0]])
        assert np.max(np.abs(pauli_to_matrix(out) - y)) < 1e-12

    def test_cz_spreads_x_to_partner_z(self):
        ctx = ctx_of(3)
        p = PauliOperator(ctx, 2, 0, (1, 0), (0, 0))
        out = pauli_conjugate(("CZ", 0, 1), p)
        assert out == PauliOperator(ctx, 2, 0, (1, 0), (0, 1))

    @pytest.mark.parametrize("d", DIMS)
    def test_single_site_conjugations_match_matrices(self, d):
        ctx = ctx_of(d)
        fm = gate_matrix(Gate.f(), ctx)
        pm = gate_matrix(Gate.p(), ctx)
        for a in range(d):
            for b in range(d):
                p = PauliOperator(ctx, 1, (a + b) % ctx.D, (a,), (b,))
                for gen, u in [(("F", 0), fm), (("P", 0), pm)]:
                    got = pauli_to_matrix(pauli_conjugate(gen, p))
                    want = u @ pauli_to_matrix(p) @ u.conj().T
                    assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_two_site_cz_conjugations_match_matrices(self, d):
        ctx = ctx_of(d)
        cz = gate_matrix(Gate.cz(), ctx)
        rng = np.random.default_rng(d)
        for a1 in range(d):
            for a2 in range(d):
                b1, b2 = int(rng.integers(d)), int(rng.integers(d))
                p = PauliOperator(ctx, 2, int(rng.integers(ctx.D)), (a1, a2), (b1, b2))
                got = pauli_to_matrix(pauli_conjugate(("CZ", 0, 1), p))
                want = cz @ pauli_to_matrix(p) @ cz.conj().T
                assert np.max(np.abs(got - want)) < 1e-12

    def test_site_out_of_range(self):
        p = PauliOperator.identity(ctx_of(3), 2)
        with pytest.raises(ValueError):
            pauli_conjugate(("F", 2), p)

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize(
        "gate", [Gate.x(2), Gate.cx(-1), Gate.fanout((1, 2)), Gate.mod((2, 1))], ids=lambda g: g.name.value
    )
    def test_a_kind_conjugates_alike_through_its_define(self, monkeypatch, gate, d):
        # with its declared action taken away, a kind conjugates part by part
        # through its one-step definition, in order, to the same Pauli
        ctx, rng = ctx_of(d), np.random.default_rng(d)
        sites = (2, 0, 1)[: gate.arity]
        paulis = [
            PauliOperator(ctx, 3, int(rng.integers(ctx.D)), tuple(rng.integers(d, size=3)), tuple(rng.integers(d, size=3)))
            for _ in range(10)
        ]
        want = [pauli_conjugate((gate, *sites), p) for p in paulis]
        monkeypatch.setitem(_KINDS, gate.name, replace(_KINDS[gate.name], shifts=None, swap=False))
        assert [pauli_conjugate((gate, *sites), p) for p in paulis] == want

    @pytest.mark.parametrize(
        "generator,message",
        [
            (("CZ", 0), r"^CZ needs 2 distinct sites of a 3-site Pauli, got \(0,\)$"),
            (("P", 0, 1), r"^P needs 1 distinct sites"),
            (("CX", 1, 1), r"^CX needs 2 distinct sites"),
            (("SWAP", 0, 3), r"^SWAP needs 2 distinct sites"),
            ((Gate.fanout((1, 1)), 0, 1), r"^FANOUT needs 3 distinct sites"),
            (("FANOUT", 0, 1), r"^FANOUT needs a nonempty coefficient vector$"),
            (("R", 0), r"^R needs a length-3 angle vector$"),
            ((Gate(GateName.P, k=2), 0), r"^P takes no 'k' parameter$"),
            (("bogus", 0), r"bogus"),
        ],
    )
    def test_refuses_a_malformed_generator(self, generator, message):
        with pytest.raises(ValueError, match=message):
            pauli_conjugate(generator, PauliOperator.identity(ctx_of(3), 3))

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("name", [GateName.V, GateName.R, GateName.DIAG])
    def test_refuses_non_clifford_kinds_at_any_angles(self, name, d):
        # even angles that make a Clifford: v(pauli_angles) is F.P and
        # R(pauli_angles) is P, yet the kinds are refused as such
        param = _KINDS[name].param
        rng = np.random.default_rng(d)
        for angles in [(0.0,) * d, pauli_angles(d), tuple(rng.uniform(0, 2 * np.pi, d))]:
            with pytest.raises(ValueError, match=rf"^{name.value} is not a Clifford gate$"):
                pauli_conjugate((Gate(name, **{param: angles}), 1), PauliOperator.identity(ctx_of(d), 2))


class TestMatrices:
    def test_x_matrix_d2(self):
        got = pauli_to_matrix(PauliOperator.x_op(ctx_of(2), 1, 0))
        assert np.max(np.abs(got - np.array([[0, 1], [1, 0]]))) < 1e-12

    def test_z_matrix_d3(self):
        ctx = ctx_of(3)
        got = pauli_to_matrix(PauliOperator.z_op(ctx, 1, 0))
        want = np.diag([1, ctx.omega, ctx.omega**2])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_phased_xz_product_d4(self):
        ctx = ctx_of(4)
        got = pauli_to_matrix(PauliOperator(ctx, 1, 1, (1,), (1,)))
        want = np.exp(2j * np.pi / 8) * (
            pauli_to_matrix(PauliOperator.x_op(ctx, 1, 0))
            @ pauli_to_matrix(PauliOperator.z_op(ctx, 1, 0))
        )
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("d", DIMS)
    def test_unitarity(self, d):
        ctx = ctx_of(d)
        rng = np.random.default_rng(d)
        p = PauliOperator(ctx, 2, int(rng.integers(ctx.D)), tuple(rng.integers(d, size=2)), tuple(rng.integers(d, size=2)))
        m = pauli_to_matrix(p)
        assert np.max(np.abs(m @ m.conj().T - np.eye(d * d))) < 1e-12

    def test_size_budget(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            pauli_to_matrix(PauliOperator.identity(ctx_of(5), 12))

    @pytest.mark.parametrize("n", [12, 13])
    def test_matrix_past_the_cap_is_refused_before_building(self, n, monkeypatch):
        # d=2: 4096^2 = 2^24 entries at n = 12 fit the cap, 8192^2 at n = 13 do
        # not; a factor built means the check let the matrix through
        import quditmbqc.algebra as algebra_module

        def built(*args):
            raise AssertionError("built a factor")

        monkeypatch.setattr(algebra_module, "_single_site_matrix", built)
        p = PauliOperator.identity(ctx_of(2), n)
        if n == 12:
            with pytest.raises(AssertionError, match="built a factor"):
                pauli_to_matrix(p)
        else:
            with pytest.raises(ValueError, match=f"a 2\\^13-dimensional Pauli matrix exceeds the cap of {1 << 24} entries"):
                pauli_to_matrix(p)

    @pytest.mark.parametrize("d", DIMS)
    def test_fourier_gate_has_order_four(self, d):
        f = gate_matrix(Gate.f(), ctx_of(d))
        f4 = np.linalg.matrix_power(f, 4)
        assert np.max(np.abs(f4 - np.eye(d))) < 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_phase_exponent_helpers_are_integral(d):
    ctx = ctx_of(d)
    for n in range(3 * d):
        assert 0 <= xi_f(ctx, n) < ctx.D
        assert 0 <= xi_p(ctx, n) < ctx.D
