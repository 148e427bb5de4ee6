"""Symmetric-function algebra against independent oracles and identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hessianlab import (
    ConeSpec,
    DomainError,
    SingularMetricError,
    check_garding,
    check_maclaurin,
    cone_margins,
    cone_membership,
    elem_sym,
    elem_sym_minors,
    elem_sym_table,
    generalized_eigenvalues,
    grad_elem_sym,
    hessian_operator_F,
    restricted_esp,
)
from hessianlab import HermitianField, TorusGrid
from hessianlab.symfunc import (
    esp_margins,
    hermitian_to_planes,
    hermitize,
    homogeneous_margin,
    margin_minima,
    metric_inv_sqrt,
    pencil_eigh,
    planes_kernel,
    planes_to_hermitian,
)

from conftest import (
    anisotropic_spd,
    esp_enumeration,
    pencil_roots_oracle,
    random_hermitian,
    random_spd,
    sample_cone_tuples,
)


class TestElemSym:
    def test_direct_expansion(self):
        assert elem_sym([1, 2, 3], 2) == pytest.approx(11.0, abs=0)
        assert elem_sym([1, 1, 1], 3) == pytest.approx(1.0, abs=0)
        assert elem_sym([4, 5], 0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            elem_sym([1, 2], 3)
        with pytest.raises(DomainError):
            elem_sym([1, 2], -1)

    def test_matches_subset_enumeration(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 7))
            lam = rng.uniform(-2, 2, n)
            for k in range(2, min(n, 4) + 1):
                expected = esp_enumeration(lam, k)
                got = elem_sym(lam, k)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_batched_table(self, rng):
        lam = rng.uniform(-1, 2, size=(40, 5))
        table = elem_sym_table(lam)
        for i in range(40):
            for k in range(6):
                assert table[i, k] == pytest.approx(
                    esp_enumeration(lam[i], k), rel=1e-12, abs=1e-12
                )

    def test_thousand_tuples_up_to_n6(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            lam = rng.uniform(-2, 2, n)
            table = elem_sym_table(lam)
            for k in range(n + 1):
                want = esp_enumeration(lam, k)
                assert table[k] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestMinors:
    def test_diagonal_cases(self):
        assert elem_sym_minors(np.diag([1.0, 2, 3]), 2) == pytest.approx(11.0)
        assert elem_sym_minors(np.eye(3), 3) == pytest.approx(1.0)

    def test_matches_eigen_route(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a = random_hermitian(rng, n)
            lam = np.linalg.eigvalsh(a)
            for k in range(1, n + 1):
                want = elem_sym(lam, k)
                got = elem_sym_minors(a, k)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            elem_sym_minors(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


class TestCone:
    def test_all_ones(self):
        member, worst = cone_membership([1, 1, 1], ConeSpec(n=3, m=2))
        assert member and worst == pytest.approx(1.0)

    def test_mixed_sign(self):
        member, worst = cone_membership([3, -1, -1], 2)
        assert not member
        assert worst == pytest.approx(-5.0 / 3.0)
        member1, worst1 = cone_membership([3, -1, -1], 1)
        assert member1 and worst1 == pytest.approx(1.0 / 3.0)

    def test_margin_slack(self):
        member, _ = cone_membership([1, 1, 1], ConeSpec(n=3, m=2, margin=0.9))
        assert member
        member, _ = cone_membership([1, 1, 1], ConeSpec(n=3, m=2, margin=1.0))
        assert not member  # strict inequality at the slack level

    def test_margin_minima_give_the_esp_margin(self, rng):
        for n, m in ((2, 2), (3, 2), (4, 3)):
            S = elem_sym_table(rng.uniform(-0.5, 2.0, size=(50, n)))[..., : m + 1]
            assert min(margin_minima(S, n)) == esp_margins(S, n).min()

    def test_homogeneous_margin(self, rng):
        # degree one, 0 off the open cone, and superadditive on it (Garding),
        # which bounds the base form's margin below by margin(chi) + c
        for n, m in ((2, 2), (3, 2), (4, 3)):
            lams = sample_cone_tuples(rng, n, m, 100)

            def margin(values):
                return homogeneous_margin(margin_minima(elem_sym_table(values)[..., : m + 1], n))

            assert margin(np.ones((1, n))) == pytest.approx(1.0)
            for lam in lams[:20]:
                assert margin(0.01 * lam[None]) == pytest.approx(0.01 * margin(lam[None]))
                for c in (1e-6, 0.3, 2.0):
                    assert margin(lam[None] + c) >= (margin(lam[None]) + c) * (1 - 1e-12)
            assert margin(np.array([[1.0] * (n - 1) + [-5.0]])) == 0.0
            assert homogeneous_margin([1.0, math.nan]) == 0.0

    def test_monotonicity_under_positive_shift(self, rng):
        for n, m in ((3, 2), (4, 3)):
            lams = sample_cone_tuples(rng, n, m, 200)
            shifts = rng.uniform(0, 1.5, size=lams.shape)
            assert np.all(cone_margins(lams + shifts, m) > 0.0)


class TestDerivatives:
    def test_gradient_direct(self):
        assert np.allclose(grad_elem_sym([1, 2, 3], 2), [5, 4, 3])
        assert np.allclose(grad_elem_sym([1, 1, 1], 3), [1, 1, 1])

    def test_euler_identity(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            lam = rng.uniform(-2, 2, n)
            lhs = float(np.dot(lam, grad_elem_sym(lam, m)))
            rhs = m * elem_sym(lam, m)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_gradient_matches_finite_differences(self, rng):
        step = 1e-6
        for _ in range(25):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            lam = rng.uniform(-1.5, 1.5, n)
            grad = grad_elem_sym(lam, m)
            for i in range(n):
                up, dn = lam.copy(), lam.copy()
                up[i] += step
                dn[i] -= step
                fd = (elem_sym(up, m) - elem_sym(dn, m)) / (2 * step)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_restricted_esp_matches_removal(self, rng):
        lam = rng.uniform(-1, 2, size=(30, 5))
        for k in range(5):
            got = restricted_esp(lam, k)
            for row in range(30):
                for i in range(5):
                    rest = np.delete(lam[row], i)
                    assert got[row, i] == pytest.approx(
                        esp_enumeration(rest, k), rel=1e-10, abs=1e-10
                    )


class TestInequalities:
    def test_maclaurin_equal_entries(self):
        assert check_maclaurin([2, 2, 2], 2) == pytest.approx(0.0, abs=1e-14)

    def test_maclaurin_generic_gap_exact_rationals(self):
        # S_1/C(3,1) = 2 and S_2/C(3,2) = 11/3 via exact rational arithmetic
        mean1 = Fraction(1 + 2 + 3, 3)
        mean2 = Fraction(1 * 2 + 1 * 3 + 2 * 3, 3)
        expected = float(mean1) - math.sqrt(float(mean2))
        assert expected > 0
        assert check_maclaurin([1, 2, 3], 2) == pytest.approx(expected, rel=1e-14)

    def test_maclaurin_outside_cone(self):
        with pytest.raises(DomainError):
            check_maclaurin([3, -1, -1], 2)

    def test_maclaurin_sampled(self, rng):
        for n, m in ((2, 2), (3, 2), (3, 3)):
            for lam in sample_cone_tuples(rng, n, m, 1000):
                assert check_maclaurin(lam, m) >= -1e-12

    def test_garding_euler_equality(self, rng):
        lam = sample_cone_tuples(rng, 3, 2, 1)[0]
        assert check_garding(lam, lam, 2) == pytest.approx(0.0, abs=1e-12)

    def test_garding_proportional_equality(self):
        assert check_garding([1, 1, 1], [2, 2, 2], 2) == pytest.approx(0.0, abs=1e-12)

    def test_garding_sampled(self, rng):
        for n, m in ((2, 2), (3, 2), (4, 2)):
            tuples = sample_cone_tuples(rng, n, m, 2000)
            for lam, eta in zip(tuples[::2], tuples[1::2]):
                assert check_garding(lam, eta, m) >= -1e-10

    def test_garding_outside_cone(self):
        with pytest.raises(DomainError):
            check_garding([3, -1, -1], [1, 1, 1], 2)

    @pytest.mark.parametrize("m", [0, 4])
    def test_gaps_reject_degree_outside_range(self, m):
        with pytest.raises(DomainError, match=f"m={m} outside 1..3"):
            check_maclaurin([1, 2, 3], m)
        with pytest.raises(DomainError, match=f"m={m} outside 1..3"):
            check_garding([1, 2, 3], [1, 1, 1], m)

    @pytest.mark.parametrize("lam, m", [
        ([1e300, 1e300, 1e300], 2), ([1e308, 1e308], 2), ([1.79e308, 1.0, 0.5], 2),
        ([3e300, -1e300, 2e300], 2), ([1e300, 1e300, 1e300], 3), ([1e300, 2e300, 3e300], 3),
    ])
    def test_gaps_of_huge_tuples_do_not_overflow(self, lam, m):
        # both gaps are homogeneous, so they are taken on lam / max|lam|; a
        # gap beyond the float64 range may be +inf, never -inf or nan
        scale = max(lam)
        maclaurin = check_maclaurin(lam, m)
        garding = check_garding(lam, np.ones(len(lam)), m)
        assert np.isfinite(maclaurin) and maclaurin >= -1e-12 * scale
        assert not np.isnan(garding) and garding >= -1e-12 * scale * scale ** (m - 2)

    def test_gaps_scale_homogeneously(self):
        lam = np.array([1.0, 2.0, 3.0])
        assert check_maclaurin(1e300 * lam, 2) == pytest.approx(
            1e300 * check_maclaurin(lam, 2), rel=1e-14)
        assert check_garding(1e300 * lam, 2e-300 * lam[::-1], 2) == pytest.approx(
            2.0 * check_garding(lam, lam[::-1], 2), rel=1e-12)

    def test_operator_concavity(self, rng):
        for n, m in ((3, 2), (4, 3)):
            tuples = sample_cone_tuples(rng, n, m, 2000)
            thetas = rng.uniform(0, 1, 1000)
            for lam, eta, theta in zip(tuples[::2], tuples[1::2], thetas):
                mix = hessian_operator_F(theta * lam + (1 - theta) * eta, m)
                split = theta * hessian_operator_F(lam, m) + (
                    1 - theta
                ) * hessian_operator_F(eta, m)
                assert mix >= split - 1e-10


class TestGeneralizedEigenvalues:
    def test_identity_pencil(self):
        g = np.diag([2.0, 3.0])
        assert np.allclose(generalized_eigenvalues(g, g), [1, 1])

    def test_diagonal_pencil(self):
        lam = generalized_eigenvalues(np.diag([2.0, 6.0]), np.diag([1.0, 2.0]))
        assert np.allclose(lam, [3, 2])

    def test_matches_companion_roots(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            a = random_hermitian(rng, n)
            g = random_spd(rng, n)
            got = generalized_eigenvalues(a, g)
            want = pencil_roots_oracle(a, g)
            assert np.allclose(got, want, atol=1e-9, rtol=1e-9)

    def test_congruence_invariance(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            a = random_hermitian(rng, n)
            g = random_spd(rng, n)
            p = np.eye(n) + 0.3 * (
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )
            lam = generalized_eigenvalues(a, g)
            lam_c = generalized_eigenvalues(p.conj().T @ a @ p, p.conj().T @ g @ p)
            assert np.abs(lam - lam_c).max() < 1e-9

    def test_singular_metric(self):
        with pytest.raises(SingularMetricError):
            generalized_eigenvalues(np.eye(2), np.diag([1.0, 0.0]))

    def test_batched_singular_metric_reports_point(self):
        g = np.broadcast_to(np.eye(2), (3, 4, 2, 2)).copy()
        g[1, 2] = np.diag([1.0, 0.0])
        with pytest.raises(SingularMetricError) as err:
            pencil_eigh(np.ones_like(g), g)
        assert err.value.point == (1, 2)
        assert all(type(k) is int for k in err.value.point)
        assert "(1, 2)" in str(err.value)


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


class TestFrameKernel:
    """The pencil eigen route against the characteristic-polynomial oracle."""

    def test_matches_roots_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            omega = anisotropic_spd(rng, n)
            batch = np.stack([random_hermitian(rng, n) for _ in range(8)])
            lam, U, gis = pencil_eigh(batch, omega)
            for a, got in zip(batch, lam):
                want = pencil_roots_oracle(a, omega)
                assert np.allclose(got, want, atol=1e-9, rtol=1e-9)
            # U diagonalizes the frame matrix with lam in descending order
            frame = U @ (lam[..., None] * np.conj(np.swapaxes(U, -1, -2)))
            assert np.allclose(frame, gis @ batch @ gis, atol=1e-10)
            assert np.all(np.diff(lam, axis=-1) <= 0.0)

    def test_near_cone_boundary(self, rng):
        # lam + s (1, ..., 1) lies on the boundary of the degree-m cone when s
        # is the largest root of s -> S_m(lam + s) = sum_j C(n-j, m-j) e_j s^(m-j);
        # a shift of 1e-9 either way puts it just inside or just outside
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            lam0 = rng.uniform(-1.0, 1.0, n)
            e = elem_sym_table(lam0)
            poly = [math.comb(n - j, m - j) * e[j] for j in range(m + 1)]
            lam_true = lam0 + np.roots(poly).real.max() + rng.choice([-1e-9, 1e-9])
            omega = anisotropic_spd(rng, n)
            half = np.linalg.inv(metric_inv_sqrt(omega))
            q = random_unitary(rng, n)
            a = half @ q @ np.diag(lam_true) @ q.conj().T @ half
            lam, _, _ = pencil_eigh(a[None], omega)
            assert np.allclose(lam[0], np.sort(lam_true)[::-1], atol=1e-11)
            assert np.allclose(lam[0], pencil_roots_oracle(a, omega), atol=1e-9)
            got = cone_margins(lam, m)[0]
            want = cone_margins(lam_true, m)
            assert abs(want) < 1e-8
            assert abs(got - want) < 1e-11
            if abs(want) > 1e-10:
                assert np.sign(got) == np.sign(want)


def boundary_tuple(rng, n, m, offset):
    """A tuple ``offset`` from the boundary of the degree-m cone.

    lam + s (1, ..., 1) lies on the boundary when s is the largest root of
    s -> S_m(lam + s) = sum_j C(n-j, m-j) e_j s^(m-j); the offset moves it
    just inside (> 0) or just outside (< 0).
    """
    lam0 = rng.uniform(-1.0, 1.0, n)
    e = elem_sym_table(lam0)
    poly = [math.comb(n - j, m - j) * e[j] for j in range(m + 1)]
    return lam0 + np.roots(poly).real.max() + offset


# seeds drawn by hypothesis, derandomized so tier-1 stays reproducible
KERNEL_CASES = settings(max_examples=25, deadline=None, derandomize=True,
                        database=None)
DEGREES = [(n, m) for n in (1, 2, 3) for m in range(1, n + 1)]


def random_field(rng, n):
    """A HermitianField of random complex matrices on a small grid, through ``from_matrices``."""
    grid = TorusGrid(n=n, points_per_axis=4 if n < 3 else 2)
    shape = grid.shape + (n, n)
    return HermitianField.from_matrices(
        grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestHessianKernel:
    """The kernel on the planes of a HermitianField, against the roots and eigh oracles.

    Each case runs ``planes_kernel`` on a whole field, planes with one axis
    per real grid axis, and reads 4 sampled points back as matrices.
    """

    @pytest.mark.parametrize("n, m", DEGREES)
    @KERNEL_CASES
    @given(seed=st.integers(0, 2**32 - 1))
    def test_S_matches_roots_oracle(self, n, m, seed):
        rng = np.random.default_rng(seed)
        omega = anisotropic_spd(rng, n)
        field = random_field(rng, n)
        S, _ = planes_kernel(field.data, hermitize(np.linalg.inv(omega)), m)
        assert S.shape == field.grid.shape + (m + 1,)
        idx = rng.choice(field.grid.num_points, 4, replace=False)
        batch = planes_to_hermitian(field.data).reshape(-1, n, n)[idx]
        for a, got in zip(batch, S.reshape(-1, m + 1)[idx]):
            roots = pencil_roots_oracle(a, omega)
            scale = max(1.0, np.abs(roots).max())
            for k in range(m + 1):
                want = esp_enumeration(roots, k)
                assert abs(got[k] - want) <= 1e-10 * scale**k

    @pytest.mark.parametrize("n, m", DEGREES)
    @KERNEL_CASES
    @given(seed=st.integers(0, 2**32 - 1))
    def test_T_matches_eigh_route(self, n, m, seed):
        # T = gis U diag(S_{m-1;i}(lam)) U* gis with (lam, U) from the frame eigh
        rng = np.random.default_rng(seed)
        omega = anisotropic_spd(rng, n)
        field = random_field(rng, n)
        _, T = planes_kernel(field.data, hermitize(np.linalg.inv(omega)), m)
        assert T.shape == field.data.shape and T.dtype == float
        idx = rng.choice(field.grid.num_points, 4, replace=False)
        batch = planes_to_hermitian(field.data).reshape(-1, n, n)[idx]
        lam, U, gis = pencil_eigh(batch, omega)
        grads = restricted_esp(lam, m - 1)
        want = gis @ np.einsum("...ik,...k,...jk->...ij", U, grads, np.conj(U)) @ gis
        scale = max(1.0, np.abs(lam).max()) ** (m - 1) * np.abs(gis @ gis).max()
        got = T.reshape(n * n, -1)[:, idx]
        assert np.abs(got - hermitian_to_planes(want)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n, m", DEGREES)
    @KERNEL_CASES
    @given(seed=st.integers(0, 2**32 - 1), inside=st.booleans())
    def test_near_cone_boundary_keeps_margin_sign(self, n, m, seed, inside):
        rng = np.random.default_rng(seed)
        lam_true = boundary_tuple(rng, n, m, 1e-9 if inside else -1e-9)
        omega = anisotropic_spd(rng, n)
        half = np.linalg.inv(metric_inv_sqrt(omega))
        q = random_unitary(rng, n)
        a = half @ q @ np.diag(lam_true) @ q.conj().T @ half
        field = HermitianField.constant(TorusGrid(n=n, points_per_axis=2), a)
        S, _ = planes_kernel(field.data, hermitize(np.linalg.inv(omega)), m)
        got = esp_margins(S, n).flat[0]
        want = cone_margins(lam_true, m)
        assert abs(want) < 1e-8
        assert abs(got - want) < 1e-11
        if abs(want) > 1e-10:
            assert np.sign(got) == np.sign(want)

    def test_rejects_degree_outside_range(self):
        identity = HermitianField.constant(TorusGrid(n=2, points_per_axis=2), np.eye(2))
        for m in (0, 3):
            with pytest.raises(DomainError):
                planes_kernel(identity.data, np.eye(2), m)


class TestPlanesKernel:
    """The real-arithmetic kernel on planes, with no adapter, against the oracles."""

    @pytest.mark.parametrize("n, m", DEGREES)
    @KERNEL_CASES
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_roots_and_eigh_oracles(self, n, m, seed):
        rng = np.random.default_rng(seed)
        omega = anisotropic_spd(rng, n)
        batch = np.stack([random_hermitian(rng, n) for _ in range(4)])
        S, T = planes_kernel(hermitian_to_planes(batch), hermitize(np.linalg.inv(omega)), m)
        assert S.shape == (4, m + 1) and T.shape == (n * n, 4) and T.dtype == float
        for a, got in zip(batch, S):
            roots = pencil_roots_oracle(a, omega)
            scale = max(1.0, np.abs(roots).max())
            for k in range(m + 1):
                assert abs(got[k] - esp_enumeration(roots, k)) <= 1e-10 * scale**k
        lam, U, gis = pencil_eigh(batch, omega)
        grads = restricted_esp(lam, m - 1)
        want = gis @ np.einsum("...ik,...k,...jk->...ij", U, grads, np.conj(U)) @ gis
        scale = max(1.0, np.abs(lam).max()) ** (m - 1) * np.abs(gis @ gis).max()
        assert np.abs(T - hermitian_to_planes(want)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_field_planes_round_trip_is_bit_exact(self, rng, n):
        grid = TorusGrid(n=n, points_per_axis=4)
        data = np.stack([random_hermitian(rng, n) for _ in range(grid.num_points)])
        field = HermitianField.from_matrices(grid, data.reshape(grid.shape + (n, n)))
        assert field.data.shape == (n * n,) + grid.shape and field.data.dtype == float
        matrices = planes_to_hermitian(field.data)
        assert np.array_equal(matrices, data.reshape(matrices.shape))
        back = HermitianField.from_matrices(grid, matrices)
        assert back.data.tobytes() == field.data.tobytes()


class TestOperatorF:
    def test_normalization_and_homogeneity(self):
        assert hessian_operator_F([1, 1, 1], 2) == pytest.approx(1.0)
        assert hessian_operator_F([2.5, 2.5, 2.5], 3) == pytest.approx(2.5)

    def test_direct_value(self):
        assert hessian_operator_F([1, 2, 3], 2) == pytest.approx(math.sqrt(11 / 3))

    def test_negative_sm(self):
        with pytest.raises(DomainError):
            hessian_operator_F([3, -1, -1], 2)
