"""Torus calculus: differences against analytic and spectral oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hessianlab
from hessianlab import (
    BackgroundData,
    ConeViolationError,
    DomainError,
    HermitianField,
    ScalarField,
    SingularMetricError,
    TorusGrid,
    TrigPolynomial,
    complex_gradient,
    complex_hessian,
    complex_hessian_spectral,
    eigen_field,
    entropy_functional,
    gaussian_bump,
    generalized_eigenvalues,
    integrate,
    lp_norm,
    manufactured_solution,
    mollify,
    tree_sum,
)
from hessianlab.grid import fd_laplacian_inverse
from hessianlab.symfunc import planes_kernel, planes_to_hermitian

from conftest import fd_laplacian_inverse_fft, random_spd


def diff1(data, axis, h):
    """Centered periodic first difference along one axis, built on np.roll."""
    return (np.roll(data, -1, axis) - np.roll(data, 1, axis)) / (2.0 * h)


def diff2(data, axis, h):
    """Centered periodic second difference along one axis, built on np.roll."""
    return (np.roll(data, -1, axis) - 2.0 * data + np.roll(data, 1, axis)) / (h * h)


def cos_potential(grid, axis):
    """(L/2pi)^2 (1 - cos(2 pi x_a / L)) sampled on the grid."""
    L = grid.period
    x = grid.axis_coords(axis)
    vals = (L / (2 * np.pi)) ** 2 * (1.0 - np.cos(2 * np.pi * x / L))
    return np.broadcast_to(vals, grid.shape).copy()


class TestGridBasics:
    def test_rejects_odd_points(self):
        with pytest.raises(DomainError):
            TorusGrid(n=2, points_per_axis=9)

    def test_budget(self):
        with pytest.raises(DomainError):
            TorusGrid(n=2, points_per_axis=64)  # 64^4 > 2e6

    def test_shapes(self):
        g = TorusGrid(n=2, points_per_axis=8, period=2.0)
        assert g.shape == (8, 8, 8, 8)
        assert g.spacing == pytest.approx(0.25)


class TestComplexHessian:
    def test_constant_potential(self, grid12):
        phi = ScalarField.constant(grid12, 4.2)
        hess = complex_hessian(phi)
        assert np.abs(hess.data).max() == 0.0

    def test_cos_potential_analytic(self):
        # phi = (L/2pi)^2 [(1 - cos(2pi x1/L)) + (1 - cos(2pi y1/L))]:
        # analytic entry (1,1) is (cos(2pi x1/L) + cos(2pi y1/L)) / 4,
        # every other entry vanishes.
        errs = {}
        for N in (12, 24):
            grid = TorusGrid(n=2, points_per_axis=N)
            phi = ScalarField(grid, cos_potential(grid, 0) + cos_potential(grid, 1))
            hess = planes_to_hermitian(complex_hessian(phi).data)
            L = grid.period
            want = 0.25 * (
                np.cos(2 * np.pi * grid.axis_coords(0) / L)
                + np.cos(2 * np.pi * grid.axis_coords(1) / L)
            ) + np.zeros(grid.shape)
            errs[N] = np.abs(hess[..., 0, 0] - want).max()
            assert np.abs(hess[..., 0, 1]).max() < 1e-13
            assert np.abs(hess[..., 1, 1]).max() < 1e-13
        ratio = errs[12] / errs[24]
        order = np.log2(ratio)
        assert 1.8 <= order <= 2.2

    def test_matches_spectral_oracle_second_order(self, rng):
        trig = TrigPolynomial.random(2, rng, amplitude=1.0, max_mode=2)
        errs = {}
        for N in (12, 24):
            grid = TorusGrid(n=2, points_per_axis=N)
            phi = trig.sample(grid)
            fd = planes_to_hermitian(complex_hessian(phi).data)
            exact = planes_to_hermitian(complex_hessian_spectral(phi).data)
            errs[N] = np.abs(fd - exact).max()
        order = np.log2(errs[12] / errs[24])
        assert 1.8 <= order <= 2.2

    def test_hermitian_exactly_and_zero_mean(self, rng):
        grid = TorusGrid(n=2, points_per_axis=8)
        phi = ScalarField(grid, rng.standard_normal(grid.shape))
        hess = planes_to_hermitian(complex_hessian(phi).data)
        adj = np.conj(np.swapaxes(hess, -1, -2))
        assert np.abs(hess - adj).max() == 0.0
        means = hess.reshape(-1, 2, 2).mean(axis=0)
        assert np.abs(means).max() < 1e-10

    @pytest.mark.parametrize("n, N", [(1, 8), (2, 2), (2, 6), (2, 16), (3, 4), (3, 6)])
    def test_matches_roll_composition(self, n, N):
        # the circulant-matmul differences against the diff1/diff2
        # composition built from np.roll, on rough random fields; at N = 2
        # the first difference folds to zero
        grid = TorusGrid(n=n, points_per_axis=N)
        h = grid.spacing
        for seed in range(3):
            f = np.random.default_rng(seed).standard_normal(grid.shape)
            hess = planes_to_hermitian(complex_hessian(ScalarField(grid, f)).data)
            assert np.array_equal(hess, np.conj(np.swapaxes(hess, -1, -2)))
            want = np.zeros_like(hess)
            for i in range(n):
                xi, yi = 2 * i, 2 * i + 1
                want[..., i, i] = 0.25 * (diff2(f, xi, h) + diff2(f, yi, h))
                for j in range(i + 1, n):
                    xj, yj = 2 * j, 2 * j + 1
                    dxi, dyi = diff1(f, xi, h), diff1(f, yi, h)
                    re = 0.25 * (diff1(dxi, xj, h) + diff1(dyi, yj, h))
                    im = 0.25 * (diff1(dxi, yj, h) - diff1(dyi, xj, h))
                    want[..., i, j] = re + 1j * im
                    want[..., j, i] = re - 1j * im
            assert np.abs(hess - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("metric", [None, [[1.5, 0.2], [0.2, 1.0]]])
    def test_integration_by_parts(self, rng, metric):
        grid = TorusGrid(n=2, points_per_axis=8)
        omega = np.eye(2) if metric is None else np.array(metric, dtype=complex)
        omega_inv = np.linalg.inv(omega)

        def laplacian(v):
            # the metric Laplacian is S_1 of the complex Hessian relative to omega
            hess = complex_hessian(v)
            S, _ = planes_kernel(hess.data, omega_inv, 1)
            trace = eigen_field(hess, omega).sum(axis=-1)
            assert np.abs(S[..., 1] - trace).max() <= 1e-12 * np.abs(trace).max()
            return S[..., 1]

        u = ScalarField(grid, rng.standard_normal(grid.shape))
        v = ScalarField(grid, rng.standard_normal(grid.shape))
        left = integrate(ScalarField(grid, u.data * laplacian(v)))
        right = integrate(ScalarField(grid, v.data * laplacian(u)))
        assert left == pytest.approx(right, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n, N", [(1, 2), (2, 6), (2, 16), (3, 6)])
    def test_gradient_equals_roll_difference(self, n, N):
        # the circulant first difference adds the same two neighbours as
        # diff1, so the gradient is bit for bit the np.roll one
        grid = TorusGrid(n=n, points_per_axis=N)
        f, h = np.random.default_rng(3).standard_normal(grid.shape), grid.spacing
        want = np.stack([0.5 * (diff1(f, 2 * i, h) - 1j * diff1(f, 2 * i + 1, h))
                         for i in range(n)], axis=-1)
        assert np.array_equal(complex_gradient(ScalarField(grid, f)), want)

    @pytest.mark.parametrize("n, N", [(2, 16), (3, 6)])
    def test_planes_same_bytes_across_blas_threads(self, tmp_path, n, N):
        # the differences are BLAS matmuls, so the planes must not depend on
        # how many threads the BLAS splits them over
        src = str(Path(hessianlab.__file__).resolve().parents[1])
        code = ("import sys, numpy as np; from hessianlab.grid import hessian_planes; "
                f"f = np.random.default_rng(5).standard_normal(({N},) * {2 * n}); "
                f"np.save(sys.argv[1], hessian_planes(f, {n}))")
        saved = []
        for threads in ("1", "2"):
            path = tmp_path / f"planes{threads}.npy"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                           timeout=60, check=True)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]


class TestLaplacianInverse:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_matches_fft_symbol(self, n, N):
        # the real tensor-product eigenbasis against the complex FFT route, with
        # unit weights (the 2n-dimensional Laplacian) and with one per plane
        grid = TorusGrid(n=n, points_per_axis=N)
        rng = np.random.default_rng(10 * n + N)
        r = rng.standard_normal(grid.shape)
        inverse_table, solve = fd_laplacian_inverse(grid)
        for weights in (np.ones(n), rng.uniform(0.1, 3.0, n)):
            got = solve(r, inverse_table(weights))
            want = fd_laplacian_inverse_fft(grid, r, weights)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestEigenField:
    def test_identity(self, grid8):
        a = HermitianField.constant(grid8, 2.0 * np.eye(2))
        lam = eigen_field(a, 2.0 * np.eye(2))
        assert np.allclose(lam, 1.0)

    def test_constant_matches_single_matrix(self, grid8, rng):
        mat = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]])
        gmat = np.array([[1.5, 0.2], [0.2, 1.0]], dtype=complex)
        lam = eigen_field(HermitianField.constant(grid8, mat), gmat)
        single = generalized_eigenvalues(mat, gmat)
        assert np.allclose(lam.reshape(-1, 2), single)

    def test_random_field_pointwise_oracle(self, grid8, rng):
        data = rng.standard_normal(grid8.shape + (2, 2)) + 1j * rng.standard_normal(
            grid8.shape + (2, 2)
        )
        a = HermitianField.from_matrices(grid8, data)
        lam = eigen_field(a, 1.5 * np.eye(2))
        flat_a = planes_to_hermitian(a.data).reshape(-1, 2, 2)
        flat_lam = lam.reshape(-1, 2)
        idx = rng.choice(flat_lam.shape[0], 100, replace=False)
        for i in idx:
            want = generalized_eigenvalues(flat_a[i], 1.5 * np.eye(2))
            assert np.allclose(flat_lam[i], want, atol=1e-11)

    def test_metric_must_be_one_matrix(self, grid8):
        # omega is one constant matrix: a per-point field is rejected by shape,
        # a singular matrix by the metric check
        one = HermitianField.constant(grid8, np.eye(2))
        with pytest.raises(DomainError, match="omega must be one"):
            eigen_field(one, one.data)
        with pytest.raises(SingularMetricError):
            eigen_field(one, np.diag([1.0, 0.0]))


class TestBackgroundOmega:
    """omega is one constant (n, n) matrix, checked once when it is built."""

    @pytest.mark.parametrize("omega, error, message", [
        (np.eye(3), DomainError, "omega must be one"),
        (np.ones((8, 8, 8, 8, 2, 2)), DomainError, "omega must be one"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), DomainError, "not Hermitian"),
        (np.diag([1.0, -1.0]), SingularMetricError, "not positive definite"),
        (np.diag([1.0, 1e-12]), SingularMetricError, "not positive definite"),
    ])
    def test_rejects_bad_omega(self, grid8, omega, error, message):
        zero = HermitianField.constant(grid8, np.zeros((2, 2)))
        with pytest.raises(error, match=message):
            BackgroundData(omega=omega, chi=zero)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -1.0])
    def test_rejects_bad_kappa(self, grid8, kappa):
        with pytest.raises(DomainError, match="kappa"):
            BackgroundData.flat(grid8, kappa=kappa)

    def test_derived_quantities(self, grid8, rng):
        omega = random_spd(rng, 2)
        bg = BackgroundData.flat(grid8, kappa=0.5, omega_matrix=omega)
        assert bg.omega_inv.shape == (2, 2)
        assert np.array_equal(bg.omega_inv, np.conj(bg.omega_inv.T))
        assert np.allclose(bg.omega_inv @ omega, np.eye(2), atol=1e-12)
        assert bg.volume == pytest.approx(np.linalg.det(omega).real, rel=1e-12)
        base = planes_to_hermitian(bg.base_form(0.0).data)
        assert np.allclose(base, 0.5 * omega)


def assert_int_point(point):
    assert point == (0, 0, 0, 0) and all(type(k) is int for k in point)


def test_chi_outside_cone_names_worst_point(grid8):
    # chi = diag(-0.5, 0): S_1 / 2 = -0.25 at every point, so the first is the worst
    bg = BackgroundData.flat(grid8, chi_matrix=np.diag([-0.5, 0.0]))
    with pytest.raises(ConeViolationError) as err:
        bg.validate(2)
    assert_int_point(err.value.point)
    assert err.value.margin == pytest.approx(-0.25, rel=1e-12)


def test_manufactured_margin_floor_names_worst_point(grid8):
    # a zero potential on the base form t omega: S_2 = t^2 is the least margin
    bg = BackgroundData.flat(grid8)
    with pytest.raises(ConeViolationError, match="below 0.1") as err:
        manufactured_solution(bg, 0.05, 2, ScalarField.constant(grid8, 0.0))
    assert_int_point(err.value.point)
    assert err.value.margin == pytest.approx(0.05 ** 2, rel=1e-12)


def test_hermitian_field_holds_planes(grid8):
    # complex matrices enter through from_matrices only; the planes of the
    # identity are 1 on the diagonal planes and 0 elsewhere
    field = HermitianField.constant(grid8, 2.0 * np.eye(2))
    assert field.data.shape == (4,) + grid8.shape and field.data.dtype == float
    assert np.array_equal(field.data[:, 0, 0, 0, 0], [2.0, 0.0, 0.0, 2.0])
    with pytest.raises(DomainError, match="plane data shape"):
        HermitianField(grid8, np.zeros(grid8.shape + (2, 2), dtype=complex))
    with pytest.raises(DomainError, match="matrix data shape"):
        HermitianField.from_matrices(grid8, np.zeros((4,) + grid8.shape))


@pytest.mark.parametrize("max_mode", [-1, 0])
def test_trig_polynomial_rejects_empty_ranges(rng, max_mode):
    with pytest.raises(DomainError, match="max_mode"):
        TrigPolynomial.random(2, rng, max_mode=max_mode)


class TestIntegration:
    def test_unit_normalization(self, grid12):
        one = ScalarField.constant(grid12, 1.0)
        assert integrate(one, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert integrate(one, 2.5) == pytest.approx(2.5, rel=1e-14)

    def test_periodic_sine_vanishes(self, grid12):
        x = grid12.axis_coords(0)
        g = ScalarField(grid12, np.sin(2 * np.pi * x / grid12.period) + np.zeros(grid12.shape))
        assert abs(integrate(g)) < 1e-12

    def test_trig_polynomial_exact(self, grid12):
        # cos^2 integrates to 1/2 exactly under the periodic trapezoid rule
        x = grid12.axis_coords(1)
        g = ScalarField(grid12, np.cos(2 * np.pi * x / grid12.period) ** 2 + np.zeros(grid12.shape))
        assert integrate(g) == pytest.approx(0.5, rel=1e-13)

    def test_tree_sum_deterministic(self, rng):
        vals = rng.standard_normal(10_001)
        first = tree_sum(vals)
        for _ in range(3):
            assert tree_sum(vals) == first


class TestNorms:
    def test_constant(self, grid8):
        g = ScalarField.constant(grid8, -3.0)
        assert lp_norm(g, 2) == pytest.approx(3.0, rel=1e-12)

    def test_sup_norm_spike(self, grid8):
        data = np.zeros(grid8.shape)
        data[1, 2, 3, 0] = -7.5
        assert lp_norm(ScalarField(grid8, data), np.inf) == 7.5

    def test_p2_direct_sum(self, grid8, rng):
        data = rng.standard_normal(grid8.shape)
        g = ScalarField(grid8, data)
        direct = (grid8.spacing**4 * np.sum(np.sort(np.abs(data).ravel()) ** 2)) ** 0.5
        assert lp_norm(g, 2) == pytest.approx(direct, rel=1e-12)

    def test_p_below_one_rejected(self, grid8):
        with pytest.raises(DomainError):
            lp_norm(ScalarField.constant(grid8, 1.0), 0.5)


class TestEntropy:
    def test_zero_density(self, grid12):
        f = ScalarField.constant(grid12, 0.0)
        assert entropy_functional(f, 3.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_constant_density(self, grid12):
        c, p, n = -0.3, 4.0, 2
        f = ScalarField.constant(grid12, c)
        want = np.exp(n * c) * (1 + n * abs(c)) ** p
        assert entropy_functional(f, p) == pytest.approx(want, rel=1e-12)

    def test_direct_sum_oracle(self, grid8, rng):
        data = rng.uniform(-1, 1, grid8.shape)
        f = ScalarField(grid8, data)
        p, n = 2.5, 2
        direct = grid8.spacing**4 * np.sum(np.exp(n * data) * (1 + n * np.abs(data)) ** p)
        assert entropy_functional(f, p) == pytest.approx(direct, rel=1e-10)

    def test_large_values_no_overflow(self, grid8):
        f = ScalarField.constant(grid8, 200.0)
        assert np.isfinite(entropy_functional(f, 3.0))


class TestMollify:
    def test_zero_sigma_identity(self, grid8, rng):
        g = ScalarField(grid8, rng.standard_normal(grid8.shape))
        out = mollify(g, 0.0)
        assert np.array_equal(out.data, g.data)

    def test_constant_fixed_point(self, grid8):
        g = ScalarField.constant(grid8, 3.3)
        out = mollify(g, 0.17)
        assert np.abs(out.data - 3.3).max() < 1e-12

    def test_integral_and_positivity_preserved(self, grid12):
        bump = gaussian_bump(grid12, amplitude=2.0, width=0.08)
        out = mollify(bump, 3 * grid12.spacing)
        assert integrate(out) == pytest.approx(integrate(bump), rel=1e-10)
        assert out.data.min() >= 0.0

    def test_l1_distance_monotone_in_sigma(self, grid12):
        bump = gaussian_bump(grid12, amplitude=1.0, width=0.05)
        h = grid12.spacing
        dists = [
            integrate(ScalarField(grid12, np.abs(mollify(bump, s).data - bump.data)))
            for s in (h, 2 * h, 4 * h)
        ]
        assert dists[0] < dists[1] < dists[2]

    def test_negative_sigma_rejected(self, grid8):
        with pytest.raises(DomainError):
            mollify(ScalarField.constant(grid8, 1.0), -0.1)
