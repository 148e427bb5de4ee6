"""Solver core: compatibility constants, residuals, Newton steps, continuation."""

from types import SimpleNamespace

import numpy as np
import pytest

from hessianlab import (
    BackgroundData,
    ConeViolationError,
    ConfigError,
    ContinuationSchedule,
    HermitianField,
    NonConvergenceError,
    ScalarField,
    SolverConfig,
    SolverState,
    TorusGrid,
    TrigPolynomial,
    compatibility_constant,
    complex_hessian,
    continuation_degenerate,
    decreasing_sequence,
    degenerate_brackets,
    integrate,
    lq_spike,
    manufactured_solution,
    residual,
    solve_nondegenerate,
    stage_masses,
    wedge_integral,
)
from hessianlab import solver
from hessianlab.solver import _NewtonDriver, _stage_starts, gmres
from hessianlab.symfunc import binom, hermitian_to_planes, planes_kernel, planes_to_hermitian

from conftest import anisotropic_spd, random_hermitian, random_spd


def count_matvecs(monkeypatch) -> list:
    """A list that gains one entry per Krylov matvec (``apply_stencil`` call)."""
    calls = []
    apply_stencil = _NewtonDriver.apply_stencil

    def counting(self, coeff, v_data):
        calls.append(1)
        return apply_stencil(self, coeff, v_data)

    monkeypatch.setattr(_NewtonDriver, "apply_stencil", counting)
    return calls


def constant_planes(grid, matrix):
    """Planes (n * n, num_points) of the constant Hermitian field ``matrix``."""
    return HermitianField.constant(grid, matrix).data.reshape(grid.n ** 2, -1)


def rough_density(grid):
    """Trig data rough enough that the first full Newton step from zero leaves the cone."""
    return TrigPolynomial.random(grid.n, np.random.default_rng(0), amplitude=2.0).sample(grid)


def make_manufactured(grid, bg, t, m, curvature=0.6, seed=7, discrete=True):
    rng = np.random.default_rng(seed)
    trig = TrigPolynomial.random(grid.n, rng).scaled_to_curvature(curvature, grid.period)
    return manufactured_solution(bg, t, m, trig.sample(grid), discrete=discrete)


class TestCompatibilityConstant:
    def test_scaled_metric(self, grid12):
        # chi + kappa omega = omega and t > 0: S_m((1+t) id) gives b = log(1+t)
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = ScalarField.constant(grid12, 0.0)
        masses = stage_masses(bg, 2)
        for t in (0.25, 0.5, 1.0):
            assert compatibility_constant(masses, t, f) == pytest.approx(
                np.log(1.0 + t), rel=1e-12
            )

    def test_matched_normalization(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = ScalarField.constant(grid12, 0.0)
        assert compatibility_constant(stage_masses(bg, 2), 0.0, f) == pytest.approx(
            0.0, abs=1e-13)

    def test_normalize_density_shift(self, grid12):
        # the continuation shifts f by the t = 0 constant, after which it is zero
        bg = BackgroundData.flat(grid12, kappa=2.0)
        f = ScalarField.constant(grid12, 0.3)
        masses = stage_masses(bg, 2)
        shift = compatibility_constant(masses, 0.0, f)
        assert shift == pytest.approx(np.log(2.0) - 0.3, rel=1e-12)
        f_norm = ScalarField(grid12, f.data + shift)
        assert compatibility_constant(masses, 0.0, f_norm) == pytest.approx(0.0, abs=1e-12)

    def test_brackets_random_background(self, grid12):
        bg = BackgroundData.flat(
            grid12, chi_matrix=np.diag([0.6, 0.1]), kappa=1.3
        )
        masses = stage_masses(bg, 2)
        for t in (1.0, 0.25, 2.0**-8):
            lower, mid, upper = degenerate_brackets(masses, t)
            assert lower - 1e-9 <= mid <= upper + 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_brackets_match_wedge_integrals(self, n):
        # chi_tilde = kappa omega, so its n-th power has kappa^n times the
        # omega^n mass; the oracle integrates the stored-form wedge products,
        # each divided by the omega^n mass
        rng = np.random.default_rng(40 + n)
        grid = TorusGrid(n=n, points_per_axis=6 if n == 2 else 4, period=1.3)
        omega = anisotropic_spd(rng, n)
        shape = grid.shape + (n, n)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        chi = HermitianField.from_matrices(grid, 2.0 * omega + 0.05 * np.abs(omega).min() * noise)
        kappa, m = 0.7, 2
        bg = BackgroundData(omega=omega, chi=chi, kappa=kappa)
        f = TrigPolynomial.random(n, rng, amplitude=0.2, max_mode=1).sample(grid)

        def wedge_power(scale):
            return wedge_integral(bg, HermitianField.constant(grid, scale * omega), n)

        omega_mass = wedge_power(1.0)
        masses = stage_masses(bg, m)
        lower, _, _ = degenerate_brackets(masses, 1.0)
        base = wedge_integral(bg, bg.base_form(1.0), m) / omega_mass
        assert lower == pytest.approx(wedge_power(kappa) / omega_mass / base ** (n / m),
                                      rel=1e-13)
        f_norm = ScalarField(grid, f.data + compatibility_constant(masses, 0.0, f))
        for t in (1.0, 0.25, 2.0**-8):
            b_t = compatibility_constant(masses, t, f_norm)
            _, mid, _ = degenerate_brackets(masses, t)
            assert mid == pytest.approx(
                wedge_power(kappa + t) / omega_mass / np.exp(n * b_t), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stage_masses_match_wedge_integrals(self, n):
        # the stage masses are a polynomial in kappa + t over the moments of
        # chi; the oracle integrates S_m of each base form directly and divides
        # by the omega^n mass, here for a chi with varying complex
        # off-diagonal entries, outside the cone
        rng = np.random.default_rng(50 + n)
        grid = TorusGrid(n=n, points_per_axis=6 if n == 2 else 4, period=1.3)
        omega = anisotropic_spd(rng, n)
        shape = grid.shape + (n, n)
        off = np.triu(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 1)
        noise = 0.3 * np.linalg.eigvalsh(omega)[0] * (off + np.conj(off.swapaxes(-1, -2)))
        chi = HermitianField.from_matrices(grid, noise - 0.2 * omega)
        bg = BackgroundData(omega=omega, chi=chi, kappa=0.7)
        S, _ = planes_kernel(bg.chi.data, bg.omega_inv, 1)
        assert S[..., 1].min() < 0
        f = TrigPolynomial.random(n, rng, amplitude=0.2, max_mode=1).sample(grid)
        omega_mass = wedge_integral(bg, HermitianField.constant(grid, omega), n)
        for m in range(1, n + 1):
            def wedge(t):
                return wedge_integral(bg, bg.base_form(t), m) / omega_mass

            def b_oracle(t):
                density = integrate(ScalarField(grid, np.exp(m * f.data)), bg.volume)
                return np.log(wedge(t) / (density / omega_mass)) / m

            masses = stage_masses(bg, m)
            assert masses.mu[0] == 1.0
            for t in (1.0, 0.25, 2.0**-8, 0.0):
                assert masses.at(t) == pytest.approx(wedge(t), rel=1e-13)
                assert compatibility_constant(masses, t, f) == pytest.approx(
                    b_oracle(t), rel=1e-13, abs=1e-13)
            lower, _, upper = degenerate_brackets(masses, 1.0)
            assert lower == pytest.approx(bg.kappa**n / wedge(1.0) ** (n / m), rel=1e-13)
            assert upper == pytest.approx(wedge(0.0) ** (n / m), rel=1e-13)


class TestResidual:
    def test_constant_solution(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = ScalarField.constant(grid12, 0.0)
        r = residual(ScalarField.constant(grid12, 0.0), np.log(1.5), bg, 0.5, f, 2)
        assert np.abs(r.data).max() < 1e-12

    def test_manufactured_closes_loop(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        r = residual(phi_star, 0.0, bg, 0.5, f_star, 2)
        assert np.abs(r.data).max() < 1e-12

    def test_cone_violation_reports_point(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=0.0)  # base form is t * omega only
        f = ScalarField.constant(grid12, 0.0)
        spike = np.zeros(grid12.shape)
        spike[2, 3, 4, 5] = -1.0  # deep dent: hessian pushes eigenvalues negative
        with pytest.raises(ConeViolationError) as err:
            residual(ScalarField(grid12, spike), 0.0, bg, 0.05, f, 2)
        assert len(err.value.point) == 4 and all(type(k) is int for k in err.value.point)
        assert err.value.margin < 0

    def test_linearization_order(self, grid12, rng):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        direction = TrigPolynomial.random(2, rng, amplitude=1.0).sample(grid12)
        driver = _NewtonDriver(bg, SolverConfig(m=2))
        analysis = driver.analyze(phi_star.data, driver.stage(0.5, f_star))
        coeff = driver.stencil_coefficients(analysis["a_over_s"])
        lin = driver.apply_stencil(coeff, direction.data).reshape(grid12.shape)
        errs = []
        eps_list = [2e-3, 1e-3, 5e-4]
        for eps in eps_list:
            up = ScalarField(grid12, phi_star.data + eps * direction.data)
            dn = ScalarField(grid12, phi_star.data - eps * direction.data)
            quotient = (
                residual(up, 0.0, bg, 0.5, f_star, 2).data
                - residual(dn, 0.0, bg, 0.5, f_star, 2).data
            ) / (2 * eps)
            errs.append(np.abs(quotient - lin).max())
        orders = [
            np.log(errs[i] / errs[i + 1]) / np.log(eps_list[i] / eps_list[i + 1])
            for i in range(2)
        ]
        assert min(orders) >= 1.9


class TestKrylovOperators:
    def test_loop_planes_equal_complex_hessian_entries(self, rng, grid12):
        # X = base form + complex Hessian, summed in the Newton loop and as
        # HermitianField planes outside it, agrees to the bit
        omega = anisotropic_spd(rng, 2)
        bg = BackgroundData(omega=omega, kappa=1.0, chi=HermitianField.constant(
            grid12, 0.1 * random_spd(rng, 2)))
        phi = TrigPolynomial.random(2, rng, amplitude=0.01).sample(grid12)
        driver = _NewtonDriver(bg, SolverConfig(m=2))
        stage = driver.stage(0.5, ScalarField.constant(grid12, 0.0))
        want = bg.base_form(0.5).data + complex_hessian(phi).data
        assert np.array_equal(driver.analyze(phi.data, stage)["x"], want.reshape(4, -1))

    @pytest.mark.parametrize("n, N", [(2, 6), (3, 4)])
    def test_stencil_matches_complex_hessian_trace(self, rng, n, N):
        grid = TorusGrid(n=n, points_per_axis=N)
        bg = BackgroundData.flat(grid, kappa=1.0)
        driver = _NewtonDriver(bg, SolverConfig(m=2))
        a = np.stack([random_hermitian(rng, n) for _ in range(grid.num_points)])
        a = a.reshape(grid.shape + (n, n))
        v = rng.standard_normal(grid.shape)
        want = np.einsum("...ij,...ji->...", a,
                         planes_to_hermitian(complex_hessian(ScalarField(grid, v)).data)).real
        got = driver.apply_stencil(
            driver.stencil_coefficients(hermitian_to_planes(a).reshape(n * n, -1)), v)
        assert np.abs(got.reshape(grid.shape) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n, N", [(2, 6), (3, 4)])
    def test_preconditioner_inverts_constant_coefficients(self, rng, n, N):
        # with a constant diagonal a_over_s, c I or anisotropic, the
        # mean-diagonal model operator is the operator itself
        grid = TorusGrid(n=n, points_per_axis=N)
        bg = BackgroundData.flat(grid, kappa=1.0)
        driver = _NewtonDriver(bg, SolverConfig(m=2))
        for diag in ([0.7] * n, {2: [0.3, 1.7], 3: [0.2, 1.0, 3.0]}[n]):
            matvec, precondition = driver.krylov_operators(constant_planes(grid, np.diag(diag)))
            v = rng.standard_normal(grid.num_points)
            v -= v.mean()
            assert np.abs(precondition(matvec(v)) - v).max() <= 1e-12 * np.abs(v).max()

    def test_constant_anisotropic_solve_takes_one_matvec(self, rng, monkeypatch):
        # GMRES converges in one iteration: its start M^-1 rhs is the
        # solution, so it returns after the start's residual matvec
        grid = TorusGrid(n=2, points_per_axis=6)
        driver = _NewtonDriver(BackgroundData.flat(grid, kappa=1.0), SolverConfig(m=2))
        a_over_s = constant_planes(grid, np.diag([0.3, 1.7]))
        rhs = rng.standard_normal(grid.shape)
        matvecs = count_matvecs(monkeypatch)
        dphi = driver.solve_linear(a_over_s, rhs, 1e-10)
        assert len(matvecs) == 1
        matvec, _ = driver.krylov_operators(a_over_s)
        want = rhs.ravel() - rhs.mean()
        assert np.linalg.norm(matvec(dphi.ravel()) - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("diag", [[1.0, 0.0], [0.0, 0.0]])
    def test_zero_diagonal_plane_gives_finite_operators(self, rng, diag):
        # the floored weights and trace divide by no zero
        grid = TorusGrid(n=2, points_per_axis=6)
        driver = _NewtonDriver(BackgroundData.flat(grid, kappa=1.0), SolverConfig(m=2))
        v = rng.standard_normal(grid.num_points)
        with np.errstate(all="raise"):
            matvec, precondition = driver.krylov_operators(constant_planes(grid, np.diag(diag)))
            out = precondition(matvec(v))
            assert np.all(np.isfinite(precondition(v))) and np.all(np.isfinite(out))

    def test_spike_work_counts(self, monkeypatch):
        # the rough spike density of the verify benchmark at N = 8: Newton
        # steps as with the mean-scaled FFT preconditioner (8); the right-
        # preconditioned GMRES started at the preconditioned right-hand side
        # takes 57 matvecs on the projected system at the forcing cap 5e-2
        # (68 at 1e-2, 70 on the bordered system, 91 with left-preconditioned lgmres)
        grid = TorusGrid(n=2, points_per_axis=8)
        bg = BackgroundData.flat(grid, kappa=1.0)
        matvecs = count_matvecs(monkeypatch)
        _, record = solve_nondegenerate(bg, 0.25, lq_spike(grid, q=2.0), SolverConfig(m=2))
        assert record.iters == 8
        assert len(matvecs) <= 57

    def test_anisotropic_work_counts(self, monkeypatch):
        # chi = diag(8, 0) makes a_over_s anisotropic: the mean-diagonal
        # preconditioner takes 7 matvecs in 4 Newton steps (38 with its trace alone)
        grid = TorusGrid(n=2, points_per_axis=8)
        bg = BackgroundData.flat(grid, chi_matrix=np.diag([8.0, 0.0]), kappa=0.1)
        f = TrigPolynomial.random(2, np.random.default_rng(3), amplitude=0.3).sample(grid)
        matvecs = count_matvecs(monkeypatch)
        _, record = solve_nondegenerate(bg, 0.05, f, SolverConfig(m=2))
        assert record.iters == 4
        assert len(matvecs) <= 10

    def test_krylov_solution_meets_forcing(self, monkeypatch):
        # GMRES stops on its Givens residual estimate; at every Newton step of
        # the spike solve and of an n = 3 solve the returned dphi meets the
        # projected system to rtol ||rhs||, the inexact-Newton forcing.  With
        # db = mean(L dphi) / m the bordered system of (dphi, db), whose
        # last row is mean(dphi) = 0, has the same residual
        spike_grid, grid3 = TorusGrid(n=2, points_per_axis=8), TorusGrid(n=3, points_per_axis=6)
        bg3 = BackgroundData.flat(grid3, kappa=1.0)
        trig = TrigPolynomial.random(3, np.random.default_rng(2)).scaled_to_curvature(0.5)
        _, f3, _ = manufactured_solution(bg3, 0.5, 2, trig.sample(grid3), discrete=True)
        problems = [(BackgroundData.flat(spike_grid, kappa=1.0), 0.25,
                     lq_spike(spike_grid, q=2.0), 8), (bg3, 0.5, f3, 3)]
        solves = []
        solve_linear = _NewtonDriver.solve_linear

        def recording(self, a_over_s, rhs_field, rtol):
            dphi = solve_linear(self, a_over_s, rhs_field, rtol)
            solves.append((self, a_over_s, rhs_field, rtol, dphi))
            return dphi

        monkeypatch.setattr(_NewtonDriver, "solve_linear", recording)
        for bg, t, f, steps in problems:
            solves.clear()
            solve_nondegenerate(bg, t, f, SolverConfig(m=2))
            assert len(solves) == steps
            for driver, a_over_s, rhs_field, rtol, dphi in solves:
                matvec, _ = driver.krylov_operators(a_over_s)
                rhs = rhs_field.ravel()
                projected = np.linalg.norm(matvec(dphi.ravel()) - rhs)
                assert projected <= rtol * np.linalg.norm(rhs)
                assert abs(dphi.mean()) <= 1e-15 * np.abs(dphi).max()
                lin = driver.apply_stencil(driver.stencil_coefficients(a_over_s), dphi)
                db = lin.mean() / driver.m
                bordered = np.append(lin - driver.m * db - rhs, dphi.mean())
                assert np.linalg.norm(bordered) == pytest.approx(projected, rel=1e-9)


def bordered_system(rng, size=40):
    """A random nonsymmetric block with a mean row and a constant column border."""
    A = np.zeros((size + 1, size + 1))
    A[:size, :size] = 4.0 * np.eye(size) + rng.standard_normal((size, size)) / np.sqrt(size)
    A[:size, size] = -2.0
    A[size, :size] = 1.0 / size
    return A, rng.standard_normal(size + 1)


def counted(mat, calls=None):
    """An operator applying mat; appends to calls (if given) per application."""
    def matvec(v):
        if calls is not None:
            calls.append(1)
        return mat @ v
    return SimpleNamespace(matvec=matvec)


class TestGmres:
    @pytest.mark.parametrize("precond", ["identity", "jacobi"])
    def test_matches_dense_solve(self, rng, precond):
        A, b = bordered_system(rng)
        diag = np.diag(A).copy()
        diag[-1] = 1.0
        M = np.eye(len(b)) if precond == "identity" else np.diag(1.0 / diag)
        x, info = gmres(counted(A), b, np.zeros_like(b), counted(M),
                        rtol=1e-10, maxiter=20)
        assert info == 0
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
        want = np.linalg.solve(A, b)
        assert np.abs(x - want).max() <= 1e-8 * np.abs(want).max()

    def test_restarts(self, rng, monkeypatch):
        monkeypatch.setattr(solver, "KRYLOV_RESTART", 4)
        A, b = bordered_system(rng)
        calls = []
        x, info = gmres(counted(A, calls), b, np.zeros_like(b), counted(np.eye(len(b))),
                        rtol=1e-10, maxiter=50)
        assert info == 0
        assert len(calls) > 2 * (4 + 1)
        want = np.linalg.solve(A, b)
        assert np.abs(x - want).max() <= 1e-8 * np.abs(want).max()

    def test_cycle_cap_reports_not_converged(self, rng, monkeypatch):
        monkeypatch.setattr(solver, "KRYLOV_RESTART", 2)
        A, b = bordered_system(rng)
        x, info = gmres(counted(A), b, np.zeros_like(b), counted(np.eye(len(b))),
                        rtol=1e-10, maxiter=1)
        assert info == 1
        assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)

    def test_exact_preconditioner_breaks_down_happily(self, rng):
        # with M = A^-1 the first Arnoldi step spans the solution
        A, b = bordered_system(rng)
        calls = []
        x, info = gmres(counted(A, calls), b, np.zeros_like(b), counted(np.linalg.inv(A)),
                        rtol=1e-10, maxiter=20)
        assert info == 0
        assert len(calls) == 2
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
        # an exactly invariant start vector: h_{1,0} == 0 even at rtol = 0
        x, info = gmres(counted(3.0 * np.eye(5)), np.eye(5)[0], np.zeros(5),
                        counted(np.eye(5)), rtol=0.0, maxiter=1)
        assert info == 0
        assert np.array_equal(x, np.eye(5)[0] / 3.0)

    def test_consistent_singular_system(self, rng):
        # A = Pi B Pi, Pi removing the mean, has the constants as null space
        # and the mean-zero vectors as range, which meet only at 0: on a
        # mean-zero b, the Newton correction's case, GMRES stays in the range
        size = 40
        proj = np.eye(size) - 1.0 / size
        B = 4.0 * np.eye(size) + rng.standard_normal((size, size)) / np.sqrt(size)
        A = proj @ B @ proj
        assert np.allclose(A @ np.ones(size), 0.0)
        b = proj @ rng.standard_normal(size)
        x, info = gmres(counted(A), b, np.zeros(size), counted(np.eye(size)),
                        rtol=1e-10, maxiter=20)
        assert info == 0
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
        assert abs(x.mean()) <= 1e-12 * np.abs(x).max()

    def test_solution_start_takes_one_matvec(self, rng):
        A, b = bordered_system(rng)
        x0 = np.linalg.solve(A, b)
        calls = []
        x, info = gmres(counted(A, calls), b, x0, counted(np.eye(len(b))),
                        rtol=1e-8, maxiter=20)
        assert (info, len(calls)) == (0, 1)
        assert np.array_equal(x, x0)


class TestNewtonStep:
    def test_fixed_point(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        cfg = SolverConfig(m=2)
        state, _ = solve_nondegenerate(bg, 0.5, f_star, cfg)
        driver = _NewtonDriver(bg, cfg)
        analysis = driver.analyze(state.phi.data, driver.stage(0.5, f_star))
        phi, analysis, _ = driver.step(state.phi.data, analysis)
        assert np.abs(phi - state.phi.data).max() < 1e-12
        assert abs(analysis["b"] - state.b) < 1e-12

    def test_quadratic_tail(self):
        grid = TorusGrid(n=2, points_per_axis=16)
        bg = BackgroundData.flat(grid, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid, bg, 0.5, 2, curvature=0.8)
        cfg = SolverConfig(m=2)
        _, record = solve_nondegenerate(bg, 0.5, f_star, cfg)
        hist = record.residual_history
        tail = [(a, b) for a, b in zip(hist, hist[1:]) if a < 1e-2]
        assert tail, "no Newton iterates entered the quadratic regime"
        for r_k, r_next in tail:
            assert r_next <= 10.0 * r_k**2

    def test_safeguard_engages_on_huge_step(self, grid12):
        # on rough data the full first step from zero overshoots the cone;
        # the line search must halve back and the accepted iterate keep its margin
        bg = BackgroundData.flat(grid12, kappa=1.0)
        driver = _NewtonDriver(bg, SolverConfig(m=2))
        phi = np.zeros(grid12.shape)
        phi_new, post, step_size = driver.step(
            phi, driver.analyze(phi, driver.stage(0.5, rough_density(grid12))))
        assert step_size == 0.25
        assert post["worst"] >= solver.CONE_MARGIN
        assert np.isfinite(post["b"]) and np.all(np.isfinite(phi_new))

    def test_damping_floor_raises(self, grid12, monkeypatch):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        monkeypatch.setattr(solver, "CONE_MARGIN", 1e9)  # unattainable safeguard
        driver = _NewtonDriver(bg, SolverConfig(m=2))
        phi = np.zeros(grid12.shape)
        analysis = driver.analyze(phi, driver.stage(0.5, f_star))
        with pytest.raises(NonConvergenceError) as err:
            driver.step(phi, analysis)
        assert "residual_sup" in err.value.diagnostics

    @pytest.mark.parametrize("data, steps", [("manufactured", 3), ("rough", 1)])
    def test_step_analysis_matches_fresh_analyze(self, grid12, data, steps):
        # step builds the new iterate's analysis from the accepted line-search
        # trial; it must agree with analyzing the new iterate from scratch
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = (make_manufactured(grid12, bg, 0.5, 2)[1] if data == "manufactured"
             else rough_density(grid12))
        driver = _NewtonDriver(bg, SolverConfig(m=2))
        stage = driver.stage(0.5, f)
        phi = np.zeros(grid12.shape)
        analysis = driver.analyze(phi, stage)
        for _ in range(steps):
            phi, analysis, step_size = driver.step(phi, analysis)
            fresh = driver.analyze(phi, stage)
            pairs = {key: (analysis[key], fresh[key])
                     for key in ("x", "b", "residual", "a_over_s")}
            pairs["S"] = (driver.eigen(analysis["x"])[0], driver.eigen(fresh["x"])[0])
            for key, (got, want) in pairs.items():
                # relative, floored at 1: near convergence the log-residual
                # is itself at roundoff, the scale newton_tol is set on
                scale = max(np.abs(want).max(), 1.0)
                assert np.abs(got - want).max() <= 1e-10 * scale, key
            assert analysis["worst"] == pytest.approx(fresh["worst"], rel=1e-10)
        if data == "rough":
            assert step_size < 1.0  # the line search backtracked

    def test_solve_evaluates_each_iterate_once(self, grid12, monkeypatch):
        # one analyze for the start; afterwards every kernel call is a
        # line-search trial, and a step accepted at size s halved the full
        # step log2(1 / s) times, so it made 1 + that trials
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        cfg = SolverConfig(m=2)
        calls = {"eigen": 0, "analyze": 0}
        step_sizes = []
        eigen, analyze, step = (_NewtonDriver.eigen, _NewtonDriver.analyze,
                                _NewtonDriver.step)

        def counting_eigen(self, x_data):
            calls["eigen"] += 1
            return eigen(self, x_data)

        def counting_analyze(self, *args, **kwargs):
            calls["analyze"] += 1
            return analyze(self, *args, **kwargs)

        def recording_step(self, *args, **kwargs):
            out = step(self, *args, **kwargs)
            step_sizes.append(out[2])
            return out

        monkeypatch.setattr(_NewtonDriver, "eigen", counting_eigen)
        monkeypatch.setattr(_NewtonDriver, "analyze", counting_analyze)
        monkeypatch.setattr(_NewtonDriver, "step", recording_step)
        _, record = solve_nondegenerate(bg, 0.5, f_star, cfg)
        trials = sum(1 + round(np.log2(1.0 / s)) for s in step_sizes)
        assert record.iters == len(step_sizes) > 0
        assert calls["analyze"] == 1
        assert calls["eigen"] == 1 + trials


class TestOneDriverPerProblem:
    """The stage is an argument: a driver holds only the fixed data of (bg, config)."""

    def test_driver_checks_chi_once(self, monkeypatch):
        # the driver takes chi's margin from bg.validate, which rejects a chi
        # off the closed cone; a continuation checks chi only through its driver
        grid = TorusGrid(n=2, points_per_axis=6)
        off_cone = BackgroundData.flat(grid, chi_matrix=np.diag([-0.5, 0.0]), kappa=1.0)
        with pytest.raises(ConeViolationError, match="chi leaves the closed degree-2 cone"):
            _NewtonDriver(off_cone, SolverConfig(m=2))
        validate, calls = BackgroundData.validate, []
        monkeypatch.setattr(BackgroundData, "validate",
                            lambda self, m: calls.append(m) or validate(self, m))
        bg = BackgroundData.flat(grid, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        continuation_degenerate(bg, ScalarField.constant(grid, 0.0),
                                ContinuationSchedule.default(2), SolverConfig(m=2))
        assert calls == [2]

    def test_driver_attributes_unchanged_by_solve_analyze_and_step(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        _, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        driver = _NewtonDriver(bg, SolverConfig(m=2))
        before = dict(vars(driver))
        arrays = {k: v.copy() for k, v in before.items() if isinstance(v, np.ndarray)}
        driver.solve(0.5, f_star)
        phi = np.zeros(grid12.shape)
        driver.step(phi, driver.analyze(phi, driver.stage(0.25, rough_density(grid12))))
        assert vars(driver).keys() == before.keys()
        assert all(vars(driver)[key] is value for key, value in before.items())
        assert all(np.array_equal(before[key], value) for key, value in arrays.items())

    def test_step_unchanged_by_a_solve_at_another_stage(self, grid12):
        # a stage-0.5 step taken after a stage-0.125 solve on the same driver
        # equals the step of a driver that never solved
        bg = BackgroundData.flat(grid12, kappa=1.0)
        _, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        cfg = SolverConfig(m=2)
        phi = np.zeros(grid12.shape)
        fresh = _NewtonDriver(bg, cfg)
        want = fresh.step(phi, fresh.analyze(phi, fresh.stage(0.5, f_star)))
        driver = _NewtonDriver(bg, cfg)
        analysis = driver.analyze(phi, driver.stage(0.5, f_star))
        driver.solve(0.125, rough_density(grid12))
        got = driver.step(phi, analysis)
        assert np.array_equal(got[0], want[0]) and got[2] == want[2]
        for key in ("x", "residual", "a_over_s", "b", "worst"):
            assert np.array_equal(got[1][key], want[1][key]), key

class TestSolve:
    def test_constant_case(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = ScalarField.constant(grid12, 0.0)
        cfg = SolverConfig(m=2)
        state, record = solve_nondegenerate(bg, 0.5, f, cfg)
        assert np.abs(state.phi.data).max() == 0.0
        assert state.b == pytest.approx(np.log(1.5), rel=1e-12)
        assert record.iters == 0

    def test_manufactured_convergence_order(self):
        rng = np.random.default_rng(11)
        trig = TrigPolynomial.random(2, rng).scaled_to_curvature(0.6)
        cfg = SolverConfig(m=2)
        errs = {}
        for points in (8, 16):
            grid = TorusGrid(n=2, points_per_axis=points)
            bg = BackgroundData.flat(grid, kappa=1.0)
            phi_star, f_star, _ = manufactured_solution(
                bg, 0.5, 2, trig.sample(grid), discrete=False
            )
            state, _ = solve_nondegenerate(bg, 0.5, f_star, cfg)
            errs[points] = np.abs(state.phi.data - phi_star.data).max()
        assert 3.0 <= errs[8] / errs[16] <= 5.0

    def test_initial_cone_violation(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=0.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2, curvature=0.25)
        cfg = SolverConfig(m=2)
        bad_start = ScalarField(grid12, -40.0 * np.abs(phi_star.data))
        with pytest.raises(ConeViolationError):
            solve_nondegenerate(bg, 0.02, f_star, cfg, warm_start=bad_start)

    def test_nonconvergence_cap(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        cfg = SolverConfig(m=2, max_newton=1)
        with pytest.raises(NonConvergenceError) as err:
            solve_nondegenerate(bg, 0.5, f_star, cfg)
        assert "residual_history" in err.value.diagnostics

    def test_iterate_invariants(self, grid12):
        # ellipticity, Maclaurin consistency and integral compatibility at
        # the converged iterate
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        cfg = SolverConfig(m=2)
        state, _ = solve_nondegenerate(bg, 0.5, f_star, cfg)
        driver = _NewtonDriver(bg, cfg)
        analysis = driver.analyze(state.phi.data, driver.stage(0.5, f_star))
        coeff_eigs = np.linalg.eigvalsh(planes_to_hermitian(analysis["a_over_s"]))
        assert coeff_eigs[..., 0].min() > 0.0

        S, _ = driver.eigen(analysis["x"])
        n, m = 2, 2
        f_op = (S[..., m] / binom(n, m)) ** (1.0 / m)
        s1_mean = S[..., 1] / n
        assert np.all(f_op <= s1_mean + 1e-11)

        vol = bg.volume
        lhs = float(
            np.sum(S[..., m] * vol) * grid12.spacing ** (2 * grid12.n)
        )
        rhs = binom(n, m) * np.exp(m * state.b) * float(
            np.sum(np.exp(m * f_star.data) * vol)
            * grid12.spacing ** (2 * grid12.n)
        )
        assert abs(lhs - rhs) / abs(rhs) < 1e-9

    def test_non_identity_metric(self):
        # constant anisotropic omega: the solution form c * omega has unit
        # eigenvalue tuple scaled by c, so phi = 0 and b = log c
        grid = TorusGrid(n=2, points_per_axis=12)
        omega = np.diag([1.0, 2.0])
        bg = BackgroundData.flat(grid, kappa=1.0, omega_matrix=omega)
        f = ScalarField.constant(grid, 0.0)
        state, _ = solve_nondegenerate(bg, 0.5, f, SolverConfig(m=2))
        assert np.abs(state.phi.data).max() == 0.0
        assert state.b == pytest.approx(np.log(1.5), rel=1e-12)
        # and a manufactured recovery through the same anisotropic pencil
        trig = TrigPolynomial.random(2, np.random.default_rng(4)).scaled_to_curvature(0.4)
        phi_star, f_star, _ = manufactured_solution(
            bg, 0.5, 2, trig.sample(grid), discrete=True
        )
        state, _ = solve_nondegenerate(bg, 0.5, f_star, SolverConfig(m=2))
        assert np.abs(state.phi.data - phi_star.data).max() < 1e-10

    def test_potential_generated_chi(self):
        # spatially varying chi built from a potential stays closed, so the
        # solver treats it like any other admissible background
        grid = TorusGrid(n=2, points_per_axis=12)
        rng = np.random.default_rng(8)
        pot = TrigPolynomial.random(2, rng).scaled_to_curvature(0.2).sample(grid)
        bg = BackgroundData.with_potential_chi(
            grid, 0.5 * np.eye(2), pot, kappa=1.0
        )
        bg.validate(2)
        trig = TrigPolynomial.random(2, rng).scaled_to_curvature(0.3)
        phi_star, f_star, _ = manufactured_solution(
            bg, 0.5, 2, trig.sample(grid), discrete=True
        )
        state, _ = solve_nondegenerate(bg, 0.5, f_star, SolverConfig(m=2))
        assert np.abs(state.phi.data - phi_star.data).max() < 1e-10

    @pytest.mark.parametrize("m", [2, 3])
    def test_dimension_three(self, m):
        # n = 3 exercises genuinely off-diagonal mixed entries; m = 3 is
        # the full determinant case
        grid = TorusGrid(n=3, points_per_axis=6)
        bg = BackgroundData.flat(grid, kappa=1.0)
        trig = TrigPolynomial.random(3, np.random.default_rng(m)).scaled_to_curvature(0.5)
        phi_star, f_star, _ = manufactured_solution(
            bg, 0.5, m, trig.sample(grid), discrete=True
        )
        state, _ = solve_nondegenerate(bg, 0.5, f_star, SolverConfig(m=m))
        assert np.abs(state.phi.data - phi_star.data).max() < 1e-10

    def test_sup_normalized(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        state, _ = solve_nondegenerate(bg, 0.5, f_star, SolverConfig(m=2))
        assert state.phi.data.max() == pytest.approx(0.0, abs=1e-14)

    def test_every_solution_has_sup_exactly_zero(self, grid12):
        # a solve returns phi - max(phi), whose max is 0.0 to the bit; the
        # stage records keep inf phi alone on that account
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        cfg = SolverConfig(m=2)
        warm = ScalarField(grid12, phi_star.data + 3.0)
        states = [solve_nondegenerate(bg, 0.5, f, cfg, warm_start=start)[0]
                  for f in (f_star, rough_density(grid12)) for start in (None, warm)]
        degenerate = BackgroundData.flat(grid12, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        states += continuation_degenerate(
            degenerate, f_star, ContinuationSchedule.default(num_stages=4), cfg)[0]
        for state in states:
            assert state.phi.data.max() == 0.0


class TestContinuation:
    def test_trivial_stages(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=2.0)
        f = ScalarField.constant(grid12, 0.0)
        sched = ContinuationSchedule.default(num_stages=5)
        states, report = continuation_degenerate(bg, f, sched, SolverConfig(m=2))
        for t, state in zip(sched.t_values, states):
            assert np.abs(state.phi.data).max() == 0.0
            assert state.b == pytest.approx(np.log((2.0 + t) / 2.0), rel=1e-10)
        assert report.meta["uniformity_pass"]

    def test_manufactured_family(self, grid12, rng):
        bg = BackgroundData.flat(grid12, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        f = TrigPolynomial.random(2, rng, amplitude=0.3).sample(grid12)
        sched = ContinuationSchedule.default(num_stages=8)
        states, report = continuation_degenerate(bg, f, sched, SolverConfig(m=2))
        sups = [-rec.inf_phi for rec in report.stages]
        assert max(sups) <= 3.0 * np.median(sups)
        diffs = decreasing_sequence(states).consecutive_sup_diffs
        assert diffs[-1] < diffs[0]
        assert diffs[-1] < 1e-3
        for rec in report.stages:
            assert rec.bracket_lower - 1e-9 <= rec.bracket_mid <= rec.bracket_upper + 1e-9
            assert rec.margin_min >= 1e-8
        b_vals = [rec.b for rec in report.stages]
        assert all(b2 < b1 for b1, b2 in zip(b_vals, b_vals[1:]))

    def test_brackets_match_per_stage_computation(self, grid12, rng, monkeypatch):
        # the moment table is built once per continuation; every stage must
        # still carry exactly what a per-stage computation gives
        import hessianlab.solver as solver

        bg = BackgroundData.flat(grid12, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        f = TrigPolynomial.random(2, rng, amplitude=0.3).sample(grid12)
        sched = ContinuationSchedule.default(num_stages=3)
        calls = []
        wedge = solver.wedge_integral
        monkeypatch.setattr(solver, "wedge_integral",
                            lambda *args: calls.append(args) or wedge(*args))
        _, report = continuation_degenerate(bg, f, sched, SolverConfig(m=2))
        # one stage_masses table of chi, k = 1..m, serves the shift and the
        # brackets of every stage
        assert [args[1:] for args in calls] == [(bg.chi, 1), (bg.chi, 2)]
        monkeypatch.undo()
        masses = stage_masses(bg, 2)
        shift = compatibility_constant(masses, 0.0, f)
        assert shift == report.meta["mass_shift"]
        f_norm = ScalarField(grid12, f.data + shift)
        for t, rec in zip(sched.t_values, report.stages):
            # f_norm carries the mass masses.at(0), so b_t needs no integral of f
            b_t = float(np.log(masses.at(t) / masses.at(0.0)) / 2)
            assert b_t == pytest.approx(compatibility_constant(masses, t, f_norm),
                                        rel=0, abs=1e-14)
            fresh = degenerate_brackets(masses, t)
            assert (rec.bracket_lower, rec.bracket_mid, rec.bracket_upper) == fresh

    def test_spike_density_survives(self, grid8):
        # rough data: the previous stage's phi lies outside the stage-1 cone
        # (margin about -3.75), so stage 1 falls back to the zero start
        bg = BackgroundData.flat(grid8, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        f = lq_spike(grid8, q=2.0)
        sched = ContinuationSchedule.default()
        cfg = SolverConfig(m=2)
        states, report = continuation_degenerate(bg, f, sched, cfg)
        assert len(states) == len(sched.t_values)
        for rec in report.stages:
            assert rec.residual_history[-1] < cfg.newton_tol
            assert rec.bracket_lower <= rec.bracket_mid <= rec.bracket_upper
        assert decreasing_sequence(states).violation <= 0
        assert [rec.start for rec in report.stages] == ["zero", "zero"] + ["extrapolated"] * 10
        with pytest.raises(ConeViolationError):
            solve_nondegenerate(bg, sched.t_values[1], f, cfg, warm_start=states[0].phi)

    def test_large_first_step_schedule(self):
        # the N = 6 continuation benchmark problem (seed 7) with one big step
        # in t: phi_4 is outside the t = 0.01 cone, so that stage starts at zero
        grid = TorusGrid(n=2, points_per_axis=6)
        bg = BackgroundData.flat(grid, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        f = TrigPolynomial.random(2, np.random.default_rng(9), amplitude=0.3).sample(grid)
        sched = ContinuationSchedule([4.0, 0.01])
        cfg = SolverConfig(m=2)
        states, report = continuation_degenerate(bg, f, sched, cfg)
        assert [rec.start for rec in report.stages] == ["zero", "zero"]
        assert all(rec.residual_history[-1] < cfg.newton_tol for rec in report.stages)
        with pytest.raises(ConeViolationError):
            solve_nondegenerate(bg, 0.01, f, cfg, warm_start=states[0].phi)

    def test_default_schedule_work_count(self, monkeypatch):
        # the problem above on the default 12-stage schedule: the
        # extrapolated starts take at most 15 Newton steps (20 with secants),
        # and their GMRES solves 47 matvecs with the mean-diagonal
        # preconditioner (64 with the trace alone, 84 with left-preconditioned lgmres)
        matvecs = count_matvecs(monkeypatch)
        grid = TorusGrid(n=2, points_per_axis=6)
        bg = BackgroundData.flat(grid, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        f = TrigPolynomial.random(2, np.random.default_rng(9), amplitude=0.3).sample(grid)
        cfg = SolverConfig(m=2)
        _, report = continuation_degenerate(bg, f, ContinuationSchedule.default(), cfg)
        assert [rec.start for rec in report.stages[2:]] == ["extrapolated"] * 10
        assert all(rec.residual_history[-1] < cfg.newton_tol for rec in report.stages)
        assert sum(rec.iters for rec in report.stages) <= 15
        assert len(matvecs) <= 50

    @pytest.mark.parametrize("degree", range(5))
    def test_extrapolation_reproduces_polynomials(self, grid8, rng, degree):
        # on a non-geometric schedule the start of stage i interpolates the
        # last min(i, 5) stages, so it is exact for fields of degree < i in t
        ts = [1.0, 0.83, 0.61, 0.5, 0.37, 0.2, 0.11, 0.04, 0.013]
        coeffs = rng.standard_normal((degree + 1,) + grid8.shape)

        def field(t):
            return ScalarField(grid8, sum(c * t**d for d, c in enumerate(coeffs)))

        states = [SimpleNamespace(phi=field(t)) for t in ts]
        for i in range(max(2, degree + 1), len(ts)):
            name, start = _stage_starts(states[:i], ts, i)[0]
            want = field(ts[i]).data
            assert name == "extrapolated"
            assert np.abs(start - want).max() <= 1e-12 * np.abs(want).max()

    def test_failed_extrapolation_falls_back_to_warm(self, monkeypatch):
        # an extrapolated start whose solve raises NonConvergenceError hands
        # over to the warm start, which reaches the same solutions
        grid = TorusGrid(n=2, points_per_axis=6)
        bg = BackgroundData.flat(grid, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        f = TrigPolynomial.random(2, np.random.default_rng(9), amplitude=0.3).sample(grid)
        sched = ContinuationSchedule.default(num_stages=5)
        cfg = SolverConfig(m=2)
        states, _ = continuation_degenerate(bg, f, sched, cfg)
        solve = _NewtonDriver.solve
        tried = []

        def failing_first_try(self, t, *args):
            # the first try of stages 2 on is the extrapolated start
            tried.append(t)
            if t in sched.t_values[2:] and tried.count(t) == 1:
                raise NonConvergenceError("injected", diagnostics={})
            return solve(self, t, *args)

        monkeypatch.setattr(_NewtonDriver, "solve", failing_first_try)
        fallback_states, report = continuation_degenerate(bg, f, sched, cfg)
        assert [rec.start for rec in report.stages] == ["zero"] + ["warm"] * 4
        assert len(tried) == len(sched.t_values) + 3
        for state, fallback in zip(states, fallback_states):
            assert np.abs(state.phi.data - fallback.phi.data).max() <= 1e-10
            assert fallback.b == pytest.approx(state.b, abs=1e-10)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["newton_tol"])
    def test_non_finite_solver_config_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            SolverConfig(m=2, **{name: value})

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            ContinuationSchedule([])
        with pytest.raises(ConfigError):
            ContinuationSchedule([0.5, 0.5])
        with pytest.raises(ConfigError):
            ContinuationSchedule([1.0, -0.5])

    @pytest.mark.parametrize("kwargs, name", [
        ({"t_values": [1.0, np.nan, 0.25]}, "t_values"),
        ({"t_values": [np.inf, 0.5]}, "t_values"),
        ({"t_values": [2.0**-i for i in range(solver.MAX_STAGES + 1)]}, "t_values"),
    ])
    def test_schedule_names_bad_value(self, kwargs, name):
        with pytest.raises(ConfigError, match=name):
            ContinuationSchedule(**kwargs)

    @pytest.mark.parametrize("ratio", [1e308, 1.0, 0.0, np.nan])
    def test_default_schedule_names_ratio(self, ratio):
        with pytest.raises(ConfigError, match="ratio"):
            ContinuationSchedule.default(num_stages=3, ratio=ratio)

    @pytest.mark.parametrize("name, value", [("max_newton", -1),
                                             ("max_newton", solver.MAX_NEWTON + 1)])
    def test_iteration_caps_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            SolverConfig(m=2, **{name: value})

    def test_nan_stage_parameter_rejected(self, grid8):
        bg = BackgroundData.flat(grid8, kappa=1.0)
        with pytest.raises(ConfigError, match="t must be positive"):
            solve_nondegenerate(bg, np.nan, ScalarField.constant(grid8, 0.0), SolverConfig(m=2))

    def test_mollified_solves_self_consistent(self, grid12):
        # rough right-hand side: solutions for shrinking smoothing widths
        # approach each other, the stability trend for vanishing data gaps
        from hessianlab import lq_spike, mollify

        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = lq_spike(grid12, q=2.0, cap=50.0)
        shift = compatibility_constant(stage_masses(bg, 2), 0.0, f)
        h = grid12.spacing
        cfg = SolverConfig(m=2)
        solutions = []
        for sigma in (4 * h, 2 * h, h):
            density = ScalarField(grid12, np.exp(2 * (f.data + shift)))
            smooth = mollify(density, sigma)
            f_sigma = ScalarField(grid12, np.log(smooth.data) / 2)
            state, _ = solve_nondegenerate(bg, 0.5, f_sigma, cfg)
            solutions.append(state.phi.data)
        gaps = [
            np.abs(solutions[i + 1] - solutions[i]).max() for i in range(2)
        ]
        assert gaps[1] < gaps[0]


class TestDecreasingSequence:
    def test_identical_states(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = ScalarField.constant(grid12, 0.0)
        state, _ = solve_nondegenerate(bg, 0.5, f, SolverConfig(m=2))
        result = decreasing_sequence([state, state, state])
        assert not result.adjusted
        for a, b in zip(result.fields, result.fields[1:]):
            assert np.all(b.data <= a.data)

    def test_two_stage_minimal_constant(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = ScalarField.constant(grid12, 0.0)
        state, _ = solve_nondegenerate(bg, 0.5, f, SolverConfig(m=2))
        import copy

        lifted = copy.deepcopy(state)
        d = 0.125
        lifted.phi = ScalarField(grid12, state.phi.data + d)
        # psi_1 = phi_1 + C/2 <= psi_0 = phi_0 + C requires C >= 2 d
        result = decreasing_sequence([state, lifted])
        assert result.cap_constant == pytest.approx(2 * d)
        assert result.violation <= 0.0

    def test_adjusted_constant_orders_the_fields_exactly(self):
        # the adjusted constant comes from rounded differences; without
        # rounding them up, 9 % of such stacks fall one ulp short
        grid = TorusGrid(n=2, points_per_axis=4)
        rng = np.random.default_rng(0)
        for _ in range(40):
            data = rng.standard_normal((int(rng.integers(2, 5)),) + grid.shape)
            result = decreasing_sequence([SolverState(ScalarField(grid, d), 0.0)
                                          for d in data])
            assert result.violation == 0.0
            for a, b in zip(result.fields, result.fields[1:]):
                assert np.all(b.data <= a.data)
