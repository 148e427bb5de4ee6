"""Verification experiments: stability, viscosity, uniqueness, monitor, uniformity."""

import numpy as np
import pytest

from hessianlab import (
    BackgroundData,
    DomainError,
    HermitianField,
    ScalarField,
    SolverConfig,
    SolverState,
    TorusGrid,
    TrigPolynomial,
    complex_gradient,
    complex_hessian,
    constant_density,
    eigen_field,
    gaussian_bump,
    integrate,
    laplacian_monitor,
    linf_uniformity_report,
    manufactured_solution,
    solve_nondegenerate,
    stability_experiment,
    stability_floor,
    twin_solve_uniqueness,
    uniqueness_energy,
    viscosity_check,
)
from hessianlab.symfunc import metric_inv_sqrt
from hessianlab.verification import trace_field

from conftest import anisotropic_spd


def make_exact_problem(grid, bg, t=0.25, m=2, curvature=0.5, seed=3):
    rng = np.random.default_rng(seed)
    trig = TrigPolynomial.random(grid.n, rng).scaled_to_curvature(curvature, grid.period)
    return manufactured_solution(bg, t, m, trig.sample(grid), discrete=True)


def anisotropic_background(n, seed):
    """A background on a random complex anisotropic omega with varying chi.

    chi = 2 omega plus a random Hermitian field small enough that the stage
    forms stay inside the degree-2 cone.
    """
    rng = np.random.default_rng(seed)
    grid = TorusGrid(n=n, points_per_axis=6 if n == 2 else 4)
    omega = anisotropic_spd(rng, n)
    noise = rng.standard_normal(grid.shape + (n, n)) + 1j * rng.standard_normal(
        grid.shape + (n, n))
    chi = HermitianField(grid, 2.0 * omega + 0.05 * np.abs(omega).min() * noise)
    bg = BackgroundData(omega=omega, chi=chi,
                        chi_tilde=HermitianField.constant(grid, 0.5 * omega), kappa=0.5)
    return bg, rng


def frame_energy(phi1, phi2, bg, t):
    """Oracle: the uniqueness energy in omega-orthonormal frames.

    With gis = omega^(-1/2) and A = gis alpha gis, the density is
    (tr(A) I - A) contracted with the frame gradients gis^T du.
    """
    gis = metric_inv_sqrt(bg.omega)
    grad = complex_gradient(ScalarField(bg.grid, phi1.data - phi2.data))
    a = gis @ bg.base_form(t).data @ gis
    tensor = np.einsum("...ii->...", a).real[..., None, None] * np.eye(bg.grid.n) - a
    grad_frame = np.einsum("ji,...j->...i", gis, grad)
    density = np.einsum("...ij,...i,...j->...", tensor, grad_frame,
                        np.conj(grad_frame)).real
    return integrate(ScalarField(bg.grid, density), bg.volume)


def dipole_bump(grid, width=0.15):
    L = grid.period
    lo = [0.3 * L] * (2 * grid.n)
    hi = [0.7 * L] * (2 * grid.n)
    return ScalarField(grid, gaussian_bump(grid, 1.0, width, lo).data
                       - gaussian_bump(grid, 1.0, width, hi).data)


class TestStability:
    def test_floor_formula(self):
        assert stability_floor(2, 2.0, 1.0, 0.5) == pytest.approx(2.0 / 11.0)

    def test_zero_perturbation_skips_fit(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = constant_density(grid12, 0.0)
        pert = ScalarField.constant(grid12, 0.0)
        cfg = SolverConfig(m=2)
        result = stability_experiment(bg, 0.25, f, pert, [0.5, 0.25], 2.0, 1.0, cfg)
        assert result.fitted_exponent is None
        assert result.passed
        for rec in result.records:
            assert rec.sup_gap == pytest.approx(0.0, abs=1e-12)

    def test_bump_family_slope_and_monotonicity(self, grid12, rng):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = TrigPolynomial.random(2, rng, amplitude=0.2).sample(grid12)
        pert = dipole_bump(grid12, width=0.15)
        cfg = SolverConfig(m=2)
        scales = [2.0**-k for k in range(3, 7)]
        result = stability_experiment(bg, 0.25, f, pert, scales, 2.0, 1.0, cfg)
        assert not result.partial
        assert result.fitted_exponent >= result.floor - 0.1
        assert np.isfinite(result.required_constant)
        sups = [r.sup_gap for r in result.records]
        assert all(a >= b for a, b in zip(sups, sups[1:]))  # scales decrease
        oscs = [r.centered_gap for r in result.records]
        assert all(a >= b for a, b in zip(oscs, oscs[1:]))

    def test_base_failure_marks_partial(self, grid12, rng):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = TrigPolynomial.random(2, rng, amplitude=0.3).sample(grid12)
        pert = dipole_bump(grid12)
        cfg = SolverConfig(m=2, max_newton=1)
        result = stability_experiment(bg, 0.25, f, pert, [0.125], 2.0, 1.0, cfg)
        assert result.partial
        assert not result.passed

    def test_parallel_matches_serial(self, grid8, rng):
        bg = BackgroundData.flat(grid8, kappa=1.0)
        f = TrigPolynomial.random(2, rng, amplitude=0.2).sample(grid8)
        pert = dipole_bump(grid8)
        cfg = SolverConfig(m=2)
        scales = [0.125, 0.0625]
        serial = stability_experiment(bg, 0.25, f, pert, scales, 2.0, 1.0, cfg)
        threaded = stability_experiment(bg, 0.25, f, pert, scales, 2.0, 1.0, cfg,
                                        max_workers=2)
        for a, b in zip(serial.records, threaded.records):
            assert a.sup_gap == b.sup_gap
            assert a.lq_gap_plus == b.lq_gap_plus


class TestViscosity:
    def test_exact_constant_solution(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = constant_density(grid12, 0.0)
        rep = viscosity_check(ScalarField.constant(grid12, 0.0), np.log(1.5), bg,
                              0.5, f, 2, samples=grid12.num_points)
        assert rep.total_violations == 0

    def test_exact_discrete_solution_zero_violations(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_exact_problem(grid12, bg)
        rep = viscosity_check(phi_star, 0.0, bg, 0.25, f_star, 2,
                              samples=grid12.num_points)
        assert rep.total_violations == 0

    def test_refinement_never_increases_violations(self):
        counts = {}
        rng_seed = 3
        for points in (8, 16):
            grid = TorusGrid(n=2, points_per_axis=points)
            bg = BackgroundData.flat(grid, kappa=1.0)
            phi_star, f_star, _ = make_exact_problem(grid, bg, seed=rng_seed)
            rep = viscosity_check(phi_star, 0.0, bg, 0.25, f_star, 2,
                                  samples=grid.num_points)
            counts[points] = rep.total_violations
        assert counts[16] <= counts[8]

    def test_spike_detected(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_exact_problem(grid12, bg)
        data = phi_star.data.copy()
        data[tuple(s // 2 for s in grid12.shape)] -= 30.0 * grid12.spacing**2
        rep = viscosity_check(ScalarField(grid12, data), 0.0, bg, 0.25, f_star, 2,
                              samples=grid12.num_points)
        assert rep.total_violations >= 1
        assert rep.violation_points

    def test_subsampling_deterministic(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_exact_problem(grid12, bg)
        rep1 = viscosity_check(phi_star, 0.0, bg, 0.25, f_star, 2, samples=100,
                               rng=np.random.default_rng(5))
        rep2 = viscosity_check(phi_star, 0.0, bg, 0.25, f_star, 2, samples=100,
                               rng=np.random.default_rng(5))
        assert rep1.samples == rep2.samples == 100
        assert rep1.to_dict() == rep2.to_dict()


class TestUniquenessEnergy:
    def test_identical_fields(self, grid12, flat_bg):
        phi = gaussian_bump(grid12, amplitude=0.2, width=0.2)
        assert uniqueness_energy(phi, phi, flat_bg) == 0.0

    def test_constant_shift(self, grid12, flat_bg):
        phi = gaussian_bump(grid12, amplitude=0.2, width=0.2)
        shifted = ScalarField(grid12, phi.data + 3.0)
        assert uniqueness_energy(phi, shifted, flat_bg) == pytest.approx(0.0, abs=1e-20)

    def test_nonnegative_and_quadratic(self, grid12, flat_bg, rng):
        zero = ScalarField.constant(grid12, 0.0)
        for _ in range(5):
            u = ScalarField(grid12, rng.standard_normal(grid12.shape))
            e1 = uniqueness_energy(u, zero, flat_bg)
            assert e1 >= 0.0
            u2 = ScalarField(grid12, 3.0 * u.data)
            e2 = uniqueness_energy(u2, zero, flat_bg)
            assert e2 == pytest.approx(9.0 * e1, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_matches_frame_formula(self, n, t):
        bg, rng = anisotropic_background(n, seed=10 * n)
        for _ in range(3):
            phi1 = ScalarField(bg.grid, rng.standard_normal(bg.grid.shape))
            phi2 = ScalarField(bg.grid, rng.standard_normal(bg.grid.shape))
            want = frame_energy(phi1, phi2, bg, t)
            assert want > 0.0
            assert uniqueness_energy(phi1, phi2, bg, t) == pytest.approx(want, rel=1e-12)

    def test_twin_solves_agree(self, grid12, rng):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = TrigPolynomial.random(2, rng, amplitude=0.25).sample(grid12)
        cfg = SolverConfig(m=2)
        energy, sup_diff, state_a, state_b = twin_solve_uniqueness(
            bg, 0.25, f, cfg, rng, noise_amplitude=0.01
        )
        assert energy < 1e-8
        assert sup_diff < 10.0 * cfg.newton_tol
        assert state_a.residual_sup < cfg.newton_tol
        assert state_b.residual_sup < cfg.newton_tol


class TestMonitor:
    def test_constant_state_trace(self, grid12):
        # X = 1.5 omega pointwise: the trace w is exactly n * 1.5
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = constant_density(grid12, 0.0)
        cfg = SolverConfig(m=2)
        state, _ = solve_nondegenerate(bg, 0.5, f, cfg)
        rep = laplacian_monitor(state, bg, 0.5, f, 2)
        assert not rep.skipped
        assert rep.sup_w == pytest.approx(2 * 1.5, rel=1e-13)
        assert rep.A == pytest.approx(1.0)
        assert rep.A * rep.kappa >= 1.0
        assert rep.sup_w <= rep.bound_rhs

    def test_trace_consistency(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_exact_problem(grid12, bg)
        cfg = SolverConfig(m=2)
        state, _ = solve_nondegenerate(bg, 0.25, f_star, cfg)
        w = trace_field(state, bg, 0.25)
        x = HermitianField(grid12, bg.base_form(0.25).data + complex_hessian(state.phi).data)
        s1 = eigen_field(x, bg.omega).sum(axis=-1)
        rel = np.abs(w.data - s1).max() / np.abs(s1).max()
        assert rel < 1e-11
        # a random complex anisotropic omega, against the eigh route
        for n in (2, 3):
            bg, rng = anisotropic_background(n, seed=n)
            phi = ScalarField(bg.grid, 1e-3 * rng.standard_normal(bg.grid.shape))
            state = SolverState(phi=phi, b=0.0, residual_sup=0.0,
                                cone_margin_min=0.0, newton_iters=0)
            for t in (0.0, 0.3):
                w = trace_field(state, bg, t)
                x = HermitianField(bg.grid, bg.base_form(t).data + complex_hessian(phi).data)
                s1 = eigen_field(x, bg.omega).sum(axis=-1)
                assert np.abs(w.data - s1).max() <= 1e-12 * np.abs(s1).max()

    def test_skipped_without_kappa(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=0.0)
        f = constant_density(grid12, 0.0)
        state, _ = solve_nondegenerate(bg, 0.5, f, SolverConfig(m=2))
        rep = laplacian_monitor(state, bg, 0.5, f, 2)
        assert rep.skipped

    def test_sup_w_stable_along_continuation(self, grid12, rng):
        from hessianlab import ContinuationSchedule, continuation_degenerate

        bg = BackgroundData.flat(grid12, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        f = TrigPolynomial.random(2, rng, amplitude=0.3).sample(grid12)
        sched = ContinuationSchedule.default(num_stages=8)
        states, _ = continuation_degenerate(bg, f, sched, SolverConfig(m=2))
        sups = [
            laplacian_monitor(s, bg, t, f, 2).sup_w
            for t, s in zip(sched.t_values, states)
        ]
        assert max(sups[-1], sups[0]) / min(sups[-1], sups[0]) < 2.0

    def test_c2_norm_ordering(self, grid12, rng):
        # rougher data drives the trace monitor higher
        bg = BackgroundData.flat(grid12, kappa=1.0)
        cfg = SolverConfig(m=2)
        sups = []
        for amp in (0.05, 0.6):
            f = TrigPolynomial.random(2, np.random.default_rng(12),
                                      amplitude=amp).sample(grid12)
            state, _ = solve_nondegenerate(bg, 0.25, f, cfg)
            rep = laplacian_monitor(state, bg, 0.25, f, 2)
            sups.append(rep.sup_w)
        assert sups[0] < sups[1]


class TestUniformity:
    def test_zero_states(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = constant_density(grid12, 0.0)
        cfg = SolverConfig(m=2)
        states = [solve_nondegenerate(bg, t, f, cfg)[0] for t in (1.0, 0.5)]
        rep = linf_uniformity_report(states, [1.0, 0.5], f=f, p=3.0)
        assert rep.passed
        assert rep.max_sup == 0.0

    def test_truncation_invariance(self, grid12, rng):
        bg = BackgroundData.flat(grid12, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        f = TrigPolynomial.random(2, rng, amplitude=0.3).sample(grid12)
        from hessianlab import ContinuationSchedule, continuation_degenerate

        sched = ContinuationSchedule.default(num_stages=6)
        states, _ = continuation_degenerate(bg, f, sched, SolverConfig(m=2))
        full = linf_uniformity_report(states, sched.t_values)
        dropped = states[3:]
        part = linf_uniformity_report(dropped, sched.t_values[3:])
        assert part.max_sup <= full.max_sup

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            linf_uniformity_report([], [])
