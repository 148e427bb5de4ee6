"""Solver core: compatibility constants, residuals, Newton steps, continuation."""

import numpy as np
import pytest

from hessianlab import (
    BackgroundData,
    ConeViolationError,
    ConfigError,
    ContinuationSchedule,
    NonConvergenceError,
    ScalarField,
    SolverConfig,
    TorusGrid,
    TrigPolynomial,
    compatibility_constant,
    complex_hessian,
    constant_density,
    continuation_degenerate,
    decreasing_sequence,
    degenerate_brackets,
    lq_spike,
    manufactured_solution,
    normalize_density,
    residual,
    solve_nondegenerate,
)
from hessianlab.solver import _NewtonDriver
from hessianlab.symfunc import binom

from conftest import random_hermitian


def make_manufactured(grid, bg, t, m, curvature=0.6, seed=7, discrete=True):
    rng = np.random.default_rng(seed)
    trig = TrigPolynomial.random(grid.n, rng).scaled_to_curvature(curvature, grid.period)
    return manufactured_solution(bg, t, m, trig.sample(grid), discrete=discrete)


class TestCompatibilityConstant:
    def test_scaled_metric(self, grid12):
        # chi + chi_tilde = omega and t > 0: S_m((1+t) id) gives b = log(1+t)
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = constant_density(grid12, 0.0)
        for t in (0.25, 0.5, 1.0):
            assert compatibility_constant(bg, t, f, 2) == pytest.approx(
                np.log(1.0 + t), rel=1e-12
            )

    def test_matched_normalization(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = constant_density(grid12, 0.0)
        assert compatibility_constant(bg, 0.0, f, 2) == pytest.approx(0.0, abs=1e-13)

    def test_normalize_density_shift(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=2.0)
        f = constant_density(grid12, 0.3)
        f_norm, shift = normalize_density(bg, f, 2)
        assert shift == pytest.approx(np.log(2.0) - 0.3, rel=1e-12)
        assert compatibility_constant(bg, 0.0, f_norm, 2) == pytest.approx(0.0, abs=1e-12)

    def test_brackets_random_background(self, grid12, rng):
        bg = BackgroundData.flat(
            grid12, chi_matrix=np.diag([0.6, 0.1]), kappa=1.3
        )
        f = TrigPolynomial.random(2, rng, amplitude=0.2).sample(grid12)
        f_norm, _ = normalize_density(bg, f, 2)
        for t in (1.0, 0.25, 2.0**-8):
            b_t = compatibility_constant(bg, t, f_norm, 2)
            lower, mid, upper = degenerate_brackets(bg, t, b_t, 2)
            assert lower - 1e-9 <= mid <= upper + 1e-9


class TestResidual:
    def test_constant_solution(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = constant_density(grid12, 0.0)
        r = residual(ScalarField.constant(grid12, 0.0), np.log(1.5), bg, 0.5, f, 2)
        assert np.abs(r.data).max() < 1e-12

    def test_manufactured_closes_loop(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        r = residual(phi_star, 0.0, bg, 0.5, f_star, 2)
        assert np.abs(r.data).max() < 1e-12

    def test_cone_violation_reports_point(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=0.0)  # base form is t * omega only
        f = constant_density(grid12, 0.0)
        spike = np.zeros(grid12.shape)
        spike[2, 3, 4, 5] = -1.0  # deep dent: hessian pushes eigenvalues negative
        with pytest.raises(ConeViolationError) as err:
            residual(ScalarField(grid12, spike), 0.0, bg, 0.05, f, 2)
        assert err.value.point is not None
        assert err.value.margin < 0

    def test_linearization_order(self, grid12, rng):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        direction = TrigPolynomial.random(2, rng, amplitude=1.0).sample(grid12)
        driver = _NewtonDriver(bg, 0.5, f_star, SolverConfig(m=2))
        analysis = driver.analyze(phi_star.data, 0.0)
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
    @pytest.mark.parametrize("n, N", [(2, 6), (3, 4)])
    def test_stencil_matches_complex_hessian_trace(self, rng, n, N):
        grid = TorusGrid(n=n, points_per_axis=N)
        bg = BackgroundData.flat(grid, kappa=1.0)
        driver = _NewtonDriver(bg, 0.5, constant_density(grid, 0.0), SolverConfig(m=2))
        a = np.stack([random_hermitian(rng, n) for _ in range(grid.num_points)])
        a = a.reshape(grid.shape + (n, n))
        v = rng.standard_normal(grid.shape)
        want = np.einsum("...ij,...ji->...", a,
                         complex_hessian(ScalarField(grid, v)).data).real
        got = driver.apply_stencil(driver.stencil_coefficients(a), v)
        assert np.abs(got.reshape(grid.shape) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n, N", [(2, 6), (3, 4)])
    def test_preconditioner_inverts_constant_coefficients(self, rng, n, N):
        # with a_over_s = c I the model operator is the operator itself
        grid = TorusGrid(n=n, points_per_axis=N)
        bg = BackgroundData.flat(grid, kappa=1.0)
        driver = _NewtonDriver(bg, 0.5, constant_density(grid, 0.0), SolverConfig(m=2))
        a = np.broadcast_to(0.7 * np.eye(n, dtype=complex), grid.shape + (n, n))
        matvec, precondition = driver.krylov_operators(a)
        v = rng.standard_normal(grid.num_points)
        v -= v.mean()
        beta = 0.3
        out = precondition(matvec(np.append(v, beta)))
        assert np.abs(out[:-1] - v).max() <= 1e-12 * np.abs(v).max()
        assert out[-1] == pytest.approx(beta, rel=1e-12)

    def test_spike_work_counts(self, monkeypatch):
        # the rough spike density of the verify benchmark at N = 8: Newton
        # steps as with the mean-scaled FFT preconditioner (8), matvecs at
        # most half the 230 bound on that benchmark's two solves (it took 156)
        grid = TorusGrid(n=2, points_per_axis=8)
        bg = BackgroundData.flat(grid, kappa=1.0)
        matvecs = []
        apply_stencil = _NewtonDriver.apply_stencil

        def counting(self, coeff, v_data):
            matvecs.append(1)
            return apply_stencil(self, coeff, v_data)

        monkeypatch.setattr(_NewtonDriver, "apply_stencil", counting)
        state, _ = solve_nondegenerate(bg, 0.25, lq_spike(grid, q=2.0), SolverConfig(m=2))
        assert state.newton_iters == 8
        assert len(matvecs) <= 115


class TestNewtonStep:
    def test_fixed_point(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        cfg = SolverConfig(m=2)
        state, _ = solve_nondegenerate(bg, 0.5, f_star, cfg)
        driver = _NewtonDriver(bg, 0.5, f_star, cfg)
        phi, b, _, _ = driver.step(state.phi.data, state.b)
        assert np.abs(phi - state.phi.data).max() < 1e-12
        assert abs(b - state.b) < 1e-12

    def test_quadratic_tail(self):
        grid = TorusGrid(n=2, points_per_axis=16)
        bg = BackgroundData.flat(grid, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid, bg, 0.5, 2, curvature=0.8)
        cfg = SolverConfig(m=2)
        _, report = solve_nondegenerate(bg, 0.5, f_star, cfg)
        hist = report.stages[0].residual_history
        tail = [(a, b) for a, b in zip(hist, hist[1:]) if a < 1e-2]
        assert tail, "no Newton iterates entered the quadratic regime"
        for r_k, r_next in tail:
            assert r_next <= 10.0 * r_k**2

    def test_safeguard_engages_on_huge_step(self, grid12):
        # an oversized damping factor overshoots the cone; the line search
        # must halve back and the accepted iterate keep its margin
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        cfg = SolverConfig(m=2, cone_margin=1e-8, damping=64.0)
        driver = _NewtonDriver(bg, 0.5, f_star, cfg)
        phi_new, b_new, post, info = driver.step(np.zeros(grid12.shape), 0.0)
        assert info["step_size"] < 64.0
        assert post["worst"] >= cfg.cone_margin
        assert np.isfinite(b_new) and np.all(np.isfinite(phi_new))

    def test_damping_floor_raises(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        cfg = SolverConfig(m=2, cone_margin=1e9)  # unattainable safeguard
        driver = _NewtonDriver(bg, 0.5, f_star, cfg)
        with pytest.raises(NonConvergenceError) as err:
            driver.step(np.zeros(grid12.shape), 0.0)
        assert "residual_sup" in err.value.diagnostics

    @pytest.mark.parametrize("damping, steps", [(1.0, 3), (64.0, 1)])
    def test_step_analysis_matches_fresh_analyze(self, grid12, damping, steps):
        # step builds the new iterate's analysis from the accepted line-search
        # trial; it must agree with analyzing the new iterate from scratch
        bg = BackgroundData.flat(grid12, kappa=1.0)
        phi_star, f_star, _ = make_manufactured(grid12, bg, 0.5, 2)
        cfg = SolverConfig(m=2, damping=damping)
        driver = _NewtonDriver(bg, 0.5, f_star, cfg)
        phi, b, analysis = np.zeros(grid12.shape), 0.0, None
        for _ in range(steps):
            phi, b, analysis, info = driver.step(phi, b, analysis)
            fresh = driver.analyze(phi, b)
            driver._recenter(fresh, b)
            for key in ("x", "S", "residual", "a_over_s"):
                # relative, floored at 1: near convergence the log-residual
                # is itself at roundoff, the scale newton_tol is set on
                scale = max(np.abs(fresh[key]).max(), 1.0)
                assert np.abs(analysis[key] - fresh[key]).max() <= 1e-10 * scale, key
            assert analysis["worst"] == pytest.approx(fresh["worst"], rel=1e-10)
        if damping > 1.0:
            assert info["step_size"] < damping  # the line search backtracked

    def test_solve_evaluates_each_iterate_once(self, grid12, monkeypatch):
        # one analyze for the start; afterwards every kernel call is a
        # line-search trial, and a step accepted at size s halved the
        # damping factor log2(damping / s) times, so it made 1 + that trials
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
            step_sizes.append(out[3]["step_size"])
            return out

        monkeypatch.setattr(_NewtonDriver, "eigen", counting_eigen)
        monkeypatch.setattr(_NewtonDriver, "analyze", counting_analyze)
        monkeypatch.setattr(_NewtonDriver, "step", recording_step)
        state, _ = solve_nondegenerate(bg, 0.5, f_star, cfg)
        trials = sum(1 + round(np.log2(cfg.damping / s)) for s in step_sizes)
        assert state.newton_iters == len(step_sizes) > 0
        assert calls["analyze"] == 1
        assert calls["eigen"] == 1 + trials


class TestSolve:
    def test_constant_case(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = constant_density(grid12, 0.0)
        cfg = SolverConfig(m=2)
        state, _ = solve_nondegenerate(bg, 0.5, f, cfg)
        assert np.abs(state.phi.data).max() == 0.0
        assert state.b == pytest.approx(np.log(1.5), rel=1e-12)
        assert state.newton_iters == 0

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
        driver = _NewtonDriver(bg, 0.5, f_star, cfg)
        analysis = driver.analyze(state.phi.data, state.b)
        coeff_eigs = np.linalg.eigvalsh(analysis["a_over_s"])
        assert coeff_eigs[..., 0].min() > 0.0

        S = analysis["S"]
        n, m = 2, 2
        f_op = (S[..., m] / binom(n, m)) ** (1.0 / m)
        s1_mean = S[..., 1] / n
        assert np.all(f_op <= s1_mean + 1e-11)

        vol = bg.volume
        lhs = float(
            np.sum(analysis["sm"] * vol) * grid12.spacing ** (2 * grid12.n)
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
        f = constant_density(grid, 0.0)
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


class TestContinuation:
    def test_trivial_stages(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=2.0)
        f = constant_density(grid12, 0.0)
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
        sups = report.meta["sup_norms"]
        assert max(sups) <= 3.0 * np.median(sups)
        diffs = report.meta["consecutive_sup_diffs"]
        assert diffs[-1] < diffs[0]
        assert diffs[-1] < 1e-3
        for rec in report.stages:
            assert rec.bracket_lower - 1e-9 <= rec.bracket_mid <= rec.bracket_upper + 1e-9
            assert rec.margin_min >= 1e-8
        b_vals = report.meta["b_values"]
        assert all(b2 < b1 for b1, b2 in zip(b_vals, b_vals[1:]))

    def test_brackets_match_per_stage_computation(self, grid12, rng, monkeypatch):
        # the t-independent bracket ends are computed once per continuation;
        # every stage must still carry exactly what a per-stage computation gives
        import hessianlab.solver as solver

        bg = BackgroundData.flat(grid12, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
        f = TrigPolynomial.random(2, rng, amplitude=0.3).sample(grid12)
        sched = ContinuationSchedule.default(num_stages=3)
        calls = []
        wedge = solver.wedge_integral
        monkeypatch.setattr(solver, "wedge_integral",
                            lambda *args: calls.append(args) or wedge(*args))
        _, report = continuation_degenerate(bg, f, sched, SolverConfig(m=2))
        # normalize_density, three bracket ends, then b_t and V_t per stage
        assert len(calls) == 4 + 2 * len(sched.t_values)
        monkeypatch.undo()
        f_norm, _ = normalize_density(bg, f, 2)
        for t, rec in zip(sched.t_values, report.stages):
            b_t = compatibility_constant(bg, t, f_norm, 2)
            fresh = degenerate_brackets(bg, t, b_t, 2)
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
        assert [rec.start for rec in report.stages] == ["zero", "zero"] + ["secant"] * 10
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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["newton_tol", "cone_margin", "damping",
                                      "krylov_rtol"])
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
        with pytest.raises(ConfigError):
            ContinuationSchedule([1.0, 0.5], mollification_sigmas=[0.1])

    @pytest.mark.parametrize("kwargs, name", [
        ({"t_values": [1.0, np.nan, 0.25]}, "t_values"),
        ({"t_values": [np.inf, 0.5]}, "t_values"),
        ({"t_values": [1.0, 0.5], "mollification_sigmas": [0.1, np.nan]},
         "mollification_sigmas"),
        ({"t_values": [1.0, 0.5], "mollification_sigmas": [0.1, -0.1]},
         "mollification_sigmas"),
    ])
    def test_schedule_names_bad_value(self, kwargs, name):
        with pytest.raises(ConfigError, match=name):
            ContinuationSchedule(**kwargs)

    @pytest.mark.parametrize("name, value", [("krylov_maxiter", 0), ("max_newton", -1)])
    def test_iteration_caps_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            SolverConfig(m=2, **{name: value})

    def test_nan_stage_parameter_rejected(self, grid8):
        bg = BackgroundData.flat(grid8, kappa=1.0)
        with pytest.raises(ConfigError, match="t must be positive"):
            solve_nondegenerate(bg, np.nan, constant_density(grid8, 0.0), SolverConfig(m=2))

    def test_mollified_stages_run(self, grid12, rng):
        from hessianlab import lq_spike

        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = lq_spike(grid12, q=2.0, cap=50.0)
        h = grid12.spacing
        sched = ContinuationSchedule([1.0, 0.5, 0.25],
                                     mollification_sigmas=[4 * h, 2 * h, h])
        states, report = continuation_degenerate(bg, f, sched, SolverConfig(m=2))
        assert len(states) == 3
        assert [rec.mollify_sigma for rec in report.stages] == [4 * h, 2 * h, h]

    def test_mollified_solves_self_consistent(self, grid12):
        # rough right-hand side: solutions for shrinking smoothing widths
        # approach each other, the stability trend for vanishing data gaps
        from hessianlab import lq_spike, mollify

        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = lq_spike(grid12, q=2.0, cap=50.0)
        _, shift = normalize_density(bg, f, 2)
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
        f = constant_density(grid12, 0.0)
        state, _ = solve_nondegenerate(bg, 0.5, f, SolverConfig(m=2))
        result = decreasing_sequence([state, state, state])
        assert not result.adjusted
        for a, b in zip(result.fields, result.fields[1:]):
            assert np.all(b.data <= a.data)

    def test_two_stage_minimal_constant(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = constant_density(grid12, 0.0)
        state, _ = solve_nondegenerate(bg, 0.5, f, SolverConfig(m=2))
        import copy

        lifted = copy.deepcopy(state)
        d = 0.125
        lifted.phi = ScalarField(grid12, state.phi.data + d)
        # psi_1 = phi_1 + C/2 <= psi_0 = phi_0 + C requires C >= 2 d
        result = decreasing_sequence([state, lifted])
        assert result.cap_constant == pytest.approx(2 * d)
        assert result.violation <= 0.0

    def test_explicit_caps_respected(self, grid12):
        bg = BackgroundData.flat(grid12, kappa=1.0)
        f = constant_density(grid12, 0.0)
        state, _ = solve_nondegenerate(bg, 0.5, f, SolverConfig(m=2))
        result = decreasing_sequence([state, state], caps=[1.0, 0.5])
        assert result.caps == [1.0, 0.5]
        assert not result.adjusted
