"""Acceptance gate: every quantitative criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
live).  Desk scale throughout: n = 2, m = 2, grids N in {12, 16, 24}.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hessianlab import (
    BackgroundData,
    ContinuationSchedule,
    ScalarField,
    SolverConfig,
    TorusGrid,
    TrigPolynomial,
    continuation_degenerate,
    decreasing_sequence,
    elem_sym,
    elem_sym_minors,
    elem_sym_table,
    gaussian_bump,
    manufactured_solution,
    residual,
    restricted_esp,
    solve_nondegenerate,
    stability_experiment,
    stability_floor,
    twin_solve_uniqueness,
    viscosity_check,
)
from hessianlab.cli import main as cli_main
from hessianlab.iteration import (
    assert_degiorgi_families,
    assert_kolodziej_families,
    synthetic_degiorgi_families,
    synthetic_kolodziej_families,
)

from conftest import esp_enumeration, random_hermitian, sample_cone_tuples


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {text}")
        raise
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def continuation_run():
    """Shared 12-stage default-schedule run on the manufactured family."""
    grid = TorusGrid(n=2, points_per_axis=12)
    bg = BackgroundData.flat(grid, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
    rng = np.random.default_rng(2024)
    f = TrigPolynomial.random(2, rng, amplitude=0.3).sample(grid)
    schedule = ContinuationSchedule.default()  # 12 stages, t = 1 .. 2^-11
    states, report = continuation_degenerate(bg, f, schedule, SolverConfig(m=2))
    return schedule, states, report


def test_extrapolated_starts_match_warm_starts(continuation_run, monkeypatch):
    # the extrapolated starts cut Newton steps (31 with plain warm starts)
    # and leave the stage constants, the brackets and phi where they were
    import hessianlab.solver as solver

    schedule, states, report = continuation_run
    grid = states[0].phi.grid
    bg = BackgroundData.flat(grid, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
    f = TrigPolynomial.random(2, np.random.default_rng(2024), amplitude=0.3).sample(grid)
    stage_starts = solver._stage_starts
    monkeypatch.setattr(solver, "_stage_starts", lambda *args: [
        s for s in stage_starts(*args) if s[0] != "extrapolated"])
    warm_states, warm_report = continuation_degenerate(bg, f, schedule, SolverConfig(m=2))

    extrapolated_iters = sum(rec.iters for rec in report.stages)
    assert extrapolated_iters <= 17
    assert extrapolated_iters < sum(rec.iters for rec in warm_report.stages)
    assert {rec.start for rec in warm_report.stages} == {"zero", "warm"}
    for rec, warm in zip(report.stages, warm_report.stages):
        assert rec.b == pytest.approx(warm.b, abs=1e-10)
        assert (rec.bracket_lower, rec.bracket_mid, rec.bracket_upper) == (
            warm.bracket_lower, warm.bracket_mid, warm.bracket_upper)
    assert np.abs(states[-1].phi.data - warm_states[-1].phi.data).max() <= 1e-10


def test_c01_algebra_kernel(rng):
    with criterion(1, "three S_k routes agree on 1e3 Hermitian matrices, < 10 s"):
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            a = random_hermitian(rng, n)
            lam = np.linalg.eigvalsh(a)
            for k in range(1, n + 1):
                vieta = elem_sym(lam, k)
                enum = esp_enumeration(lam, k)
                minors = elem_sym_minors(a, k)
                scale = max(abs(enum), 1e-30)
                assert abs(vieta - enum) / scale < 1e-10
                assert abs(minors - enum) / scale < 1e-10
        assert time.perf_counter() - start < 10.0


def test_c02_inequality_suite(rng):
    with criterion(2, "Maclaurin/Garding/concavity on 1e4 cone tuples per (n, m)"):
        for n, m in ((2, 2), (3, 2), (3, 3), (4, 2)):
            lams = sample_cone_tuples(rng, n, m, 10_000)
            e = elem_sym_table(lams)
            import math

            binoms = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
            means = (e[:, 1 : m + 1] / binoms[1 : m + 1]) ** (
                1.0 / np.arange(1, m + 1)
            )
            # Maclaurin: normalized means are nonincreasing in the degree
            assert np.all(np.diff(means, axis=1) <= 1e-10)

            # Euler identity, relative to the data magnitude: near the cone
            # boundary both sides cancel to ~0 out of O(|lam|^m) intermediates,
            # so that is the scale roundoff lives on
            grads = restricted_esp(lams, m - 1)
            euler = np.einsum("ij,ij->i", lams, grads)
            sm = e[:, m]
            scale = np.maximum(np.abs(m * sm),
                               np.abs(lams).max(axis=1) ** m)
            assert np.all(np.abs(euler - m * sm) <= 1e-11 * scale)

            # Garding pairing on consecutive pairs
            lam_a, lam_b = lams[0::2], lams[1::2]
            pairing = np.einsum("ij,ij->i", lam_b, restricted_esp(lam_a, m - 1))
            sm_a = elem_sym_table(lam_a)[:, m]
            sm_b = elem_sym_table(lam_b)[:, m]
            rhs = m * sm_b ** (1.0 / m) * sm_a ** ((m - 1.0) / m)
            assert np.all(pairing - rhs >= -1e-10)

            # concavity of the normalized root
            theta = rng.uniform(0, 1, lam_a.shape[0])[:, None]
            mixed = theta * lam_a + (1 - theta) * lam_b
            froot = lambda t: (elem_sym_table(t)[:, m] / binoms[m]) ** (1.0 / m)
            assert np.all(
                froot(mixed)
                >= theta[:, 0] * froot(lam_a) + (1 - theta[:, 0]) * froot(lam_b)
                - 1e-10
            )


def test_c03_manufactured_convergence():
    with criterion(3, "sup-error ratio N=12 vs N=24 in [3, 5], fast solves"):
        trig = TrigPolynomial.random(2, np.random.default_rng(11)).scaled_to_curvature(0.6)
        cfg = SolverConfig(m=2)
        errs = {}
        for points in (12, 24):
            grid = TorusGrid(n=2, points_per_axis=points)
            bg = BackgroundData.flat(grid, kappa=1.0)
            phi_star, f_star, margin = manufactured_solution(
                bg, 0.5, 2, trig.sample(grid), discrete=False
            )
            assert margin >= 0.1
            start = time.perf_counter()
            state, record = solve_nondegenerate(bg, 0.5, f_star, cfg)
            assert time.perf_counter() - start < 120.0
            assert record.iters <= 30
            errs[points] = float(np.abs(state.phi.data - phi_star.data).max())
        assert 3.0 <= errs[12] / errs[24] <= 5.0


def test_c04_compatibility_brackets(continuation_run):
    with criterion(4, "two-sided V_t / e^(n b_t) bracket at every stage"):
        _, _, report = continuation_run
        assert len(report.stages) == 12
        for rec in report.stages:
            assert rec.bracket_lower - 1e-9 <= rec.bracket_mid
            assert rec.bracket_mid <= rec.bracket_upper + 1e-9


def test_c05_t_uniform_linf(continuation_run):
    with criterion(5, "max_t ||phi_t|| <= 3 median_t ||phi_t|| on 12 stages"):
        schedule, states, _ = continuation_run
        assert schedule.t_values[0] == 1.0
        assert schedule.t_values[-1] == 2.0**-11
        sups = [float(np.abs(s.phi.data).max()) for s in states]
        assert max(sups) <= 3.0 * float(np.median(sups))


def test_c06_decreasing_sequence(continuation_run):
    with criterion(6, "decreasing certificate after at most one adjustment"):
        _, states, _ = continuation_run
        cert = decreasing_sequence(states)
        assert cert.violation <= 0.0
        for a, b in zip(cert.fields, cert.fields[1:]):
            assert np.all(b.data <= a.data)


def test_c07_iteration_lemmas():
    with criterion(7, "both iteration lemmas, 100 certified families, 0 violations"):
        rng = np.random.default_rng(777)
        gap, _ = assert_kolodziej_families(*synthetic_kolodziej_families(rng, 100)[:4])
        assert gap.size == 100 and (gap >= -1e-12).all()
        leftover, _, _ = assert_degiorgi_families(*synthetic_degiorgi_families(rng, 100))
        assert leftover.size == 100 and (leftover <= 1e-12).all()


def test_c08_stability_exponent():
    with criterion(8, "fitted stability exponent >= 2/11 - 0.1, finite constant"):
        grid = TorusGrid(n=2, points_per_axis=12)
        bg = BackgroundData.flat(grid, kappa=1.0)
        f = TrigPolynomial.random(2, np.random.default_rng(2024),
                                  amplitude=0.2).sample(grid)
        L = grid.period
        pert = ScalarField(
            grid,
            gaussian_bump(grid, 1.0, 0.15, [0.3 * L] * 4).data
            - gaussian_bump(grid, 1.0, 0.15, [0.7 * L] * 4).data,
        )
        scales = [2.0**-k for k in range(3, 9)]
        result = stability_experiment(bg, 0.25, f, pert, scales, q=2.0,
                                      q_prime=1.0, config=SolverConfig(m=2))
        floor = stability_floor(2, 2.0, 1.0)
        assert floor == pytest.approx(2.0 / 11.0)
        assert not result.partial
        assert result.fitted_exponent >= floor - 0.1
        assert np.isfinite(result.required_constant)
        assert result.required_constant > 0


def test_c09_uniqueness_twin_solves():
    with criterion(9, "twin solves: energy < 1e-8 and sup-gap < 10 tol"):
        grid = TorusGrid(n=2, points_per_axis=16)
        bg = BackgroundData.flat(grid, kappa=1.0)
        rng = np.random.default_rng(4321)
        f = TrigPolynomial.random(2, rng, amplitude=0.25).sample(grid)
        cfg = SolverConfig(m=2)
        energy, sup_diff, state_a, state_b = twin_solve_uniqueness(bg, 0.25, f, cfg, rng)
        for state in (state_a, state_b):
            resid = residual(state.phi, state.b, bg, 0.25, f, cfg.m)
            assert np.abs(resid.data).max() < cfg.newton_tol
        assert energy < 1e-8
        assert sup_diff < 10.0 * cfg.newton_tol


def test_c10_viscosity_checks():
    with criterion(10, "0 touching violations at 10 h^2 on N in {12,16,24}; spike detected"):
        for points in (12, 16, 24):
            grid = TorusGrid(n=2, points_per_axis=points)
            bg = BackgroundData.flat(grid, kappa=1.0)
            trig = TrigPolynomial.random(
                2, np.random.default_rng(99)
            ).scaled_to_curvature(0.5)
            phi_star, f_star, _ = manufactured_solution(
                bg, 0.25, 2, trig.sample(grid), discrete=True
            )
            rep = viscosity_check(phi_star, 0.0, bg, 0.25, f_star, 2)
            assert rep.total_violations == 0
            if points == 12:
                spiked = phi_star.data.copy()
                spiked[tuple(s // 2 for s in grid.shape)] -= 30.0 * grid.spacing**2
                bad = viscosity_check(ScalarField(grid, spiked), 0.0, bg, 0.25,
                                      f_star, 2)
                assert bad.total_violations >= 1


def test_c11_determinism(tmp_path):
    with criterion(11, "continuation reruns produce bit-identical HLF1 files"):
        template = """\
[problem]
n = 2
m = 2
grid_points = 12
kappa = 1.0
chi = diag
chi_diag = 0.4, 0.0
f = trig
f_amplitude = 0.25

[schedule]
num_stages = 4

[run]
seed = 2718

[output]
directory = {out}
"""
        for tag in ("a", "b"):
            cfg = tmp_path / f"{tag}.ini"
            cfg.write_text(template.format(out=tmp_path / tag))
            assert cli_main(["continuation", "--config", str(cfg)]) == 0
        for stage in range(4):
            name = f"phi_stage_{stage:02d}.hlf1"
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        for rep in (ra, rb):
            for stage in rep["stages"]:
                stage.pop("seconds")
        assert ra == rb
