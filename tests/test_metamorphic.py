"""Metamorphic relations of the stage-t solve on an anisotropic metric.

Each relation maps the data (omega, chi, f) of one problem to another whose
solution is known from the first: a swap of two complex coordinates, the
conjugation of every coordinate at once, a shift by whole grid points, a
scaling of omega and chi, and a change of the torus period.  They pin the
plane layout of Hermitian fields (a plane read with the wrong sign or at
the wrong index breaks one of them) and the way the period enters the
difference Hessian and the masses.  At chi = 0, a common scaling of kappa
and t scales phi, down to scales where an absolute cone-margin floor would
stall the line search.  The bracket ends of the degenerate
family, relative masses, stay put under both scalings, and the twin solve
of the uniqueness check scales with the period.  A scaling of the
level function phi keeps the iteration-lemma verdict and scales the
certificate by a power of the scale.
"""

import numpy as np
import pytest

from hessianlab import (
    BackgroundData,
    ContinuationSchedule,
    HermitianField,
    ScalarField,
    SolverConfig,
    TorusGrid,
    TrigPolynomial,
    certify_iteration_hypothesis,
    continuation_degenerate,
    degenerate_brackets,
    solve_nondegenerate,
    stage_masses,
    twin_solve_uniqueness,
)
from hessianlab.iteration import (
    DEGIORGI,
    DEGIORGI_CASES,
    KOLODZIEJ,
    KOLODZIEJ_CASES,
    synthetic_degiorgi_families,
    synthetic_kolodziej_families,
)

from conftest import anisotropic_spd

TOL = 1e-12


def problem(n):
    """omega, chi as complex matrices over the grid, and f, on an anisotropic metric.

    chi = 2 omega plus a varying Hermitian field small enough that the stage
    forms stay inside the degree-2 cone.
    """
    rng = np.random.default_rng(60 + n)
    grid = TorusGrid(n=n, points_per_axis=6 if n == 2 else 4)
    omega = anisotropic_spd(rng, n)
    shape = grid.shape + (n, n)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise = 0.5 * (noise + np.conj(np.swapaxes(noise, -1, -2)))
    chi = 2.0 * omega + 0.05 * np.abs(omega).min() * noise
    f = TrigPolynomial.random(n, rng, amplitude=0.2, max_mode=1).sample(grid).data
    return grid, omega, chi, f


def solve(grid, omega, chi, f):
    """(phi, b) of the stage t = 0.5 equation; phi has grid maximum zero."""
    bg = BackgroundData(omega=omega, chi=HermitianField.from_matrices(grid, chi), kappa=0.5)
    state, _ = solve_nondegenerate(bg, 0.5, ScalarField(grid, f), SolverConfig(m=2))
    return state.phi.data, state.b


def swap_first_two(grid, omega, chi, f):
    """z_0 <-> z_1: the grid axes (x_0, y_0) and (x_1, y_1) and the matrix indices."""
    n = grid.n
    axes = [2, 3, 0, 1] + list(range(4, 2 * n))
    idx = [1, 0] + list(range(2, n))
    chi = np.transpose(chi, axes + [2 * n, 2 * n + 1])[..., idx, :][..., idx]
    return omega[idx][:, idx], chi, np.transpose(f, axes)


def conjugate_all(grid, omega, chi, f):
    """y_i -> -y_i for every i: grid index j -> -j mod N on each y axis."""
    def flip_y(a):
        for axis in range(1, 2 * grid.n, 2):
            a = np.roll(np.flip(a, axis), 1, axis)
        return a

    return np.conj(omega), np.conj(flip_y(chi)), flip_y(f)


def shift(grid, omega, chi, f):
    """A shift by 1, 2, ... grid points along the real axes."""
    steps = tuple(range(1, 2 * grid.n + 1))
    axes = tuple(range(2 * grid.n))
    return omega, np.roll(chi, steps, axes), np.roll(f, steps, axes)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("relation", [swap_first_two, conjugate_all, shift])
def test_symmetry_maps_solution(n, relation):
    # each relation moves grid values only, so phi moves with f and b stays
    grid, omega, chi, f = problem(n)
    phi, b = solve(grid, omega, chi, f)
    omega2, chi2, f2 = relation(grid, omega, chi, f)
    phi2, b2 = solve(grid, omega2, chi2, f2)
    _, _, want = relation(grid, omega, chi, phi)
    assert np.abs(phi2 - want).max() <= TOL
    assert abs(b2 - b) <= TOL


@pytest.mark.parametrize("n", [2, 3])
def test_scaling_omega_and_chi_scales_phi(n):
    # omega^(-1) (2 chi + (kappa + t) 2 omega + dd^c 2 phi) is the old W, and
    # both masses of the compatibility constant gain the factor det(2 omega)
    grid, omega, chi, f = problem(n)
    phi, b = solve(grid, omega, chi, f)
    phi2, b2 = solve(grid, 2.0 * omega, 2.0 * chi, f)
    assert np.abs(phi2 - 2.0 * phi).max() <= TOL
    assert abs(b2 - b) <= TOL


@pytest.mark.parametrize("s", [1e-5, 1e-7])
def test_kappa_and_t_scale_phi(s):
    # at chi = 0, X = 2 s omega + dd^c phi: phi -> s phi solves kappa = t = s
    # with b -> b + log s.  The line-search floor scales with the base form,
    # so the small problems take the steps of s = 1 and do not stall at it
    grid = TorusGrid(n=2, points_per_axis=8)
    f = TrigPolynomial.random(2, np.random.default_rng(5), amplitude=0.2).sample(grid)

    def solve_at(scale):
        bg = BackgroundData.flat(grid, kappa=scale)
        state, record = solve_nondegenerate(bg, scale, f, SolverConfig(m=2))
        return state.phi.data, state.b, record.iters

    phi, b, iters = solve_at(1.0)
    phi2, b2, iters2 = solve_at(s)
    assert iters2 == iters
    assert np.abs(phi2 / s - phi).max() <= TOL
    assert abs(b2 - np.log(s) - b) <= TOL


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("period", [2.0, 0.5, 3.0])
def test_period_scales_phi(n, period):
    # the same data at every grid index on a torus of period p: the spacing
    # scales by p, so the discrete complex Hessian of p^2 phi is the old one,
    # and both masses of the compatibility constant gain the factor p^(2n)
    grid, omega, chi, f = problem(n)
    phi, b = solve(grid, omega, chi, f)
    scaled = TorusGrid(n=n, points_per_axis=grid.points_per_axis, period=period)
    phi2, b2 = solve(scaled, omega, chi, f)
    assert np.abs(phi2 - period**2 * phi).max() <= TOL * period**2 * np.abs(phi).max()
    assert abs(b2 - b) <= TOL * abs(b)


def bracket_ends(grid, omega, chi, m):
    """``degenerate_brackets`` at t = 1, 0.25 and 2^-8, kappa = 0.5, as an array."""
    bg = BackgroundData(omega=omega, chi=HermitianField.from_matrices(grid, chi), kappa=0.5)
    masses = stage_masses(bg, m)
    return np.array([degenerate_brackets(masses, t) for t in (1.0, 0.25, 2.0**-8)])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c, period", [(2.0, 1.0), (0.1, 1.0), (1.0, 0.5), (1.0, 3.0)])
def test_bracket_ends_do_not_depend_on_scale(n, c, period):
    # omega, chi -> c (omega, chi) multiplies every mass by c^n, a period p
    # by p^(2n); relative to the omega^n mass the ends stay put, in order
    grid, omega, chi, _ = problem(n)
    scaled = TorusGrid(n=n, points_per_axis=grid.points_per_axis, period=period)
    for m in range(1, n + 1):
        ends = bracket_ends(grid, omega, chi, m)
        ends2 = bracket_ends(scaled, c * omega, c * chi, m)
        assert np.all(np.abs(ends2 - ends) <= TOL * np.abs(ends))
        assert np.all(ends2[:, 0] <= ends2[:, 1]) and np.all(ends2[:, 1] <= ends2[:, 2])


def test_brackets_ordered_at_half_period():
    # the bench continuation problem (N = 6, chi = diag(0.4, 0), kappa = 1,
    # trig f of amplitude 0.3, seed 7, twelve stages) on a torus of period 0.5
    grid = TorusGrid(n=2, points_per_axis=6, period=0.5)
    bg = BackgroundData.flat(grid, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
    f = TrigPolynomial.random(2, np.random.default_rng(7 + 2), amplitude=0.3).sample(grid)
    _, report = continuation_degenerate(bg, f, ContinuationSchedule.default(),
                                        SolverConfig(m=2))
    assert len(report.stages) == 12
    for rec in report.stages:
        assert rec.bracket_lower <= rec.bracket_mid <= rec.bracket_upper



def test_twin_solve_scales_with_period():
    # the twin problem at period p is the one at period 1 with phi -> p^2 phi
    # (N = 8, kappa = 1, t = 0.25, trig f of amplitude 0.5).  The noisy start,
    # drawn at amplitude p^2 and scaled by its Hessian, scales alike, so both
    # solutions agree to rounding; a start of absolute size leaves the cone at
    # p = 1e-4.  The difference of the two solutions is of the size of the
    # Newton tolerance, so its rounding shows in the energy at about 1e-6.
    # The energy is formed in units of the period, so it does not underflow
    # at 1e-60 or 1e-150.
    runs = []
    for period in (1.0, 1e-4, 1e-6, 1e-60, 1e-150):
        grid = TorusGrid(n=2, points_per_axis=8, period=period)
        bg = BackgroundData.flat(grid, kappa=1.0)
        f = TrigPolynomial.random(2, np.random.default_rng(1), amplitude=0.5).sample(grid)
        energy, sup_diff, state_a, state_b = twin_solve_uniqueness(
            bg, 0.25, f, SolverConfig(m=2), np.random.default_rng(1))
        runs.append((energy, sup_diff / period**2, state_a.phi.data / period**2,
                     state_b.phi.data / period**2))
    (energy, sup_diff, phi_a, phi_b), *scaled = runs
    assert 0.0 < energy < 1e-8 and 0.0 < sup_diff < 1e-8
    for energy2, sup_diff2, phi_a2, phi_b2 in scaled:
        assert np.abs(phi_a2 - phi_a).max() <= TOL and np.abs(phi_b2 - phi_b).max() <= TOL
        assert energy2 == pytest.approx(energy, rel=1e-4, abs=0.0)
        assert sup_diff2 == pytest.approx(sup_diff, rel=1e-4, abs=0.0)

def lemma_samples():
    """(form, s, phi, params) on both sides of each verdict.

    Each flat-looking step is within 1e-14 of phi, each infeasible one a
    drop (Kolodziej) or rise (De Giorgi) that a 2^-40 scaling takes below
    1e-14 in absolute terms; the synthetic families, one of each form, are
    drawn at seed 7.
    """
    rng = np.random.default_rng(7)
    case, s, phi, _, _ = synthetic_kolodziej_families(rng, 1)
    cases = [(KOLODZIEJ, s[0], phi[0], {"delta0": KOLODZIEJ_CASES[case[0]]})]
    case, s, phi, _ = synthetic_degiorgi_families(rng, 1)
    alpha, _, delta = DEGIORGI_CASES[case[0]]
    cases.append((DEGIORGI, s[0], phi[0], {"alpha": alpha, "delta": delta}))
    s = np.array([0.1, 0.2, 0.3, 0.4])
    return cases + [
        (KOLODZIEJ, s, [1.0, 1.0 - 2.0**-50, 1.5, 2.0], {"delta0": 1.0}),
        (KOLODZIEJ, s[:3], [3e-3, 1e-3, 2e-3], {"delta0": 1.0}),
        (DEGIORGI, s, [2.0, 1.0, 1.0 + 2.0**-50, 0.0], {"alpha": 2.0, "delta": 0.5}),
        (DEGIORGI, s[:3], [1e-3, 3e-3, 2e-3], {"alpha": 1.0, "delta": 1.0}),
    ]


@pytest.mark.parametrize("c", [2.0**40, 2.0**-40])
@pytest.mark.parametrize("form, s, phi, params", lemma_samples())
def test_certificate_scales_with_phi(c, form, s, phi, params):
    # t phi_i / phi_j^(1 + delta0) and (s')^alpha phi_j / phi_i^(1 + delta)
    # scale by c^-delta0 and c^-delta
    c_min, feasible = certify_iteration_hypothesis(s, phi, form, **params)
    c_scaled, feasible_scaled = certify_iteration_hypothesis(s, c * np.asarray(phi), form,
                                                             **params)
    assert feasible_scaled == feasible
    power = params["delta0"] if form == KOLODZIEJ else params["delta"]
    assert abs(c_scaled - c_min * c**-power) <= TOL * c_min * c**-power
