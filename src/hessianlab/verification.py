"""Quantitative checks on solver output: stability, viscosity, uniqueness, bounds.

These routines turn a-priori estimates into measurable quantities at desk
scale: a stability experiment fitting the sup-gap exponent against a weak
norm of the data gap, a discrete touching-function test for the viscosity
inequalities, the gradient energy whose vanishing certifies uniqueness, and
a maximum-principle monitor for the trace of the solution form.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .background import BackgroundData, TrigPolynomial
from .errors import DomainError, NonConvergenceError
from .grid import (ScalarField, complex_gradient, complex_hessian, integrate, lp_norm,
                   tree_sum)
from .solver import SolverConfig, SolverState, _NewtonDriver
from .symfunc import binom, esp_margins, planes_kernel, planes_to_hermitian

# the epsilon of the stability exponent floor q' / (n q* + q' + epsilon)
STABILITY_EPSILON = 0.5

# ---------------------------------------------------------------------------
# stability


@dataclass
class StabilityRecord:
    """Gap measurements for one perturbation scale.

    ``sup_gap`` and ``lq_gap_plus`` use the raw sup-normalized solutions;
    ``centered_gap`` and ``sym_lq_gap`` use the symmetric normalization
    sup(phi_1 - phi_2) = sup(phi_2 - phi_1).  Both readings are reported;
    the exponent fit runs on the symmetric pair, whose gauge does not
    degenerate when the two normalization points collide.
    """

    eps_scale: float
    l1_gap: float
    lq_gap_plus: float
    sup_gap: float
    centered_gap: float
    sym_lq_gap: float
    predicted_exponent: float
    converged: bool = True


@dataclass
class StabilityResult:
    """Records and exponent fit of a stability experiment.

    ``base_failure`` is the reason the unperturbed solve failed, None if it
    converged; when it failed, no scale was solved.
    """

    records: list
    floor: float
    fitted_exponent: float | None
    passed: bool
    required_constant: float | None
    partial: bool = False
    base_failure: str | None = None


def stability_floor(n: int, q: float, q_prime: float) -> float:
    """Exponent floor q' / (n q* + q' + STABILITY_EPSILON), q* = q / (q - 1)."""
    q_star = q / (q - 1.0)
    return q_prime / (n * q_star + q_prime + STABILITY_EPSILON)


def stability_experiment(bg: BackgroundData, t: float, f_base: ScalarField,
                         perturbation: ScalarField, scales, q: float,
                         q_prime: float, config: SolverConfig) -> StabilityResult:
    """Solve perturbed pairs and fit the sup-gap versus weak-gap exponent.

    For each scale the pair (f_base, f_base + scale * perturbation) is
    solved; the record stores the L^1 gap of the densities, the L^q' norm
    of the positive part of phi_2 - phi_1, the raw sup gap, and the centered
    oscillation (both readings of the sup distance are reported).  The fit
    of log sup-gap against log weak-gap must stay above the floor minus 0.1;
    the experiment checks the guaranteed direction only, never sharpness.
    All solves run on one Newton driver, the scales in order.  Each scale
    starts at the tangent phi_base + scale * phi' (``_NewtonDriver.tangent``)
    and, if that solve fails, from zero.
    """
    m = config.m
    floor = stability_floor(bg.grid.n, q, q_prime)
    vol = bg.volume
    driver = _NewtonDriver(bg, config)
    try:
        base_state, _ = driver.solve(t, f_base)
    except NonConvergenceError as err:
        records = [StabilityRecord(float(s), np.nan, np.nan, np.nan, np.nan,
                                   np.nan, floor, converged=False) for s in scales]
        return StabilityResult(records=records, floor=floor, fitted_exponent=None,
                               passed=False, required_constant=None, partial=True,
                               base_failure=str(err))

    tangent = driver.tangent(t, f_base, base_state.phi.data, perturbation)
    records = []
    partial = False
    for scale in scales:
        f2 = ScalarField(f_base.grid, f_base.data + scale * perturbation.data)
        starts = [("tangent", base_state.phi.data + scale * tangent), ("zero", None)]
        try:
            _, state2, _ = driver.solve_first(t, f2, starts)
        except NonConvergenceError:
            state2 = None
        gap_density = np.abs(np.exp(m * f_base.data) - np.exp(m * f2.data))
        l1 = integrate(ScalarField(bg.grid, gap_density), vol)
        if state2 is None:
            partial = True
            records.append(StabilityRecord(scale, l1, np.nan, np.nan, np.nan,
                                           np.nan, floor, converged=False))
            continue
        diff = state2.phi.data - base_state.phi.data
        plus = ScalarField(bg.grid, np.maximum(diff, 0.0))
        centered = diff - 0.5 * (diff.max() + diff.min())
        sym_plus = ScalarField(bg.grid, np.maximum(centered, 0.0))
        records.append(StabilityRecord(
            eps_scale=float(scale),
            l1_gap=float(l1),
            lq_gap_plus=float(lp_norm(plus, q_prime, vol)),
            sup_gap=float(diff.max()),
            centered_gap=float(centered.max()),
            sym_lq_gap=float(lp_norm(sym_plus, q_prime, vol)),
            predicted_exponent=floor,
        ))

    usable = [r for r in records
              if r.converged and r.sym_lq_gap > 1e-14 and r.centered_gap > 1e-14]
    if len(usable) >= 2:
        xs = np.log([r.sym_lq_gap for r in usable])
        ys = np.log([r.centered_gap for r in usable])
        slope = float(np.polyfit(xs, ys, 1)[0])
        required = float(max(r.centered_gap / r.sym_lq_gap**floor for r in usable))
        passed = slope >= floor - 0.1
    else:
        slope, required, passed = None, None, True  # nothing to fit
    return StabilityResult(records=records, floor=floor, fitted_exponent=slope,
                           passed=passed, required_constant=required,
                           partial=partial)


# ---------------------------------------------------------------------------
# viscosity touching-function test


@dataclass
class ViscosityReport:
    samples: int
    tol: float
    etas: list
    sub_violations: int
    super_violations: int
    skipped_super: int
    violation_points: list = dataclass_field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return self.sub_violations + self.super_violations


def viscosity_check(phi: ScalarField, b: float, bg: BackgroundData, t: float,
                    f: ScalarField, m: int) -> ViscosityReport:
    """Touching-quadratic sub/supersolution test at every grid point.

    At each point the local quadratic model is the second-order
    fit of phi (its complex Hessian is the discrete Hessian there) plus or
    minus eta |z - z0|^2 for eta in {2 h^2, 4 h^2}, which touches phi from
    above resp. below.  A subsolution violation is F(X + eta I) falling
    below exp(b + f) - tol; a supersolution violation is F(X - eta I)
    exceeding exp(b + f) + tol, skipped when the downward-shifted tuple
    leaves the closed cone.  tol is 10 h^2.  Here h is the grid spacing in
    units of the period, 1 / points_per_axis: X and F do not change when
    the period is rescaled with phi -> period^2 phi, and neither do tol and
    eta.  Report only.
    """
    grid = phi.grid
    n, h = grid.n, 1.0 / grid.points_per_axis
    tol = 10.0 * h * h
    etas = [2.0 * h * h, 4.0 * h * h]
    total = grid.num_points
    x_flat = (bg.base_form(t).data + complex_hessian(phi).data).reshape(n * n, total)
    rhs = np.exp(b + f.data).reshape(total)
    eye = np.eye(n).reshape(n * n, 1)

    def operator_f(S):
        sm = S[..., m]
        return np.where(sm > 0, sm, 0.0) ** (1.0 / m) / binom(n, m) ** (1.0 / m)

    sub_bad = np.zeros(total, dtype=bool)
    super_bad = np.zeros(total, dtype=bool)
    skipped = 0
    for eta in etas:
        S_up, _ = planes_kernel(x_flat + eta * eye, bg.omega_inv, m)
        sub_bad |= operator_f(S_up) < rhs - tol

        S_dn, _ = planes_kernel(x_flat - eta * eye, bg.omega_inv, m)
        in_cone = esp_margins(S_dn, n) >= 0.0
        skipped += int(np.sum(~in_cone))
        super_bad |= in_cone & (operator_f(S_dn) > rhs + tol)

    bad_flat = np.flatnonzero(sub_bad | super_bad)
    points = [tuple(map(int, np.unravel_index(int(i), grid.shape)))
              for i in bad_flat[:64]]
    return ViscosityReport(
        samples=total, tol=float(tol), etas=etas,
        sub_violations=int(np.sum(sub_bad)),
        super_violations=int(np.sum(super_bad)),
        skipped_super=skipped, violation_points=points,
    )


# ---------------------------------------------------------------------------
# uniqueness energy


def _energy_density(T: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """T^{ij} d_i u d_jbar u pointwise, from Newton-tensor planes and a gradient of u."""
    return np.einsum("...ij,...i,...j->...", planes_to_hermitian(T), grad, np.conj(grad)).real


def uniqueness_energy(phi1: ScalarField, phi2: ScalarField, bg: BackgroundData,
                      t: float = 0.0) -> float:
    """Discrete gradient energy whose vanishing certifies uniqueness.

    E[u] = integral of T^{ij} d_i u d_jbar u against the omega volume with
    u = phi1 - phi2 and T = (S_1 I - W) omega^(-1) the Newton tensor of
    W = omega^(-1) alpha, alpha being the stage form chi + (kappa + t) omega
    (t = 0 recovers the base form).  T is positive semidefinite for alpha in
    the closed degree-2 cone, so E >= 0 and E[c u] = c^2 E[u].
    """
    if bg.grid.n < 2:
        raise DomainError("uniqueness energy requires complex dimension >= 2")
    if phi1.grid != phi2.grid or phi1.grid != bg.grid:
        raise DomainError("fields live on different grids")
    grad = complex_gradient(ScalarField(bg.grid, phi1.data - phi2.data))
    _, T = planes_kernel(bg.base_form(t).data, bg.omega_inv, 2)
    return float(integrate(ScalarField(bg.grid, _energy_density(T, grad)), bg.volume))


def twin_solve_uniqueness(bg: BackgroundData, t: float, f: ScalarField,
                          config: SolverConfig, rng: np.random.Generator):
    """Solve twice on one Newton driver, from zero and from a noisy start inside the cone.

    The noisy start is a random trig polynomial of amplitude period^2 drawn
    from ``rng``, so its complex Hessian H is of order one at any period.
    It is scaled so that sqrt(max(S_1^2 - 2 S_2)) of omega^(-1) H, a bound
    on every eigenvalue, is (kappa + t) / 2.  Then X >= chi + (kappa + t)
    omega / 2, which lies in the open cone.  Returns ``(energy_normalized,
    sup_difference, state_a, state_b)``.  The energy is normalized by sup
    S_1 of the stage form relative to omega times the omega-gradient energy
    of the first solution, the integral of conj(du) omega^(-1) du (zero
    when that vanishes), so it does not depend on how omega or the period
    is scaled.  Both are formed in units of the period, from phi / period^2
    differentiated on the unit-period grid, as grid sums: the factor
    volume h^(2n) of both integrals cancels in the ratio, and without it
    neither underflows at a small period.
    """
    driver = _NewtonDriver(bg, config)
    state_a, _ = driver.solve(t, f)
    noise = TrigPolynomial.random(bg.grid.n, rng, amplitude=bg.grid.period ** 2).sample(bg.grid)
    S, _ = planes_kernel(complex_hessian(noise).data, bg.omega_inv, 2)
    spread = float(np.sqrt((S[..., 1] ** 2 - 2.0 * S[..., 2]).max()))
    state_b, _ = driver.solve(t, f, 0.5 * (bg.kappa + t) / spread * noise.data)

    diff = state_a.phi.data - state_b.phi.data
    sup_diff = float(np.abs(diff).max())

    unit = replace(bg.grid, period=1.0)
    grad_u, grad = (complex_gradient(ScalarField(unit, data / bg.grid.period ** 2))
                    for data in (diff, state_a.phi.data))
    S, T = planes_kernel(bg.base_form(t).data, bg.omega_inv, 2)
    energy = tree_sum(_energy_density(T, grad_u))
    denom = float(S[..., 1].max()) * tree_sum(
        np.einsum("...i,ij,...j->...", np.conj(grad), bg.omega_inv, grad).real)
    normalized = energy / denom if denom > 0.0 else 0.0
    return float(normalized), sup_diff, state_a, state_b


# ---------------------------------------------------------------------------
# trace monitor


@dataclass
class MonitorReport:
    sup_w: float
    bound_rhs: float
    A: float
    kappa: float
    skipped: bool = False
    notice: str = ""


def laplacian_monitor(state: SolverState, bg: BackgroundData, t: float,
                      f: ScalarField, m: int) -> MonitorReport:
    """Second-order monitor: sup of w = S_1(lam(X)) against its bound shape.

    Valid on the flat constant-coefficient torus only, where the curvature
    correction tensor vanishes; the multiplier is A = 1/kappa (from
    A kappa >= 0 + 1) and the bound is assembled from measured quantities:
    max of 2^(m-2) n e^(m b) e^f (|lap_omega e^f|^(m-1) + (A kappa)^(m-1)
    e^((m-1) f)) plus A sup(-phi).  Report only; requires kappa > 0.
    """
    if bg.kappa <= 0.0:
        return MonitorReport(sup_w=np.nan, bound_rhs=np.nan, A=np.nan,
                             kappa=bg.kappa, skipped=True,
                             notice="kappa = 0: chi_tilde lower bound unavailable")

    n = bg.grid.n
    sup_w = float(trace_field(state, bg, t).data.max())

    a_mult = 1.0 / bg.kappa
    ef = ScalarField(bg.grid, np.exp(f.data))
    S_ef, _ = planes_kernel(complex_hessian(ef).data, bg.omega_inv, 1)
    lap_ef = S_ef[..., 1]
    core = (
        2.0 ** (m - 2) * n * np.exp(m * state.b) * np.exp(f.data)
        * (np.abs(lap_ef) ** (m - 1)
           + (a_mult * bg.kappa) ** (m - 1) * np.exp((m - 1) * f.data))
    )
    bound = float(core.max()) + a_mult * float(-state.phi.data.min())
    return MonitorReport(sup_w=sup_w, bound_rhs=bound, A=a_mult, kappa=bg.kappa)


def trace_field(state: SolverState, bg: BackgroundData, t: float) -> ScalarField:
    """w = S_1(lam(X)), the trace of omega^{-1} X, at a state."""
    x_data = bg.base_form(t).data + complex_hessian(state.phi).data
    S, _ = planes_kernel(x_data, bg.omega_inv, 1)
    return ScalarField(bg.grid, S[..., 1])

