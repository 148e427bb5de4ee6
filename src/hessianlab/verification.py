"""Quantitative checks on solver output: stability, viscosity, uniqueness, bounds.

These routines turn a-priori estimates into measurable quantities at desk
scale: a stability experiment fitting the sup-gap exponent against a weak
norm of the data gap, a discrete touching-function test for the viscosity
inequalities, the gradient energy whose vanishing certifies uniqueness, a
maximum-principle monitor for the trace of the solution form, and the
t-uniformity proxy for sup-norm bounds along a continuation schedule.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .background import BackgroundData
from .errors import DomainError, NonConvergenceError
from .grid import (
    ScalarField,
    complex_gradient,
    complex_hessian,
    integrate,
    lp_norm,
    entropy_functional,
)
from .solver import SolverConfig, SolverState, solve_nondegenerate, uniformity_proxy
from .symfunc import binom, esp_margins, hessian_kernel


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

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class StabilityResult:
    records: list
    floor: float
    fitted_exponent: float | None
    passed: bool
    required_constant: float | None
    partial: bool = False

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "floor": self.floor,
            "fitted_exponent": self.fitted_exponent,
            "passed": self.passed,
            "required_constant": self.required_constant,
            "partial": self.partial,
        }


def stability_floor(n: int, q: float, q_prime: float, epsilon: float = 0.5) -> float:
    """Exponent floor q' / (n q* + q' + epsilon) with q* = q / (q - 1)."""
    q_star = q / (q - 1.0)
    return q_prime / (n * q_star + q_prime + epsilon)


def stability_experiment(bg: BackgroundData, t: float, f_base: ScalarField,
                         perturbation: ScalarField, scales, q: float,
                         q_prime: float, config: SolverConfig,
                         epsilon: float = 0.5,
                         max_workers: int | None = None) -> StabilityResult:
    """Solve perturbed pairs and fit the sup-gap versus weak-gap exponent.

    For each scale the pair (f_base, f_base + scale * perturbation) is
    solved; the record stores the L^1 gap of the densities, the L^q' norm
    of the positive part of phi_2 - phi_1, the raw sup gap, and the centered
    oscillation (both readings of the sup distance are reported).  The fit
    of log sup-gap against log weak-gap must stay above the floor minus 0.1;
    the experiment checks the guaranteed direction only, never sharpness.
    """
    m = config.m
    floor = stability_floor(bg.grid.n, q, q_prime, epsilon)
    vol = bg.volume
    try:
        base_state, _ = solve_nondegenerate(bg, t, f_base, config)
    except NonConvergenceError:
        records = [StabilityRecord(float(s), np.nan, np.nan, np.nan, np.nan,
                                   np.nan, floor, converged=False) for s in scales]
        return StabilityResult(records=records, floor=floor, fitted_exponent=None,
                               passed=False, required_constant=None, partial=True)

    def run(scale):
        f2 = ScalarField(f_base.grid, f_base.data + scale * perturbation.data)
        try:
            state2, _ = solve_nondegenerate(bg, t, f2, config)
        except NonConvergenceError:
            return scale, None, f2
        return scale, state2, f2

    scales = list(scales)
    if max_workers is not None and max_workers > 1 and len(scales) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            outcomes = list(pool.map(run, scales))
    else:
        outcomes = [run(s) for s in scales]

    records = []
    partial = False
    for scale, state2, f2 in outcomes:
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

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "tol": self.tol,
            "etas": list(self.etas),
            "sub_violations": self.sub_violations,
            "super_violations": self.super_violations,
            "skipped_super": self.skipped_super,
            "violation_points": [list(map(int, p)) for p in self.violation_points],
        }


def viscosity_check(phi: ScalarField, b: float, bg: BackgroundData, t: float,
                    f: ScalarField, m: int, samples: int,
                    rng: np.random.Generator | None = None,
                    tol: float | None = None) -> ViscosityReport:
    """Touching-quadratic sub/supersolution test at sampled grid points.

    At each sampled point the local quadratic model is the second-order
    fit of phi (its complex Hessian is the discrete Hessian there) plus or
    minus eta |z - z0|^2 for eta in {2 h^2, 4 h^2}, which touches phi from
    above resp. below.  A subsolution violation is F(X + eta I) falling
    below exp(b + f) - tol; a supersolution violation is F(X - eta I)
    exceeding exp(b + f) + tol, skipped when the downward-shifted tuple
    leaves the closed cone.  tol defaults to 10 h^2.  Report only.
    """
    grid = phi.grid
    n, h = grid.n, grid.spacing
    if tol is None:
        tol = 10.0 * h * h
    etas = [2.0 * h * h, 4.0 * h * h]
    total = grid.num_points
    if samples >= total:
        flat_idx = np.arange(total)
    else:
        gen = rng if rng is not None else np.random.default_rng(0)
        flat_idx = np.sort(gen.choice(total, size=samples, replace=False))

    x_data = bg.base_form(t).data + complex_hessian(phi).data
    x_flat = x_data.reshape(total, n, n)[flat_idx]
    rhs = np.exp(b + f.data).reshape(total)[flat_idx]
    eye = np.eye(n)

    def operator_f(S):
        sm = S[..., m]
        return np.where(sm > 0, sm, 0.0) ** (1.0 / m) / binom(n, m) ** (1.0 / m)

    sub_bad = np.zeros(flat_idx.size, dtype=bool)
    super_bad = np.zeros(flat_idx.size, dtype=bool)
    skipped = 0
    for eta in etas:
        S_up, _ = hessian_kernel(x_flat + eta * eye, bg.omega_inv, m)
        sub_bad |= operator_f(S_up) < rhs - tol

        S_dn, _ = hessian_kernel(x_flat - eta * eye, bg.omega_inv, m)
        in_cone = esp_margins(S_dn, n) >= 0.0
        skipped += int(np.sum(~in_cone))
        super_bad |= in_cone & (operator_f(S_dn) > rhs + tol)

    bad_flat = flat_idx[sub_bad | super_bad]
    points = [np.unravel_index(int(i), grid.shape) for i in bad_flat[:64]]
    return ViscosityReport(
        samples=int(flat_idx.size), tol=float(tol), etas=etas,
        sub_violations=int(np.sum(sub_bad)),
        super_violations=int(np.sum(super_bad)),
        skipped_super=skipped, violation_points=points,
    )


# ---------------------------------------------------------------------------
# uniqueness energy


def uniqueness_energy(phi1: ScalarField, phi2: ScalarField, bg: BackgroundData,
                      t: float = 0.0) -> float:
    """Discrete gradient energy whose vanishing certifies uniqueness.

    E[u] = integral of T^{ij} d_i u d_jbar u against the omega volume with
    u = phi1 - phi2 and T = (S_1 I - W) omega^(-1) the Newton tensor of
    W = omega^(-1) alpha, alpha being the stage form chi + chi_tilde + t omega
    (t = 0 recovers the base form).  T is positive semidefinite for alpha in
    the closed degree-2 cone, so E >= 0 and E[c u] = c^2 E[u].
    """
    if bg.grid.n < 2:
        raise DomainError("uniqueness energy requires complex dimension >= 2")
    if phi1.grid != phi2.grid or phi1.grid != bg.grid:
        raise DomainError("fields live on different grids")
    u = ScalarField(bg.grid, phi1.data - phi2.data)
    grad = complex_gradient(u)

    _, T = hessian_kernel(bg.base_form(t).data, bg.omega_inv, 2)
    density = np.einsum("...ij,...i,...j->...", T, grad, np.conj(grad)).real
    return float(integrate(ScalarField(bg.grid, density), bg.volume))


def twin_solve_uniqueness(bg: BackgroundData, t: float, f: ScalarField,
                          config: SolverConfig, rng: np.random.Generator,
                          noise_amplitude: float = 0.01):
    """Solve twice (zero start and cone-safe noisy start) and compare.

    Returns ``(energy_normalized, sup_difference, state_a, state_b)``.  The
    energy is normalized by the largest trace of the stage form times the
    gradient energy of the first solution (zero when that vanishes).
    """
    from .background import TrigPolynomial

    state_a, _ = solve_nondegenerate(bg, t, f, config)
    noise = TrigPolynomial.random(bg.grid.n, rng, amplitude=noise_amplitude)
    start = noise.sample(bg.grid)
    state_b, _ = solve_nondegenerate(bg, t, f, config, warm_start=start)

    energy = uniqueness_energy(state_a.phi, state_b.phi, bg, t)
    sup_diff = float(np.abs(state_a.phi.data - state_b.phi.data).max())

    grad = complex_gradient(state_a.phi)
    grad_sq = integrate(
        ScalarField(bg.grid, np.einsum("...i,...i->...", grad, np.conj(grad)).real),
        bg.volume,
    )
    alpha = bg.base_form(t).data
    trace_max = float(np.einsum("...ii->...", alpha).real.max())
    denom = trace_max * grad_sq
    normalized = energy / denom if denom > 1e-30 else 0.0
    return float(normalized), sup_diff, state_a, state_b


# ---------------------------------------------------------------------------
# trace monitor and uniformity table


@dataclass
class MonitorReport:
    sup_w: float
    bound_rhs: float
    A: float
    kappa: float
    skipped: bool = False
    notice: str = ""

    def to_dict(self) -> dict:
        return dict(sup_w=self.sup_w, bound_rhs=self.bound_rhs, A=self.A,
                    kappa=self.kappa, skipped=self.skipped, notice=self.notice)


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
    S_ef, _ = hessian_kernel(complex_hessian(ef).data, bg.omega_inv, 1)
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
    S, _ = hessian_kernel(x_data, bg.omega_inv, 1)
    return ScalarField(bg.grid, S[..., 1])


@dataclass
class UniformityReport:
    rows: list
    max_sup: float
    median_sup: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "rows": [list(r) for r in self.rows],
            "max_sup": self.max_sup,
            "median_sup": self.median_sup,
            "passed": self.passed,
        }


def linf_uniformity_report(states: list, t_values: list,
                           f: ScalarField | None = None, p: float = 3.0,
                           volume: float = 1.0) -> UniformityReport:
    """Table of (t, sup-norm of phi_t, entropy mass of f) with the proxy check.

    The proxy asserts max_t ||phi_t||_inf <= 3 median_t ||phi_t||_inf, a
    scale-free stand-in for a t-independent bound.
    """
    if not states:
        raise DomainError("need at least one state")
    entropy = entropy_functional(f, p, volume) if f is not None else np.nan
    sups, med, passed = uniformity_proxy(states)
    rows = [(float(t), s, entropy) for t, s in zip(t_values, sups)]
    return UniformityReport(rows=rows, max_sup=max(sups), median_sup=med,
                            passed=passed)
