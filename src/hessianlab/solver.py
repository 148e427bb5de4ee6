"""Newton/continuation solver for the degree-m complex Hessian equation.

The stage-t equation on the torus reads, in log-residual form,

    log S_m(lam(X)) - log C(n, m) - m (f + b) = 0,
    X = chi + chi_tilde + t * omega + (complex Hessian of phi),

with the compatibility constant b solved jointly with a mean-zero update of
phi.  Each Newton step linearizes the log of the operator, solves the
bordered linear system with a Krylov method, and guards the positivity-cone
margin with a damped line search.  The Krylov matvec contracts real
coefficient planes, fixed for the step, with the difference planes of the
Krylov vector; the preconditioner divides the residual pointwise by
c = tr(a_over_s) / (4n) and applies the inverse difference Laplacian in
its real tensor-product eigenbasis.  The degenerate problem is approached
along a fixed decreasing schedule of t.  Each stage tries up to three
starts and keeps the first inside the cone: from stage 2 on the secant
prediction through the two previous solutions, then the previous solution
as is, then zero, whose X is the base form and so strictly inside the cone
once ``bg.validate`` passes; ``StageRecord.start`` names the one used
(``"secant"``, ``"warm"`` or ``"zero"``).  The weak-solution certificate is
the decreasing sequence phi_t + C / 2^i.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse.linalg as spla

from .background import BackgroundData
from .errors import ConeViolationError, ConfigError, NonConvergenceError
from .grid import (
    HermitianField,
    ScalarField,
    complex_hessian,
    fd_laplacian_inverse,
    hessian_planes,
    integrate,
    mollify,
)
from .symfunc import binom, esp_margins, hessian_kernel

DAMPING_FLOOR = 2.0 ** -20


@dataclass
class SolverConfig:
    """Knobs of one Newton solve."""

    m: int
    newton_tol: float = 1e-9
    max_newton: int = 60
    cone_margin: float = 1e-8
    damping: float = 1.0
    krylov_rtol: float = 1e-2
    krylov_maxiter: int = 20

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("degree m must be >= 1")
        for name in ("newton_tol", "cone_margin", "damping", "krylov_rtol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite")
        for name in ("max_newton", "krylov_maxiter"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


@dataclass
class SolverState:
    """One admissible iterate: potential, constant, and diagnostics."""

    phi: ScalarField
    b: float
    residual_sup: float
    cone_margin_min: float
    newton_iters: int


@dataclass
class ContinuationSchedule:
    """Decreasing regularization parameters with optional smoothing widths."""

    t_values: list
    mollification_sigmas: list | None = None

    def __post_init__(self):
        ts = list(self.t_values)
        if not ts:
            raise ConfigError("schedule must be nonempty")
        if not all(0 < t < np.inf for t in ts):
            raise ConfigError("t_values must be positive and finite")
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ConfigError("schedule must be strictly decreasing")
        if self.mollification_sigmas is not None:
            sigmas = list(self.mollification_sigmas)
            if len(sigmas) != len(ts):
                raise ConfigError("mollification_sigmas length must match t_values")
            if not all(0 <= s < np.inf for s in sigmas):
                raise ConfigError("mollification_sigmas must be nonnegative and finite")

    @classmethod
    def default(cls, num_stages: int = 12, ratio: float = 0.5,
                t_start: float = 1.0) -> "ContinuationSchedule":
        return cls([t_start * ratio**i for i in range(num_stages)])


@dataclass
class StageRecord:
    t: float
    b: float
    residual_history: list
    sup_phi: float
    inf_phi: float
    margin_min: float
    iters: int
    seconds: float
    bracket_lower: float | None = None
    bracket_mid: float | None = None
    bracket_upper: float | None = None
    mollify_sigma: float = 0.0
    start: str = "zero"


@dataclass
class SolveReport:
    stages: list = dataclass_field(default_factory=list)
    meta: dict = dataclass_field(default_factory=dict)


# ---------------------------------------------------------------------------
# integral bookkeeping


def wedge_integral(bg: BackgroundData, form: HermitianField, k: int) -> float:
    """Integral of form^k wedge omega^(n-k) over the torus.

    Uses the eigenvalue identity: the integrand equals
    S_k(lam(form)) / C(n, k) times the volume density of omega, with S_k
    taken from ``hessian_kernel``.
    """
    S, _ = hessian_kernel(form.data, bg.omega_inv, k)
    return integrate(ScalarField(bg.grid, S[..., k] / binom(bg.grid.n, k)), bg.volume)


def compatibility_constant(bg: BackgroundData, t: float, f: ScalarField, m: int) -> float:
    """The constant b making the stage-t equation integrally consistent.

    exp(m b) equals the mass of S_m(lam(chi + chi_tilde + t omega)) divided
    by the mass of C(n, m) exp(m f), both against the omega volume.
    """
    num = binom(bg.grid.n, m) * wedge_integral(bg, bg.base_form(t), m)
    den = binom(bg.grid.n, m) * integrate(
        ScalarField(bg.grid, np.exp(m * f.data)), bg.volume
    )
    if num <= 0 or den <= 0:
        raise ConfigError(
            f"compatibility integrals must be positive (got {num:.3e}, {den:.3e})"
        )
    return float(np.log(num / den) / m)


def normalize_density(bg: BackgroundData, f: ScalarField, m: int):
    """Shift f by the constant enforcing the degenerate-limit mass identity.

    After the shift the mass of exp(m f) equals the mass of
    (chi + chi_tilde)^m wedge omega^(n-m), so the stage constants b_t tend
    to zero as t decreases.  Returns ``(shifted_f, shift)``.
    """
    shift = compatibility_constant(bg, 0.0, f, m)
    return ScalarField(f.grid, f.data + shift), float(shift)


def bracket_bounds(bg: BackgroundData, m: int):
    """The t-independent ends ``(lower, upper)`` of ``degenerate_brackets``.

    lower and upper are the bracketing integrals built from chi_tilde^n,
    (chi + chi_tilde + omega)^m wedge omega^(n-m),
    (chi + chi_tilde)^m wedge omega^(n-m) and the omega volume.
    """
    n = bg.grid.n
    lower = wedge_integral(bg, bg.chi_tilde, n) / wedge_integral(
        bg, bg.base_form(1.0), m
    ) ** (n / m)
    vol_total = bg.volume * bg.grid.period ** (2 * n)
    upper = wedge_integral(bg, bg.base_form(0.0), m) ** (n / m) / vol_total ** (
        (n - m) / m
    )
    return float(lower), float(upper)


def degenerate_brackets(bg: BackgroundData, t: float, b_t: float, m: int,
                        bounds: tuple | None = None):
    """Two-sided bound data for V_t / exp(n b_t) at one stage.

    Returns ``(lower, mid, upper)`` where mid = V_t / exp(n b_t) with
    V_t the total mass of (chi_tilde + t omega)^n and b_t the stage
    compatibility constant ``compatibility_constant(bg, t, f, m)``; lower
    and upper are ``bracket_bounds(bg, m)``, computed here unless passed
    as ``bounds``, which a continuation does once for all its stages.
    """
    n = bg.grid.n
    v_t = wedge_integral(bg, HermitianField(bg.grid, bg.chi_tilde.data + t * bg.omega), n)
    mid = v_t / np.exp(n * b_t)
    lower, upper = bracket_bounds(bg, m) if bounds is None else bounds
    return lower, float(mid), upper


# ---------------------------------------------------------------------------
# Newton machinery


class _NewtonDriver:
    """Workspace holding the fixed data of one (bg, t, f, config) problem."""

    def __init__(self, bg: BackgroundData, t: float, f: ScalarField,
                 config: SolverConfig):
        grid = bg.grid
        self.bg = bg
        self.grid = grid
        self.t = float(t)
        self.f = f
        self.config = config
        self.m = config.m
        self.n = grid.n
        self.binom = binom(grid.n, config.m)
        self.base = bg.base_form(self.t).data
        self.omega_inv = bg.omega_inv
        self.laplacian_inverse = fd_laplacian_inverse(grid)
        self.num_points = grid.num_points

    # -- pointwise analysis ------------------------------------------------

    def eigen(self, x_data: np.ndarray):
        """Kernel output (S_0..S_m, Newton tensor) of X, see ``hessian_kernel``."""
        return hessian_kernel(x_data, self.omega_inv, self.m)

    def margins(self, S: np.ndarray) -> np.ndarray:
        return esp_margins(S, self.n)

    def analyze(self, phi_data: np.ndarray, b: float):
        """Kernel data, residual and linearization coefficients at an iterate."""
        x = self.base + complex_hessian(ScalarField(self.grid, phi_data)).data
        S, T = self.eigen(x)
        margins = self.margins(S)
        worst = float(margins.min())
        if not worst > 0.0:
            idx = np.unravel_index(int(np.argmin(margins)), self.grid.shape)
            raise ConeViolationError(
                f"cone margin {worst:.3e} at grid point {idx}",
                point=idx, margin=worst,
            )
        return self._linearize(x, S, T, worst, b)

    def _linearize(self, x: np.ndarray, S: np.ndarray, T: np.ndarray,
                   worst: float, b: float) -> dict:
        """Residual and linearization at X from its kernel output (S, T)."""
        sm = S[..., self.m]
        resid = np.log(sm) - np.log(self.binom) - self.m * (self.f.data + b)
        return {
            "x": x, "S": S, "sm": sm, "worst": worst,
            "residual": resid, "a_over_s": T / sm[..., None, None],
        }

    def _recenter(self, analysis: dict, b: float) -> float:
        """Move the residual mean into the constant; returns the new b."""
        mean = float(analysis["residual"].mean())
        analysis["residual"] = analysis["residual"] - mean
        return b + mean / self.m

    # -- linear solve --------------------------------------------------------

    def stencil_coefficients(self, a_over_s: np.ndarray) -> np.ndarray:
        """Real planes C with tr(a_over_s H(v)) = sum C * hessian_planes(v).

        C[i, i] = a_ii / (4 h^2) and, for i < j, C[i, j] = Re a_ji / (8 h^2)
        and C[j, i] = -Im a_ji / (8 h^2), so the Krylov matvec builds no
        complex Hessian.  Shape (n * n, num_points).
        """
        n, h2 = self.n, self.grid.spacing ** 2
        coeff = np.empty((n, n) + self.grid.shape)
        for i in range(n):
            coeff[i, i] = a_over_s[..., i, i].real / (4.0 * h2)
            for j in range(i + 1, n):
                coeff[i, j] = a_over_s[..., j, i].real / (8.0 * h2)
                coeff[j, i] = -a_over_s[..., j, i].imag / (8.0 * h2)
        return coeff.reshape(n * n, self.num_points)

    def apply_stencil(self, coeff: np.ndarray, v_data: np.ndarray) -> np.ndarray:
        """tr(a_over_s H(v)), flattened, from ``stencil_coefficients`` planes."""
        planes = hessian_planes(v_data, self.n)
        return np.einsum("kp,kp->p", coeff, planes.reshape(coeff.shape))

    def krylov_operators(self, a_over_s: np.ndarray):
        """The bordered matvec and its preconditioner at one Newton step.

        Both act on (delta phi, delta b) flattened to num_points + 1 entries.
        The matvec contracts ``stencil_coefficients`` with the difference
        planes of the Krylov vector and appends its mean.  The
        preconditioner inverts the model operator c(x) Laplacian_h with
        c = tr(a_over_s) / (4n) pointwise, which is exact for a_over_s = c I.
        """
        P = self.num_points
        m, shape = self.m, self.grid.shape
        coeff = self.stencil_coefficients(a_over_s)

        def matvec(v):
            phi_v = v[:P].reshape(shape)
            out = np.empty(P + 1)
            out[:P] = self.apply_stencil(coeff, phi_v) - m * v[P]
            out[P] = phi_v.mean()
            return out

        trace = np.einsum("...ii->...", a_over_s).real
        inv_c = (4.0 * self.n) / np.maximum(trace, 1e-30)

        def precondition(v):
            r = v[:P].reshape(shape)
            r_mean = r.mean()
            out = np.empty(P + 1)
            out[:P] = (self.laplacian_inverse((r - r_mean) * inv_c) + v[P]).ravel()
            out[P] = -r_mean / m
            return out

        return matvec, precondition

    def solve_linear(self, a_over_s: np.ndarray, rhs_field: np.ndarray,
                     rtol: float):
        """Bordered Krylov solve for (delta phi, delta b) with mean(delta phi)=0."""
        P = self.num_points
        shape = self.grid.shape
        rhs = np.concatenate([rhs_field.ravel(), [0.0]])
        if not np.any(rhs):
            return np.zeros(shape), 0.0
        matvec, precondition = self.krylov_operators(a_over_s)
        op = spla.LinearOperator((P + 1, P + 1), matvec=matvec, dtype=float)
        mop = spla.LinearOperator((P + 1, P + 1), matvec=precondition, dtype=float)
        sol, _ = spla.lgmres(op, rhs, M=mop, rtol=rtol, atol=0.0,
                             maxiter=self.config.krylov_maxiter)
        dphi = sol[:P].reshape(shape)
        dphi = dphi - dphi.mean()
        return dphi, float(sol[P])

    # -- one Newton step -----------------------------------------------------

    def step(self, phi_data: np.ndarray, b: float, analysis=None):
        """Damped cone-safeguarded Newton update; returns the new iterate."""
        cfg = self.config
        if analysis is None:
            analysis = self.analyze(phi_data, b)
        resid = analysis["residual"]
        resid_sup = float(np.abs(resid).max())
        rtol = min(cfg.krylov_rtol, max(resid_sup, 1e-14))
        dphi, db = self.solve_linear(analysis["a_over_s"], -resid, rtol)
        hess_step = complex_hessian(ScalarField(self.grid, dphi)).data

        step_size = cfg.damping
        x_now = analysis["x"]
        while True:
            x_trial = x_now + step_size * hess_step
            S, T = self.eigen(x_trial)
            worst = float(self.margins(S).min())
            if worst >= cfg.cone_margin:
                break
            step_size *= 0.5
            if step_size < DAMPING_FLOOR:
                raise NonConvergenceError(
                    "cone-safeguard line search hit the damping floor",
                    diagnostics={
                        "residual_sup": resid_sup,
                        "worst_margin": worst,
                        "step_size": step_size,
                    },
                )
        phi_new = phi_data + step_size * dphi
        phi_new = phi_new - phi_new.max()
        # X of phi_new is the accepted trial X (subtracting the max leaves the
        # Hessian unchanged), so the trial's kernel output is reused as is
        b_trial = b + step_size * db
        post = self._linearize(x_trial, S, T, worst, b_trial)
        b_new = self._recenter(post, b_trial)
        info = {
            "step_size": step_size,
            "dphi_sup": float(np.abs(dphi).max()) * step_size,
            "db": (b_new - b),
        }
        return phi_new, b_new, post, info


# ---------------------------------------------------------------------------
# public operations


def residual(phi: ScalarField, b: float, bg: BackgroundData, t: float,
             f: ScalarField, m: int) -> ScalarField:
    """Pointwise log-residual log S_m(lam(X)) - log C(n, m) - m (f + b)."""
    driver = _NewtonDriver(bg, t, f, SolverConfig(m=m))
    analysis = driver.analyze(phi.data, b)
    return ScalarField(phi.grid, analysis["residual"])


def solve_nondegenerate(bg: BackgroundData, t: float, f: ScalarField,
                        config: SolverConfig, warm_start: ScalarField | None = None,
                        b0: float | None = None):
    """Newton iteration to the stage-t solution; returns (state, report).

    t must be positive and finite (ConfigError otherwise).  Starts from zero
    (or a warm start), which must lie strictly inside the cone (worst
    margin > 0; ConeViolationError otherwise).  config.cone_margin guards
    the accepted steps: the line search keeps every later iterate's margin
    >= config.cone_margin.  Stops when the sup-norm of the log-residual
    drops below config.newton_tol.
    """
    if not 0 < t < np.inf:
        raise ConfigError(f"t must be positive and finite (got {t})")
    t0 = time.perf_counter()
    driver = _NewtonDriver(bg, t, f, config)
    phi = np.zeros(bg.grid.shape) if warm_start is None else warm_start.data.copy()
    phi = phi - phi.max()
    b = compatibility_constant(bg, t, f, config.m) if b0 is None else float(b0)

    try:
        analysis = driver.analyze(phi, b)
    except ConeViolationError as err:
        raise ConeViolationError(
            f"cone violation at initialization: {err}", point=err.point,
            margin=err.margin,
        ) from err
    b = driver._recenter(analysis, b)

    history = [float(np.abs(analysis["residual"]).max())]
    iters = 0
    while history[-1] >= config.newton_tol:
        if iters >= config.max_newton:
            raise NonConvergenceError(
                f"no convergence in {config.max_newton} Newton steps "
                f"(residual {history[-1]:.3e})",
                diagnostics={"residual_history": history},
            )
        phi, b, analysis, _ = driver.step(phi, b, analysis)
        iters += 1
        history.append(float(np.abs(analysis["residual"]).max()))

    state = SolverState(
        phi=ScalarField(bg.grid, phi), b=float(b), residual_sup=history[-1],
        cone_margin_min=analysis["worst"], newton_iters=iters,
    )
    record = StageRecord(
        t=float(t), b=state.b, residual_history=history,
        sup_phi=float(phi.max()), inf_phi=float(phi.min()),
        margin_min=state.cone_margin_min, iters=iters,
        seconds=time.perf_counter() - t0,
        start="zero" if warm_start is None else "warm",
    )
    return state, SolveReport(stages=[record])


def _stage_starts(states: list, ts: list, i: int) -> list:
    """The starts of stage i in the order tried, as ``(name, phi or None)``.

    From stage 2 on the secant prediction
    phi_{i-1} + (t_i - t_{i-1}) / (t_{i-1} - t_{i-2}) (phi_{i-1} - phi_{i-2})
    comes first, then the previous solution phi_{i-1}, then zero.
    """
    starts = []
    if i >= 2:
        prev, older = states[-1].phi.data, states[-2].phi.data
        ratio = (ts[i] - ts[i - 1]) / (ts[i - 1] - ts[i - 2])
        secant = prev + ratio * (prev - older)
        starts.append(("secant", ScalarField(states[-1].phi.grid, secant)))
    if i >= 1:
        starts.append(("warm", states[-1].phi))
    starts.append(("zero", None))
    return starts


def continuation_degenerate(bg: BackgroundData, f: ScalarField,
                            schedule: ContinuationSchedule, config: SolverConfig):
    """Solve the decreasing-t family; returns (states, report).

    Stage i starts from the first of ``_stage_starts`` whose X lies inside
    the cone: the secant prediction (stage 2 on), the previous phi, then
    zero.  ``solve_nondegenerate`` raises ConeViolationError only at
    initialization, so a start that raises it is skipped and the next one
    tried; ``StageRecord.start`` names the start each stage used.

    The density is shifted once so its mass matches the degenerate-limit
    compatibility identity; per stage the report records the constant b_t,
    the residual history, the sup/inf of phi_t, the cone margin, and the
    two-sided bracket on V_t / exp(n b_t).  The report also carries the
    t-uniformity proxy max_t ||phi_t||_inf <= 3 median_t ||phi_t||_inf and
    the consecutive sup-differences used by the decreasing-sequence
    certificate.
    """
    bg.validate(config.m)
    f_norm, shift = normalize_density(bg, f, config.m)
    bounds = bracket_bounds(bg, config.m)
    report = SolveReport(meta={"mass_shift": shift})
    states = []
    for i, t in enumerate(schedule.t_values):
        sigma = 0.0
        f_stage = f_norm
        if schedule.mollification_sigmas is not None:
            sigma = float(schedule.mollification_sigmas[i])
            if sigma > 0.0:
                density = ScalarField(f_norm.grid, np.exp(config.m * f_norm.data))
                smooth = mollify(density, sigma)
                f_stage = ScalarField(f_norm.grid, np.log(smooth.data) / config.m)
        t_start = time.perf_counter()
        b_t = compatibility_constant(bg, t, f_stage, config.m)
        try:
            for start, phi0 in _stage_starts(states, schedule.t_values, i):
                try:
                    state, stage_rep = solve_nondegenerate(
                        bg, t, f_stage, config, warm_start=phi0, b0=b_t)
                    break
                except ConeViolationError:
                    # only the initialization can raise it; the zero start,
                    # tried last, is inside the cone once bg.validate passes
                    if start == "zero":
                        raise
        except NonConvergenceError as err:
            report.meta["aborted_stage"] = i
            report.meta["abort_reason"] = str(err)
            raise NonConvergenceError(
                f"continuation stage {i} (t={t:.3e}) failed: {err}",
                diagnostics={"partial_report": report, "states": states},
            ) from err
        record = stage_rep.stages[0]
        record.seconds = time.perf_counter() - t_start
        record.mollify_sigma = sigma
        record.start = start
        lower, mid, upper = degenerate_brackets(bg, t, b_t, config.m, bounds)
        record.bracket_lower, record.bracket_mid, record.bracket_upper = lower, mid, upper
        report.stages.append(record)
        states.append(state)

    sups, _, passed = uniformity_proxy(states)
    report.meta["sup_norms"] = sups
    report.meta["uniformity_pass"] = passed
    report.meta["consecutive_sup_diffs"] = [
        float(np.max(states[i + 1].phi.data - states[i].phi.data))
        for i in range(len(states) - 1)
    ]
    report.meta["b_values"] = [s.b for s in states]
    return states, report


def uniformity_proxy(states: list):
    """The t-uniformity proxy max_t ||phi_t||_inf <= 3 median_t ||phi_t||_inf.

    Returns ``(sups, median, passed)`` with the per-state sup norms.
    """
    sups = [float(np.abs(s.phi.data).max()) for s in states]
    med = float(np.median(sups))
    return sups, med, bool(max(sups) <= 3.0 * med + 1e-12)


@dataclass
class DecreasingSequenceResult:
    fields: list
    cap_constant: float
    caps: list
    adjusted: bool
    adjustment: float
    violation: float = 0.0


def decreasing_sequence(states: list, caps: list | None = None) -> DecreasingSequenceResult:
    """Build the certificate sequence psi_i = phi_{t_i} + caps_i.

    Default caps are C / 2^i with C seeded from the measured consecutive
    oscillations.  If the pointwise ordering psi_{i+1} <= psi_i fails
    anywhere, C is enlarged once to the minimal admissible constant
    max_i 2^(i+1) sup(phi_{i+1} - phi_i) and the adjustment is reported.
    """
    phis = [s.phi for s in states]
    diffs = [
        float(np.max(phis[i + 1].data - phis[i].data)) for i in range(len(phis) - 1)
    ]
    explicit_caps = caps is not None

    def build(cap_c):
        return [cap_c / 2.0**i for i in range(len(phis))]

    if explicit_caps:
        cap_list = [float(c) for c in caps]
        if len(cap_list) != len(phis):
            raise ConfigError("caps length must match the number of states")
        if any(c <= 0 for c in cap_list):
            raise ConfigError("caps must be positive")
        cap_c = cap_list[0]
    else:
        cap_c = max(2.0 * max(diffs, default=0.0), 1e-12)
        cap_list = build(cap_c)

    def violation(cap_list):
        worst = 0.0
        for i in range(len(phis) - 1):
            gap = np.max(
                (phis[i + 1].data + cap_list[i + 1]) - (phis[i].data + cap_list[i])
            )
            worst = max(worst, float(gap))
        return worst

    worst = violation(cap_list)
    adjusted = False
    adjustment = 0.0
    if worst > 0.0 and not explicit_caps:
        needed = max(
            (2.0 ** (i + 1)) * max(d, 0.0) for i, d in enumerate(diffs)
        ) if diffs else cap_c
        adjustment = needed - cap_c
        cap_c = needed
        cap_list = build(cap_c)
        adjusted = True
        worst = violation(cap_list)

    fields = [
        ScalarField(p.grid, p.data + c) for p, c in zip(phis, cap_list)
    ]
    return DecreasingSequenceResult(
        fields=fields, cap_constant=cap_c, caps=cap_list,
        adjusted=adjusted, adjustment=adjustment, violation=worst,
    )
