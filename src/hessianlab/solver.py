"""Newton/continuation solver for the degree-m complex Hessian equation.

The stage-t equation on the torus reads, in log-residual form,

    log S_m(lam(X)) - log C(n, m) - m (f + b) = 0,
    X = chi + (kappa + t) * omega + (complex Hessian of phi),

with the compatibility constant b read off X as the mean of
log S_m - log C(n, m) - m f, divided by m, so the Newton iterate is phi
alone.  The Newton loop holds X, its line-search step and T / S_m as n * n
real planes (the layout of ``grid.hessian_planes``) and evaluates them with
the real-arithmetic ``planes_kernel``.  Each step linearizes the log of the
operator, solves for the mean-zero correction by ``gmres``, restarted
right-preconditioned GMRES started at M^-1 rhs, and guards the cone margin
with a damped line search.  The matvec contracts the planes of T / S_m,
scaled per plane, with the difference planes of the Krylov vector; the
preconditioner scales the residual by tr(C) / tr(T / S_m) pointwise and
inverts the difference operator with the grid means C of the diagonal of
T / S_m as coefficients.  A Newton driver holds the fixed data of
one (bg, config) problem and takes the stage (t, f) as an argument, so all
solves of one problem share it.  The degenerate problem is approached along
a decreasing schedule of t, with one table of the wedge moments of chi,
relative to the omega^n mass, for the whole family (``stage_masses``):
every stage mass is a polynomial in kappa + t over that table.  The density
is shifted by the t = 0 compatibility constant, and the brackets bound
V_t / exp(n b_t) relative to the omega^n mass, so they do not depend on how
omega, chi or the period is scaled.  Each stage keeps the first start whose
solve converges: from stage 2 on the Lagrange extrapolation in t through
the last min(i, 5) solutions, then the previous solution, then zero, whose
X is the base form and so inside the cone once ``bg.validate`` passes
(``StageRecord.start``).  A solve at the density f + s p near a solution
phi at f can start at the Euler-Newton tangent phi + s phi' (Allgower &
Georg 1990, ch. 2), phi' from one Krylov solve (``_NewtonDriver.tangent``).
The weak-solution certificate is the decreasing sequence phi_t + C / 2^i.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field as dataclass_field
from types import SimpleNamespace

import numpy as np

from .background import BackgroundData
from .errors import ConeViolationError, ConfigError, NonConvergenceError
from .grid import (
    HermitianField,
    ScalarField,
    fd_laplacian_inverse,
    hessian_planes,
    hessian_scale,
    integrate,
    tree_sum,
    worst_point,
)
from .symfunc import binom, esp_margins, homogeneous_margin, margin_minima, planes_kernel

# the line search accepts a trial step whose degree-one cone margin is at least
# this fraction of margin(chi) + kappa + t, so the floor scales with the problem
CONE_MARGIN = 1e-8
DAMPING_FLOOR = 2.0 ** -20
# the extrapolated stage start interpolates at most this many previous stages
PREDICTOR_ORDER = 5
# the largest Krylov tolerance, relative to the right-hand side; at 1e-1 some
# solves take more Newton steps
KRYLOV_RTOL = 5e-2
# restart cycles of one Krylov solve, and the Arnoldi steps of one cycle
KRYLOV_MAXITER = 20
KRYLOV_RESTART = 30
# the longest default schedule; at ratio 1/2, t underflows to 0 after 1075 stages
MAX_STAGES = 1000
# the most Newton steps a solve may be allowed
MAX_NEWTON = 1000


@dataclass
class SolverConfig:
    """Knobs of one Newton solve."""

    m: int
    newton_tol: float = 1e-9
    max_newton: int = 60

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("degree m must be >= 1")
        if not 0 < self.newton_tol < np.inf:
            raise ConfigError("newton_tol must be positive and finite")
        if not 1 <= self.max_newton <= MAX_NEWTON:
            raise ConfigError(f"max_newton must lie in [1, {MAX_NEWTON}], got {self.max_newton}")


@dataclass
class SolverState:
    """A solution: the potential, with sup phi = 0, and its constant b."""

    phi: ScalarField
    b: float


@dataclass
class ContinuationSchedule:
    """Decreasing regularization parameters."""

    t_values: list

    def __post_init__(self):
        ts = list(self.t_values)
        if not ts:
            raise ConfigError("schedule must be nonempty")
        if len(ts) > MAX_STAGES:
            raise ConfigError(f"t_values must list at most {MAX_STAGES} stages, got {len(ts)}")
        if not all(0 < t < np.inf for t in ts):
            raise ConfigError("t_values must be positive and finite")
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ConfigError("schedule must be strictly decreasing")

    @classmethod
    def default(cls, num_stages: int = 12, ratio: float = 0.5) -> "ContinuationSchedule":
        """The schedule t = 1, ratio, ratio^2, ... of num_stages stages."""
        # checked before ratio**i is formed, which overflows for a huge ratio
        if not 0 < ratio < 1:
            raise ConfigError(f"ratio must lie in (0, 1), got {ratio!r}")
        if num_stages > MAX_STAGES:  # checked before the list is built
            raise ConfigError(f"num_stages must be at most {MAX_STAGES}, got {num_stages}")
        return cls([ratio**i for i in range(num_stages)])


@dataclass
class StageRecord:
    t: float
    b: float
    residual_history: list
    inf_phi: float
    margin_min: float
    iters: int
    seconds: float
    bracket_lower: float | None = None
    bracket_mid: float | None = None
    bracket_upper: float | None = None
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
    taken from ``planes_kernel``.
    """
    S, _ = planes_kernel(form.data, bg.omega_inv, k)
    return integrate(ScalarField(bg.grid, S[..., k] / binom(bg.grid.n, k)), bg.volume)


@dataclass(frozen=True)
class StageMasses:
    """The masses of one degenerate family relative to the omega^n mass.

    ``mu[k]`` is the mass of chi^k wedge omega^(n-k) over that of omega^n,
    k = 0..m, so ``mu[0] = 1``; see ``stage_masses``.
    """

    n: int
    kappa: float
    mu: tuple

    @property
    def m(self) -> int:
        return len(self.mu) - 1

    def at(self, t: float) -> float:
        """Relative mass of (chi + s omega)^m wedge omega^(n-m), s = kappa + t.

        (chi + s omega)^m = sum_k C(m, k) s^(m-k) chi^k wedge omega^(m-k).
        """
        m, s = self.m, self.kappa + t
        return sum(binom(m, k) * s ** (m - k) * mu for k, mu in enumerate(self.mu))


def stage_masses(bg: BackgroundData, m: int) -> StageMasses:
    """The moment table of chi, k = 0..m, relative to the omega^n mass volume * period^(2n)."""
    omega_mass = bg.volume * bg.grid.period ** (2 * bg.grid.n)
    return StageMasses(bg.grid.n, bg.kappa, (1.0,) + tuple(
        wedge_integral(bg, bg.chi, k) / omega_mass for k in range(1, m + 1)))


def compatibility_constant(masses: StageMasses, t: float, f: ScalarField) -> float:
    """The constant b making the stage-t equation integrally consistent.

    exp(m b) is the relative mass ``masses.at(t)`` over that of exp(m f),
    which is its grid mean, as the omega volume density is constant.
    """
    num = masses.at(t)
    den = tree_sum(np.exp(masses.m * f.data)) / f.grid.num_points
    if num <= 0 or den <= 0:
        raise ConfigError(f"compatibility integrals must be positive (got {num:.3e}, {den:.3e})")
    return float(np.log(num / den) / masses.m)


def degenerate_brackets(masses: StageMasses, t: float):
    """Two-sided bound data ``(lower, mid, upper)`` for V_t / exp(n b_t) at stage t.

    Every mass is relative to the omega^n mass, so the ends do not change
    when omega, chi or the period is scaled.  V_t = (kappa + t)^n is the
    relative mass of ((kappa + t) omega)^n and b_t the stage constant of a
    density normalized to the t = 0 mass M_0, exp(m b_t) = M_t / M_0, with
    M_t = ``masses.at(t)``: mid = (kappa + t)^n (M_0 / M_t)^(n/m),
    lower = kappa^n / M_1^(n/m) and upper = M_0^(n/m).
    """
    n, m = masses.n, masses.m
    mass_0 = masses.at(0.0)
    lower = masses.kappa ** n / masses.at(1.0) ** (n / m)
    mid = (masses.kappa + t) ** n * (mass_0 / masses.at(t)) ** (n / m)
    return float(lower), float(mid), float(mass_0 ** (n / m))


# ---------------------------------------------------------------------------
# Krylov solve


def gmres(A, b, x0, M, rtol, maxiter):
    """Restarted right-preconditioned GMRES (Saad & Schultz 1986) for A x = b.

    ``A.matvec`` applies A, ``M.matvec`` the preconditioner M^-1.  Cycles of
    ``KRYLOV_RESTART`` CGS2 Arnoldi steps minimize the true residual until it
    is at most rtol ||b||.  Returns ``(x, info)``, info 0 on convergence,
    else the cycles run.
    """
    matvec, precondition = A.matvec, M.matvec
    x, k = np.array(x0, dtype=float), KRYLOV_RESTART
    target = rtol * float(np.linalg.norm(b))
    V = np.empty((k + 1, b.size))
    for _ in range(maxiter):
        r = b - matvec(x)
        g = np.zeros(k + 1)
        g[0] = np.linalg.norm(r)
        if g[0] <= target:
            return x, 0
        H, cs, sn = np.zeros((k, k)), np.zeros(k), np.zeros(k)
        V[0] = r / g[0]
        for j in range(k):
            w = matvec(precondition(V[j]))
            h = V[: j + 1] @ w
            w -= h @ V[: j + 1]
            h2 = V[: j + 1] @ w
            w -= h2 @ V[: j + 1]
            h += h2
            h_next = float(np.linalg.norm(w))
            for i in range(j):
                h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
            rho = math.hypot(h[j], h_next)
            cs[j], sn[j] = h[j] / rho, h_next / rho
            h[j] = rho
            H[: j + 1, j] = h
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            # a happy breakdown, h_next == 0, gives g[j + 1] = 0: it stops before w / h_next
            if abs(g[j + 1]) <= target:
                break
            V[j + 1] = w / h_next
        y = np.empty(j + 1)
        for i in range(j, -1, -1):
            y[i] = (g[i] - H[i, i + 1: j + 1] @ y[i + 1:]) / H[i, i]
        x += precondition(y @ V[: j + 1])
        if abs(g[j + 1]) <= target:
            return x, 0
    return x, maxiter


# perfbench's tracer counts Krylov work by swapping this attribute for a proxy
spla = SimpleNamespace(
    LinearOperator=namedtuple("LinearOperator", "shape matvec dtype"), lgmres=gmres)


# ---------------------------------------------------------------------------
# Newton machinery


class _NewtonDriver:
    """Workspace holding the fixed data of one (bg, config) problem.

    Its attributes are set in ``__init__`` only, which checks chi with
    ``bg.validate`` (ConeViolationError off the closed cone) and keeps the
    degree-one margin of chi for the line-search floor.  The stage, t and the
    density f, is an argument: ``analyze`` takes a ``stage(t, f)`` and each
    analysis carries it on to ``step``, so one driver serves every solve of
    the problem.  Hermitian fields, X, its line-search step and T / S_m, are
    held as real planes of shape (n * n, num_points) in the layout of
    ``hessian_planes``.
    """

    def __init__(self, bg: BackgroundData, config: SolverConfig):
        grid = bg.grid
        self.bg, self.grid, self.config = bg, grid, config
        self.m, self.n = config.m, grid.n
        self.binom = binom(grid.n, config.m)
        self.laplacian_table, self.laplacian_solve = fd_laplacian_inverse(grid)
        self.hess_scale = hessian_scale(grid)[:, None]
        self.chi_margin = homogeneous_margin(bg.validate(config.m))

    def stage(self, t: float, f: ScalarField) -> tuple:
        """The stage-t equation with density f and its line-search floor.

        Returns the base-form planes and m * f, flattened, and the floor
        CONE_MARGIN (margin(chi) + kappa + t).  By superadditivity that sum
        is at most the ``homogeneous_margin`` of the base form
        chi + (kappa + t) omega (omega's is 1), and like it, it scales with
        chi, kappa and t.
        """
        base = self.bg.base_form(float(t)).data.reshape(self.n ** 2, -1)
        floor = CONE_MARGIN * (self.chi_margin + self.bg.kappa + float(t))
        return base, self.m * f.data.ravel(), floor

    def hessian(self, data: np.ndarray) -> np.ndarray:
        """Planes of the complex Hessian of grid values: ``hessian_planes`` scaled."""
        return self.hess_scale * hessian_planes(data, self.n).reshape(self.n ** 2, -1)

    # -- pointwise analysis ------------------------------------------------

    def eigen(self, x_data: np.ndarray):
        """Kernel output (S_0..S_m, Newton tensor) of X, see ``planes_kernel``."""
        return planes_kernel(x_data, self.bg.omega_inv, self.m)

    def margins(self, S: np.ndarray) -> np.ndarray:
        return esp_margins(S, self.n)

    def analyze(self, phi_data: np.ndarray, stage: tuple):
        """b, residual and linearization coefficients at an iterate of a ``stage``."""
        x = stage[0] + self.hessian(phi_data)
        S, T = self.eigen(x)
        margins = self.margins(S)
        worst = float(margins.min())
        if not worst > 0.0:
            worst, point = worst_point(margins, self.grid.shape)
            raise ConeViolationError(f"cone margin {worst:.3e} at grid point {point}",
                                     point=point, margin=worst)
        return self._linearize(stage, x, S, T, worst)

    def _linearize(self, stage: tuple, x: np.ndarray, S: np.ndarray, T: np.ndarray,
                   worst: float) -> dict:
        """b, residual g - mean(g) and linearization at X from its kernel output (S, T)."""
        sm = S[..., self.m]
        g = np.log(sm) - np.log(self.binom) - stage[1]
        mean = float(g.mean())
        return {"stage": stage, "x": x, "worst": worst, "b": mean / self.m,
                "residual": g - mean, "a_over_s": T / sm}

    # -- linear solve --------------------------------------------------------

    def stencil_coefficients(self, a_over_s: np.ndarray) -> np.ndarray:
        """Real planes C with tr(a_over_s H(v)) = sum C * hessian_planes(v).

        tr(A H) = sum_a w_a A_a H_a over the planes, w 1 on the diagonal and
        2 off it, so C is a_over_s times w ``hessian_scale``: 1 / (4 h^2) on
        the diagonal, 1 / (8 h^2) off it.
        """
        return a_over_s * ((2.0 - np.eye(self.n).reshape(-1, 1)) * self.hess_scale)

    def apply_stencil(self, coeff: np.ndarray, v_data: np.ndarray) -> np.ndarray:
        """tr(a_over_s H(v)), flattened, from ``stencil_coefficients`` planes."""
        planes = hessian_planes(v_data, self.n)
        return np.einsum("kp,kp->p", coeff, planes.reshape(coeff.shape))

    def krylov_operators(self, a_over_s: np.ndarray):
        """The projected matvec and its preconditioner at one Newton step.

        Both act on delta phi flattened to num_points entries.  The matvec
        contracts ``stencil_coefficients`` with the difference planes of the
        Krylov vector and removes the mean.  The preconditioner is
        M^-1 r = (sum_i C_i (Laplacian_{x_i} + Laplacian_{y_i}) / 4)^-1
        (r tr(C) / tr(a_over_s)), C_i the grid mean of diagonal plane (i, i)
        of a_over_s and tr(a_over_s) pointwise: the frozen mean-diagonal
        operator (Concus & Golub 1973), diagonal in the basis of
        ``fd_laplacian_inverse``.  It inverts any constant diagonal a_over_s
        exactly.  Weights and trace are floored at 1e-30, so a zero
        diagonal plane divides by no zero.
        The input is not projected to mean zero: ``gmres`` hands it the
        mean-zero right-hand side of ``solve_linear`` and Arnoldi vectors
        built from projected matvec outputs, each mean-zero to rounding, and
        its output has mean zero.
        """
        shape = self.grid.shape
        coeff = self.stencil_coefficients(a_over_s)

        def matvec(v):
            out = self.apply_stencil(coeff, v.reshape(shape))
            return out - out.mean()

        diag = a_over_s[:: self.n + 1]
        weights = np.maximum(diag.mean(axis=1), 1e-30)
        table = self.laplacian_table(weights)
        # the 1/4 of the model operator is folded into the scaling
        scale = (4.0 * weights.sum()) / np.maximum(diag.sum(axis=0), 1e-30).reshape(shape)

        def precondition(v):
            return self.laplacian_solve(v.reshape(shape) * scale, table).ravel()

        return matvec, precondition

    def solve_linear(self, a_over_s: np.ndarray, rhs_field: np.ndarray,
                     rtol: float) -> np.ndarray:
        """Mean-zero delta phi with Pi L delta phi = rhs, Pi removing the mean.

        The system is singular but consistent: its null space, the
        constants, meets its range, the mean-zero fields, only at 0.  Each
        preconditioner output has mean zero, and so has delta phi.  ``gmres``
        starts at M^-1 rhs, not at 0, and stops at rtol ||rhs||; for a
        constant diagonal a_over_s that start is the solution, and the solve
        takes one matvec.
        """
        P, shape = self.grid.num_points, self.grid.shape
        rhs = rhs_field.ravel() - rhs_field.mean()
        matvec, precondition = self.krylov_operators(a_over_s)
        op = spla.LinearOperator((P, P), matvec=matvec, dtype=float)
        mop = spla.LinearOperator((P, P), matvec=precondition, dtype=float)
        sol, _ = spla.lgmres(op, rhs, x0=precondition(rhs), M=mop, rtol=rtol,
                             maxiter=KRYLOV_MAXITER)
        return sol.reshape(shape)

    def tangent(self, t: float, f: ScalarField, phi: np.ndarray,
                p: ScalarField) -> np.ndarray:
        """phi', mean zero, of the stage-t solution phi along the density direction p.

        Differentiating the equation at f + s p in s gives Pi L phi' = m Pi p,
        L linearized at phi: one Krylov solve to ``KRYLOV_RTOL``.
        """
        analysis = self.analyze(phi, self.stage(t, f))
        return self.solve_linear(analysis["a_over_s"], self.m * p.data, KRYLOV_RTOL)

    # -- one Newton step -----------------------------------------------------

    def step(self, phi_data: np.ndarray, analysis: dict):
        """Cone-safeguarded Newton update from the ``analyze`` of phi.

        Returns ``(phi, analysis, step_size)``.  The line search starts at
        the full step and halves it until the trial's ``homogeneous_margin``
        is at least the floor of the ``stage``.  Both scale alike with X, so
        a rescaled problem takes the same steps.  The analysis keeps the raw
        worst margin.
        """
        resid = analysis["residual"]
        resid_sup = float(np.abs(resid).max())
        rtol = min(KRYLOV_RTOL, max(resid_sup, 1e-14))
        dphi = self.solve_linear(analysis["a_over_s"], -resid, rtol)
        hess_step = self.hessian(dphi)

        floor = analysis["stage"][2]
        step_size = 1.0
        x_now = analysis["x"]
        while True:
            x_trial = x_now + step_size * hess_step
            S, T = self.eigen(x_trial)
            minima = margin_minima(S, self.n)
            # a floor that underflowed to 0 would admit the cone's boundary
            if homogeneous_margin(minima) >= floor > 0.0:
                break
            step_size *= 0.5
            if step_size < DAMPING_FLOOR:
                raise NonConvergenceError(
                    "cone-safeguard line search hit the damping floor",
                    diagnostics={
                        "residual_sup": resid_sup,
                        "worst_margin": min(minima),
                        "step_size": step_size,
                    },
                )
        worst = min(minima)
        phi_new = phi_data + step_size * dphi
        phi_new = phi_new - phi_new.max()
        # X of phi_new is the accepted trial X (subtracting the max leaves the
        # Hessian unchanged), so the trial's kernel output is reused as is
        return phi_new, self._linearize(analysis["stage"], x_trial, S, T, worst), step_size

    # -- one solve -----------------------------------------------------------

    def solve(self, t: float, f: ScalarField, phi0: np.ndarray | None = None):
        """Newton iteration for stage t from phi0 (zero if None).

        Returns ``(state, record)``, b read off the last X, the start "zero"
        or "warm".  t must be positive and finite (ConfigError otherwise), the
        start strictly inside the cone (ConeViolationError otherwise).  The
        solve stops when the sup of the log-residual drops below
        config.newton_tol, so a start that already meets it takes no step.
        """
        if not 0 < t < np.inf:
            raise ConfigError(f"t must be positive and finite (got {t})")
        t0 = time.perf_counter()
        config = self.config
        phi = np.zeros(self.grid.shape) if phi0 is None else phi0
        phi = phi - phi.max()
        try:
            analysis = self.analyze(phi, self.stage(t, f))
        except ConeViolationError as err:
            raise ConeViolationError(
                f"cone violation at initialization: {err}", point=err.point,
                margin=err.margin,
            ) from err

        history = [float(np.abs(analysis["residual"]).max())]
        while history[-1] >= config.newton_tol:
            if len(history) > config.max_newton:
                raise NonConvergenceError(
                    f"no convergence in {config.max_newton} Newton steps "
                    f"(residual {history[-1]:.3e})",
                    diagnostics={"residual_history": history},
                )
            phi, analysis, _ = self.step(phi, analysis)
            history.append(float(np.abs(analysis["residual"]).max()))

        state = SolverState(phi=ScalarField(self.grid, phi), b=analysis["b"])
        record = StageRecord(
            t=float(t), b=state.b, residual_history=history, inf_phi=float(phi.min()),
            margin_min=analysis["worst"], iters=len(history) - 1,
            seconds=time.perf_counter() - t0, start="zero" if phi0 is None else "warm",
        )
        return state, record

    def solve_first(self, t: float, f: ScalarField, starts: list):
        """``(name, state, record)`` of the first start ``(name, phi0)`` whose solve converges.

        A start whose solve raises ConeViolationError or NonConvergenceError
        hands over to the next; the last start's error is raised.
        """
        for i, (name, phi0) in enumerate(starts, 1):
            try:
                return (name, *self.solve(t, f, phi0))
            except (ConeViolationError, NonConvergenceError):
                if i == len(starts):
                    raise


# ---------------------------------------------------------------------------
# public operations


def residual(phi: ScalarField, b: float, bg: BackgroundData, t: float,
             f: ScalarField, m: int) -> ScalarField:
    """Pointwise log-residual log S_m(lam(X)) - log C(n, m) - m (f + b)."""
    driver = _NewtonDriver(bg, SolverConfig(m=m))
    analysis = driver.analyze(phi.data, driver.stage(t, f))
    g = analysis["residual"] + m * (analysis["b"] - b)
    return ScalarField(phi.grid, g.reshape(phi.grid.shape))


def solve_nondegenerate(bg: BackgroundData, t: float, f: ScalarField,
                        config: SolverConfig, warm_start: ScalarField | None = None):
    """Newton iteration to the stage-t solution; returns (state, record).

    t must be positive and finite (ConfigError otherwise).  Starts from zero
    (or a warm start), which must lie strictly inside the cone (worst
    margin > 0; ConeViolationError otherwise).  ``CONE_MARGIN`` guards the
    accepted steps: the line search keeps every later iterate's degree-one
    margin >= CONE_MARGIN (margin(chi) + kappa + t).  Stops when the
    sup-norm of the log-residual drops below config.newton_tol.
    """
    return _NewtonDriver(bg, config).solve(t, f, None if warm_start is None else warm_start.data)


def _stage_starts(states: list, ts: list, i: int) -> list:
    """The starts of stage i in the order tried, as ``(name, phi data or None)``.

    From stage 2 on the extrapolated start comes first: the polynomial in t
    through the last k = min(i, PREDICTOR_ORDER) stage solutions, evaluated
    at t_i in Lagrange form (k = 2 is the secant through phi_{i-1} and
    phi_{i-2}).  Then the previous solution phi_{i-1}, then zero.
    """
    starts = []
    if i >= 2:
        nodes = ts[i - min(i, PREDICTOR_ORDER):i]
        predicted = np.zeros(states[-1].phi.grid.shape)
        for j, (t_j, state) in enumerate(zip(nodes, states[-len(nodes):])):
            weight = math.prod((ts[i] - t_l) / (t_j - t_l)
                               for l, t_l in enumerate(nodes) if l != j)
            predicted += weight * state.phi.data
        starts.append(("extrapolated", predicted))
    if i >= 1:
        starts.append(("warm", states[-1].phi.data))
    starts.append(("zero", None))
    return starts


def continuation_degenerate(bg: BackgroundData, f: ScalarField,
                            schedule: ContinuationSchedule, config: SolverConfig):
    """Solve the decreasing-t family; returns (states, report).

    One ``_NewtonDriver`` serves every stage and start.  Stage i keeps the
    first of the starts of ``_stage_starts`` that converges
    (``_NewtonDriver.solve_first``); only a failed zero start ends the
    continuation, with a NonConvergenceError carrying the partial report.

    The density is shifted once, by ``compatibility_constant`` at t = 0, to
    match the degenerate-limit mass identity, and one ``stage_masses`` table
    serves the shift and every bracket.  Per stage the report records b_t,
    the residual history, the inf of phi_t (its sup is 0), the cone margin,
    the start used and the bracket on V_t / exp(n b_t); it also carries the
    t-uniformity proxy.
    """
    driver = _NewtonDriver(bg, config)
    masses = stage_masses(bg, config.m)
    shift = compatibility_constant(masses, 0.0, f)
    f_norm = ScalarField(f.grid, f.data + shift)
    report = SolveReport(meta={"mass_shift": shift})
    states = []
    for i, t in enumerate(schedule.t_values):
        t_start = time.perf_counter()
        try:
            start, state, record = driver.solve_first(
                t, f_norm, _stage_starts(states, schedule.t_values, i))
        except NonConvergenceError as err:
            report.meta["aborted_stage"] = i
            report.meta["abort_reason"] = str(err)
            raise NonConvergenceError(
                f"continuation stage {i} (t={t:.3e}) failed: {err}",
                diagnostics={"partial_report": report, "states": states},
            ) from err
        record.seconds = time.perf_counter() - t_start
        record.start = start
        record.bracket_lower, record.bracket_mid, record.bracket_upper = (
            degenerate_brackets(masses, t))
        report.stages.append(record)
        states.append(state)

    # the t-uniformity proxy: max_t ||phi_t||_inf <= 3 median_t ||phi_t||_inf,
    # where ||phi_t||_inf = -inf phi_t as sup phi_t = 0
    sups = [-rec.inf_phi for rec in report.stages]
    report.meta["uniformity_pass"] = bool(max(sups) <= 3.0 * float(np.median(sups)) + 1e-12)
    return states, report


@dataclass
class DecreasingSequenceResult:
    fields: list
    cap_constant: float
    caps: list
    adjusted: bool
    adjustment: float
    violation: float
    consecutive_sup_diffs: list


def decreasing_sequence(states: list) -> DecreasingSequenceResult:
    """Build the certificate sequence psi_i = phi_{t_i} + C / 2^i.

    C is seeded from the measured consecutive oscillations.  If the
    pointwise ordering psi_{i+1} <= psi_i fails anywhere, C is enlarged once
    to the minimal admissible constant max_i 2^(i+1) sup(phi_{i+1} - phi_i),
    each sup rounded up one ulp, and the adjustment is reported.  The result
    keeps the consecutive sup-differences sup(phi_{i+1} - phi_i).
    """
    phis = [s.phi for s in states]
    diffs = [float(np.max(b.data - a.data)) for a, b in zip(phis, phis[1:])]

    def caps_and_violation(cap_c):
        caps = [cap_c / 2.0**i for i in range(len(phis))]
        return caps, max([0.0] + [float(np.max((b.data + cb) - (a.data + ca))) for a, b, ca, cb
                                  in zip(phis, phis[1:], caps, caps[1:])])

    cap_c = max(2.0 * max(diffs, default=0.0), 1e-12)
    cap_list, worst = caps_and_violation(cap_c)
    adjusted, adjustment = worst > 0.0, 0.0
    if adjusted:
        # worst > 0 needs two states, so diffs is not empty; each d rounded up one
        # ulp bounds the exact difference, and rounding is monotone, so the
        # built fields hold their order exactly
        needed = max((2.0 ** (i + 1)) * float(np.nextafter(max(d, 0.0), np.inf))
                     for i, d in enumerate(diffs))
        adjustment, cap_c = needed - cap_c, needed
        cap_list, worst = caps_and_violation(cap_c)
    fields = [ScalarField(p.grid, p.data + c) for p, c in zip(phis, cap_list)]
    return DecreasingSequenceResult(
        fields=fields, cap_constant=cap_c, caps=cap_list,
        adjusted=adjusted, adjustment=adjustment, violation=worst,
        consecutive_sup_diffs=diffs,
    )
