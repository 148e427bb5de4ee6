"""Background geometry on the torus and built-in data generators.

The metric ``omega`` is one constant positive-definite (n, n) matrix,
checked when the background is built, with its inverse and its volume
density det(omega) computed once.  ``chi`` is a closed form whose
eigenvalues relative to omega stay in the closed degree-m cone, and
``chi_tilde`` is positive semidefinite.  On the flat torus "semipositive
and big" is realized as kappa * omega with kappa > 0 (or identically zero
for the non-degenerate path); constant-coefficient backgrounds are closed
for free, and spatially varying chi is generated from a potential so it
stays closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConeViolationError, DomainError
from .grid import (
    HermitianField,
    ScalarField,
    TorusGrid,
    complex_hessian,
    complex_hessian_spectral,
)
from .symfunc import binom, esp_margins, hermitize, hessian_kernel, metric_inv_sqrt

OMEGA_MIN_MARGIN = 1e-8


@dataclass
class BackgroundData:
    """Fixed geometric data of one problem instance.

    ``omega`` is one constant Hermitian positive-definite (n, n) matrix;
    ``omega_inv`` and the scalar ``volume`` = det(omega) are derived from it
    once, on construction.
    """

    omega: np.ndarray
    chi: HermitianField
    chi_tilde: HermitianField
    kappa: float = 0.0
    omega_inv: np.ndarray = field(init=False, repr=False)
    volume: float = field(init=False)

    def __post_init__(self):
        n = self.chi.grid.n
        if np.shape(self.omega) != (n, n):
            raise DomainError(
                f"omega must be one ({n}, {n}) matrix, got shape {np.shape(self.omega)}"
            )
        self.omega = hermitize(self.omega)
        gis = metric_inv_sqrt(self.omega, OMEGA_MIN_MARGIN)
        self.omega_inv = hermitize(gis @ gis)
        self.volume = float(np.linalg.det(self.omega).real)

    @property
    def grid(self) -> TorusGrid:
        return self.chi.grid

    def validate(self, m: int) -> None:
        grid = self.grid
        if self.chi_tilde.grid != grid:
            raise DomainError("background fields live on different grids")
        S, _ = hessian_kernel(self.chi.data, self.omega_inv, m)
        worst = esp_margins(S, grid.n)
        if worst.min() < -1e-10:
            idx = np.unravel_index(int(np.argmin(worst)), grid.shape)
            raise ConeViolationError(
                f"chi leaves the closed degree-{m} cone at {idx}",
                point=idx,
                margin=float(worst.min()),
            )
        w_tilde = np.linalg.eigvalsh(self.chi_tilde.data)
        if w_tilde[..., 0].min() < -1e-10:
            raise DomainError("chi_tilde is not positive semidefinite")
        if self.kappa < 0:
            raise DomainError("kappa must be nonnegative")

    def base_form(self, t: float) -> HermitianField:
        """chi + chi_tilde + t * omega."""
        return HermitianField(
            self.grid, self.chi.data + self.chi_tilde.data + t * self.omega
        )

    @classmethod
    def flat(cls, grid: TorusGrid, chi_matrix=None, kappa: float = 0.0,
             omega_matrix=None) -> "BackgroundData":
        """Constant-coefficient background; chi_tilde = kappa * omega."""
        n = grid.n
        omega = np.eye(n) if omega_matrix is None else np.asarray(omega_matrix)
        chi = np.zeros((n, n)) if chi_matrix is None else chi_matrix
        return cls(omega=omega, chi=HermitianField.constant(grid, chi),
                   chi_tilde=HermitianField.constant(grid, kappa * omega),
                   kappa=float(kappa))

    @classmethod
    def with_potential_chi(cls, grid: TorusGrid, chi0_matrix, potential: ScalarField,
                           kappa: float = 0.0) -> "BackgroundData":
        """Spatially varying chi = chi0 + complex Hessian of a potential.

        Adding a Hessian keeps chi closed on the discrete level as well.
        """
        base = cls.flat(grid, chi_matrix=chi0_matrix, kappa=kappa)
        hess = complex_hessian(potential)
        chi = HermitianField(grid, base.chi.data + hess.data)
        return cls(omega=base.omega, chi=chi, chi_tilde=base.chi_tilde,
                   kappa=float(kappa))


# ---------------------------------------------------------------------------
# scalar data generators


@dataclass(frozen=True)
class TrigPolynomial:
    """A fixed real trigonometric polynomial, samplable on any torus grid.

    Coefficients are tied to integer frequency vectors, so the same object
    evaluates to samples of one continuum function on every grid whose
    Nyquist limit resolves ``modes``.
    """

    modes: np.ndarray        # (K, 2n) integer frequencies
    coeff_cos: np.ndarray    # (K,)
    coeff_sin: np.ndarray    # (K,)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator, amplitude: float = 1.0,
               max_mode: int = 2, num_terms: int = 4) -> "TrigPolynomial":
        """Seeded random polynomial with sum of |coefficients| = amplitude."""
        modes = []
        while len(modes) < num_terms:
            k = rng.integers(-max_mode, max_mode + 1, size=2 * n)
            if np.any(k):
                modes.append(k)
        modes = np.array(modes)
        cc = rng.standard_normal(num_terms)
        cs = rng.standard_normal(num_terms)
        total = np.abs(cc).sum() + np.abs(cs).sum()
        scale = amplitude / total if total > 0 else 0.0
        return cls(modes=modes, coeff_cos=cc * scale, coeff_sin=cs * scale)

    def curvature_bound(self, period: float = 1.0) -> float:
        """Analytic bound on the spectral norm of the complex Hessian.

        Each mode contributes |coeff| * (2 pi |k| / period)^2 / 4 (its
        complex Hessian is rank one); the bound is grid-independent, so
        scaling against it keeps one continuum problem across resolutions.
        """
        w2 = (2.0 * np.pi / period) ** 2 * np.sum(self.modes**2, axis=1)
        return float(np.sum((np.abs(self.coeff_cos) + np.abs(self.coeff_sin)) * w2) / 4.0)

    def scaled_to_curvature(self, target: float, period: float = 1.0) -> "TrigPolynomial":
        """Rescale coefficients so the Hessian norm bound equals ``target``."""
        bound = self.curvature_bound(period)
        if bound <= 0:
            raise DomainError("cannot scale a flat polynomial")
        s = target / bound
        return TrigPolynomial(self.modes, self.coeff_cos * s, self.coeff_sin * s)

    def sample(self, grid: TorusGrid) -> ScalarField:
        if np.abs(self.modes).max() >= grid.points_per_axis // 2:
            raise DomainError("grid too coarse to resolve the polynomial modes")
        vals = np.zeros(grid.shape)
        for k, cc, cs in zip(self.modes, self.coeff_cos, self.coeff_sin):
            phase = np.zeros(grid.shape)
            for a in range(2 * grid.n):
                if k[a]:
                    phase = phase + (2.0 * np.pi * k[a] / grid.period) * grid.axis_coords(a)
            vals += cc * np.cos(phase) + cs * np.sin(phase)
        return ScalarField(grid, vals)


def constant_density(grid: TorusGrid, value: float = 0.0) -> ScalarField:
    return ScalarField.constant(grid, value)


def gaussian_bump(grid: TorusGrid, amplitude: float = 1.0, width: float = 0.1,
                  center=None) -> ScalarField:
    """Smooth periodic bump exp(-r^2 / (2 width^2)) scaled by amplitude."""
    if center is None:
        center = [grid.period / 2.0] * (2 * grid.n)
    r2 = np.zeros(grid.shape)
    for a in range(2 * grid.n):
        d = np.abs(grid.axis_coords(a) - center[a])
        d = np.minimum(d, grid.period - d)
        r2 = r2 + d * d
    return ScalarField(grid, amplitude * np.exp(-0.5 * r2 / (width * width)))


def lq_spike(grid: TorusGrid, q: float, cap: float = 1e4, center=None,
             sharpness: float = 0.8) -> ScalarField:
    """Rough density f with exp(n f) = min(cap, r^(-a)) just inside L^q.

    The decay rate a = sharpness * 2n / q keeps exp(n f) q-integrable while
    the capped spike keeps it far from L^inf.
    """
    if q <= 1:
        raise DomainError("q must exceed 1")
    n = grid.n
    if center is None:
        center = [grid.period / 2.0] * (2 * n)
    r2 = np.zeros(grid.shape)
    for a in range(2 * n):
        d = np.abs(grid.axis_coords(a) - center[a])
        d = np.minimum(d, grid.period - d)
        r2 = r2 + d * d
    a_exp = sharpness * (2.0 * n) / q
    with np.errstate(divide="ignore"):
        density = np.minimum(cap, np.power(np.sqrt(r2), -a_exp, where=r2 > 0,
                                           out=np.full(grid.shape, cap)))
    return ScalarField(grid, np.log(density) / n)


def manufactured_solution(bg: BackgroundData, t: float, m: int,
                          potential: ScalarField, margin_floor: float = 0.1,
                          discrete: bool = False):
    """Turn a potential into an exact test problem.

    Computes f so that the potential solves the degree-m equation with
    compatibility constant zero: f = (log S_m(lam(X)) - log C(n, m)) / m.
    With ``discrete`` the working finite-difference Hessian is used and the
    potential is an exact solution of the discrete equation; otherwise the
    spectral Hessian gives samples of the exact continuum right-hand side.

    Returns ``(phi_star, f_star, worst_margin)`` with phi_star normalized
    to grid maximum zero.  Raises when the cone margin falls below
    ``margin_floor``.
    """
    grid = bg.grid
    hess = complex_hessian(potential) if discrete else complex_hessian_spectral(potential)
    S, _ = hessian_kernel(bg.base_form(t).data + hess.data, bg.omega_inv, m)
    worst = esp_margins(S, grid.n)
    worst_min = float(worst.min())
    if worst_min < margin_floor:
        idx = np.unravel_index(int(np.argmin(worst)), grid.shape)
        raise ConeViolationError(
            f"manufactured potential margin {worst_min:.3e} below {margin_floor}",
            point=idx, margin=worst_min,
        )
    f_star = ScalarField(grid, (np.log(S[..., m]) - np.log(binom(grid.n, m))) / m)
    phi_star = ScalarField(grid, potential.data - potential.data.max())
    return phi_star, f_star, worst_min
