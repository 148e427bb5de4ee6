"""Flat-torus discretization: fields, the discrete complex Hessian, and integrals.

A torus of complex dimension ``n`` is sampled on a uniform periodic grid
with ``N`` points per real axis, axes ordered (x_1, y_1, ..., x_n, y_n).
Scalar fields are float arrays over the grid; Hermitian fields carry an
(n, n) complex matrix per point, symmetrized on construction.

Centered second-order finite differences are the working derivative scheme.
A spectral route is provided as well; it is exact on trigonometric
polynomials and serves as the test oracle and the manufactured-data
generator, never as the solver's operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .symfunc import pencil_eigh

DEFAULT_POINT_BUDGET = 2_000_000


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on a flat torus of complex dimension ``n``.

    ``points_per_axis`` applies to each of the 2n real axes and the period
    is the same for all axes, so the spacing is ``period / points_per_axis``.
    """

    n: int
    points_per_axis: int
    period: float = 1.0
    point_budget: int = DEFAULT_POINT_BUDGET

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("complex dimension must be >= 1")
        if self.points_per_axis < 2 or self.points_per_axis % 2:
            raise DomainError("points_per_axis must be even and >= 2")
        if not 0.0 < self.period < np.inf:
            raise DomainError("period must be positive and finite")
        if self.points_per_axis ** (2 * self.n) > self.point_budget:
            raise DomainError(
                f"{self.points_per_axis}^{2 * self.n} points exceed the budget "
                f"{self.point_budget}"
            )

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * (2 * self.n)

    @property
    def num_points(self) -> int:
        return self.points_per_axis ** (2 * self.n)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Coordinates along one real axis, shaped to broadcast over the grid."""
        c = np.arange(self.points_per_axis) * self.spacing
        shape = [1] * (2 * self.n)
        shape[axis] = self.points_per_axis
        return c.reshape(shape)


@dataclass(eq=False)
class ScalarField:
    """Real scalar values on a torus grid."""

    grid: TorusGrid
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.shape:
            raise DomainError(
                f"scalar data shape {self.data.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise DomainError("scalar field contains non-finite values")

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.data.copy())


@dataclass(eq=False)
class HermitianField:
    """An (n, n) Hermitian matrix per grid point; symmetrized on write."""

    grid: TorusGrid
    data: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != self.grid.shape + (n, n):
            raise DomainError(
                f"matrix data shape {self.data.shape} != {self.grid.shape + (n, n)}"
            )
        self.data = 0.5 * (self.data + np.conj(np.swapaxes(self.data, -1, -2)))

    @classmethod
    def constant(cls, grid: TorusGrid, matrix) -> "HermitianField":
        mat = np.asarray(matrix, dtype=complex)
        data = np.broadcast_to(mat, grid.shape + mat.shape).copy()
        return cls(grid, data)

    @classmethod
    def identity(cls, grid: TorusGrid, scale: float = 1.0) -> "HermitianField":
        return cls.constant(grid, scale * np.eye(grid.n))

    def copy(self) -> "HermitianField":
        return HermitianField(self.grid, self.data.copy())


# ---------------------------------------------------------------------------
# finite differences


def diff1(data: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(data, -1, axis) - np.roll(data, 1, axis)) / (2.0 * h)


def _hermitian_by_construction(grid: TorusGrid, data: np.ndarray) -> HermitianField:
    """Wrap data that is exactly Hermitian already, skipping the symmetrization."""
    out = HermitianField.__new__(HermitianField)
    out.grid, out.data = grid, data
    return out


def _wrap_pad(data: np.ndarray) -> np.ndarray:
    """``data`` with one periodic ghost layer at both ends of every axis."""
    out = np.empty(tuple(s + 2 for s in data.shape))
    out[(slice(1, -1),) * data.ndim] = data
    for a in range(data.ndim):
        lead = (slice(None),) * a
        out[lead + (0,)] = out[lead + (-2,)]
        out[lead + (-1,)] = out[lead + (1,)]
    return out


def hessian_planes(data: np.ndarray, n: int) -> np.ndarray:
    """Unscaled difference planes of the discrete complex Hessian.

    Shape (n, n) + data.shape.  Plane (i, i) is the five-point stencil in
    the (x_i, y_i) plane, 4 h^2 times the discrete Laplacian there.  For
    i < j, plane (i, j) is mixed(x_i, x_j) + mixed(y_i, y_j) and plane
    (j, i) is mixed(x_i, y_j) - mixed(y_i, x_j), where mixed(a, b) is 4 h^2
    times the centered mixed difference along axes a and b.  Every
    neighbour is read as a slice of one periodic wrap-pad of ``data``.
    This is the one discretization: ``complex_hessian`` scales these planes
    into matrix entries, and the solver's Krylov matvec contracts them with
    the coefficients of its linearization.
    """
    N = data.shape[0]
    padded = _wrap_pad(data)
    inner = [slice(1, N + 1)] * (2 * n)

    def at(*steps):
        """data at the neighbour reached by the (axis, +-1) ``steps``."""
        idx = list(inner)
        for axis, step in steps:
            idx[axis] = slice(1 + step, N + 1 + step)
        return padded[tuple(idx)]

    def mixed(a, b):
        return (at((a, 1), (b, 1)) - at((a, -1), (b, 1))
                - at((a, 1), (b, -1)) + at((a, -1), (b, -1)))

    out = np.empty((n, n) + data.shape)
    four_f = 4.0 * data
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        out[i, i] = at((xi, 1)) + at((xi, -1)) + at((yi, 1)) + at((yi, -1)) - four_f
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            out[i, j] = mixed(xi, xj) + mixed(yi, yj)
            out[j, i] = mixed(xi, yj) - mixed(yi, xj)
    return out


def complex_hessian(phi: ScalarField) -> HermitianField:
    """Discrete complex Hessian of a scalar potential.

    Entry (i, j) realizes
    (1/4)(d_{x_i x_j} + d_{y_i y_j}) + (i/4)(d_{x_i y_j} - d_{y_i x_j})
    with centered periodic differences: the three-point second difference
    on the diagonal and ``diff1`` composed with itself off it, read from
    ``hessian_planes``.  The i = j imaginary part is zero and entries below
    the diagonal are conjugated copies, so the output is exactly Hermitian.
    """
    grid = phi.grid
    n, h = grid.n, grid.spacing
    planes = hessian_planes(phi.data, n)
    out = np.zeros(grid.shape + (n, n), dtype=complex)
    for i in range(n):
        out.real[..., i, i] = (0.25 / (h * h)) * planes[i, i]
        for j in range(i + 1, n):
            re = (0.0625 / (h * h)) * planes[i, j]
            im = (0.0625 / (h * h)) * planes[j, i]
            out.real[..., i, j] = out.real[..., j, i] = re
            out.imag[..., i, j] = im
            out.imag[..., j, i] = -im
    return _hermitian_by_construction(grid, out)


def fd_laplacian_inverse(grid: TorusGrid):
    """The inverse of the centered 2n-dimensional difference Laplacian.

    Returns a function mapping a field r to the mean-zero u with
    Laplacian_h u = r - mean(r).  It works in the real orthonormal
    eigenbasis Q of the periodic 1-D second difference, with columns
    1/sqrt(N), sqrt(2/N) cos(2 pi k j / N), (-1)^j / sqrt(N) and
    sqrt(2/N) sin(2 pi k j / N) and eigenvalues (2 cos(2 pi k / N) - 2) / h^2:
    each transform is 2n reshape-matmuls, ``x.reshape(N, -1).T @ Q``, one
    per axis, and the zero mode is projected out between them.
    """
    N, h = grid.points_per_axis, grid.spacing
    half = N // 2
    k = np.concatenate([np.arange(half + 1), np.arange(1, half)])
    angle = (2.0 * np.pi / N) * np.outer(np.arange(N), k)
    Q = np.sqrt(2.0 / N) * np.concatenate(
        [np.cos(angle[:, :half + 1]), np.sin(angle[:, half + 1:])], axis=1
    )
    Q[:, [0, half]] /= np.sqrt(2.0)
    one_axis = (2.0 * np.cos(2.0 * np.pi * k / N) - 2.0) / (h * h)
    eig = np.zeros(grid.shape)
    for a in range(2 * grid.n):
        shape = [1] * (2 * grid.n)
        shape[a] = N
        eig = eig + one_axis.reshape(shape)
    eig.flat[0] = 1.0
    inv_eig = 1.0 / eig
    inv_eig.flat[0] = 0.0

    def solve(data: np.ndarray) -> np.ndarray:
        x = data
        for _ in range(2 * grid.n):
            x = x.reshape(N, -1).T @ Q
        x = x.reshape(grid.shape) * inv_eig
        for _ in range(2 * grid.n):
            x = x.reshape(N, -1).T @ Q.T
        return x.reshape(grid.shape)

    return solve


def complex_gradient(phi: ScalarField) -> np.ndarray:
    """Holomorphic gradient (d/dz_i) phi = (d_x - i d_y)/2, shape grid + (n,)."""
    grid = phi.grid
    n, h = grid.n, grid.spacing
    out = np.zeros(grid.shape + (n,), dtype=complex)
    for i in range(n):
        out[..., i] = 0.5 * (diff1(phi.data, 2 * i, h) - 1j * diff1(phi.data, 2 * i + 1, h))
    return out


# ---------------------------------------------------------------------------
# spectral route (oracle / manufactured data only)


def _wavenumbers(grid: TorusGrid) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)


def spectral_derivative(data: np.ndarray, axis: int, grid: TorusGrid, order: int = 1) -> np.ndarray:
    k = _wavenumbers(grid)
    shape = [1] * data.ndim
    shape[axis] = grid.points_per_axis
    mult = (1j * k.reshape(shape)) ** order
    if order % 2 == 0:
        mult = mult.real
    return np.fft.ifftn(np.fft.fftn(data) * mult).real


def complex_hessian_spectral(phi: ScalarField) -> HermitianField:
    """Complex Hessian via Fourier differentiation; exact on resolved modes."""
    grid = phi.grid
    n = grid.n
    f = phi.data
    out = np.zeros(grid.shape + (n, n), dtype=complex)
    d1 = {a: spectral_derivative(f, a, grid) for a in range(2 * n)}
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        out[..., i, i] = 0.25 * (
            spectral_derivative(f, xi, grid, order=2)
            + spectral_derivative(f, yi, grid, order=2)
        )
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            re = 0.25 * (
                spectral_derivative(d1[xi], xj, grid)
                + spectral_derivative(d1[yi], yj, grid)
            )
            im = 0.25 * (
                spectral_derivative(d1[xi], yj, grid)
                - spectral_derivative(d1[yi], xj, grid)
            )
            out[..., i, j] = re + 1j * im
            out[..., j, i] = re - 1j * im
    return HermitianField(grid, out)


# ---------------------------------------------------------------------------
# eigen fields, reductions, norms


def eigen_field(A: HermitianField, omega: np.ndarray) -> np.ndarray:
    """Pointwise eigenvalues of A relative to one constant (n, n) metric, descending.

    Shape grid + (n,).  A singular metric raises SingularMetricError.
    """
    n = A.grid.n
    if np.shape(omega) != (n, n):
        raise DomainError(
            f"omega must be one ({n}, {n}) matrix, got shape {np.shape(omega)}"
        )
    lam, _, _ = pencil_eigh(A.data, omega)
    return lam


def tree_sum(values: np.ndarray) -> float:
    """Pairwise (tree) sum with a fixed combination order.

    The reduction order depends only on the flattened length, so repeated
    runs on identical data are bit-identical.
    """
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        if a.size % 2:
            tail = a[-1:]
            a = a[:-1]
        else:
            tail = None
        a = a[0::2] + a[1::2]
        if tail is not None:
            a = np.concatenate([a, tail])
    return float(a[0])


def integrate(g: ScalarField, volume: float = 1.0) -> float:
    """Integral of g against a constant volume density, h^(2n) * sum in tree order."""
    return volume * g.grid.spacing ** (2 * g.grid.n) * tree_sum(g.data)


def lp_norm(g: ScalarField, p: float, volume: float = 1.0) -> float:
    """L^p norm against the volume density; p = inf returns the grid max."""
    if np.isinf(p):
        return float(np.abs(g.data).max())
    if p < 1:
        raise DomainError("p must be >= 1 (or inf)")
    absg = ScalarField(g.grid, np.abs(g.data) ** p)
    return integrate(absg, volume) ** (1.0 / p)


def entropy_functional(f: ScalarField, p: float, volume: float = 1.0) -> float:
    """The weighted mass integral of exp(n f) (1 + n |f|)^p.

    Evaluated in log space, exp(n f + p log1p(n |f|)), so large nf does not
    overflow prematurely.
    """
    if p <= 0:
        raise DomainError("entropy exponent p must be positive")
    n = f.grid.n
    vals = np.exp(n * f.data + p * np.log1p(n * np.abs(f.data)))
    return integrate(ScalarField(f.grid, vals), volume)


def mollify(g: ScalarField, sigma: float) -> ScalarField:
    """Periodic Gaussian smoothing with standard deviation ``sigma``.

    Convolution with a separable wrapped-Gaussian kernel sampled on the
    grid and normalized to unit sum per axis, applied as one circular FFT
    convolution.  Because the kernel is nonnegative with exact unit mass,
    the output is a convex combination of input samples: positivity is
    preserved and the integral survives to roundoff.  sigma = 0 is the
    identity.
    """
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    if sigma == 0.0:
        return g.copy()
    grid = g.grid
    N, L = grid.points_per_axis, grid.period
    x = np.arange(N) * grid.spacing
    dist = np.minimum(x, L - x)
    kernel = np.exp(-0.5 * (dist / sigma) ** 2)
    kernel /= kernel.sum()
    multiplier = np.fft.fft(kernel)
    spectrum = np.fft.fftn(g.data).astype(complex)
    for a in range(2 * grid.n):
        shape = [1] * (2 * grid.n)
        shape[a] = N
        spectrum *= multiplier.reshape(shape)
    out = np.fft.ifftn(spectrum).real
    if np.all(g.data >= 0.0):
        out = np.maximum(out, 0.0)
    return ScalarField(grid, out)
