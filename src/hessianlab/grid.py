"""Flat-torus discretization: fields, the discrete complex Hessian, and integrals.

A torus of complex dimension ``n`` is sampled on a uniform periodic grid
with ``N`` points per real axis, axes ordered (x_1, y_1, ..., x_n, y_n).
Scalar fields are float arrays over the grid.  A Hermitian field, an (n, n)
Hermitian matrix X per point, is held as the n * n real planes of
``symfunc.hermitian_to_planes`` (plane (i, j) holds Re X_ij on and above
the diagonal, Im X_ji below it), so it is Hermitian by construction;
complex matrices enter only through ``HermitianField.from_matrices``.

Centered second-order finite differences, each an (N, N) circulant applied
along one axis as one matmul, are the working derivative scheme.
A spectral route is provided as well; it is exact on trigonometric
polynomials and serves as the test oracle and the manufactured-data
generator, never as the solver's operator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .symfunc import hermitian_to_planes, pencil_eigh, planes_to_hermitian

# the most points a TorusGrid accepts, so an HLF1 header cannot ask for more
POINT_BUDGET = 2_000_000


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on a flat torus of complex dimension ``n``.

    ``points_per_axis`` applies to each of the 2n real axes and the period
    is the same for all axes, so the spacing is ``period / points_per_axis``.
    """

    n: int
    points_per_axis: int
    period: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("complex dimension must be >= 1")
        if self.points_per_axis < 2 or self.points_per_axis % 2:
            raise DomainError("points_per_axis must be even and >= 2")
        if not 0.0 < self.period < np.inf:
            raise DomainError("period must be positive and finite")
        # in logs: the power itself is a huge integer for a huge n
        if 2 * self.n * math.log(self.points_per_axis) > math.log(POINT_BUDGET):
            raise DomainError(
                f"{self.points_per_axis}^{2 * self.n} points exceed the budget "
                f"{POINT_BUDGET}"
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
            raise DomainError(f"scalar data shape {self.data.shape} != {self.grid.shape}")
        if not np.all(np.isfinite(self.data)):
            raise DomainError("scalar field contains non-finite values")

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.data.copy())


@dataclass(eq=False)
class HermitianField:
    """An (n, n) Hermitian matrix per grid point, as real planes (n * n,) + grid.shape."""

    grid: TorusGrid
    data: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n ** 2,) + self.grid.shape
        if np.shape(self.data) != shape:
            raise DomainError(f"plane data shape {np.shape(self.data)} != {shape}")
        self.data = np.asarray(self.data, dtype=float)

    @classmethod
    def from_matrices(cls, grid: TorusGrid, a) -> "HermitianField":
        """The field of complex matrices ``a`` (grid.shape + (n, n)), symmetrized."""
        a, shape = np.asarray(a, dtype=complex), grid.shape + (grid.n, grid.n)
        if a.shape != shape:
            raise DomainError(f"matrix data shape {a.shape} != {shape}")
        # halved before the sum, so entries near the float64 limit do not overflow
        return cls(grid, hermitian_to_planes(0.5 * a + 0.5 * np.conj(np.swapaxes(a, -1, -2))))

    @classmethod
    def constant(cls, grid: TorusGrid, matrix) -> "HermitianField":
        return cls.from_matrices(grid, np.broadcast_to(matrix, grid.shape + np.shape(matrix)))


# ---------------------------------------------------------------------------
# finite differences


@functools.lru_cache(maxsize=None)
def _difference_matrices(N: int) -> tuple:
    """Read-only circulants on N periodic points: the first difference
    v[j+1] - v[j-1] and the second difference v[j+1] + v[j-1] - 2 v[j].

    Each comes as a (2, N, N) stack of the matrix and its C-contiguous
    transpose: the first difference is antisymmetric, the second symmetric.
    """
    eye = np.eye(N)
    up, down = np.roll(eye, 1, axis=1), np.roll(eye, -1, axis=1)
    delta, delta2 = up - down, up + down - 2.0 * eye
    delta, delta2 = np.stack([delta, -delta]), np.stack([delta2, delta2])
    delta.flags.writeable = delta2.flags.writeable = False
    return delta, delta2


def _along(M: np.ndarray, data: np.ndarray, axis: int, out=None) -> np.ndarray:
    """A (2, N, N) stack [M, M^T] of ``_difference_matrices`` applied along one axis
    of ``data`` by one matmul, into C-contiguous ``out``."""
    N = M.shape[1]
    out = np.empty(data.shape) if out is None else out
    if axis == data.ndim - 1:
        np.matmul(data.reshape(-1, N), M[1], out=out.reshape(-1, N))
    else:
        stack = (N ** axis, N, -1)
        np.matmul(M[0], data.reshape(stack), out=out.reshape(stack))
    return out


def hessian_planes(data: np.ndarray, n: int) -> np.ndarray:
    """Unscaled difference planes of the discrete complex Hessian.

    Shape (n, n) + data.shape.  With d and d2 the periodic first and second
    differences of ``_difference_matrices`` along one axis, each one matmul,
    plane (i, i) is d2_{x_i} + d2_{y_i}, 4 h^2 times the discrete Laplacian
    in the (x_i, y_i) plane.  For i < j, plane (i, j) is
    d_{x_j} d_{x_i} + d_{y_j} d_{y_i} and plane (j, i) is
    d_{y_j} d_{x_i} - d_{x_j} d_{y_i}, 4 h^2 times the centered mixed
    differences.  This is the one discretization.  Times ``hessian_scale``
    the planes are those of the complex Hessian in the layout of
    ``symfunc.hermitian_to_planes``, that of ``HermitianField.data``
    (``complex_hessian``).  The Krylov matvec contracts them with the
    coefficients of its linearization.
    """
    delta, delta2 = _difference_matrices(data.shape[0])
    out = np.empty((n, n) + data.shape)
    # matmuls write in place: a fresh temporary each page-faults on large grids
    tmp = np.empty(data.shape)
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        _along(delta2, data, xi, out[i, i])
        out[i, i] += _along(delta2, data, yi, tmp)
        if i == n - 1:
            break
        dxi, dyi = _along(delta, data, xi), _along(delta, data, yi)
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            _along(delta, dxi, xj, out[i, j])
            out[i, j] += _along(delta, dyi, yj, tmp)
            _along(delta, dxi, yj, out[j, i])
            out[j, i] -= _along(delta, dyi, xj, tmp)
    return out


def hessian_scale(grid: TorusGrid) -> np.ndarray:
    """Factors (n * n,) taking ``hessian_planes`` to complex-Hessian planes."""
    h = grid.spacing
    return np.where(np.eye(grid.n, dtype=bool), 0.25 / (h * h), 0.0625 / (h * h)).ravel()


def complex_hessian(phi: ScalarField) -> HermitianField:
    """Discrete complex Hessian of a scalar potential.

    Entry (i, j) realizes
    (1/4)(d_{x_i x_j} + d_{y_i y_j}) + (i/4)(d_{x_i y_j} - d_{y_i x_j})
    with centered periodic differences: the three-point second difference
    on the diagonal and the centered first difference (v[j+1] - v[j-1]) / 2h
    composed with itself off it, read from ``hessian_planes`` times
    ``hessian_scale``.
    """
    grid = phi.grid
    n = grid.n
    planes = hessian_planes(phi.data, n).reshape((n * n,) + grid.shape)
    scale = hessian_scale(grid).reshape((n * n,) + (1,) * (2 * n))
    return HermitianField(grid, scale * planes)


def fd_laplacian_inverse(grid: TorusGrid):
    """The inverse of a weighted centered difference Laplacian.

    The operator is L_w = sum_i w_i (Delta_{x_i} + Delta_{y_i}), with n
    positive weights w.  Returns ``(inverse_table, solve)``:
    ``inverse_table(w)`` is the table of the inverse eigenvalues of L_w, 0 on
    the zero mode, formed as one product ``w @ planes`` over the n per-plane
    eigenvalue tables lambda_{x_i} + lambda_{y_i}, which are built here once;
    ``solve(r, table)`` maps a field r to the mean-zero u with
    L_w u = r - mean(r).  Unit weights give the 2n-dimensional Laplacian.
    Both work in the real orthonormal eigenbasis Q of the periodic 1-D second
    difference, with columns 1/sqrt(N), sqrt(2/N) cos(2 pi k j / N),
    (-1)^j / sqrt(N) and sqrt(2/N) sin(2 pi k j / N) and eigenvalues
    (2 cos(2 pi k / N) - 2) / h^2: each transform is 2n reshape-matmuls,
    ``x.reshape(N, -1).T @ Q``, one per axis, and the zero mode is projected
    out between them.
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
    planes = np.zeros((grid.n,) + grid.shape)
    for a in range(2 * grid.n):
        shape = [1] * (2 * grid.n)
        shape[a] = N
        planes[a // 2] += one_axis.reshape(shape)
    planes = planes.reshape(grid.n, -1)
    # any nonzero zero-mode entry: its inverse is replaced by 0
    planes[:, 0] = 1.0

    def inverse_table(weights: np.ndarray) -> np.ndarray:
        table = 1.0 / (weights @ planes)
        table[0] = 0.0
        return table.reshape(grid.shape)

    def solve(data: np.ndarray, table: np.ndarray) -> np.ndarray:
        x = data
        for _ in range(2 * grid.n):
            x = x.reshape(N, -1).T @ Q
        x = x.reshape(grid.shape) * table
        for _ in range(2 * grid.n):
            x = x.reshape(N, -1).T @ Q.T
        return x.reshape(grid.shape)

    return inverse_table, solve


def complex_gradient(phi: ScalarField) -> np.ndarray:
    """Holomorphic gradient (d/dz_i) phi = (d_x - i d_y)/2, shape grid + (n,)."""
    grid = phi.grid
    delta, _ = _difference_matrices(grid.points_per_axis)
    d = np.stack([_along(delta, phi.data, a) for a in range(2 * grid.n)], axis=-1)
    d /= 2.0 * grid.spacing
    return 0.5 * (d[..., 0::2] - 1j * d[..., 1::2])


# ---------------------------------------------------------------------------
# spectral route (oracle / manufactured data only)


def spectral_derivative(data: np.ndarray, axis: int, grid: TorusGrid, order: int = 1) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
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
    out = np.empty((n * n,) + grid.shape)
    d1 = {a: spectral_derivative(f, a, grid) for a in range(2 * n)}

    def mixed(a, b):
        return spectral_derivative(d1[a], b, grid)

    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        out[i * n + i] = 0.25 * (
            spectral_derivative(f, xi, grid, order=2)
            + spectral_derivative(f, yi, grid, order=2)
        )
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            out[i * n + j] = 0.25 * (mixed(xi, xj) + mixed(yi, yj))
            out[j * n + i] = 0.25 * (mixed(xi, yj) - mixed(yi, xj))
    return HermitianField(grid, out)


# ---------------------------------------------------------------------------
# eigen fields, reductions, norms


def eigen_field(A: HermitianField, omega: np.ndarray) -> np.ndarray:
    """Pointwise eigenvalues of A relative to one constant (n, n) metric, descending.

    Shape grid + (n,).  A singular metric raises SingularMetricError.
    """
    n = A.grid.n
    if np.shape(omega) != (n, n):
        raise DomainError(f"omega must be one ({n}, {n}) matrix, got shape {np.shape(omega)}")
    lam, _, _ = pencil_eigh(planes_to_hermitian(A.data), omega)
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


def worst_point(values: np.ndarray, shape: tuple) -> tuple:
    """The least of ``values`` and its index in a grid of ``shape``, as a float and ints."""
    i = int(np.argmin(values))
    return float(np.ravel(values)[i]), tuple(int(k) for k in np.unravel_index(i, shape))


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
