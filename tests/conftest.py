"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's evaluation routes:
elementary symmetric polynomials by subset enumeration, pencil eigenvalues
by characteristic-polynomial roots, integrals by plain summation, the
inverse difference Laplacian by its FFT symbol, the iteration-lemma
certificate as the max of the full pair-ratio matrix.
"""

from itertools import combinations
from math import prod

import numpy as np
import pytest

from hessianlab import BackgroundData, ScalarField, TorusGrid


def esp_enumeration(values, k):
    """Subset-enumeration oracle for the k-th elementary symmetric polynomial."""
    vals = list(values)
    if k == 0:
        return 1.0
    return float(sum(prod(c) for c in combinations(vals, k)))


def pencil_roots_oracle(A, G):
    """Roots of det(A - lam G) via polynomial interpolation, descending."""
    n = A.shape[0]
    nodes = np.linspace(-3.0, 3.0, n + 1)
    vals = [np.linalg.det(A - lam * G).real for lam in nodes]
    coeffs = np.polyfit(nodes, vals, n)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def fd_laplacian_symbol(grid, weights):
    """Fourier symbol of sum_i w_i (Laplacian_{x_i} + Laplacian_{y_i}), centered differences."""
    N, h = grid.points_per_axis, grid.spacing
    one_axis = (2.0 * np.cos(2.0 * np.pi * np.arange(N) / N) - 2.0) / (h * h)
    sym = np.zeros(grid.shape)
    for a in range(2 * grid.n):
        shape = [1] * (2 * grid.n)
        shape[a] = N
        sym = sym + weights[a // 2] * one_axis.reshape(shape)
    return sym


def fd_laplacian_inverse_fft(grid, data, weights):
    """FFT oracle for the mean-zero u of sum_i w_i (Laplacian_{x_i} + Laplacian_{y_i}) u
    = data - mean(data)."""
    sym = fd_laplacian_symbol(grid, weights)
    inv = np.where(sym != 0.0, 1.0 / np.where(sym != 0.0, sym, 1.0), 0.0)
    return np.fft.ifftn(np.fft.fftn(data - data.mean()) * inv).real


def certify_oracle(s_values, phi_values, form, *, delta0=None, alpha=None, delta=None):
    """Iteration-lemma certificate as the max over the full k x k ratio matrix.

    Same contract as ``certify_iteration_hypothesis`` on valid input, with
    the same monotonicity slack, 1e-14 of the larger of two neighbours; a
    certificate that is not finite is returned, not raised.
    """
    s = np.asarray(s_values, dtype=float)
    phi = np.asarray(phi_values, dtype=float)
    order = np.argsort(s)
    s, phi = s[order], phi[order]
    if form == "kolodziej":
        if np.any(np.diff(phi) < -1e-14 * phi[:-1]) or np.any(phi <= 0):
            return 0.0, False
        inner = s < s.max()
        si, pi = s[inner], phi[inner]
        tt = np.maximum(si[None, :] - si[:, None], 0.0)
        ratio = tt * pi[:, None] / pi[None, :] ** (1.0 + delta0)
        return float(ratio.max()), True
    if np.any(np.diff(phi) > 1e-14 * phi[1:]) or np.any(phi < 0):
        return 0.0, False
    # a pair whose far sample has phi = 0 weighs 0: its gap is masked before
    # the power, so a gap that overflows meets no inf * 0
    gap = np.where(phi[None, :] > 0, np.maximum(s[None, :] - s[:, None], 0.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            (gap > 0) & (phi[:, None] > 0),
            gap**alpha * phi[None, :] / np.where(phi[:, None] > 0,
                                                 phi[:, None], 1.0) ** (1.0 + delta),
            0.0,
        )
    return float(ratio.max()), True


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_spd(rng, n, jitter=0.5):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + (1.0 + jitter) * np.eye(n)


def anisotropic_spd(rng, n):
    """A complex SPD metric, stretched unevenly along the coordinate axes."""
    d = np.diag(rng.uniform(0.3, 3.0, n))
    return d @ random_spd(rng, n) @ d


def sample_cone_tuples(rng, n, m, count, lo=-0.6, hi=2.5, batch=4096):
    """Rejection-sample ``count`` tuples from the open degree-m cone."""
    from hessianlab import cone_margins

    out = []
    while sum(len(c) for c in out) < count:
        cand = rng.uniform(lo, hi, size=(batch, n))
        keep = cand[cone_margins(cand, m) > 0.0]
        out.append(keep)
    return np.concatenate(out)[:count]


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


@pytest.fixture
def grid8():
    return TorusGrid(n=2, points_per_axis=8)


@pytest.fixture
def grid12():
    return TorusGrid(n=2, points_per_axis=12)


@pytest.fixture
def flat_bg(grid12):
    return BackgroundData.flat(grid12, kappa=1.0)


@pytest.fixture
def zero_field(grid12):
    return ScalarField.constant(grid12, 0.0)
