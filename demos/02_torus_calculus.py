# Field calculus on the flat torus
# ================================
#
# Scalar and Hermitian-matrix fields live on a uniform periodic grid with
# axes (x_1, y_1, ..., x_n, y_n).  Second-order centered differences build
# the discrete complex Hessian; a spectral route serves as the exactness
# oracle.  Integrals reduce in a fixed pairwise tree so results are
# bit-reproducible.

import numpy as np

from hessianlab import (
    ScalarField,
    TorusGrid,
    TrigPolynomial,
    complex_hessian,
    complex_hessian_spectral,
    gaussian_bump,
    integrate,
    lp_norm,
    mollify,
)

grid = TorusGrid(n=2, points_per_axis=16)
print(f"grid: n=2, N=16, {grid.num_points} points, h = {grid.spacing}")

# A potential built from one cosine per real axis of z_1.  Its complex
# Hessian has a single nonzero entry, (1,1) = (cos(2 pi x1) + cos(2 pi y1))/4.
L = grid.period
pot = (L / (2 * np.pi)) ** 2 * (
    (1 - np.cos(2 * np.pi * grid.axis_coords(0) / L))
    + (1 - np.cos(2 * np.pi * grid.axis_coords(1) / L))
) + np.zeros(grid.shape)
phi = ScalarField(grid, pot)

hess = complex_hessian(phi)
want = 0.25 * (
    np.cos(2 * np.pi * grid.axis_coords(0) / L)
    + np.cos(2 * np.pi * grid.axis_coords(1) / L)
) + np.zeros(grid.shape)
# A Hermitian field holds n * n real planes: plane 0 is entry (1,1), planes
# 1 and 2 the real and imaginary parts of entry (1,2).
print("entry (1,1) error:", np.abs(hess.data[0] - want).max())
print("entry (1,2) magnitude:", np.hypot(hess.data[1], hess.data[2]).max())

# The error above is O(h^2); halving h divides it by about four.
for N in (8, 16, 32):
    g = TorusGrid(n=1, points_per_axis=N)
    p = ScalarField(
        g,
        (L / (2 * np.pi)) ** 2 * (1 - np.cos(2 * np.pi * g.axis_coords(0) / L))
        + np.zeros(g.shape),
    )
    w = 0.25 * np.cos(2 * np.pi * g.axis_coords(0) / L) + np.zeros(g.shape)
    print(f"  N={N:3d}: max error {np.abs(complex_hessian(p).data[0] - w).max():.3e}")

# Against the spectral route (exact on resolved modes) the difference is
# pure discretization error, shrinking fourfold per grid halving:
trig = TrigPolynomial.random(2, np.random.default_rng(3)).scaled_to_curvature(1.0)
gaps = {}
for N in (16, 32):
    g = TorusGrid(n=2, points_per_axis=N)
    sample = trig.sample(g)
    gaps[N] = np.abs(
        complex_hessian(sample).data - complex_hessian_spectral(sample).data
    ).max()
print("finite differences vs spectral:", gaps, "ratio", gaps[16] / gaps[32])

# Integration: the periodic trapezoid rule is exact on resolved modes.
one = ScalarField.constant(grid, 1.0)
sample = trig.sample(grid)
print("volume:", integrate(one), "| L2 norm of the sample:", lp_norm(sample, 2))

# Smoothing: a periodic Gaussian multiplier that keeps mass and positivity.
bump = gaussian_bump(grid, amplitude=2.0, width=0.06)
for sigma in (grid.spacing, 2 * grid.spacing, 4 * grid.spacing):
    smooth = mollify(bump, sigma)
    drift = abs(integrate(smooth) - integrate(bump))
    print(f"sigma = {sigma:.4f}: mass drift {drift:.2e}, min {smooth.data.min():.3e}")
