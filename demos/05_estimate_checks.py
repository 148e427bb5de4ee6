# Quantitative estimate checks at desk scale
# ==========================================
#
# Five measurable stand-ins for a-priori estimates: the two iteration
# lemmas on synthetic level functions, the stability exponent experiment,
# the viscosity touching-function test, the uniqueness gradient energy,
# and the trace monitor.

import numpy as np

from hessianlab import (
    BackgroundData,
    ScalarField,
    SolverConfig,
    TorusGrid,
    TrigPolynomial,
    degiorgi_threshold,
    gaussian_bump,
    kolodziej_bound,
    laplacian_monitor,
    manufactured_solution,
    stability_experiment,
    twin_solve_uniqueness,
    viscosity_check,
)
from hessianlab.iteration import (
    assert_degiorgi_family,
    assert_kolodziej_family,
    certify_iteration_hypothesis,
    synthetic_degiorgi_family,
    synthetic_kolodziej_family,
)

rng = np.random.default_rng(99)

# --- iteration lemmas ------------------------------------------------------
# For phi(s) = s with exponent 1 the certified constant is exactly 1/4 and
# the lower bound is tight: phi(s0) = bound.
s = np.arange(1, 241) / 240.0
c_min, _ = certify_iteration_hypothesis(s, s, "kolodziej", delta0=1.0)
print("linear family: C_min =", c_min, " bound =", kolodziej_bound(c_min, 1.0, 1.0))
print("direct threshold d(C=1, alpha=1, delta=1, phi=1) =",
      degiorgi_threshold(1.0, 1.0, 1.0, 1.0))

worst_gap, worst_leftover = np.inf, 0.0
for _ in range(50):
    gap, _ = assert_kolodziej_family(synthetic_kolodziej_family(rng))
    worst_gap = min(worst_gap, gap)
    leftover, _, _ = assert_degiorgi_family(synthetic_degiorgi_family(rng))
    worst_leftover = max(worst_leftover, leftover)
print(f"50 synthetic families each: worst bound gap {worst_gap:.2e}, "
      f"worst leftover mass {worst_leftover:.2e}")

# --- shared solve setup ----------------------------------------------------
grid = TorusGrid(n=2, points_per_axis=12)
bg = BackgroundData.flat(grid, kappa=1.0)
f = TrigPolynomial.random(2, rng, amplitude=0.2).sample(grid)
cfg = SolverConfig(m=2)

# --- stability exponent ----------------------------------------------------
L = grid.period
pert = ScalarField(grid, gaussian_bump(grid, 1.0, 0.15, [0.3 * L] * 4).data
                   - gaussian_bump(grid, 1.0, 0.15, [0.7 * L] * 4).data)
result = stability_experiment(bg, 0.25, f, pert, [2.0**-k for k in range(3, 8)],
                              q=2.0, q_prime=1.0, config=cfg)
print(f"\nstability: fitted exponent {result.fitted_exponent:.3f} "
      f">= floor {result.floor:.3f} - 0.1 -> {result.passed}")

# --- viscosity test --------------------------------------------------------
trig = TrigPolynomial.random(2, rng).scaled_to_curvature(0.5)
phi_star, f_star, _ = manufactured_solution(bg, 0.25, 2, trig.sample(grid),
                                            discrete=True)
clean = viscosity_check(phi_star, 0.0, bg, 0.25, f_star, 2, samples=grid.num_points)
spiked_data = phi_star.data.copy()
spiked_data[tuple(n // 2 for n in grid.shape)] -= 30 * grid.spacing**2
spiked = viscosity_check(ScalarField(grid, spiked_data), 0.0, bg, 0.25, f_star, 2,
                         samples=grid.num_points)
print(f"viscosity: exact solution {clean.total_violations} violations, "
      f"spiked solution {spiked.total_violations}")

# --- uniqueness ------------------------------------------------------------
energy, sup_diff, _, _ = twin_solve_uniqueness(bg, 0.25, f, cfg, rng)
print(f"twin solves: normalized energy {energy:.2e}, sup difference {sup_diff:.2e}")

# --- trace monitor ---------------------------------------------------------
from hessianlab import solve_nondegenerate

state, _ = solve_nondegenerate(bg, 0.25, f, cfg)
mon = laplacian_monitor(state, bg, 0.25, f, 2)
print(f"trace monitor: sup w = {mon.sup_w:.3f} <= assembled bound {mon.bound_rhs:.3f}")
