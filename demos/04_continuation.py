# Degenerate data by continuation
# ===============================
#
# When the background form only reaches the closed cone, the equation is
# solved along a decreasing schedule of regularizations t with warm
# starts.  The run records the stage constants b_t, the two-sided bracket
# on V_t / e^(n b_t), the t-uniform sup-norm proxy, and finally assembles
# the decreasing-sequence certificate phi_t + C / 2^i that stands in for
# the weak solution at t = 0.

import numpy as np

from hessianlab import (
    BackgroundData,
    ContinuationSchedule,
    SolverConfig,
    TorusGrid,
    TrigPolynomial,
    continuation_degenerate,
    decreasing_sequence,
)

grid = TorusGrid(n=2, points_per_axis=12)
# chi touches the cone boundary (one zero eigenvalue); chi_tilde = omega
bg = BackgroundData.flat(grid, chi_matrix=np.diag([0.4, 0.0]), kappa=1.0)
f = TrigPolynomial.random(2, np.random.default_rng(5), amplitude=0.3).sample(grid)

schedule = ContinuationSchedule.default()  # t = 1, 1/2, ..., 2^-11
states, report = continuation_degenerate(bg, f, schedule, SolverConfig(m=2))

print("stage table:")
print("      t          b_t     sup|phi|   iters   bracket (lo <= mid <= hi)")
for rec in report.stages:
    print(
        f"  {rec.t:9.6f}  {rec.b:8.5f}  {abs(rec.inf_phi):9.6f}  {rec.iters:3d}"
        f"     {rec.bracket_lower:.4f} <= {rec.bracket_mid:.4f} <= {rec.bracket_upper:.4f}"
    )

sups = [-rec.inf_phi for rec in report.stages]  # sup phi_t = 0
print(f"\nuniformity proxy: max {max(sups):.4f} <= 3 * median {3 * np.median(sups):.4f}"
      f" -> {report.meta['uniformity_pass']}")

# The certificate: one automatic enlargement of C is allowed, after which
# the capped stages must be pointwise nonincreasing.
cert = decreasing_sequence(states)
print("consecutive sup-differences:",
      [f"{d:.1e}" for d in cert.consecutive_sup_diffs])
mono = all(
    np.all(b.data <= a.data) for a, b in zip(cert.fields, cert.fields[1:])
)
print(f"\ncertificate: C = {cert.cap_constant:.3e}, adjusted = {cert.adjusted}, "
      f"pointwise nonincreasing = {mono}")
