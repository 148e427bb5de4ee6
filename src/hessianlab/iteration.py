"""Iteration-lemma bounds as numeric utilities, plus synthetic test families.

Two level-set bootstrapping lemmas are realized as closed-form evaluations:
a Kolodziej-type lower bound for a monotone increasing level function, and a
De Giorgi vanishing threshold for a nonincreasing one.  The certification
helper finds the minimal constant for which the lemma hypothesis holds on
the sampled pairs, with one lower-triangle kernel for both forms.  The
synthetic generators produce power-law families whose extremal pairs land
exactly on the sample grid, so the lemma conclusions are asserted with zero
tolerance slack.

The De Giorgi lemma is stated in the literature for increasing functions,
but every use here is a level-set mass s -> measure{phi < -s}, which is
nonincreasing; the hypothesis is therefore certified for nonincreasing
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

KOLODZIEJ = "kolodziej"
DEGIORGI = "degiorgi"
# samples of a synthetic family, a multiple of 6 so its extremal pairs lie on the grid
FAMILY_SAMPLES = 240


def _require_positive(**values) -> None:
    for name, value in values.items():
        if value is None or not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


def kolodziej_bound(C0: float, delta0: float, s0: float) -> float:
    """Lower bound (s0 (1 - 2^-delta0) / (2 C0))^(1/delta0) for phi(s0)."""
    _require_positive(C0=C0, delta0=delta0, s0=s0)
    return (s0 * (1.0 - 2.0 ** -delta0) / (2.0 * C0)) ** (1.0 / delta0)


def degiorgi_threshold(C: float, alpha: float, delta: float, phi_s0: float) -> float:
    """Vanishing threshold d = C^(1/alpha) phi(s0)^(delta/alpha) 2^((1+delta)/delta)."""
    _require_positive(C=C, alpha=alpha, delta=delta)
    if not 0.0 <= phi_s0 < math.inf:
        raise DomainError(f"phi(s0) must be nonnegative and finite, got {phi_s0!r}")
    return C ** (1.0 / alpha) * phi_s0 ** (delta / alpha) * 2.0 ** ((1.0 + delta) / delta)


def _lower_pair_max(s: np.ndarray, phi: np.ndarray, power: float, grow: float) -> float:
    """max over s_i <= s_j of (s_j - s_i)^power phi_i / phi_j^grow, s ascending, phi > 0.

    Only pairs i <= j can be positive, so rows [0, h) meet columns [0, h)
    and rows [h, k) all columns.  A pair i > j is clamped before a power; at
    power 1 it stays <= 0, under the exact 0 on the diagonal.  Dividing
    only the row maxima is exact: division by phi_j > 0 keeps order.
    """
    k, h = s.size, (s.size + 1) // 2
    # one full-size buffer for both blocks: two fresh ones page-faulted on every call
    top, buf = np.empty(k), np.empty(k * k)
    for lo, hi in ((0, h), (h, k)):
        num = buf[:(hi - lo) * hi].reshape(hi - lo, hi)
        np.subtract.outer(s[lo:hi], s[:hi], out=num)
        if power != 1.0:
            np.maximum(num, 0.0, out=num)
            num **= power
        num *= phi[:hi]
        num.max(axis=1, out=top[lo:hi])
    return float((top / phi ** grow).max())


def certify_iteration_hypothesis(s_values, phi_values, form: str, *,
                                 delta0: float | None = None,
                                 alpha: float | None = None,
                                 delta: float | None = None):
    """Minimal constant making the lemma hypothesis hold on sampled pairs.

    Returns ``(C_min, feasible)``; ``feasible`` is False when the samples
    break the sign or monotonicity of the form (steps within 1e-14 of phi
    count as flat).  A C_min that is not finite raises ``DomainError``.

    * ``kolodziej``: phi increasing and positive on (0, s0); pairs are
      t phi(s - t) <= C phi(s)^(1 + delta0) over sampled 0 < s - t < s < s0
      where s0 is the largest sample.
    * ``degiorgi``: phi nonnegative and nonincreasing on [s0, inf); pairs
      are (s')^alpha phi(s + s') <= C phi(s)^(1 + delta).  On the reflected
      samples these are the Kolodziej pairs with the gap raised to alpha,
      taken over the support phi > 0 (a zero phi weights its pairs by 0).
    """
    s = np.asarray(s_values, dtype=float)
    phi = np.asarray(phi_values, dtype=float)
    if s.size != phi.size or s.size < 3:
        raise DomainError("need at least 3 matching samples")
    if not (np.isfinite(s).all() and np.isfinite(phi).all()):
        raise DomainError("s and phi samples must be finite")
    order = np.argsort(s)
    s, phi = s[order], phi[order]

    if form == KOLODZIEJ:
        _require_positive(delta0=delta0)
        keep = s < s[-1]
        if not keep.any():
            raise DomainError("kolodziej form needs a sample below s0 = max(s)")
        bad_sign, power, grow = (phi <= 0).any(), 1.0, 1.0 + delta0
    elif form == DEGIORGI:
        _require_positive(alpha=alpha, delta=delta)
        s, phi = -s[::-1], phi[::-1]
        keep = phi > 0
        bad_sign, power, grow = (phi < 0).any(), alpha, 1.0 + delta
    else:
        raise DomainError(f"unknown hypothesis form {form!r}")
    # phi nondecreasing, up to a fall of 1e-14 of the larger neighbour
    if bad_sign or (np.diff(phi) < -1e-14 * phi[:-1]).any():
        return 0.0, False
    if not keep.any():
        return 0.0, True
    with np.errstate(all="ignore"):
        c_min = _lower_pair_max(s[keep], phi[keep], power, grow)
    if not math.isfinite(c_min):
        raise DomainError(f"{form} certificate is not finite, got {c_min!r}")
    return c_min, True


# ---------------------------------------------------------------------------
# synthetic families for the lemma assertions


@dataclass
class SyntheticFamily:
    """One sampled level function together with its lemma parameters."""

    form: str
    s: np.ndarray
    phi: np.ndarray
    params: dict
    s0: float


def synthetic_kolodziej_family(rng: np.random.Generator) -> SyntheticFamily:
    """Power family phi(s) = a s^theta on a uniform grid ending at s0.

    Half the draws sit exactly on the equality case theta * delta0 = 1
    whose extremal pair (s, s * theta / (1 + theta)) lies on the grid, the
    rest keep a strict gap; both kinds satisfy the certified hypothesis
    continuously, so the lower bound assertion has no sampling loophole.
    """
    delta0 = float(rng.choice([0.5, 1.0, 2.0]))
    tight = bool(rng.integers(0, 2))
    theta = 1.0 / delta0 if tight else (1.0 / delta0) * float(rng.uniform(0.4, 0.8))
    a = float(rng.uniform(0.5, 2.0))
    s0 = float(rng.uniform(0.5, 2.0))
    k = FAMILY_SAMPLES
    s = s0 * np.arange(1, k + 1) / k
    phi = a * s**theta
    params = {"delta0": delta0, "a": a, "theta": theta, "tight": tight}
    return SyntheticFamily(form=KOLODZIEJ, s=s, phi=phi, params=params, s0=s0)


def synthetic_degiorgi_family(rng: np.random.Generator) -> SyntheticFamily:
    """Family phi(s) = c max(0, s1 - s)^gamma sampled on [s0, s0 + 3 u0].

    Parameter triples keep alpha >= gamma * delta so the hypothesis holds
    continuously, with the extremal pair (s0, s0 + u0 alpha / (alpha +
    gamma)) on the grid; the threshold then lands at or beyond the true
    vanishing point s1 = s0 + u0.
    """
    alpha, gamma, delta = [
        (1.0, 1.0, 1.0),   # exactly tight: threshold equals u0
        (2.0, 1.0, 1.0),
        (1.0, 1.0, 0.5),
        (2.0, 1.0, 2.0),
    ][int(rng.integers(0, 4))]
    c = float(rng.uniform(0.5, 2.0))
    s0 = float(rng.uniform(0.0, 1.0))
    u0 = float(rng.uniform(0.5, 1.5))
    k = FAMILY_SAMPLES
    s = s0 + 3.0 * u0 * np.arange(0, k + 1) / k
    s1 = s0 + u0
    # keep s1 and the extremal offset on the grid: 3 u0 / k steps divide u0
    # when k is a multiple of 3, and u0 alpha/(alpha+gamma) needs k mult of 6
    phi = c * np.maximum(0.0, s1 - s) ** gamma
    params = {"alpha": alpha, "gamma": gamma, "delta": delta, "c": c, "u0": u0}
    return SyntheticFamily(form=DEGIORGI, s=s, phi=phi, params=params, s0=s0)


def assert_kolodziej_family(fam: SyntheticFamily):
    """Certify the hypothesis and check phi(s0) against the lower bound.

    Returns ``(gap, c_min)`` with gap = phi(s0) - bound, >= 0 up to rounding.
    """
    delta0 = fam.params["delta0"]
    c_min, feasible = certify_iteration_hypothesis(fam.s, fam.phi, KOLODZIEJ, delta0=delta0)
    if not feasible:
        raise DomainError("synthetic family failed certification")
    bound = kolodziej_bound(c_min, delta0, fam.s0)
    phi_s0 = float(fam.phi[np.argmin(np.abs(fam.s - fam.s0))])
    return phi_s0 - bound, c_min


def assert_degiorgi_family(fam: SyntheticFamily):
    """Certify the hypothesis and check vanishing beyond the threshold.

    Returns ``(max_phi_beyond, d, c_min)``; the first entry is the largest
    sampled phi value at s >= s0 + d - 1e-12 and should be zero.
    """
    alpha, delta = fam.params["alpha"], fam.params["delta"]
    c_min, feasible = certify_iteration_hypothesis(fam.s, fam.phi, DEGIORGI,
                                                   alpha=alpha, delta=delta)
    if not feasible:
        raise DomainError("synthetic family failed certification")
    phi_s0 = float(fam.phi[np.argmin(np.abs(fam.s - fam.s0))])
    d = degiorgi_threshold(c_min, alpha, delta, phi_s0)
    beyond = fam.s >= fam.s0 + d - 1e-12
    max_beyond = float(fam.phi[beyond].max()) if np.any(beyond) else 0.0
    return max_beyond, d, c_min
