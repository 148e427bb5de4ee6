"""Iteration-lemma bounds as numeric utilities, plus synthetic test families.

Two level-set bootstrapping lemmas are realized as closed-form evaluations:
a Kolodziej-type lower bound for a monotone increasing level function, and a
De Giorgi vanishing threshold for a nonincreasing one.  The certification
helper finds the minimal constant for which the lemma hypothesis holds on
the sampled pairs, with one monotone-argmax kernel for both forms, run on
a stack of families that share their parameters.  The synthetic generators
draw batches of power-law families, as arrays, whose extremal pairs land
exactly on the sample grid, so the lemma conclusions are asserted with zero
tolerance slack; the assertions certify each parameter case of a batch as
one stack.

The De Giorgi lemma is stated in the literature for increasing functions,
but every use here is a level-set mass s -> measure{phi < -s}, which is
nonincreasing; the hypothesis is therefore certified for nonincreasing
samples.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

KOLODZIEJ = "kolodziej"
DEGIORGI = "degiorgi"
# samples of a synthetic family, a multiple of 6 so its extremal pairs lie on the grid
FAMILY_SAMPLES = 240
# families drawn and certified together, so memory does not grow with their number
LEMMA_BATCH = 100


def _require_positive(**values) -> None:
    for name, value in values.items():
        v = np.asarray(np.nan if value is None else value, dtype=float)
        bad = ~((0.0 < v) & (v < math.inf))
        if bad.any():
            shown = value if v.ndim == 0 else float(v[bad][0])
            raise DomainError(f"{name} must be positive and finite, got {shown!r}")


def kolodziej_bound(C0, delta0: float, s0):
    """Lower bound (s0 (1 - 2^-delta0) / (2 C0))^(1/delta0) for phi(s0), elementwise."""
    _require_positive(C0=C0, delta0=delta0, s0=s0)
    return (s0 * (1.0 - 2.0 ** -delta0) / (2.0 * C0)) ** (1.0 / delta0)


def degiorgi_threshold(C, alpha: float, delta: float, phi_s0):
    """Vanishing threshold d = C^(1/alpha) phi(s0)^(delta/alpha) 2^((1+delta)/delta), elementwise."""
    _require_positive(C=C, alpha=alpha, delta=delta)
    level = np.asarray(phi_s0, dtype=float)
    if not ((0.0 <= level) & (level < math.inf)).all():
        raise DomainError(f"phi(s0) must be nonnegative and finite, got {phi_s0!r}")
    return C ** (1.0 / alpha) * phi_s0 ** (delta / alpha) * 2.0 ** ((1.0 + delta) / delta)


def _normal_pairs(s: np.ndarray, phi: np.ndarray, power: float) -> bool:
    """Whether every nonzero gap, its power and its pair value lie in [2^-1000, 2^1000].

    Any pair gap s_j - s_i > 0 lies between the stack's smallest positive
    neighbour gap and its widest row span, so these ends bound every pair.
    With no positive gap or no positive phi, every pair value is 0.
    """
    gaps = np.diff(s, axis=1)
    low_gap = float(gaps.min(where=gaps > 0, initial=math.inf))
    low_phi = float(phi.min(where=phi > 0, initial=math.inf))
    if math.inf in (low_gap, low_phi):
        return True
    span, high_phi = float((s[:, -1] - s[:, 0]).max()), float(phi.max())
    if math.inf in (span, high_phi):
        return False
    gap_ends = (math.log2(low_gap), math.log2(span))
    ends = gap_ends + tuple(power * g for g in gap_ends) + (
        power * gap_ends[0] + math.log2(low_phi), power * gap_ends[1] + math.log2(high_phi))
    return all(abs(end) < 1000.0 for end in ends)


def _pair_values(num: np.ndarray, phi_cols: np.ndarray, power: float) -> np.ndarray:
    """(s_j - s_i)_+^power phi_i in place, from the gaps s_j - s_i in ``num``.

    At power 1 there is no clamp: a pair i > j stays <= 0.
    """
    if power != 1.0:
        np.maximum(num, 0.0, out=num)
        num **= power
    num *= phi_cols
    return num


def _lower_pair_max(s: np.ndarray, phi: np.ndarray, rows: np.ndarray, power: float,
                    grow: float) -> np.ndarray:
    """Per row f: max over s_i <= s_j, j in rows[f], of (s_j - s_i)^power phi_i / phi_j^grow.

    ``s`` and ``phi`` are stacks ``(families, samples)``, each row ascending
    in s with phi >= 0.  A pair i > j is clamped before a power; at power 1
    it stays <= 0, under the exact 0 on the diagonal, and so does a column
    with phi_i = 0.

    The numerator maxima are a totally monotone matrix search: for
    s_i <= s_i', the ratio of the pair values of columns i' and i,
    (phi_i' / phi_i) ((s_j - s_i') / (s_j - s_i))^power, grows with s_j, so
    the maximizing columns of row j never move left as j grows.  Anchor
    rows, every r-th one with r = ceil(sqrt(k)) and the last, are scanned
    in full.  A row between two anchors is scanned over the columns from
    the first near-max column of the anchor above to the last near-max
    column of the anchor below, one shared window width for the stack.
    Near-max means within a relative slack of the anchor's max far above
    the rounding error of four pair values, so every window holds its row's
    max to the bit.  That bound needs normal floats; where a pair value
    could leave their range (``_normal_pairs``), every row is an anchor.

    Dividing only the row maxima is exact: division by phi_j > 0 keeps
    order.  Rows j outside ``rows`` are never divided by; a family with no
    such row reads 0.
    """
    families, k = s.shape
    step = math.isqrt(k - 1) + 1 if _normal_pairs(s, phi, power) else 1
    anchors = np.append(np.arange(0, k - 1, step), k - 1)
    near_max = 1.0 - (power + 4.0) * 2.0 ** -46
    top = np.empty((families, k))
    num = s[:, anchors, None] - s[:, None, :]
    best = _pair_values(num, phi[:, None, :], power).max(axis=2)
    top[:, anchors] = best
    near = num >= (best * near_max)[..., None]
    first = near.argmax(axis=2)
    last = k - 1 - near[..., ::-1].argmax(axis=2)
    if step > 1 and families:
        # block b: the rows strictly between anchors b and b + 1, the last,
        # shorter block padded with repeats of its last row
        blocks = np.minimum(anchors[:-1, None] + np.arange(1, step), anchors[1:, None] - 1)
        width = int((last[:, 1:] - first[:, :-1]).max()) + 1
        start = np.minimum(first[:, :-1], k - width)
        # windows as (width, families, k - width + 1), so that a row max is a
        # reduction over the leading axis
        s_win, phi_win = (np.lib.stride_tricks.sliding_window_view(a, width, axis=1)
                          .transpose(2, 0, 1) for a in (s, phi))
        fam = np.arange(families)[:, None]
        cols = (slice(None), fam, start)
        num = s[fam[:, :, None], blocks] - s_win[cols][..., None]
        top[fam[:, :, None], blocks] = _pair_values(num, phi_win[cols][..., None],
                                                   power).max(axis=0)
    ratio = np.divide(top, phi ** grow, out=np.full((families, k), -np.inf), where=rows)
    return np.where(rows.any(axis=1), ratio.max(axis=1), 0.0)


def _support_window(s: np.ndarray, phi: np.ndarray):
    """The last columns of the stack, as many as the widest support phi > 0 holds.

    Rows are ascending in s with phi nondecreasing and >= 0, so each support
    is a suffix.  A narrower row is padded with its zero-phi columns, their
    s moved to its first support sample, so a padded pair's gap is 0 or one
    of the row's own gaps, weighted by phi = 0: a far zero sample cannot
    overflow to inf * 0.
    """
    k = s.shape[1]
    support = (phi > 0).sum(axis=1)
    width = max(1, int(support.max(initial=0)))
    phi_w = phi[:, k - width:]
    first = np.minimum(k - support, k - 1)[:, None]
    s_w = np.where(phi_w > 0, s[:, k - width:], np.take_along_axis(s, first, axis=1))
    return s_w, np.ascontiguousarray(phi_w)


def certify_iteration_hypothesis(s_values, phi_values, form: str, *,
                                 delta0: float | None = None,
                                 alpha: float | None = None,
                                 delta: float | None = None):
    """Minimal constant making the lemma hypothesis hold on sampled pairs.

    ``s_values`` and ``phi_values`` are the samples of one family, or a
    stack ``(families, samples)`` of families that share the parameters.
    Returns ``(C_min, feasible)``, floats for one family and arrays of one
    entry per family for a stack.  ``feasible`` is False where the samples
    break the sign or monotonicity of the form (steps within 1e-14 of phi
    count as flat), and C_min is 0 there.  A feasible family whose C_min
    is not finite raises ``DomainError`` naming its row.

    * ``kolodziej``: phi increasing and positive on (0, s0); pairs are
      t phi(s - t) <= C phi(s)^(1 + delta0) over sampled 0 < s - t < s < s0
      where s0 is the family's largest sample.
    * ``degiorgi``: phi nonnegative and nonincreasing on [s0, inf); pairs
      are (s')^alpha phi(s + s') <= C phi(s)^(1 + delta).  On the reflected
      samples these are the Kolodziej pairs with the gap raised to alpha,
      taken over the support phi > 0 (a zero phi weights its pairs by 0).
    """
    s = np.asarray(s_values, dtype=float)
    phi = np.asarray(phi_values, dtype=float)
    single = s.ndim == 1
    if s.shape != phi.shape or s.ndim not in (1, 2) or s.shape[-1] < 3:
        raise DomainError("need at least 3 matching samples per family")
    if not (np.isfinite(s).all() and np.isfinite(phi).all()):
        raise DomainError("s and phi samples must be finite")
    s, phi = np.atleast_2d(s), np.atleast_2d(phi)
    order = np.argsort(s, axis=1)
    s, phi = np.take_along_axis(s, order, axis=1), np.take_along_axis(phi, order, axis=1)

    if form == KOLODZIEJ:
        _require_positive(delta0=delta0)
        rows = s < s[:, -1:]
        lonely = np.flatnonzero(~rows.any(axis=1))
        if lonely.size:
            raise DomainError(f"kolodziej form needs a sample below s0 = max(s) "
                              f"(row {lonely[0]})")
        bad_sign, power, grow = (phi <= 0).any(axis=1), 1.0, 1.0 + delta0
    elif form == DEGIORGI:
        _require_positive(alpha=alpha, delta=delta)
        s, phi = -s[:, ::-1], phi[:, ::-1]
        bad_sign, power, grow = (phi < 0).any(axis=1), alpha, 1.0 + delta
    else:
        raise DomainError(f"unknown hypothesis form {form!r}")
    # phi nondecreasing, up to a fall of 1e-14 of the larger neighbour
    feasible = ~(bad_sign | (np.diff(phi, axis=1) < -1e-14 * phi[:, :-1]).any(axis=1))
    s, phi = s[feasible], phi[feasible]
    if form == KOLODZIEJ:
        rows = rows[feasible]
    else:
        s, phi = _support_window(s, phi)
        rows = phi > 0
    with np.errstate(all="ignore"):
        certified = _lower_pair_max(s, phi, rows, power, grow)
    broken = np.flatnonzero(~np.isfinite(certified))
    if broken.size:
        row = int(np.flatnonzero(feasible)[broken[0]])
        raise DomainError(f"{form} certificate is not finite in row {row}, "
                          f"got {float(certified[broken[0]])!r}")
    c_min = np.zeros(feasible.size)
    c_min[feasible] = certified
    if single:
        return float(c_min[0]), bool(feasible[0])
    return c_min, feasible


# ---------------------------------------------------------------------------
# synthetic families for the lemma assertions

# the delta0 of each Kolodziej case
KOLODZIEJ_CASES = (0.5, 1.0, 2.0)
# the (alpha, gamma, delta) of each De Giorgi case, alpha >= gamma delta; the first is tight
DEGIORGI_CASES = ((1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 1.0, 0.5), (2.0, 1.0, 2.0))


def synthetic_kolodziej_families(rng: np.random.Generator, count: int):
    """``count`` power families phi(s) = a s^theta on uniform grids ending at s0.

    Half the draws sit exactly on the equality case theta delta0 = 1, whose
    extremal pair (s, s theta / (1 + theta)) lies on the grid; the rest keep
    a strict gap.  Both kinds satisfy the certified hypothesis continuously,
    so the lower bound assertion has no sampling loophole.  Each parameter
    is one array of ``count`` draws.  Returns ``(case, s, phi, s0, tight)``:
    ``case`` indexes ``KOLODZIEJ_CASES``, ``s`` and ``phi`` are
    ``(count, FAMILY_SAMPLES)`` and ``tight`` marks the equality draws.
    """
    case = rng.integers(0, len(KOLODZIEJ_CASES), size=count)
    tight = rng.integers(0, 2, size=count).astype(bool)
    delta0 = np.take(KOLODZIEJ_CASES, case)
    theta = np.where(tight, 1.0, rng.uniform(0.4, 0.8, size=count)) / delta0
    a = rng.uniform(0.5, 2.0, size=count)
    s0 = rng.uniform(0.5, 2.0, size=count)
    s = s0[:, None] * (np.arange(1, FAMILY_SAMPLES + 1) / FAMILY_SAMPLES)
    return case, s, a[:, None] * s ** theta[:, None], s0, tight


def synthetic_degiorgi_families(rng: np.random.Generator, count: int):
    """``count`` families phi(s) = c max(0, s1 - s)^gamma sampled on [s0, s0 + 3 u0].

    The cases keep alpha >= gamma delta so the hypothesis holds
    continuously, with the extremal pair (s0, s0 + u0 alpha / (alpha +
    gamma)) on the grid; the threshold then lands at or beyond the true
    vanishing point s1 = s0 + u0.  The grid steps 3 u0 / FAMILY_SAMPLES
    divide u0 and that offset, as FAMILY_SAMPLES is a multiple of 6.
    Returns ``(case, s, phi, s0)``: ``case`` indexes ``DEGIORGI_CASES``, and
    ``s`` and ``phi`` are ``(count, FAMILY_SAMPLES + 1)``.
    """
    case = rng.integers(0, len(DEGIORGI_CASES), size=count)
    c = rng.uniform(0.5, 2.0, size=count)[:, None]
    s0 = rng.uniform(0.0, 1.0, size=count)
    u0 = rng.uniform(0.5, 1.5, size=count)[:, None]
    s = s0[:, None] + 3.0 * u0 * np.arange(0, FAMILY_SAMPLES + 1) / FAMILY_SAMPLES
    gamma = np.array(DEGIORGI_CASES)[case, 1][:, None]
    return case, s, c * np.maximum(0.0, s0[:, None] + u0 - s) ** gamma, s0


def _certified(s, phi, s0, form: str, **params):
    """C_min and phi(s0), read at the sample nearest s0, of a stack sharing ``params``.

    A family that fails certification raises ``DomainError``.
    """
    c_min, feasible = certify_iteration_hypothesis(s, phi, form, **params)
    if not feasible.all():
        raise DomainError("synthetic family failed certification")
    nearest = np.abs(s - s0[:, None]).argmin(axis=1)
    return c_min, phi[np.arange(len(s)), nearest]


def assert_kolodziej_families(case, s, phi, s0):
    """Certify each family's hypothesis and check phi(s0) against its lower bound.

    Takes the first four arrays of ``synthetic_kolodziej_families``; the
    families of one case are certified as one stack.  Returns arrays
    ``(gap, c_min)`` in family order, gap = phi(s0) - bound, >= 0 up to
    rounding.
    """
    gap, c_min = np.empty(len(case)), np.empty(len(case))
    for i, delta0 in enumerate(KOLODZIEJ_CASES):
        idx = case == i
        if idx.any():
            c_min[idx], phi_s0 = _certified(s[idx], phi[idx], s0[idx], KOLODZIEJ,
                                            delta0=delta0)
            gap[idx] = phi_s0 - kolodziej_bound(c_min[idx], delta0, s0[idx])
    return gap, c_min


def assert_degiorgi_families(case, s, phi, s0):
    """Certify each family's hypothesis and check vanishing beyond its threshold.

    Takes the arrays of ``synthetic_degiorgi_families``; the families of one
    case are certified as one stack.  Returns arrays ``(max_phi_beyond, d,
    c_min)`` in family order; the first is the largest sampled phi value at
    s >= s0 + d - 1e-12 and should be zero.
    """
    d, c_min = np.empty(len(case)), np.empty(len(case))
    for i, (alpha, _, delta) in enumerate(DEGIORGI_CASES):
        idx = case == i
        if idx.any():
            c_min[idx], phi_s0 = _certified(s[idx], phi[idx], s0[idx], DEGIORGI,
                                            alpha=alpha, delta=delta)
            d[idx] = degiorgi_threshold(c_min[idx], alpha, delta, phi_s0)
    beyond = s >= (s0 + d - 1e-12)[:, None]
    # phi >= 0, so the zeros put in for samples short of the threshold change no max
    return np.where(beyond, phi, 0.0).max(axis=1), d, c_min


def lemma_sweep(rng: np.random.Generator, families: int):
    """Draw and check ``families`` families of each lemma, Kolodziej first.

    Returns ``((worst_gap, gap_violations), (worst_leftover,
    leftover_violations))``; a bound gap below -1e-12 or a leftover above
    1e-12 is a violation.  The families are drawn and certified LEMMA_BATCH
    at a time, so working memory does not grow with ``families``.
    """
    batches = [min(LEMMA_BATCH, families - start) for start in range(0, families, LEMMA_BATCH)]
    worst_gap, gap_violations = math.inf, 0
    for size in batches:
        gap, _ = assert_kolodziej_families(*synthetic_kolodziej_families(rng, size)[:4])
        worst_gap = min(worst_gap, float(gap.min()))
        gap_violations += int((gap < -1e-12).sum())
    worst_leftover, leftover_violations = 0.0, 0
    for size in batches:
        leftover, _, _ = assert_degiorgi_families(*synthetic_degiorgi_families(rng, size))
        worst_leftover = max(worst_leftover, float(leftover.max()))
        leftover_violations += int((leftover > 1e-12).sum())
    return (worst_gap, gap_violations), (worst_leftover, leftover_violations)
