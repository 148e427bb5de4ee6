"""Elementary symmetric polynomials, positivity cones and their classical inequalities.

Everything here is dimension-generic and pure: tuples of generalized
eigenvalues go in, scalars or small arrays come out.  The solver and the
field calculus build on the batched variants, which accept arrays of shape
``(..., n)`` and evaluate pointwise, and on ``hessian_kernel``, which takes
the elementary symmetric polynomials and the Newton tensor of a Hermitian
field straight from its matrix entries, with no eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMetricError

HERMITIAN_RTOL = 1e-12
METRIC_MIN_EIG = 1e-10


@dataclass(frozen=True)
class ConeSpec:
    """Positivity cone of degree ``m`` in dimension ``n`` with slack ``margin``.

    Membership requires S_k(lam) > margin * C(n, k) for every k = 1..m, so
    ``margin = 0`` with the closure read gives the closed cone.
    """

    n: int
    m: int
    margin: float = 0.0

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise DomainError(f"cone degree m={self.m} outside 1..{self.n}")
        if self.margin < 0:
            raise DomainError("cone margin must be nonnegative")


def as_eigentuple(values) -> np.ndarray:
    """Validate and return a 1-D float eigenvalue tuple."""
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 1:
        raise DomainError("eigenvalue tuple must be one-dimensional")
    if not np.all(np.isfinite(lam)):
        raise DomainError("eigenvalue tuple contains non-finite entries")
    return lam


def binom(n: int, k: int) -> int:
    return math.comb(n, k)


def elem_sym_table(values: np.ndarray) -> np.ndarray:
    """All elementary symmetric polynomials e_0..e_n of ``values``.

    Uses the Vieta recurrence (incremental build of the characteristic
    polynomial coefficients), which is O(n^2) and numerically stable, never
    subset enumeration.  Batched: input ``(..., n)`` gives output
    ``(..., n + 1)`` with e_0 = 1 in the leading slot.
    """
    vals = np.asarray(values, dtype=float)
    n = vals.shape[-1]
    out = np.zeros(vals.shape[:-1] + (n + 1,), dtype=float)
    out[..., 0] = 1.0
    for i in range(n):
        x = vals[..., i : i + 1]
        out[..., 1 : i + 2] += x * out[..., 0 : i + 1].copy()
    return out


def elem_sym(values, k: int) -> float:
    """k-th elementary symmetric polynomial S_k of an eigenvalue tuple.

    S_0 = 1 by convention.  Raises for k outside 0..n.
    """
    lam = as_eigentuple(values)
    n = lam.size
    if not 0 <= k <= n:
        raise DomainError(f"k={k} outside 0..{n}")
    return float(elem_sym_table(lam)[k])


def hermitize(matrix, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Symmetrize a square matrix, rejecting inputs that are far from Hermitian."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError("expected a square matrix")
    ah = np.conj(np.swapaxes(a, -1, -2))
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - ah).max() > rtol * max(scale, 1.0) * 10:
        raise DomainError("matrix is not Hermitian within tolerance")
    return 0.5 * (a + ah)


def elem_sym_minors(matrix, k: int) -> float:
    """Sum of all k-by-k principal minors of a Hermitian matrix.

    Equals S_k of the eigenvalue tuple; computed here directly from
    determinants so it can serve as an independent route in tests.
    """
    a = hermitize(matrix)
    n = a.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"k={k} outside 0..{n}")
    if k == 0:
        return 1.0
    total = 0.0
    from itertools import combinations

    for idx in combinations(range(n), k):
        sub = a[np.ix_(idx, idx)]
        total += np.linalg.det(sub).real
    return float(total)


def esp_margins(S: np.ndarray, n: int) -> np.ndarray:
    """Worst normalized margin min_k S_k / C(n,k) over k = 1..m, batched.

    ``S`` holds S_0..S_m of an n-tuple in its last axis, as returned by
    ``elem_sym_table`` (truncated) or ``hessian_kernel``.
    """
    worst = S[..., 1] / binom(n, 1)
    for k in range(2, S.shape[-1]):
        worst = np.minimum(worst, S[..., k] / binom(n, k))
    return worst


def cone_margins(values: np.ndarray, m: int) -> np.ndarray:
    """Worst normalized margin min_k S_k / C(n,k) over k = 1..m, batched."""
    vals = np.asarray(values, dtype=float)
    n = vals.shape[-1]
    if not 1 <= m <= n:
        raise DomainError(f"m={m} outside 1..{n}")
    return esp_margins(elem_sym_table(vals)[..., : m + 1], n)


def cone_membership(values, spec) -> tuple[bool, float]:
    """Test membership of a tuple in the degree-m positivity cone.

    ``spec`` may be a ConeSpec or a plain degree ``m`` (margin 0).  Returns
    ``(is_member, worst_margin)`` where the margin is min_k S_k / C(n,k).
    """
    lam = as_eigentuple(values)
    if isinstance(spec, (int, np.integer)):
        spec = ConeSpec(n=lam.size, m=int(spec))
    if lam.size != spec.n:
        raise DomainError(f"tuple length {lam.size} != cone dimension {spec.n}")
    e = elem_sym_table(lam)
    worst = math.inf
    member = True
    for k in range(1, spec.m + 1):
        c = binom(spec.n, k)
        worst = min(worst, e[k] / c)
        if not e[k] > spec.margin * c:
            member = False
    return member, float(worst)


def restricted_esp(values: np.ndarray, k: int) -> np.ndarray:
    """S_{k;i}: the k-th elementary symmetric polynomial with entry i zeroed.

    Batched over leading axes; output matches the input shape.  Uses the
    deflation recurrence S_{j;i} = e_j - lam_i * S_{j-1;i}.
    """
    vals = np.asarray(values, dtype=float)
    n = vals.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"k={k} outside 0..{n}")
    e = elem_sym_table(vals)
    s = np.ones_like(vals)
    for j in range(1, k + 1):
        s = e[..., j : j + 1] - vals * s
    return s


def grad_elem_sym(values, m: int) -> np.ndarray:
    """Gradient of S_m: the vector (S_{m-1;i})_i.

    Satisfies the Euler identity sum_i lam_i S_{m-1;i}(lam) = m S_m(lam).
    """
    lam = as_eigentuple(values)
    if not 1 <= m <= lam.size:
        raise DomainError(f"m={m} outside 1..{lam.size}")
    return restricted_esp(lam, m - 1)


def hess_elem_sym(values, m: int) -> np.ndarray:
    """Eigenvalue-space Hessian of S_m: entries S_{m-2;ij} for i != j, zero diagonal."""
    lam = as_eigentuple(values)
    n = lam.size
    if not 2 <= m <= n:
        raise DomainError(f"m={m} outside 2..{n}")
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            rest = np.delete(lam, [i, j])
            out[i, j] = out[j, i] = float(elem_sym_table(rest)[m - 2])
    return out


def check_maclaurin(values, m: int) -> float:
    """Smallest gap in the Maclaurin chain of normalized means.

    Returns min over pairs j < i <= m of (S_j/C(n,j))^(1/j) - (S_i/C(n,i))^(1/i),
    which is nonnegative on cone members.  The diagonal pairs j = i are
    trivially zero and are excluded so the gap is informative.
    """
    lam = as_eigentuple(values)
    n = lam.size
    member, _ = cone_membership(lam, m)
    if not member:
        raise DomainError("tuple is outside the degree-m cone")
    e = elem_sym_table(lam)
    means = [(e[k] / binom(n, k)) ** (1.0 / k) for k in range(1, m + 1)]
    if m == 1:
        return 0.0
    return float(min(means[j] - means[i] for j in range(m) for i in range(j + 1, m)))


def check_garding(lam_values, eta_values, m: int) -> float:
    """Gap in the cone pairing inequality between two tuples.

    Returns sum_i eta_i S_{m-1;i}(lam) - m S_m(eta)^(1/m) S_m(lam)^((m-1)/m),
    nonnegative when both tuples lie in the (closed) degree-m cone.  Boundary
    tuples are admitted: a vanishing S_m simply zeroes the right-hand side.
    """
    lam = as_eigentuple(lam_values)
    eta = as_eigentuple(eta_values)
    n = lam.size
    if eta.size != n:
        raise DomainError("tuple dimensions differ")
    for name, t in (("lam", lam), ("eta", eta)):
        e = elem_sym_table(t)
        if any(e[k] < 0.0 for k in range(1, m + 1)):
            raise DomainError(f"{name} is outside the closed degree-m cone")
    sm_lam = float(elem_sym_table(lam)[m])
    sm_eta = float(elem_sym_table(eta)[m])
    pairing = float(np.dot(eta, restricted_esp(lam, m - 1)))
    rhs = m * sm_eta ** (1.0 / m) * sm_lam ** ((m - 1.0) / m)
    return pairing - rhs


def metric_inv_sqrt(G: np.ndarray, min_eig: float = METRIC_MIN_EIG) -> np.ndarray:
    """Inverse square root of a Hermitian positive-definite metric, batched.

    Raises SingularMetricError when G is not positive definite, reporting
    the index of the failing point for batched input.
    """
    wg, Vg = np.linalg.eigh(np.asarray(G, dtype=complex))
    bad = wg[..., 0] <= min_eig
    if np.any(bad):
        point = tuple(np.argwhere(bad)[0]) if wg.ndim > 1 else None
        raise SingularMetricError(
            f"metric not positive definite (min eigenvalue {wg[..., 0].min():.3e})",
            point=point,
        )
    return np.einsum("...ik,...k,...jk->...ij", Vg, 1.0 / np.sqrt(wg), np.conj(Vg))


def _plane_dot(row, col):
    """sum_l row[l] * col[l] over lists of entry planes (or scalars)."""
    total = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        total = total + a * b
    return total


def hessian_kernel(x: np.ndarray, omega_inv: np.ndarray, m: int):
    """S_0..S_m and the Newton tensor of a Hermitian field relative to a metric.

    Pointwise over the leading axes of ``x`` with W = omega^(-1) x, returns
    ``(S, T)``: ``S[..., k]`` is S_k of the eigenvalues of W (those of x
    relative to omega) for k = 0..m, and ``T`` is the Hermitian matrix
    T_{m-1}(W) omega^(-1), where T_k(W) = sum_j (-1)^j S_{k-j} W^j is the
    Newton tensor.  Since d S_m = tr(T dx), T / S_m linearizes log S_m.

    No eigendecomposition: the Faddeev-LeVerrier recursion
    S_k = tr(W T_{k-1}) / k, T_k = S_k I - W T_{k-1} runs on the (i, j)
    entry planes of x.  It carries B_k = T_k omega^(-1), which is Hermitian,
    so only its upper triangle is computed and B_{m-1} is T itself.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    if not 1 <= m <= n:
        raise DomainError(f"m={m} outside 1..{n}")
    oi = np.asarray(omega_inv, dtype=complex)
    ix = range(n)
    xp = [[x[..., i, j] for j in ix] for i in ix]
    w = [[_plane_dot(oi[i], [xp[l][j] for l in ix]) for j in ix] for i in ix]
    S = np.empty(x.shape[:-2] + (m + 1,))
    S[..., 0] = 1.0
    b = oi
    for k in range(1, m + 1):
        # S_k = tr(W T_{k-1}) / k = tr(x B_{k-1}) / k
        s_k = _plane_dot([xp[i][j] for i in ix for j in ix],
                         [b[j][i] for i in ix for j in ix]).real / k
        S[..., k] = s_k
        if k == m:
            break
        # B_k = S_k omega^(-1) - W B_{k-1}, upper triangle then conjugates
        nxt = [[None] * n for _ in ix]
        for i in ix:
            for j in range(i, n):
                entry = s_k * oi[i, j] - _plane_dot(w[i], [b[l][j] for l in ix])
                if i == j:
                    nxt[i][i] = entry.real
                else:
                    nxt[i][j], nxt[j][i] = entry, np.conj(entry)
        b = nxt
    T = np.empty(x.shape, dtype=complex)
    for i in ix:
        for j in ix:
            T[..., i, j] = b[i][j]
    return S, T


def pencil_eigh(A: np.ndarray, G: np.ndarray, min_eig: float = METRIC_MIN_EIG):
    """Eigen-decomposition of a Hermitian pencil, batched.

    Returns ``(lam, U, g_inv_sqrt)`` where ``lam`` holds the eigenvalues of
    G^(-1/2) A G^(-1/2) in descending order, ``U`` the matching unitary
    eigenvectors, and ``g_inv_sqrt`` the inverse square root of G.  Raises
    SingularMetricError when G is not positive definite, reporting the index
    of the failing point for batched input.  Backs the tuple API and serves
    as the oracle for ``hessian_kernel``.
    """
    gis = metric_inv_sqrt(G, min_eig)
    mat = gis @ np.asarray(A, dtype=complex) @ gis
    mat = 0.5 * (mat + np.conj(np.swapaxes(mat, -1, -2)))
    w, U = np.linalg.eigh(mat)
    return w[..., ::-1], U[..., ::-1], gis


def generalized_eigenvalues(A, G) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix A relative to a metric G, descending.

    Invariant under joint congruence A -> P* A P, G -> P* G P.
    """
    a = hermitize(A)
    g = hermitize(G)
    lam, _, _ = pencil_eigh(a, g)
    return lam


def hessian_operator_F(values, m: int) -> float:
    """Normalized degree-m operator (S_m(lam) / C(n, m))^(1/m).

    Homogeneous of degree one with F(1, ..., 1) = 1.  Requires S_m >= 0.
    """
    lam = as_eigentuple(values)
    n = lam.size
    if not 1 <= m <= n:
        raise DomainError(f"m={m} outside 1..{n}")
    sm = float(elem_sym_table(lam)[m])
    if sm < 0:
        raise DomainError(f"S_m = {sm:.3e} is negative; operator undefined")
    return (sm / binom(n, m)) ** (1.0 / m)
