"""Elementary symmetric polynomials, positivity cones and their classical inequalities.

Everything here is dimension-generic and pure: tuples of generalized
eigenvalues go in, scalars or small arrays come out.  The solver and the
field calculus build on the batched variants, which accept arrays of shape
``(..., n)`` and evaluate pointwise, and on ``planes_kernel``, which takes
the elementary symmetric polynomials and the Newton tensor of a Hermitian
field held as the n * n real planes of ``hermitian_to_planes`` (the layout
of ``grid.HermitianField``), in real arithmetic and with no eigensolver.
"""

from __future__ import annotations

import functools
import itertools
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
        if not 0 <= self.margin < np.inf:
            raise DomainError("cone margin must be finite and nonnegative")


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


def hermitize(matrix) -> np.ndarray:
    """Symmetrize a square matrix, rejecting inputs that are far from Hermitian."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError("expected a square matrix")
    ah = np.conj(np.swapaxes(a, -1, -2))
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - ah).max() > HERMITIAN_RTOL * max(scale, 1.0) * 10:
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
    for idx in itertools.combinations(range(n), k):
        sub = a[np.ix_(idx, idx)]
        total += np.linalg.det(sub).real
    return float(total)


def esp_margins(S: np.ndarray, n: int) -> np.ndarray:
    """Worst normalized margin min_k S_k / C(n,k) over k = 1..m, batched.

    ``S`` holds S_0..S_m of an n-tuple in its last axis, as returned by
    ``elem_sym_table`` (truncated) or ``planes_kernel``.
    """
    worst = S[..., 1] / binom(n, 1)
    for k in range(2, S.shape[-1]):
        worst = np.minimum(worst, S[..., k] / binom(n, k))
    return worst


def margin_minima(S: np.ndarray, n: int) -> list:
    """min over the batch of S_k / C(n,k), for k = 1..m; their min is that of ``esp_margins``.

    One strided min per k: numpy's min over axis 0 of a (points, m + 1)
    array takes several times as long.
    """
    return [float(S[..., k].min()) / binom(n, k) for k in range(1, S.shape[-1])]


def homogeneous_margin(minima: list) -> float:
    """min_k (S_k / C(n,k))^(1/k) from ``margin_minima``; 0 off the open cone (or at NaN).

    Unlike ``esp_margins`` it has degree one: scaling the tuples by s > 0
    scales it by s.  On the closed cone it is superadditive (Garding), so
    the margin of a sum is at least the sum of the margins.
    """
    return min((v if v > 0.0 else 0.0) ** (1.0 / k) for k, v in enumerate(minima, 1))


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
    With ``_unit_sup(lam) = (u, s)`` the degree-k margin is s^k e_k(u) /
    C(n, k), and it exceeds the slack iff e_k(u) / C(n, k) > slack / s^k:
    float products by s saturate without a warning, only where the truth does.
    """
    lam = as_eigentuple(values)
    if isinstance(spec, (int, np.integer)):
        spec = ConeSpec(n=lam.size, m=int(spec))
    if lam.size != spec.n:
        raise DomainError(f"tuple length {lam.size} != cone dimension {spec.n}")
    unit, scale = _unit_sup(lam)
    e = elem_sym_table(unit)
    member, worst, slack = True, math.inf, spec.margin
    for k in range(1, spec.m + 1):
        u, slack = float(e[k]) / binom(spec.n, k), slack / scale
        member = member and u > slack
        worst = min(worst, math.prod([u] + [scale] * k))
    return member, worst


def restricted_esp(values: np.ndarray, k: int) -> np.ndarray:
    """S_{k;i}: the k-th elementary symmetric polynomial with entry i zeroed.

    Batched over leading axes; output matches the input shape.  Uses the
    deflation recurrence S_{j;i} = e_j - lam_i * S_{j-1;i}.
    """
    vals = np.asarray(values, dtype=float)
    n = vals.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"k={k} outside 0..{n}")
    return _deflate(vals, elem_sym_table(vals), k)


def _deflate(vals: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """``restricted_esp(vals, k)`` from the ``elem_sym_table`` e of vals."""
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


def _unit_sup(lam: np.ndarray) -> tuple:
    """``(lam / s, s)``, s the power of two in (max|lam| / 2, max|lam|]: exact."""
    scale = math.ldexp(1.0, math.frexp(float(np.abs(lam).max()))[1] - 1)
    return lam / scale, scale


def check_maclaurin(values, m: int) -> float:
    """Smallest gap in the Maclaurin chain of normalized means.

    Returns min over pairs j < i <= m of (S_j/C(n,j))^(1/j) - (S_i/C(n,i))^(1/i),
    which is nonnegative on cone members.  The diagonal pairs j = i are
    trivially zero and are excluded so the gap is informative.  It has degree
    1, so it is taken on ``_unit_sup(lam)``, where S_k cannot overflow.
    """
    lam, scale = _unit_sup(as_eigentuple(values))
    n = lam.size
    if not 1 <= m <= n:
        raise DomainError(f"m={m} outside 1..{n}")
    # the test of cone_membership(lam, m), whose _unit_sup scale is 1 on this lam
    normalized = [s / binom(n, k) for k, s in enumerate(elem_sym_table(lam)[1:m + 1], 1)]
    if not all(u > 0.0 for u in normalized):
        raise DomainError("tuple is outside the degree-m cone")
    means = [u ** (1.0 / k) for k, u in enumerate(normalized, 1)]
    if m == 1:
        return 0.0
    return scale * float(min(means[j] - means[i] for j in range(m) for i in range(j + 1, m)))


def check_garding(lam_values, eta_values, m: int) -> float:
    """Gap in the cone pairing inequality between two tuples.

    Returns sum_i eta_i S_{m-1;i}(lam) - m S_m(eta)^(1/m) S_m(lam)^((m-1)/m),
    nonnegative when both tuples lie in the (closed) degree-m cone.  Boundary
    tuples are admitted: a vanishing S_m simply zeroes the right-hand side.
    It has degree m - 1 in lam and 1 in eta, so it is taken on ``_unit_sup``.
    """
    lam, lam_scale = _unit_sup(as_eigentuple(lam_values))
    eta, eta_scale = _unit_sup(as_eigentuple(eta_values))
    n = lam.size
    if eta.size != n:
        raise DomainError("tuple dimensions differ")
    if not 1 <= m <= n:
        raise DomainError(f"m={m} outside 1..{n}")
    e_lam, e_eta = elem_sym_table(lam), elem_sym_table(eta)
    for name, e in (("lam", e_lam), ("eta", e_eta)):
        if any(e[k] < 0.0 for k in range(1, m + 1)):
            raise DomainError(f"{name} is outside the closed degree-m cone")
    sm_lam, sm_eta = float(e_lam[m]), float(e_eta[m])
    pairing = float(np.dot(eta, _deflate(lam, e_lam, m - 1)))
    rhs = m * sm_eta ** (1.0 / m) * sm_lam ** ((m - 1.0) / m)
    gap = pairing - rhs
    # float products overflow to inf where ** raises; a zero gap stays zero
    return gap * math.prod([eta_scale] + [lam_scale] * (m - 1)) if gap else gap


def metric_inv_sqrt(G: np.ndarray, min_eig: float = METRIC_MIN_EIG) -> np.ndarray:
    """Inverse square root of a Hermitian positive-definite metric, batched.

    Raises SingularMetricError when G is not positive definite, reporting
    the index of the failing point for batched input.
    """
    wg, Vg = np.linalg.eigh(np.asarray(G, dtype=complex))
    bad = wg[..., 0] <= min_eig
    if np.any(bad):
        point = tuple(int(k) for k in np.argwhere(bad)[0]) if wg.ndim > 1 else None
        where = "" if point is None else f" at point {point}"
        raise SingularMetricError(f"metric not positive definite{where} (min eigenvalue "
                                  f"{wg[..., 0].min():.3e})", point=point)
    return np.einsum("...ik,...k,...jk->...ij", Vg, 1.0 / np.sqrt(wg), np.conj(Vg))


def hermitian_to_planes(x) -> np.ndarray:
    """Real planes (n * n, ...) of Hermitian ``x`` (..., n, n), the ``hessian_planes`` layout.

    Plane i * n + j holds Re x_ij for i <= j and Im x_ji for i > j.
    ``planes_to_hermitian`` inverts it, bit for bit on exactly Hermitian ``x``.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    return np.stack([x[..., i, j].real if i <= j else x[..., j, i].imag
                     for i in range(n) for j in range(n)])


def planes_to_hermitian(p) -> np.ndarray:
    """The Hermitian matrices (..., n, n) of real planes (n * n, ...)."""
    p = np.asarray(p, dtype=float)
    n, lead = math.isqrt(p.shape[0]), p.shape[1:]
    q = p.reshape(n * n, -1)
    out = np.empty((q.shape[1], n, n), dtype=complex)
    # column 2 (i n + j) of the float view holds Re x_ij, the next one Im x_ij
    v = out.view(float).reshape(q.shape[1], 2 * n * n)
    for i in range(n):
        v[:, 2 * (i * n + i)], v[:, 2 * (i * n + i) + 1] = q[i * n + i], 0.0
        for j in range(i + 1, n):
            v[:, 2 * (i * n + j)] = v[:, 2 * (j * n + i)] = q[i * n + j]
            v[:, 2 * (i * n + j) + 1] = q[j * n + i]
            np.negative(q[j * n + i], out=v[:, 2 * (j * n + i) + 1])
    return out.reshape(lead + (n, n))


@functools.lru_cache(maxsize=32)
def _recursion_maps(oi_bytes: bytes, n: int, m: int) -> tuple:
    """``(B_0, w, maps)`` of ``planes_kernel`` for one omega^(-1), built once.

    S_m = sum_a w_a x_a b_a.  ``maps[k - 1]`` takes the planes x_a (k = 1)
    or the products x_a b_c (k > 1) to S_k and B_k: its column evaluates
    them with X B_{k-1} replaced by E_a omega^(-1) resp. E_a E_c, E the
    basis matrices of the planes.
    """
    oi = np.frombuffer(oi_bytes, dtype=complex).reshape(n, n)
    b0 = hermitian_to_planes(oi)
    E = planes_to_hermitian(np.eye(n * n))
    maps = []
    for k in range(1, m):
        F = E @ oi if k == 1 else np.einsum("aij,cjl->acil", E, E).reshape(-1, n, n)
        s_row = np.trace(F, axis1=-2, axis2=-1).real / k
        maps.append(np.vstack([s_row, np.outer(b0, s_row) - hermitian_to_planes(oi @ F)]))
    return b0[:, None], (2.0 - np.eye(n).ravel()) / m, maps


def planes_kernel(x: np.ndarray, omega_inv: np.ndarray, m: int):
    """S_0..S_m and the Newton tensor of a Hermitian field X held as real planes.

    Pointwise over the planes (n * n, ...) of ``x`` with W = omega^(-1) X,
    returns ``(S, T)``: ``S[..., k]`` is S_k of the eigenvalues of W for
    k = 0..m, and ``T``, planes like ``x``, is T_{m-1}(W) omega^(-1) for the
    Newton tensor T_k(W) = sum_j (-1)^j S_{k-j} W^j, so T / S_m linearizes
    log S_m.  The Faddeev-LeVerrier recursion S_k = tr(X B_{k-1}) / k,
    B_k = S_k omega^(-1) - omega^(-1) X B_{k-1} runs in real arithmetic:
    step 1 is a constant matmul, as B_1 is linear in X, and a later step a
    pointwise product of planes, then a constant matmul.
    """
    n = math.isqrt(x.shape[0])
    if not 1 <= m <= n:
        raise DomainError(f"m={m} outside 1..{n}")
    b, weights, maps = _recursion_maps(np.asarray(omega_inv, dtype=complex).tobytes(), n, m)
    xf = x.reshape(n * n, -1)
    S = np.empty((xf.shape[1], m + 1))
    S[:, 0] = 1.0
    for k, step in enumerate(maps, 1):
        out = step @ (xf if k == 1 else (xf[:, None] * b[None]).reshape(n ** 4, -1))
        S[:, k], b = out[0], out[1:]
    S[:, m] = weights @ (xf * b)
    return S.reshape(x.shape[1:] + (m + 1,)), np.broadcast_to(b, xf.shape).reshape(x.shape)


def pencil_eigh(A: np.ndarray, G: np.ndarray):
    """Eigen-decomposition of a Hermitian pencil, batched.

    Returns ``(lam, U, g_inv_sqrt)`` where ``lam`` holds the eigenvalues of
    G^(-1/2) A G^(-1/2) in descending order, ``U`` the matching unitary
    eigenvectors, and ``g_inv_sqrt`` the inverse square root of G.  Raises
    SingularMetricError when G is not positive definite, reporting the index
    of the failing point for batched input.  Backs the tuple API and serves
    as the oracle for ``planes_kernel``.
    """
    gis = metric_inv_sqrt(G)
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
