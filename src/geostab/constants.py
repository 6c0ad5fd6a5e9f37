"""Pointwise and regionwise stability constants of a vector field.

All quantities are computed from the covariant derivative matrix A of the
field and the metric matrix g at a chart point, after the symmetrizing
change of coordinates B = g^(1/2) A g^(-1/2):

* alpha_point    best constant with <Av, v>_g <= -alpha |Av|_g^2 over all
                 tangent vectors v (cocoercivity);
* mu_plus_point  largest eigenvalue of sym(-g^(1/2) (I-P) A^(-1) g^(-1/2))
                 with P the g-orthogonal projection onto the field
                 direction; controls the cross-component growth;
* mu_minus_point same with P in place of I-P;
* sigma_point    inverse bound 1/s_min(B), optionally restricted to the
                 range of B when A is singular;
* region_constants
                 aggregates the pointwise quantities over a sample of a
                 region into the constants the step-size rules consume.

region_constants (and point_constants, its one-point case) runs the
linear algebra of all sampled points in one stacked pass after one chart
walk per point (the metric, ∇X and X; |X| is read from that metric), whose
data (|X|, g, A, X) the pass's rows carry on to the sweep kernels of a
figure table; the per-point functions serve the points off its
full-rank path, with the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDirectionError, GeostabError,
                     NoFiniteAlphaError, NotCocoerciveError,
                     SingularConnectionError, UnsupportedKernelError)
from .jacobi import _T

RANK_RTOL = 1e-12
ORTHO_TOL = 1e-10


def _metric_sqrt(g: np.ndarray):
    """Symmetric square root of the metric and its inverse."""
    g = np.asarray(g, dtype=float)
    w, q = np.linalg.eigh(0.5 * (g + g.T))
    if np.any(w <= 0):
        raise GeostabError("metric matrix is not positive definite")
    root = np.sqrt(w)
    return (q * root) @ q.T, (q / root) @ q.T


def _whiten(A: np.ndarray, g: np.ndarray) -> np.ndarray:
    half, half_inv = _metric_sqrt(g)
    return half @ np.asarray(A, dtype=float) @ half_inv


def alpha_point(A: np.ndarray, g: np.ndarray) -> float:
    """Best cocoercivity constant of A at a point, possibly <= 0.

    A nonpositive value signals that the field is not cocoercive there;
    callers aggregating over a region raise on that.  Returns math.inf
    for A = 0 (the inequality is vacuous).  Raises NoFiniteAlphaError
    when the range of A is not g-orthogonal to its kernel, in which case
    no finite constant exists.
    """
    B = _whiten(A, g)
    U, s, Vt = np.linalg.svd(B)
    if s[0] <= 0.0:
        return math.inf
    r = int(np.sum(s > RANK_RTOL * s[0]))
    Ur, Vr = U[:, :r], Vt[:r].T
    if r < len(s):
        null = Vt[r:].T  # kernel basis
        if np.linalg.norm(Ur.T @ null) > ORTHO_TOL:
            raise NoFiniteAlphaError(
                "range and kernel of the covariant derivative are not "
                "orthogonal; no finite cocoercivity constant exists")
    N = (Ur.T @ Vr) / s[:r]
    return -float(np.linalg.eigvalsh(0.5 * (N + N.T))[-1])


def _mu_point(A, g, X, along_field: bool) -> float:
    A, X = np.asarray(A, dtype=float), np.asarray(X, dtype=float)
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] <= 0.0 or s[-1] <= RANK_RTOL * s[0]:
        raise SingularConnectionError(
            "covariant derivative is singular; projection constant "
            "undefined")
    gX = np.asarray(g, dtype=float) @ X
    nsq = float(X @ gX)
    if nsq <= 1e-28:
        raise DegenerateDirectionError(
            "field direction vanishes; projection undefined")
    P = np.outer(X, gX) / nsq
    Q = P if along_field else np.eye(len(A)) - P
    half, half_inv = _metric_sqrt(g)
    M = -half @ Q @ np.linalg.solve(A, half_inv)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


def mu_plus_point(A: np.ndarray, g: np.ndarray, X: np.ndarray) -> float:
    """Projection constant transverse to the field direction."""
    return _mu_point(A, g, X, along_field=False)


def mu_minus_point(A: np.ndarray, g: np.ndarray, X: np.ndarray) -> float:
    """Projection constant along the field direction."""
    return _mu_point(A, g, X, along_field=True)


def sigma_point(A: np.ndarray, g: np.ndarray,
                restrict_to_range: bool = False) -> float:
    """Inverse bound 1/s_min of the whitened covariant derivative.

    With restrict_to_range the smallest nonzero singular value is used,
    which is the right notion when A is singular but the step analysis
    only sees vectors in its range.  That reduction is only valid for a
    one-dimensional kernel; larger kernels raise UnsupportedKernelError.
    Returns math.inf when the relevant singular value vanishes.
    """
    B = _whiten(A, g)
    s = np.linalg.svd(B, compute_uv=False)
    if restrict_to_range:
        nz = s[s > RANK_RTOL * s[0]] if s[0] > 0.0 else s[:0]
        if len(s) - len(nz) > 1:
            raise UnsupportedKernelError(
                "restricted inverse bound needs a kernel of dimension "
                f"at most 1, got {len(s) - len(nz)}")
        if len(nz) == 0:
            return math.inf
        return float(1.0 / nz[-1])
    if s[0] <= 0.0 or s[-1] <= RANK_RTOL * s[0]:
        return math.inf
    return float(1.0 / s[-1])


@dataclass(frozen=True)
class RegionConstants:
    """Aggregated stability constants over a sampled region."""

    alpha: float
    mu_plus: float
    mu_minus: float
    sigma: float
    sup_norm: float
    rho: float
    n_points: int = 0


def _point_row(g, A, X) -> tuple:
    """(alpha, mu_plus, mu_minus, sigma) at one point from the per-point
    functions; a non-cocoercive point stops at alpha."""
    a = alpha_point(A, g)
    if a <= 0.0:
        return a, math.nan, math.nan, math.nan
    try:
        return (a, mu_plus_point(A, g, X), mu_minus_point(A, g, X),
                sigma_point(A, g))
    except SingularConnectionError:
        return a, math.inf, math.inf, sigma_point(A, g, restrict_to_range=True)


def _full_rank_rows(g, A, X):
    """(n, 4) values of _point_row at the points of the stacks g, A and X
    on the full-rank path (finite data, g > 0, A and B of full rank,
    X != 0, alpha > 0), and the mask of those rows.  Each quantity takes
    its per-point function's LAPACK driver (svd with U and V for alpha
    only), and numpy gives each small matrix of a stack the bits of a
    single call."""
    out, on_path = np.full((len(X), 4), math.nan), np.zeros(len(X), bool)
    rows = np.flatnonzero(np.isfinite(g).all(axis=(1, 2))
                          & np.isfinite(A).all(axis=(1, 2))
                          & np.isfinite(X).all(axis=1))
    w, q = np.linalg.eigh(0.5 * (g[rows] + _T(g[rows])))
    keep = (w > 0.0).all(axis=1)
    rows, w, q = rows[keep], w[keep], q[keep]
    g, A, X, root = g[rows], A[rows], X[rows], np.sqrt(w)[:, None, :]
    half, half_inv = (q * root) @ _T(q), (q / root) @ _T(q)
    B = half @ A @ half_inv
    U, s, Vt = np.linalg.svd(B)
    s_A, s_B = (np.linalg.svd(M, compute_uv=False) for M in (A, B))
    gX = (g @ X[:, :, None])[:, :, 0]
    nsq = (X[:, None, :] @ gX[:, :, None])[:, 0, 0]
    keep = (nsq > 1e-28) & np.all([(t[:, 0] > 0.0) & (
        t[:, -1] > RANK_RTOL * t[:, 0]) for t in (s, s_A, s_B)], axis=0)
    rows, A, X, half, half_inv, U, s, Vt, s_B, gX, nsq = (
        x[keep] for x in (rows, A, X, half, half_inv, U, s, Vt, s_B, gX, nsq))
    N = (_T(U) @ _T(Vt)) / s[:, None, :]
    P = X[:, :, None] * gX[:, None, :] / nsq[:, None, None]
    S = np.linalg.solve(A, half_inv)

    def top(M):
        return np.linalg.eigvalsh(0.5 * (M + _T(M)))[:, -1]

    out[rows] = np.column_stack([
        -top(N), top(-half @ (np.eye(X.shape[1]) - P) @ S),
        top(-half @ P @ S), 1.0 / s_B[:, -1]])
    on_path[rows] = out[rows, 0] > 0.0
    return out, on_path


def _g_norm(g, x) -> float:
    """|x| in the metric g, with the bits of ManifoldModel.norm."""
    return float(np.sqrt(max(x @ g @ x, 0.0)))


def _constant_rows(field, manifold, points):
    """Yield (p, *_point_row, |X|, g, A, X) at each of points, in order:
    chart calls point by point, _full_rank_rows once, and the per-point
    functions at the other points when reached, so every exception comes
    at its point (a chart call's after the rows before it)."""
    data, failure = [], None
    try:
        for p in points:
            g, A, X = (manifold.metric(p), field.covariant_matrix(p),
                       field.eval(p))
            data.append((p, g, A, X.comps, _g_norm(g, X.comps)))
    except Exception as exc:  # raised once the rows before it are out
        failure = exc
    if data:
        vals, on_path = _full_rank_rows(
            *(np.array(col, dtype=float) for col in list(zip(*data))[1:4]))
        for (p, g, A, X, norm), val, fast in zip(data, vals, on_path):
            yield (p, *(val.tolist() if fast else _point_row(g, A, X)), norm,
                   g, A, X)
    if failure is not None:
        raise failure


def _aggregate(rows, rho: float) -> RegionConstants:
    """RegionConstants of rows of _constant_rows: the minimum alpha and
    the largest other constants, taken in the order of the rows."""
    bad = [row[0] for row in rows if row[1] <= 0.0]
    if bad:
        raise NotCocoerciveError(
            f"field is not cocoercive at {len(bad)} sampled point(s)",
            points=bad)
    if not rows:
        raise GeostabError("sampler produced no points")
    _, alpha, mu_plus, mu_minus, sigma, sup_norm, *_ = zip(*rows)
    return RegionConstants(
        alpha=min((math.inf,) + alpha), mu_plus=max((-math.inf,) + mu_plus),
        mu_minus=max((-math.inf,) + mu_minus), sigma=max((0.0,) + sigma),
        sup_norm=max((0.0,) + sup_norm), rho=rho, n_points=len(rows))


def region_constants(field, manifold, points) -> RegionConstants:
    """Aggregate pointwise constants over sampled points of a region.

    points is an iterable of chart points.  The cocoercivity constant is
    the minimum over the sample, the projection and inverse constants
    are maxima, and sup_norm is the largest field norm seen.  At points
    where the covariant derivative is singular the projection constants
    become math.inf and the inverse bound falls back to the restriction
    on the range, so step rules that do not need the missing constants
    stay usable.
    """
    return _aggregate(list(_constant_rows(field, manifold, points)),
                      manifold.rho)


def point_constants(field, manifold, p) -> RegionConstants:
    """Constants of the degenerate region consisting of one point."""
    return region_constants(field, manifold, [p])
