"""Pointwise and regionwise stability constants of a vector field.

All quantities are computed from the covariant derivative matrix A of the
field and the metric matrix g at a chart point, after the symmetrizing
change of coordinates B = g^(1/2) A g^(-1/2):

* log_g_norm     largest eigenvalue of sym(B), the one-sided Lipschitz
                 rate of the field;
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
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDirectionError, GeostabError,
                     InconsistentConstantsError, NoFiniteAlphaError,
                     NotCocoerciveError, SingularConnectionError,
                     UnsupportedKernelError)

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


def log_g_norm(A: np.ndarray, g: np.ndarray) -> float:
    """Largest eigenvalue of the g-symmetrized part of A."""
    B = _whiten(A, g)
    return float(np.linalg.eigvalsh(0.5 * (B + B.T))[-1])


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
    if r == 0:
        return math.inf
    Ur, Vr = U[:, :r], Vt[:r].T
    if r < len(s):
        null = Vt[r:].T  # kernel basis
        if np.linalg.norm(Ur.T @ null) > ORTHO_TOL:
            raise NoFiniteAlphaError(
                "range and kernel of the covariant derivative are not "
                "orthogonal; no finite cocoercivity constant exists")
    N = (Ur.T @ Vr) / s[:r]
    top = float(np.linalg.eigvalsh(0.5 * (N + N.T))[-1])
    return -top


def _direction_projector(g: np.ndarray, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    gX = np.asarray(g, dtype=float) @ X
    nsq = float(X @ gX)
    if nsq <= 1e-28:
        raise DegenerateDirectionError(
            "field direction vanishes; projection undefined")
    return np.outer(X, gX) / nsq


def _mu_point(A, g, X, along_field: bool) -> float:
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] <= 0.0 or s[-1] <= RANK_RTOL * s[0]:
        raise SingularConnectionError(
            "covariant derivative is singular; projection constant "
            "undefined")
    P = _direction_projector(g, X)
    Q = P if along_field else np.eye(d) - P
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
    alpha = math.inf
    mu_plus = -math.inf
    mu_minus = -math.inf
    sigma = 0.0
    sup_norm = 0.0
    bad = []
    n = 0
    for p in points:
        n += 1
        g = manifold.metric(p)
        A = field.covariant_matrix(p)
        X = field.eval(p)
        a = alpha_point(A, g)
        if a <= 0.0:
            bad.append(p)
            continue
        alpha = min(alpha, a)
        try:
            mu_plus = max(mu_plus, mu_plus_point(A, g, X.comps))
            mu_minus = max(mu_minus, mu_minus_point(A, g, X.comps))
            sigma = max(sigma, sigma_point(A, g))
        except SingularConnectionError:
            mu_plus = math.inf
            mu_minus = math.inf
            sigma = max(sigma, sigma_point(A, g, restrict_to_range=True))
        sup_norm = max(sup_norm, X.norm())
    if bad:
        raise NotCocoerciveError(
            f"field is not cocoercive at {len(bad)} sampled point(s)",
            points=bad)
    if n == 0:
        raise GeostabError("sampler produced no points")
    return RegionConstants(alpha=alpha, mu_plus=mu_plus, mu_minus=mu_minus,
                           sigma=sigma, sup_norm=sup_norm,
                           rho=manifold.rho, n_points=n)


def point_constants(field, manifold, p) -> RegionConstants:
    """Constants of the degenerate region consisting of one point."""
    return region_constants(field, manifold, [p])
