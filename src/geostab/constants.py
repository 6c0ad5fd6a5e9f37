"""Pointwise and regionwise stability constants of a vector field.

All quantities are computed from the covariant derivative matrix A of the
field and the metric matrix g at a chart point, after the symmetrizing
change of coordinates B = g^(1/2) A g^(-1/2):

* alpha     best constant with <Av, v>_g <= -alpha |Av|_g^2 over all
            tangent vectors v (cocoercivity); math.inf for A = 0, none
            when the range of A is not g-orthogonal to its kernel;
* mu_plus   largest eigenvalue of sym(-g^(1/2) (I-P) A^(-1) g^(-1/2))
            with P the g-orthogonal projection onto the field
            direction; controls the cross-component growth;
* mu_minus  same with P in place of I-P;
* sigma     inverse bound 1/s_min(B); where A is singular (mu± = inf)
            1/s_min on the range of B, for a kernel of dimension one
            spanned by X.

region_constants aggregates these over a sample of a region into the
constants the step-size rules consume; point_constants is its one-point
case.  Both take one stacked chart call for all points (the metric, ∇X
and X; |X| is read from that metric) and one stacked constants pass,
whose chart data (|X|, g, A, X) the rows of a figure table carry on to
its sweep kernels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDirectionError, GeostabError,
                     NoFiniteAlphaError, NotCocoerciveError,
                     UnsupportedKernelError)
from .jacobi import _T
from .manifolds import _quad

RANK_RTOL = 1e-12
ORTHO_TOL = 1e-10


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


def _norms(M):
    """np.linalg.norm of each matrix of a stack, with its bits."""
    flat = M.reshape(len(M), 1, math.prod(M.shape[1:]))
    return np.sqrt((flat @ _T(flat))[:, 0, 0])


def _pick(mask, *stacks) -> tuple:
    """The rows of each stack where mask holds (the stacks themselves,
    uncopied, when it holds at every row)."""
    return stacks if mask.all() else tuple(x[mask] for x in stacks)


def _stacked_rows(g, A, X):
    """(alpha, mu_plus, mu_minus, sigma) at the rows of the stacks g, A
    and X, (n, 4), and the exception of each row that raises, by row.

    A row needs finite chart data, a positive definite metric and an
    alpha; a non-cocoercive row (alpha <= 0) stops there, with nan for
    the rest.  A cocoercive row needs X != 0, and if A is singular a
    kernel of dimension one along X: |B x| <= RANK_RTOL s_max(B) for
    x = g^(1/2) X / |X|_g.  Each quantity takes one LAPACK routine (the
    eigvalsh of alpha one call per rank of B), and numpy gives each small
    matrix of a stack the bits of a single call, so a row's values do not
    depend on its stack.
    """
    (n, d), errors = X.shape, {}
    out = np.full((n, 4), math.nan)

    def fail(rows, exc, message):  # the rows share one exception
        if rows.size:
            errors.update(dict.fromkeys(rows.tolist(), exc(message)))

    def top(M):  # the largest eigenvalue of sym(M), matrix by matrix
        return np.linalg.eigvalsh(0.5 * (M + _T(M)))[:, -1]

    finite = (np.isfinite(g).all(axis=(1, 2)) & np.isfinite(A).all(axis=(1, 2))
              & np.isfinite(X).all(axis=1))
    rows = np.arange(n)
    fail(rows[~finite], GeostabError,
         "metric, covariant derivative or field is not finite")
    rows, g, A, X = _pick(finite, rows, g, A, X)
    w, q = np.linalg.eigh(0.5 * (g + _T(g)))
    keep = (w > 0.0).all(axis=1)
    fail(rows[~keep], GeostabError, "metric matrix is not positive definite")
    rows, g, A, X, w, q = _pick(keep, rows, g, A, X, w, q)
    root = np.sqrt(w)[:, None, :]
    half, half_inv = (q * root) @ _T(q), (q / root) @ _T(q)
    B = half @ A @ half_inv
    U, s, Vt = np.linalg.svd(B)
    s_A, s_B = (np.linalg.svd(M, compute_uv=False) for M in (A, B))
    rank = (s > RANK_RTOL * s[:, :1]).sum(axis=1)  # 0 for B = 0
    alpha, skew = np.full(len(rows), math.inf), np.zeros(len(rows), bool)
    full = (rank == d).all()  # then no rank needs a mask
    for r in [d] if full else set(rank.tolist()) - {0}:
        k = slice(None) if full else rank == r
        Ur, Vr = U[k, :, :r], _T(Vt[k, :r, :])
        if r < d:
            skew[k] = _norms(_T(Ur) @ _T(Vt[k, r:, :])) > ORTHO_TOL
        N = (_T(Ur) @ Vr) / s[k, None, :r]
        alpha[k] = -top(N)
    fail(rows[skew], NoFiniteAlphaError,
         "range and kernel of the covariant derivative are not orthogonal; "
         "no finite cocoercivity constant exists")
    out[rows, 0] = alpha  # (a row that raises is not read)
    live = ~skew & (alpha > 0.0)  # the cocoercive rows go on
    singular = live & (s_A[:, -1] <= RANK_RTOL * s_A[:, 0])  # as s >= 0
    nz = (s_B > RANK_RTOL * s_B[:, :1]).sum(axis=1)
    wide = singular & (nz < d - 1)
    gX = (g @ X[:, :, None])[:, :, 0]
    nsq = (X[:, None, :] @ gX[:, :, None])[:, 0, 0]
    still = live & ~wide & (nsq <= 1e-28)
    fail(rows[still], DegenerateDirectionError,
         "field direction vanishes; projection undefined")
    if singular.any():  # a kernel of dimension one, along X
        k = np.flatnonzero(singular & ~still)
        with np.errstate(divide="ignore", invalid="ignore"):  # X = 0 if wide
            off = _norms(half[k] @ A[k] @ X[k, :, None]) / np.sqrt(nsq[k])
        for i, v in zip(k.tolist(), off.tolist()):  # |B x|, x = g^½X/|X|_g
            if wide[i] or not v <= RANK_RTOL * s_B[i, 0]:
                errors[int(rows[i])] = UnsupportedKernelError(
                    "restricted inverse bound needs a kernel of dimension "
                    f"at most 1, got {d - nz[i]}" if wide[i] else
                    "restricted inverse bound needs the kernel along the "
                    f"field; |B x| = {v:.3e} at the unit field direction "
                    f"x, above {RANK_RTOL:g} s_max(B)")
    has = live & np.where(singular, nz > 0, nz == d)  # a finite sigma
    out[rows[live], 3], out[rows[singular], 1:3] = math.inf, math.inf
    out[rows[has], 3] = 1.0 / s_B[has, nz[has] - 1]
    rows, A, X, half, half_inv, gX, nsq = _pick(
        live & ~singular & ~still, rows, A, X, half, half_inv, gX, nsq)
    P = X[:, :, None] * gX[:, None, :] / nsq[:, None, None]
    S = np.linalg.solve(A, half_inv)
    out[rows, 1] = top(-half @ (np.eye(d) - P) @ S)
    out[rows, 2] = top(-half @ P @ S)
    return out, errors


def _drain(items) -> tuple:
    """The items of an iterable before it raises, and what it raises."""
    out = []
    try:
        for item in items:
            out.append(item)
    except Exception as exc:  # raised by the caller after these items
        return out, exc
    return out, None


def _constant_rows(fields, manifold, points):
    """Yield (p, alpha, mu_plus, mu_minus, sigma, |X|, g, A, X) at each of
    points for each of fields in turn, from one stacked chart call per
    field and one _stacked_rows call.  A row's exception comes at its
    row, and a chart call's (at the first row that raises alone) or the
    points' after the rows before it."""
    def chart(field, c):
        X = field.components(c)
        return manifold.metrics(c), field._covariant(c, X), X

    pts, failure = _drain(points)
    coords = np.array([p.coords for p in pts])
    fields = fields if failure is None else fields[:1]
    stacks, exc = _drain(chart(f, coords) for f in (fields if pts else []))
    if exc is not None:  # that field's rows up to the first raising alone
        ones, one_exc = _drain(chart(fields[len(stacks)], coords[i:i + 1])
                               for i in range(len(pts)))
        stacks += [[np.concatenate(col) for col in zip(*ones)]] if ones else []
        failure = exc if one_exc is None else one_exc
    if stacks:
        g, A, X = (np.concatenate(col) for col in zip(*stacks))
        vals, errors = _stacked_rows(g, A, X)
        norms = np.sqrt(np.maximum(_quad(X, g, X), 0.0))
        rows = (p for *_, x in stacks for p in pts[:len(x)])
        for i, p in enumerate(rows):
            if i in errors:
                raise errors[i]
            yield (p, *vals[i].tolist(), float(norms[i]), g[i], A[i], X[i])
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
    return _aggregate(list(_constant_rows([field], manifold, points)),
                      manifold.rho)


def point_constants(field, manifold, p) -> RegionConstants:
    """Constants of the degenerate region consisting of one point."""
    return region_constants(field, manifold, [p])
