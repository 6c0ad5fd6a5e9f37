"""Closed-form geodesic variation fields on constant-curvature models.

Along a geodesic gamma(t) = exp_p(t*u) on a model of curvature rho, any
variation field J solving the second-order variation equation decomposes
in a parallel orthonormal frame e_1(t), ..., e_d(t) with e_1 = u/|u| as

    J(t) = (a1 + b1*t) e_1(t) + sum_{i>=2} (a_i c(t) + b_i s(t)) e_i(t),

where c(t), s(t) are cosine-like and sine-like functions of kappa*t and
kappa = sqrt(|rho|)*|u|.  The module provides the scalar functions
f1, f2, f3 of kappa built from c and s, the norm change |J(1)|^2 - |J(0)|^2
as one quadratic form in the frame coefficients (|J(1)| is read from it
too), and the one builder of the variation data of an explicit geodesic
Euler step, on a stack of points, that the step search bisects and the
finite-difference validation checks.

Near kappa = 0 the f-functions suffer catastrophic cancellation; below
kappa = 1 they switch to series evaluation.
"""

import enum
import math

import numpy as np

from .errors import GeostabError
from .manifolds import _frames

# Below SERIES_KAPPA the direct sinh(u)/u - 1 and 1 - sin(u)/u cancel
# (a relative error of 1e-16 / u^2); their series, cut after u^18, are
# exact there to 1e-19 relative, and above it the direct forms lose under
# 1e-15.  Coefficients of u^2, u^4, ..., u^18: 1/(2k+1)!, with alternating
# signs for 1 - sin(u)/u.
SERIES_KAPPA = 1.0
_SINHC_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in range(1, 10))
_SINC_SERIES = tuple((-1) ** k * c for k, c in enumerate(_SINHC_SERIES))
SPLIT_KAPPA = 1.0
GROWTH_KAPPA_CAP = 350.0  # expm1(2*kappa) leaves the double range near 354.9
ALIGN_TOL = 1e-12  # relative size below which a variation block is
#                    treated as structurally zero (rounding dust sits
#                    near 1e-15; genuine couplings are order one)


class CurvatureSign(enum.Enum):
    POSITIVE = 1
    ZERO = 0
    NEGATIVE = -1


def curvature_sign(rho: float) -> CurvatureSign:
    if rho > 0:
        return CurvatureSign.POSITIVE
    if rho < 0:
        return CurvatureSign.NEGATIVE
    return CurvatureSign.ZERO


# -- stable scalar kernels ---------------------------------------------------


def _even_series(u2, coeffs):
    """sum of coeffs[k] * u2^(k+1), by Horner in u2."""
    acc = coeffs[-1] * u2
    for c in coeffs[-2::-1]:
        acc += c
        acc *= u2
    return acc


def _series_or_direct(u, coeffs, direct):
    """The series below SERIES_KAPPA, direct(u) from there on; each form
    is evaluated only on the elements it serves, and not at all when it
    serves none."""
    u = np.asarray(u, dtype=float)
    large = np.abs(u) >= SERIES_KAPPA
    if not large.any():
        return _even_series(u * u, coeffs)
    if large.all():
        return direct(u)
    out, small = np.empty_like(u), ~large
    part = u[small]
    out[small] = _even_series(part * part, coeffs)
    out[large] = direct(u[large])
    return out


def _one_minus_sinc(u):
    """1 - sin(u)/u, series below the cancellation threshold."""
    return _series_or_direct(u, _SINC_SERIES, lambda x: 1.0 - np.sin(x) / x)


def _sinhc_minus_one(u):
    """sinh(u)/u - 1, series below the cancellation threshold."""
    return _series_or_direct(u, _SINHC_SERIES, lambda x: np.sinh(x) / x - 1.0)


def _terms(kappa, sign: CurvatureSign, pointwise: bool = False):
    """The terms every curvature function of kappa is built from, each
    evaluated once: g(kappa) = 1 - sinc, g(2 kappa), c - s at t = 1 as g
    minus 2 sin^2(kappa/2), and sin^2(kappa); on the negative branch
    g = sinhc - 1 and c - s = 2 sinh^2(kappa/2) - g.  numpy squares a
    scalar by pow and an array by multiplication, which differ in the
    last bit about once in a thousand; pointwise squares each element
    by pow, as a scalar."""
    def square(x):
        return np.float_power(x, 2.0) if pointwise else x ** 2

    if sign is CurvatureSign.POSITIVE:
        g = _one_minus_sinc(kappa)
        return (g, _one_minus_sinc(2.0 * kappa),
                g - 2.0 * square(np.sin(0.5 * kappa)), square(np.sin(kappa)))
    g = _sinhc_minus_one(kappa)
    return (g, _sinhc_minus_one(2.0 * kappa),
            2.0 * square(np.sinh(0.5 * kappa)) - g, square(np.sinh(kappa)))


def _f_of(terms, sign: CurvatureSign):
    """f1, f2, f3 (see f_functions) from the terms."""
    g, g2, _, sq = terms
    if sign is CurvatureSign.POSITIVE:
        return sq, g2, g * (1.0 + (1.0 - g))  # (1 - sinc)(1 + sinc)
    return sq, g2, g * (1.0 + (1.0 + g))  # (sinhc - 1)(1 + sinhc)


def _penalty(kappa, terms, sign: CurvatureSign):
    """curvature_penalty at kappa from the terms at kappa (at any argument
    past kappa = 30 on the negative branch, where the asymptote binds)."""
    cs_diff = terms[2]
    f1, f2, f3 = _f_of(terms, sign)
    den = np.asarray(f2 + np.sqrt(np.multiply(f1, f3)))
    out = cs_diff * cs_diff / np.where(den > 0.0, den, 1.0)
    if sign is CurvatureSign.NEGATIVE:
        big = kappa > 30.0
        tail_arg = np.where(big, kappa, 1.0)
        out = np.where(big, 0.5 * tail_arg + 0.5 / tail_arg - 1.0, out)
    return out


def f_functions(kappa, sign: CurvatureSign):
    """The three nonnegative curvature functions of kappa at t = 1.

    f1 = s(rho)(1 - c^2), f2 = s(rho)(1 - c*s), f3 = s(rho)(1 - s^2)
    with s(rho) the sign of the curvature; identically zero on flat
    models.  Vectorized over kappa.
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa < 0):
        raise GeostabError("kappa must be nonnegative")
    if sign is CurvatureSign.ZERO:
        z = np.zeros_like(kappa)
        f1, f2, f3 = z, z.copy(), z.copy()
    else:
        f1, f2, f3 = _f_of(_terms(kappa, sign), sign)
    if f1.ndim == 0:
        return float(f1), float(f2), float(f3)
    return f1, f2, f3


def curvature_penalty(kappa, sign: CurvatureSign):
    """f2 - sqrt(f1*f3), the combined correction entering the step
    bounds; nonnegative for every kappa.

    Evaluated as the algebraically equal ratio (c - s)^2 / (f2 +
    sqrt(f1*f3)), with c, s the cosine-like and sine-like factors at
    t = 1.  The direct difference cancels catastrophically once the
    hyperbolic terms grow; the ratio does not.  On the negative branch
    beyond kappa = 30 the ratio is replaced by its asymptote
    kappa/2 + 1/(2*kappa) - 1, exact there to machine precision.
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa < 0):
        raise GeostabError("kappa must be nonnegative")
    if sign is CurvatureSign.ZERO:
        out = np.zeros_like(kappa)
    else:
        work = (kappa if sign is CurvatureSign.POSITIVE
                else np.minimum(kappa, 30.0))
        out = _penalty(kappa, _terms(work, sign), sign)
    return float(out) if out.ndim == 0 else out


def _rows(x):
    """The leading row of x (the along-geodesic coefficients) and the
    rest; rows are the first axis of a vector, the second-to-last of a
    matrix or a stack of matrices."""
    if x.ndim == 1:
        return x[:1], x[1:]
    return x[..., :1, :], x[..., 1:, :]


def _T(x):
    return x if np.ndim(x) < 2 else x.swapaxes(-1, -2)


def _norms(M):
    """np.linalg.norm of each matrix of a stack, with its bits."""
    flat = M.reshape(len(M), 1, math.prod(M.shape[1:]))
    return np.sqrt((flat @ _T(flat))[:, 0, 0])


def _sym(x):
    return x + _T(x)


def _gram(x):
    return _T(x) @ x


def _elementwise(fn, x):
    """The math function fn at a scalar x or at every element of x.

    numpy's vectorised exp and expm1 may differ from the math module in
    the last bit, so a stack takes the same math calls as one kappa."""
    if np.ndim(x) == 0:
        return fn(x)
    out = np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size)
    return out.reshape(x.shape)


def _form(a, b, kappa, sign: CurvatureSign, split: bool):
    """The form of variation_form at one kappa, or at a stack of them of
    shape (n, 1, 1) against stacked a and b; split selects the expm1
    split of the negative branch."""
    a0, a1 = _rows(a)
    b0, b1 = _rows(b)
    if split:
        t = b1 / kappa
        excess = np.maximum(kappa - GROWTH_KAPPA_CAP, 0.0)
        rest = (_gram(b0) + _sym(_T(a0) @ b0)
                + _elementwise(math.expm1, -2.0 * kappa) / 4.0
                * _gram(a1 - t))
        return (_elementwise(math.exp, -2.0 * excess) * rest
                + _elementwise(math.expm1, 2.0 * (kappa - excess)) / 4.0
                * _gram(a1 + t))
    f1, f2, f3 = f_functions(kappa, sign)
    return _gram(b) + _sym(_T(a) @ b) - sign.value * (
        f1 * _gram(a1) + f2 * _sym(_T(a1) @ b1) + f3 * _gram(b1))


def variation_form(a, b, kappa, sign: CurvatureSign):
    """|J(1)|^2 - |J(0)|^2 as a quadratic form in the frame coefficients.

    a and b hold the coefficients of J(0) and of its covariant rate at
    t = 0.  Given vectors, the result is the change of that one
    variation.  Given d x k matrices whose columns are k variations, it
    is the symmetric k x k matrix M of the form: the variation with
    coefficients (a x, b x) changes by x^T M x.  With a = I the largest
    eigenvalue of M is the worst change over unit directions.  Given
    kappa of shape (n,) and b of shape (n, d, k) (a of shape (d, k) or
    (n, d, k)), the result is the (n, k, k) stack of these matrices, each
    equal to the one of its own kappa.

    The form is |b|^2 + 2<a,b> - s(rho) * sum_{i>=2} (a_i^2 f1
    + 2 a_i b_i f2 + b_i^2 f3).  On negative curvature from kappa = 1
    on, where e^(2k) starts to amplify rounding residue, each cross
    component is evaluated as the algebraically equal split
    expm1(2k)/4 (a_i + b_i/k)^2 + expm1(-2k)/4 (a_i - b_i/k)^2, so a
    growth term that cancels exactly (a_i + b_i/k = 0) stays zero.
    Below kappa = 1 the split would lose digits to the b_i/k terms when
    b is much larger than k*a.  Beyond kappa = 350, where e^(2k) leaves
    the double range, the whole form is scaled by the positive factor
    e^(-2(kappa - 350)), which keeps its sign and the sign of every
    eigenvalue.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    negative = sign is CurvatureSign.NEGATIVE
    if np.ndim(kappa) == 0:
        out = _form(a, b, kappa, sign, negative and kappa >= SPLIT_KAPPA)
        return float(out) if np.ndim(out) == 0 else out
    kappa = np.asarray(kappa, dtype=float)[:, None, None]
    split = kappa[:, 0, 0] >= SPLIT_KAPPA
    if not negative or split.all() or not split.any():
        return _form(a, b, kappa, sign, negative and bool(split.any()))
    a = np.broadcast_to(a, b.shape)
    out = np.empty(b.shape[:1] + 2 * b.shape[-1:])
    for part, is_split in ((split, True), (~split, False)):
        out[part] = _form(a[part], b[part], kappa[part], sign, is_split)
    return out


def jacobi_norm(a, b, kappa, sign: CurvatureSign) -> np.ndarray:
    """|J(1)| = sqrt(|a|^2 + variation_form(a, b, kappa)) at each row of
    the (n, d) stacks a, b and (n,) kappa, in one variation_form call.
    The squares of the entries must stay in the normal double range
    (no rescaling is done).  Raises GeostabError on negative curvature
    past GROWTH_KAPPA_CAP, where the form is only rescaled.  Near a zero
    of J(1) an absolute error of √(machine ε)·|a| is left."""
    a, b, kappa = (np.asarray(x, dtype=float) for x in (a, b, kappa))
    if sign is CurvatureSign.NEGATIVE and np.any(kappa > GROWTH_KAPPA_CAP):
        raise GeostabError(f"no |J(1)| past kappa = {GROWTH_KAPPA_CAP:g} "
                           f"on negative curvature (got {kappa.max():.6g})")
    change = variation_form(a[:, :, None], b[:, :, None], kappa, sign)
    square = (a[:, None, :] @ a[:, :, None] + change)[:, 0, 0]
    return np.sqrt(np.maximum(square, 0.0))


def gee_jacobi_data(manifold, x_norm, g, A, X):
    """(E, N, scale) of the step-variation form of one explicit geodesic
    Euler step at every row of a stack of points, from the stacks of the
    rows' |X| and chart data g, A = ∇X and X.

    Works in frame coefficients: with E the g-orthonormal frame at p led
    by X, a unit direction ξ has the variation with initial value ξ and
    initial derivative h N ξ, N = Eᵀ g A E, so its squared-norm change is
    Δ(h, ξ) = ξᵀ M(h) ξ with M(h) = variation_form(I, h N, h * scale),
    scale = |X| √|ρ|, and its |J(1)| is jacobi_norm(ξ, h N ξ, h * scale).
    One manifolds._frames call builds the frames of all rows and raises
    DegenerateDirectionError at the first row that has none.
    """
    x_norm, g, A, X = (np.asarray(a, dtype=float) for a in (x_norm, g, A, X))
    dim, E = X.shape[1], _frames(g, X, x_norm)
    N = _T(E) @ g @ A @ E
    scale = x_norm * math.sqrt(abs(manifold.rho))
    # Structural zeros of the variation blocks.  On the negative branch
    # the cross term is multiplied by e^(2k), so rounding dust in a block
    # that is analytically zero (the chart arithmetic of Gamma.X leaves
    # ~1e-16 residue) would masquerade as exponential growth.  A block
    # whose norm is rounding-small relative to the whole matrix is
    # therefore snapped to its exact value: a zero first row or column (the
    # dust of ∇X X = 0 alone would make X's direction expansive), or
    # perpendicular rows equal to -scale times I, which cancel the growth.
    if curvature_sign(manifold.rho) is CurvatureSign.NEGATIVE:
        R = N / scale[:, None, None]
        perp = R[:, 1:, :].copy()
        perp[:, :, 1:] += np.eye(dim - 1)
        gauge = ALIGN_TOL * (1.0 + _norms(R))
        aligned, still = _norms(perp) <= gauge, _norms(R[:, :1, :]) <= gauge
        N[aligned, 1:, 0] = 0.0
        N[aligned, 1:, 1:] = -scale[aligned, None, None] * np.eye(dim - 1)
        N[still, 0, :] = 0.0
        N[_norms(R[:, :, :1]) <= gauge, :, 0] = 0.0
    return E, N, scale
