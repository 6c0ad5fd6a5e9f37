"""Test-only oracles: the sampled direction sweep, the sequential
empirical step search and the plain fixed-point implicit step.

The sampled direction sweep evaluates Δ on a coarse grid of unit frame
directions (512 angles in dimension two, a 2048-point Fibonacci sphere in
dimension three), then on local grids around the best direction found
so far.  It can only approach the worst direction from below, so the
exact largest eigenvalue must dominate it and agree with it closely.

The sequential step search is the one-point search as a plain loop:
scalar λ_max calls on the doubling bracket, then scalar bisection.  The
lockstep search of ``geostab.experiments`` must visit the same steps and
so return the same h_numeric, bit for bit.

The fixed-point implicit step iterates q <- exp_p(G(q)), with G moving
h * X|_q back to p by parallel transport; it converges only while the
step contracts, so where it does converge it checks the Newton solver's
fixed point.

The step-rule oracles are the positive rule as a plain scalar bisection
and the curvature kernels evaluated term by term, each function on its
own, as before the shared kernel terms; the package must match them bit
for bit.  The cosine-like and sine-like factors c(t), s(t) give the
variation field's frame coefficients term by term, the reference for
|J(t)|, which the package reads from the variation form.  The remaining
helpers are thin conveniences that only the tests use: Δ at explicit
directions, the geodesic at time t, a frame's vectors, the covariant
derivative along a vector and the norm change of one variation, and the
variation field realised in a frame.
"""

import math

import numpy as np

from geostab.bounds import BoundResult
from geostab.errors import (BracketError, GeostabError, NoBoundError,
                            NonconvergenceError)
from geostab.experiments import (DEFAULT_H_CAP, DEFAULT_H_LO, _SweepKernel,
                                 unit_directions)
from geostab.integrators import GIE_MAX_ITER, GIE_TOL, _gie_defect, gee_step
from geostab.jacobi import (CurvatureSign, _one_minus_sinc, _sinhc_minus_one,
                            variation_data, variation_form)
from geostab.manifolds import TangentVector

DEFAULT_DIRS = {2: 512, 3: 2048}
REFINE_POINTS = 17  # local grid points per axis, spacing width / 8
MIN_WIDTH = 1e-7  # radians; Δ is quadratic in the angle near its max


def kernel_matrix(kernel, h):
    """The symmetric matrix M(h) of Δ(h, ·) of a _SweepKernel."""
    return variation_form(np.eye(kernel.dim), h * kernel.N, h * kernel.scale,
                          kernel.sign)


def kernel_worst(kernel, h):
    """Largest Δ over unit directions: λ_max of M(h), by the Rayleigh
    quotient."""
    return float(np.linalg.eigvalsh(kernel_matrix(kernel, h))[-1])


def sweep_deltas(field, manifold, p, h, directions):
    """Δ values for explicit frame-coefficient directions (rows)."""
    Xi = np.atleast_2d(np.asarray(directions, dtype=float))
    M = kernel_matrix(_SweepKernel(field, manifold, p), h)
    return np.einsum("ij,jk,ik->i", Xi, M, Xi)


def direction_sweep_delta(field, manifold, p, h):
    """Worst squared-distance change of one explicit step at p: the
    largest eigenvalue of the step-variation form (scaled by a positive
    factor beyond kappa = 350, see variation_form).  Nonpositive means
    the step is locally non-expansive in every direction."""
    return kernel_worst(_SweepKernel(field, manifold, p), h)


def geodesic(model, p, v, t):
    """The point exp_p(t v)."""
    return model.exp(p, model.tangent(p, t * v.comps))


def frame_vectors(frame):
    """The frame's columns as tangent vectors at its base."""
    return [TangentVector(frame.base, frame.matrix[:, j])
            for j in range(frame.matrix.shape[1])]


def directional_covariant(field, v):
    """(∇X) v at the base of v."""
    return TangentVector(v.base, field.covariant_matrix(v.base) @ v.comps)


def sinc(u):
    return 1.0 - _one_minus_sinc(u)


def sinhc(u):
    return 1.0 + _sinhc_minus_one(u)


def ck(kappa, t, sign):
    """Cosine-like factor of the cross components at parameter t."""
    if sign is CurvatureSign.POSITIVE:
        out = np.cos(kappa * t)
    elif sign is CurvatureSign.NEGATIVE:
        out = np.cosh(kappa * t)
    else:
        out = np.ones_like(np.asarray(kappa * t, dtype=float))
    return out if np.ndim(out) else float(out)


def sk(kappa, t, sign):
    """Sine-like factor; equals t at kappa = 0 for every sign."""
    t = np.asarray(t, dtype=float)
    if sign is CurvatureSign.POSITIVE:
        out = t * sinc(kappa * t)
    elif sign is CurvatureSign.NEGATIVE:
        out = t * sinhc(kappa * t)
    else:
        out = t * np.ones_like(np.asarray(kappa, dtype=float))
    return out if np.ndim(out) else float(out)


def jacobi_coeffs(data, t):
    """Coefficients of the variation field in the parallel frame at t."""
    c = ck(data.kappa, t, data.sign)
    s = sk(data.kappa, t, data.sign)
    out = data.a * c + data.b * s
    out[0] = data.a[0] + data.b[0] * t
    return out


def coeff_jacobi_norm(data, t):
    """|J(t)| as the norm of the frame coefficients from c and s."""
    return float(np.linalg.norm(jacobi_coeffs(data, t)))


def jacobi_eval(data, frame_t, t):
    """The variation field at parameter t in the supplied
    parallel-transported frame."""
    coeffs = jacobi_coeffs(data, t)
    return TangentVector(frame_t.base, frame_t.matrix @ coeffs)


def norm_diff(v, w, u):
    """|J(1)|² - |J(0)|² for the variation with J(0) = v, covariant rate
    w at t = 0, along the geodesic with initial velocity u."""
    data = variation_data(v, w, u)
    return variation_form(data.a, data.b, data.kappa, data.sign)


def cap_grid(center, half_width, n=REFINE_POINTS):
    """Unit vectors covering a spherical cap around center (dim 3)."""
    helper = (np.array([1.0, 0.0, 0.0]) if abs(center[0]) < 0.9
              else np.array([0.0, 1.0, 0.0]))
    t1 = np.cross(center, helper)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(center, t1)
    off = np.linspace(-half_width, half_width, n)
    o1, o2 = np.meshgrid(off, off)
    pts = (center + o1.ravel()[:, None] * t1 + o2.ravel()[:, None] * t2)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def local_grid(center, half_width):
    """Unit vectors around center: an arc in dimension two, a spherical
    cap in dimension three; the middle row is center itself."""
    if len(center) == 3:
        return cap_grid(center, half_width)
    ang = math.atan2(center[1], center[0]) + np.linspace(
        -half_width, half_width, REFINE_POINTS)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def refined_sweep(field, manifold, p, h, n_dirs=None):
    """Every Δ value the sampled direction sweep evaluates at h; their
    maximum is the sweep's estimate of the worst direction.

    After the coarse grid, a local grid moves to its argmax until the
    argmax is its middle, then shrinks by 8, down to MIN_WIDTH.  Moving
    lets the search follow a flat ridge, where two eigenvalues nearly
    coincide, beyond the first local grid.
    """
    dim = manifold.dim
    if n_dirs is None:
        n_dirs = DEFAULT_DIRS[dim]
    Xi = unit_directions(dim, n_dirs)
    seen = [sweep_deltas(field, manifold, p, h, Xi)]
    best = Xi[int(np.argmax(seen[0]))]
    width = (2.0 * np.pi / n_dirs if dim == 2
             else math.sqrt(4.0 * np.pi / n_dirs))
    for _ in range(500):
        if width < MIN_WIDTH:
            break
        fine = local_grid(best, width)
        vals = sweep_deltas(field, manifold, p, h, fine)
        seen.append(vals)
        k = int(np.argmax(vals))
        if vals[k] <= vals[len(fine) // 2]:
            width /= 8.0
        else:
            best = fine[k]
    return np.concatenate(seen)


def sequential_hmax(field, manifold, p, h_lo=DEFAULT_H_LO,
                    h_hi=DEFAULT_H_CAP, tol_h=1e-6):
    """numerical_hmax one λ_max call at a time: doubling from
    max(1e-3, 2 h_lo) until the worst Δ turns positive, then bisection to
    relative width tol_h."""
    kernel = _SweepKernel(field, manifold, p)

    def worst(h):
        return kernel_worst(kernel, h)

    if worst(h_lo) > 0.0:
        raise BracketError(f"step already expansive at h_lo = {h_lo:g}")
    if worst(h_hi) <= 0.0:
        return math.inf
    lo, hi = h_lo, min(max(1e-3, 2.0 * h_lo), h_hi)
    while worst(hi) <= 0.0:
        lo, hi = hi, min(2.0 * hi, h_hi)
    while hi - lo > tol_h * hi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if worst(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def fixed_point_gie_step(field, p, h, tol=GIE_TOL, max_iter=GIE_MAX_ITER):
    """The implicit step by plain fixed-point iteration from the explicit
    step, with the same defect test as ``gie_step``."""
    model = field.manifold
    q = gee_step(field, p, h)
    defect = _gie_defect(field, q, h, p)
    for _ in range(max_iter):
        if defect <= tol:
            return q
        X = field.eval(q)
        moved = model.transport(model.tangent(q, h * X.comps), model.log(q, p))
        q = model.exp(p, moved)
        defect = _gie_defect(field, q, h, p)
    if defect <= tol:
        return q
    raise NonconvergenceError(
        f"fixed-point implicit step did not converge (defect {defect:.3e})",
        defect=defect)


# -- step-rule oracles -------------------------------------------------------


def separate_f_functions(kappa, sign):
    """f_functions with every kernel evaluated on its own."""
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa < 0):
        raise GeostabError("kappa must be nonnegative")
    if sign is CurvatureSign.POSITIVE:
        f1 = np.sin(kappa) ** 2
        f2 = _one_minus_sinc(2.0 * kappa)
        g = _one_minus_sinc(kappa)
        f3 = g * (1.0 + (1.0 - g))
    elif sign is CurvatureSign.NEGATIVE:
        f1 = np.sinh(kappa) ** 2
        f2 = _sinhc_minus_one(2.0 * kappa)
        g = _sinhc_minus_one(kappa)
        f3 = g * (1.0 + (1.0 + g))
    else:
        z = np.zeros_like(kappa)
        f1, f2, f3 = z, z.copy(), z.copy()
    if f1.ndim == 0:
        return float(f1), float(f2), float(f3)
    return f1, f2, f3


def separate_curvature_penalty(kappa, sign):
    """curvature_penalty with c - s and f1, f2, f3 evaluated apart."""
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa < 0):
        raise GeostabError("kappa must be nonnegative")
    if sign is CurvatureSign.ZERO:
        out = np.zeros_like(kappa)
    else:
        if sign is CurvatureSign.POSITIVE:
            work = kappa
            cs_diff = _one_minus_sinc(work) - 2.0 * np.sin(0.5 * work) ** 2
        else:
            work = np.minimum(kappa, 30.0)
            cs_diff = 2.0 * np.sinh(0.5 * work) ** 2 - _sinhc_minus_one(work)
        f1, f2, f3 = separate_f_functions(work, sign)
        den = np.asarray(f2 + np.sqrt(np.multiply(f1, f3)))
        out = cs_diff * cs_diff / np.where(den > 0.0, den, 1.0)
        if sign is CurvatureSign.NEGATIVE:
            big = kappa > 30.0
            tail_arg = np.where(big, kappa, 1.0)
            out = np.where(big, 0.5 * tail_arg + 0.5 / tail_arg - 1.0, out)
    return float(out) if out.ndim == 0 else out


def separate_kappa_coth_minus_one(kappa):
    """kappa*coth(kappa) - 1 from its own sinhc - 1 and cosh - 1."""
    kappa = np.asarray(kappa, dtype=float)
    big = kappa > 30.0
    safe = np.where(big, 0.0, kappa)
    sinhc_m1 = _sinhc_minus_one(safe)
    val = (2.0 * np.sinh(0.5 * safe) ** 2 - sinhc_m1) / (1.0 + sinhc_m1)
    return np.where(big, kappa - 1.0, val)


def separate_damped_penalty(kappa):
    """G / (1 + f3) on the negative branch from separate calls."""
    kappa = np.asarray(kappa, dtype=float)
    big = kappa > 300.0
    safe = np.where(big, 0.0, kappa)
    _, _, f3 = separate_f_functions(safe, CurvatureSign.NEGATIVE)
    val = separate_curvature_penalty(safe, CurvatureSign.NEGATIVE) / (1.0 + f3)
    return np.where(big, 0.0, val)


def separate_negative_rhs(kappa, alpha, mu_minus, damping):
    """The negative rule's rhs from the separate kernels."""
    kappa = np.asarray(kappa, dtype=float)
    excess = (alpha * separate_kappa_coth_minus_one(kappa)
              - mu_minus * separate_damped_penalty(kappa))
    return (2.0 * alpha + 2.0 * excess) / (1.0 + damping)


def sequential_bound_positive(consts):
    """The positive rule one scalar F call at a time: the ceiling test,
    then plain bisection to the last bit."""
    if consts.rho <= 0:
        raise GeostabError("positive-curvature rule needs rho > 0")
    alpha, mu, C = consts.alpha, consts.mu_plus, consts.sup_norm
    if not (alpha > 0) or not math.isfinite(alpha):
        raise NoBoundError("rule needs a finite positive cocoercivity "
                           "constant")
    if C <= 0:
        raise NoBoundError("field norm bound must be positive")
    if not math.isfinite(mu):
        raise NoBoundError("projection constant is infinite; no positive "
                           "step is certified")
    scale = C * math.sqrt(consts.rho)
    cap = math.pi / scale

    def F(h):
        return h - 2.0 * alpha + 2.0 * mu * float(
            separate_curvature_penalty(h * scale, CurvatureSign.POSITIVE))

    ceiling = min(2.0 * alpha, cap)
    if mu <= 0.0 or F(ceiling) <= 0.0:
        binding = "flat" if 2.0 * alpha <= cap else "kappa-cap"
        h = ceiling
    else:
        lo, hi = 0.0, ceiling
        while lo < hi:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if F(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        h = lo
        binding = "curvature"
    return BoundResult(h_max=h, rule="positive", binding=binding,
                       kappa_at_h=h * scale)
