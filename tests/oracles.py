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
"""

import math

import numpy as np

from geostab.errors import BracketError, NonconvergenceError
from geostab.experiments import (DEFAULT_H_CAP, DEFAULT_H_LO, _SweepKernel,
                                 sweep_deltas, unit_directions)
from geostab.integrators import GIE_MAX_ITER, GIE_TOL, _gie_defect, gee_step

DEFAULT_DIRS = {2: 512, 3: 2048}
REFINE_POINTS = 17  # local grid points per axis, spacing width / 8
MIN_WIDTH = 1e-7  # radians; Δ is quadratic in the angle near its max


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
    worst = _SweepKernel(field, manifold, p).worst
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
