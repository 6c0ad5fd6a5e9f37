"""Step-size rules guaranteeing non-expansivity of the explicit
geodesic Euler step.

Each rule consumes RegionConstants and returns the largest step h for
which the one-step squared-distance change is provably nonpositive
throughout the region.  The returned BoundResult records which part of
the inequality was active:

* "flat"          the curvature-free ceiling 2*alpha (or its damped
                  variant) binds;
* "curvature"     the curvature correction term binds at some h below
                  the ceiling;
* "kappa-cap"     the positive-curvature analysis is only valid up to
                  kappa = pi and that cap binds;
* "unconditional" no finite step restriction exists.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import RegionConstants
from .errors import GeostabError, InconsistentConstantsError, NoBoundError
from .jacobi import (CurvatureSign, _sinhc_minus_one, curvature_penalty,
                     f_functions)

R_TOL = 1e-12


@dataclass(frozen=True)
class BoundResult:
    """Largest provably non-expansive step and the active constraint."""

    h_max: float
    rule: str
    binding: str
    kappa_at_h: float


def euclidean_bound(alpha: float) -> BoundResult:
    """Flat-space ceiling: the step is non-expansive iff h <= 2*alpha."""
    if not (alpha > 0):
        raise NoBoundError("cocoercivity constant must be positive")
    return BoundResult(h_max=2.0 * alpha, rule="euclidean", binding="flat",
                       kappa_at_h=0.0)


def _bisect_nonpositive(F, lo: float, hi: float) -> float:
    """Largest h in [lo, hi] with F(h) <= 0, given F(lo) <= 0 < F(hi),
    bisected to the last bit."""
    while lo < hi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if F(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def bound_positive(consts: RegionConstants) -> BoundResult:
    """Step rule on positively curved models.

    Solves h - 2*alpha + 2*mu_plus * G(h*C*sqrt(rho)) = 0 with G the
    curvature penalty, capped at kappa = pi where the penalty analysis
    stops.
    """
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
            curvature_penalty(h * scale, CurvatureSign.POSITIVE))

    ceiling = min(2.0 * alpha, cap)
    if mu <= 0.0 or F(ceiling) <= 0.0:
        binding = "flat" if 2.0 * alpha <= cap else "kappa-cap"
        h = ceiling
    else:
        h = _bisect_nonpositive(F, 0.0, ceiling)
        binding = "curvature"
    return BoundResult(h_max=h, rule="positive", binding=binding,
                       kappa_at_h=h * scale)


def _kappa_coth_minus_one(kappa: np.ndarray) -> np.ndarray:
    """kappa*coth(kappa) - 1 = (cosh - sinhc) / sinhc, with cosh - 1 and
    sinhc - 1 taken apart so that the result keeps its relative accuracy
    below kappa = 1e-4; linear tail for large arguments where coth is 1
    to machine precision."""
    kappa = np.asarray(kappa, dtype=float)
    big = kappa > 30.0
    safe = np.where(big, 0.0, kappa)
    sinhc_m1 = _sinhc_minus_one(safe)
    val = (2.0 * np.sinh(0.5 * safe) ** 2 - sinhc_m1) / (1.0 + sinhc_m1)
    return np.where(big, kappa - 1.0, val)


def _damped_penalty(kappa: np.ndarray) -> np.ndarray:
    """G(kappa) / (1 + f3(kappa)) on the negative-curvature branch,
    evaluated without overflow for large kappa."""
    kappa = np.asarray(kappa, dtype=float)
    big = kappa > 300.0
    safe = np.where(big, 0.0, kappa)
    _, _, f3 = f_functions(safe, CurvatureSign.NEGATIVE)
    val = curvature_penalty(safe, CurvatureSign.NEGATIVE) / (1.0 + f3)
    # for large kappa the ratio collapses to kappa*(coth(kappa) - 1) -> 0
    return np.where(big, 0.0, val)


def _negative_rhs(kappa, alpha, mu_minus, damping):
    """Admissible step at curvature scale kappa on negative models: the
    flat ceiling 2*alpha/(1 + damping) plus the curvature excess, summed
    so that a nonnegative excess never rounds the result below the
    ceiling."""
    kappa = np.asarray(kappa, dtype=float)
    excess = (alpha * _kappa_coth_minus_one(kappa)
              - mu_minus * _damped_penalty(kappa))
    return (2.0 * alpha + 2.0 * excess) / (1.0 + damping)


def _grid_min(f, lo: float, hi: float, n_grid: int):
    """Minimum of a continuous function on [lo, hi] by a grid of n_grid
    points (at least 4), narrowed to the best point's two neighbours and
    laid again until the bracket is two floats wide at the scale of the
    original interval.

    f is vectorised and always receives the whole grid.  Returns
    (value, argument) of the best point seen; on ties the earlier point
    wins, so a minimum at lo is reported at lo exactly.
    """
    resolution = 2.0 * np.spacing(max(abs(lo), abs(hi)))
    best, arg = math.inf, lo
    while True:
        grid = np.linspace(lo, hi, n_grid)
        vals = f(grid)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, arg = float(vals[i]), float(grid[i])
        lo = float(grid[max(i - 1, 0)])
        hi = float(grid[min(i + 1, n_grid - 1)])
        if hi - lo <= resolution:
            return best, arg


def bound_negative(consts: RegionConstants) -> BoundResult:
    """Step rule on negatively curved models.

    Certifies h whenever h <= rhs(kappa) for every kappa in [0, h*s],
    s = C*sqrt(|rho|), where rhs combines the cocoercivity gain
    kappa*coth(kappa) with the damped curvature penalty.  The largest
    such h is one min-max over kappa in [0, flat*s], flat = rhs(0):

        h_max = min phi,  phi(kappa) = max(rhs(kappa), kappa/s).

    * A certified h has rhs >= h on [0, h*s] and kappa/s > h beyond, so
      phi >= h everywhere.
    * h = min phi has rhs >= h wherever kappa/s < h, and at kappa = h*s
      by continuity (else phi would dip below h just left of it).
    * phi(0) = flat and phi >= kappa/s, so kappa > flat*s never matters.

    The minimum is a sampled one: a 2001-point grid of phi, narrowed
    around its best point down to the last bit (``_grid_min``).  A
    minimum at kappa = 0 or not below flat reports the flat binding;
    rhs is summed as flat plus its excess, so rounding near kappa = 0
    does not put it below flat.
    """
    if consts.rho >= 0:
        raise GeostabError("negative-curvature rule needs rho < 0")
    alpha, mu, sigma, C = (consts.alpha, consts.mu_minus, consts.sigma,
                           consts.sup_norm)
    if not (alpha > 0) or not math.isfinite(alpha):
        raise NoBoundError("rule needs a finite positive cocoercivity "
                           "constant")
    if C <= 0:
        raise NoBoundError("field norm bound must be positive")
    if not math.isfinite(mu) or not math.isfinite(sigma):
        raise NoBoundError("projection or inverse constant is infinite; "
                           "use the singular rule instead")
    scale = C * math.sqrt(-consts.rho)
    damping = (sigma * scale) ** 2
    flat = 2.0 * alpha / (1.0 + damping)

    def phi(k):
        return np.maximum(_negative_rhs(k, alpha, mu, damping), k / scale)

    worst, kappa = _grid_min(phi, 0.0, flat * scale, 2001)
    if kappa == 0.0 or worst >= flat:
        h = flat
        binding = "flat"
    else:
        h = worst
        binding = "curvature"
    return BoundResult(h_max=h, rule="negative", binding=binding,
                       kappa_at_h=h * scale)


def bound_singular(consts: RegionConstants, x_norm_range) -> BoundResult:
    """Step rule on negative models when the covariant derivative is
    singular and only the inverse bound on its range is available.

    For each admissible field norm c the certified step is
    arccoth(R(c)) / (c*sqrt(|rho|)) with
    R(c) = (1 + c^2*|rho|*sigma^2) / (2*alpha*c*sqrt(|rho|)); the rule
    takes the worst c over the supplied range.  R < 1 is impossible for
    consistent constants; R = 1 certifies every step.
    """
    if consts.rho >= 0:
        raise GeostabError("singular rule needs rho < 0")
    alpha, sigma = consts.alpha, consts.sigma
    if not (alpha > 0) or not math.isfinite(alpha):
        raise NoBoundError("rule needs a finite positive cocoercivity "
                           "constant")
    if not math.isfinite(sigma) or sigma <= 0:
        raise NoBoundError("rule needs a finite positive inverse bound")
    lo, hi = (float(x_norm_range[0]), float(x_norm_range[-1]))
    if not (0 < lo <= hi):
        raise GeostabError("field norm range must be positive")
    root = math.sqrt(-consts.rho)

    def certified(c):
        R = (1.0 + (c * root * sigma) ** 2) / (2.0 * alpha * c * root)
        if np.any(R < 1.0 - R_TOL):
            raise InconsistentConstantsError(
                f"certified ratio {R.min():.12g} < 1 contradicts "
                f"alpha <= sigma")
        # arccoth(R) = log((R+1)/(R-1)) / 2; R = 1 certifies every step
        with np.errstate(divide="ignore", invalid="ignore"):
            h = 0.5 * np.log((R + 1.0) / (R - 1.0)) / (c * root)
        return np.where(R <= 1.0 + R_TOL, math.inf, h)

    h, c_star = _grid_min(certified, lo, hi, 512)
    if math.isinf(h):
        return BoundResult(h_max=math.inf, rule="singular",
                           binding="unconditional", kappa_at_h=math.inf)
    return BoundResult(h_max=h, rule="singular", binding="curvature",
                       kappa_at_h=h * c_star * root)
