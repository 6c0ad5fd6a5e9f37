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
from .jacobi import CurvatureSign, _f_of, _penalty, _terms

POS, NEG = CurvatureSign.POSITIVE, CurvatureSign.NEGATIVE
R_TOL = 1e-12
FLAT_RATIO = (2.0 - math.sqrt(3.0)) * (1.0 + 1e-12)  # sup of D/kc, raised
FEW_ROWS = 11  # live rows below which a bisection walks predicted paths


@dataclass(frozen=True, slots=True)
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


def _bisect_rows(excess, lo, hi, tol: float, at_lo, at_hi) -> np.ndarray:
    """The nonpositive end of each row's bracket [lo, hi], bisected for
    all rows in lockstep; excess(rows, h) decides by its sign (<= 0 is
    nonpositive), and at_lo, at_hi are its values at the ends.

    Each row halves its bracket at 0.5 (lo + hi) until hi - lo <= tol * hi
    or the midpoint equals an end (tol = 0: to the last bit).  FEW_ROWS or
    more live rows take one halving each per excess call, as arrays.
    Fewer rows walk predicted paths (_walk_paths): the midpoints their
    bisection visits if a regula falsi guess is the root, all in one
    call, read up to the first whose sign differs from the guess.  Up to
    there the real bracket is the predicted one, so every midpoint read
    is one the plain bisection visits, computed by the same 0.5 (lo + hi)
    from the same bracket: every row ends on the plain bisection's bit,
    for any excess, monotone or not.
    """
    lo, hi, at_lo, at_hi = (np.array(a, dtype=float)
                            for a in (lo, hi, at_lo, at_hi))
    out, rows = lo.copy(), np.arange(lo.size)
    while rows.size:
        mid = 0.5 * (lo + hi)
        live = (hi - lo > tol * hi) & (mid != lo) & (mid != hi)
        if not live.all():
            out[rows[~live]] = lo[~live]
            rows, lo, hi, at_lo, at_hi, mid = (
                a[live] for a in (rows, lo, hi, at_lo, at_hi, mid))
        if rows.size >= FEW_ROWS:
            val = excess(rows, mid)
            down = val <= 0.0
            lo, at_lo = np.where(down, mid, lo), np.where(down, val, at_lo)
            hi, at_hi = np.where(down, hi, mid), np.where(down, at_hi, val)
        elif rows.size:
            _walk_paths(excess, rows, lo, hi, at_lo, at_hi, tol)
    return out


def _walk_paths(excess, rows, lo, hi, at_lo, at_hi, tol: float) -> None:
    """One excess call for the live rows, brackets updated in place: a
    row guesses its root by regula falsi from its end values (the
    midpoint when that is not strictly inside), lists the midpoints its
    bisection visits if the guess is exact, and takes the real signs
    along them up to the first that differs from the guess."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        guess = lo - at_lo * (hi - lo) / (at_hi - at_lo)
    guess = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    paths = []
    for a, b, g in zip(lo.tolist(), hi.tolist(), guess.tolist()):
        paths.append([])
        while b - a > tol * b and (mid := 0.5 * (a + b)) not in (a, b):
            paths[-1].append(mid)
            a, b = (mid, b) if mid <= g else (a, mid)
    vals = excess(np.repeat(rows, [len(p) for p in paths]),
                  np.concatenate(paths)).tolist()
    for i, (path, g) in enumerate(zip(paths, guess.tolist())):
        for mid, val in zip(path, vals):
            if val <= 0.0:
                lo[i], at_lo[i] = mid, val
            else:
                hi[i], at_hi[i] = mid, val
            if (val <= 0.0) != (mid <= g):
                break
        del vals[:len(path)]


def _positive_rows(consts_seq) -> list:
    """bound_positive at every constant set of consts_seq, in one search:
    the rows are checked in order, one vectorised call makes every
    ceiling test, and the curvature-binding rows bisect in lockstep from
    F(0) = -2 alpha (G(0) = 0) and F at the ceiling."""
    for consts in consts_seq:
        if consts.rho <= 0:
            raise GeostabError("positive-curvature rule needs rho > 0")
        if not (consts.alpha > 0) or not math.isfinite(consts.alpha):
            raise NoBoundError("rule needs a finite positive cocoercivity "
                               "constant")
        if consts.sup_norm <= 0:
            raise NoBoundError("field norm bound must be positive")
        if not math.isfinite(consts.mu_plus):
            raise NoBoundError("projection constant is infinite; no "
                               "positive step is certified")
    alpha, mu, scale = np.array(
        [(c.alpha, c.mu_plus, c.sup_norm * math.sqrt(c.rho))
         for c in consts_seq], dtype=float).reshape(-1, 3).T
    cap = math.pi / scale

    def excess(rows, h):
        """F(h) = h - 2 alpha + 2 mu G(h s), G as at one scalar."""
        k = h * scale[rows]
        G = _penalty(k, _terms(k, POS, pointwise=True), POS)
        return h - 2.0 * alpha[rows] + 2.0 * mu[rows] * G

    h = np.minimum(2.0 * alpha, cap)
    at_h = excess(np.arange(h.size), h)
    flat = (mu <= 0.0) | (at_h <= 0.0)
    curved = np.flatnonzero(~flat)
    h[curved] = _bisect_rows(lambda rows, x: excess(curved[rows], x),
                             np.zeros(curved.size), h[curved], 0.0,
                             -2.0 * alpha[curved], at_h[curved])
    bindings = np.where(flat, np.where(2.0 * alpha <= cap, "flat",
                                       "kappa-cap"), "curvature")
    return [BoundResult(h_max=hi, rule="positive", binding=str(b),
                        kappa_at_h=hi * s)
            for hi, b, s in zip(h.tolist(), bindings, scale.tolist())]


def bound_positive(consts: RegionConstants) -> BoundResult:
    """Step rule on positively curved models.

    Solves h - 2*alpha + 2*mu_plus * G(h*C*sqrt(rho)) = 0 with G the
    curvature penalty, capped at kappa = pi where the penalty analysis
    stops.
    """
    return _positive_rows([consts])[0]


def _negative_terms(kappa):
    """The negative-branch curvature terms at kappa up to 300, and at 0
    beyond, where the damped penalty is zero."""
    return _terms(np.where(kappa > 300.0, 0.0, kappa), NEG)


def _kappa_coth_minus_one(kappa, terms) -> np.ndarray:
    """kappa*coth(kappa) - 1 = (cosh - sinhc) / sinhc, with cosh - 1 and
    sinhc - 1 taken apart so that the result keeps its relative accuracy
    below kappa = 1e-4; linear tail for large arguments where coth is 1
    to machine precision.  terms are _negative_terms(kappa)."""
    kappa = np.asarray(kappa, dtype=float)
    g, _, cs_diff, _ = terms
    return np.where(kappa > 30.0, kappa - 1.0, cs_diff / (1.0 + g))


def _damped_penalty(kappa, terms) -> np.ndarray:
    """G(kappa) / (1 + f3(kappa)) on the negative-curvature branch,
    evaluated without overflow for large kappa; terms as above."""
    kappa = np.asarray(kappa, dtype=float)
    # between kappa = 30 and 300 sinh^2 * f3 may overflow in the ratio,
    # which the asymptote replaces there
    with np.errstate(over="ignore"):
        val = _penalty(kappa, terms, NEG) / (1.0 + _f_of(terms, NEG)[2])
    # for large kappa the ratio collapses to kappa*(coth(kappa) - 1) -> 0
    return np.where(kappa > 300.0, 0.0, val)


def _negative_rhs(kappa, alpha, mu_minus, damping):
    """Admissible step at curvature scale kappa on negative models: the
    flat ceiling 2*alpha/(1 + damping) plus the curvature excess, summed
    so that a nonnegative excess never rounds the result below the
    ceiling; both parts read one evaluation of the curvature terms."""
    kappa = np.asarray(kappa, dtype=float)
    terms = _negative_terms(kappa)
    excess = (alpha * _kappa_coth_minus_one(kappa, terms)
              - mu_minus * _damped_penalty(kappa, terms))
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
    s = C*sqrt(|rho|), where rhs = (2 alpha + 2 (alpha kc - mu_minus D))
    / (1 + damping), kc = kappa coth(kappa) - 1 and D = G / sinhc^2 is
    the damped penalty; flat = rhs(0).

    Flat rows, exactly: D/kc falls on (0, inf) from 2 - sqrt(3), so
    rhs >= flat everywhere iff alpha >= (2 - sqrt(3)) mu_minus; below,
    the excess is negative near 0.  Proof: put cosh(beta) = sinhc(kappa).
    Then kc = cosh(kappa)/cosh(beta) - 1 and G = (cosh(kappa) -
    cosh(beta))^2 / (cosh(kappa + beta) - 1), so D/kc = sinh(r b) /
    (sinh(b) cosh(beta)) with b = (kappa + beta)/2, r = (kappa - beta)/2b.
    beta/kappa rises: the series of cosh(t k) - sinhc(k) has coefficients
    (t^(2n) - 1/(2n+1))/(2n)!, with one sign change, from + to -, since
    (2n+1) t^(2n) is log-concave and 1 at n = 0; so {k : beta(k)/k < t}
    is an interval (0, k*).  Hence r falls, b rises, sinh(r b)/sinh(b)
    falls (x coth x rises) and cosh(beta) rises; at 0, beta/kappa ->
    1/sqrt(3) and D/kc -> r -> 2 - sqrt(3).  This test (FLAT_RATIO, raised
    by 1e-12 for rounding) comes first; h = flat then needs no rhs.

    Curvature rows: h_max = min phi, phi = max(rhs(kappa), kappa/s) on
    [0, flat*s].  A certified h has rhs >= h on [0, h*s] and kappa/s > h
    beyond, so phi >= h; h = min phi has rhs >= h where kappa/s < h, and
    at h*s by continuity.  The minimum is sampled: a 2001-point grid of
    phi, narrowed around its best point down to the last bit
    (``_grid_min``).  A minimum at kappa = 0 or not below flat is the
    flat binding; rhs is summed as flat plus its excess, so rounding near
    kappa = 0 does not put it below flat.
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
    h, binding = flat, "flat"
    if alpha < FLAT_RATIO * mu:
        def phi(k):
            return np.maximum(_negative_rhs(k, alpha, mu, damping),
                              k / scale)

        worst, kappa = _grid_min(phi, 0.0, flat * scale, 2001)
        if kappa != 0.0 and worst < flat:
            h, binding = worst, "curvature"
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
