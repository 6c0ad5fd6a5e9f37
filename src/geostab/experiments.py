"""Built-in example studies: empirical step limits, theory/experiment
comparison tables, and validation of the closed-form variation norm.

The registry EXAMPLES holds four named field families:

* ``s2``           rotation-plus-drift field on the 2-sphere,
* ``h2``           constant-component field on the hyperbolic plane,
* ``s3``           rotation-plus-drift field on the 3-sphere,
* ``h2-singular``  the dilation field on the hyperbolic plane whose
                   covariant derivative is singular.

For each family the module can compute the largest empirically
non-expansive step at a base point (by bisecting in h on the exact worst
direction, the largest eigenvalue of the step-variation form), the
certified step of the matching rule from pointwise
constants, and CSV comparison tables over parameter grids.

A table is computed in stacks, and every row takes the same path: one
stacked chart pass feeds one stacked constants pass for the rows of
every epsilon (``constants._constant_rows``), one ``_sweep_stack`` call
builds the frames and step-variation data of every row from the same
data, and one lockstep search (``_lockstep_hmax``) finds every row's
empirical step; ``numerical_hmax`` is that search on a one-row stack.
"""

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .bounds import (BoundResult, _bisect_rows, _positive_rows,
                     bound_negative, bound_singular)
from .constants import _aggregate, _constant_rows, _drain, _norms
from .errors import BracketError, GeostabError, InconsistentConstantsError
from .fields import (FieldModel, h2_field, h2_singular_field, s2_field,
                     s3_field)
from .integrators import expansivity_ratio, gee_step
from .jacobi import (_T, CurvatureSign, curvature_sign, gee_jacobi_data,
                     jacobi_norm, variation_form)
from .manifolds import (HALF_PLANE, SPHERE2, SPHERE3, ChartPoint,
                        ManifoldModel, _frames, _g_norm)

CSV_HEADER = "example,epsilon,base1,base2,h_numeric,h_theory,kappa_at_h,binding"

DEFAULT_EPSILONS = (0.5, 1.0, 2.0)
DEFAULT_GRID = 40
DEFAULT_H_LO = 1e-6
DEFAULT_H_CAP = 1e3
DEFAULT_TOL_H = 1e-6
DEFAULT_SEED = 0
PAIR_DELTA = 1e-5  # geodesic distance of pair_ratios' neighbours
VALIDATION_EPSILON = 1.0  # jacobi_validation's field parameter,
VALIDATION_H_RANGE = (0.05, 0.5)  # its range of step sizes
VALIDATION_DELTA = 1e-6  # and its central-difference step
CROSS_CHECK_RTOL = 1e-8
SCAN_STEPS = 15  # bracket steps every row of a lockstep search scans
ALIGN_TOL = 1e-12  # relative size below which a variation block is
#                    treated as structurally zero (rounding dust sits
#                    near 1e-15; genuine couplings are order one)


# -- example registry --------------------------------------------------------


def _analytic_s2(eps: float, coords) -> dict:
    phi = coords[0]
    root = math.sqrt(1.0 + eps * eps)
    alpha = eps / ((1.0 + eps * eps) * math.sin(phi))
    mu_plus = alpha * (1.0 + root / (2.0 * eps * (1.0 + eps * eps
                                                  + eps * root)))
    return {"alpha": alpha, "mu_plus": mu_plus,
            "sup_norm": root * math.cos(phi)}


def _analytic_h2(eps: float, coords) -> dict:
    y = coords[1]
    root = math.sqrt(1.0 + eps * eps)
    alpha = eps * y / (1.0 + eps * eps)
    return {"alpha": alpha, "sigma": y / root,
            "mu_minus": alpha * (root / (2.0 * eps) + 0.5),
            "sup_norm": root / y}


def _analytic_s3(eps: float, coords) -> dict:
    psi, theta = coords[0], coords[1]
    cpsi, spsi = math.cos(psi), math.sin(psi)
    s2t = math.sin(theta) ** 2
    alpha = eps * cpsi / (cpsi * cpsi * (eps * eps + s2t)
                          + math.cos(theta) ** 2)
    return {"alpha": alpha, "sup_norm": spsi * math.sqrt(eps * eps + s2t)}


def _analytic_h2_singular(eps: float, coords) -> dict:
    return {"alpha": 1.0, "sigma": 1.0, "sup_norm": 1.0}


@dataclass(frozen=True)
class ExampleFamily:
    """A named field family with its manifold, applicable step rule,
    base-point grids and closed-form constants."""

    name: str
    manifold: ManifoldModel
    make_field: Callable[[float], FieldModel]
    rule: str  # "positive" | "negative" | "singular"
    default_grid: Callable[[int], list]
    to_coords: Callable[[float, Optional[float]], tuple]
    default_base: tuple  # (base1, base2) used when no point is given
    validation_box: tuple  # per-coordinate (lo, hi) for random sampling
    analytic: Callable[[float, tuple], dict]


def _s2_grid(n):
    return [(float(phi), None) for phi in np.linspace(0.3, 1.4, n)]


def _h2_grid(n):
    return [(float(y), None) for y in np.geomspace(0.2, 5.0, n)]


def _s3_grid(n):
    thetas = np.linspace(0.3, 1.4, 5)
    psis = np.linspace(0.3, 1.4, max(2, -(-n // 5)))
    pairs = [(float(psi), float(th)) for psi in psis for th in thetas]
    return pairs[:n]


EXAMPLES = {
    "s2": ExampleFamily(
        name="s2", manifold=SPHERE2, make_field=s2_field, rule="positive",
        default_grid=_s2_grid, to_coords=lambda b1, b2: (b1, 0.0),
        default_base=(0.85, None),
        validation_box=((-0.4, 0.4), (0.0, 2.0 * np.pi)),
        analytic=_analytic_s2),
    "h2": ExampleFamily(
        name="h2", manifold=HALF_PLANE, make_field=h2_field, rule="negative",
        default_grid=_h2_grid, to_coords=lambda b1, b2: (0.0, b1),
        default_base=(1.0, None),
        validation_box=((-2.0, 2.0), (0.5, 3.0)),
        analytic=_analytic_h2),
    "s3": ExampleFamily(
        name="s3", manifold=SPHERE3, make_field=s3_field, rule="positive",
        default_grid=_s3_grid,
        to_coords=lambda b1, b2: (b1, np.pi / 2 if b2 is None else b2, 0.0),
        default_base=(0.85, np.pi / 2),
        validation_box=((np.pi / 2 - 0.4, np.pi / 2 + 0.4),
                        (np.pi / 2 - 0.4, np.pi / 2 + 0.4),
                        (0.0, 2.0 * np.pi)),
        analytic=_analytic_s3),
    "h2-singular": ExampleFamily(
        name="h2-singular", manifold=HALF_PLANE,
        make_field=lambda eps: h2_singular_field(), rule="singular",
        default_grid=_h2_grid, to_coords=lambda b1, b2: (0.0, b1),
        default_base=(1.0, None),
        validation_box=((-2.0, 2.0), (0.5, 3.0)),
        analytic=_analytic_h2_singular),
}


def get_example(name: str) -> ExampleFamily:
    try:
        return EXAMPLES[name]
    except KeyError:
        known = ", ".join(sorted(EXAMPLES))
        raise GeostabError(f"unknown example {name!r}; known: {known}")


def spec_grid(example: str, start: float, stop: float, count: int) -> list:
    """Uniform base1 grid for an example, base2 at its default base."""
    if count < 1:
        raise GeostabError("grid count must be at least 1")
    family = get_example(example)
    return [(float(b), family.default_base[1])
            for b in np.linspace(start, stop, count)]


# -- empirical step limits --------------------------------------------------


def unit_directions(dim: int, n: int) -> np.ndarray:
    """n deterministic, well-spread unit vectors in R^dim (rows).

    Dimension two uses equally spaced angles, dimension three a Fibonacci
    sphere; higher dimensions fall back to a fixed-seed Gaussian sample.
    """
    if n < 8:
        raise GeostabError("direction sweeps need at least 8 directions")
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if dim == 3:
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        ang = np.pi * (3.0 - np.sqrt(5.0)) * i
        return np.column_stack([r * np.cos(ang), r * np.sin(ang), z])
    rng = np.random.default_rng(12345)
    dirs = rng.normal(size=(n, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _sweep_stack(manifold: ManifoldModel, x_norm, g, A, X):
    """(N, scale) of the step-variation form at every row of a table,
    from the stacks of the rows' |X| and chart data g, A, X.

    Works in frame coefficients: with E the g-orthonormal frame at p led
    by X, a unit direction ξ has the variation with initial value ξ and
    initial derivative h N ξ, N = Eᵀ g A E, so its squared-norm change is
    Δ(h, ξ) = ξᵀ M(h) ξ with M(h) = variation_form(I, h N, h * scale),
    scale = |X| √|ρ|.  One manifolds._frames call builds the frames of
    all rows and raises DegenerateDirectionError at the first row that
    has none.
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
    # therefore snapped to its exact value: a zero first row, or
    # perpendicular rows equal to -scale times the identity, which
    # cancels the growth term.
    if curvature_sign(manifold.rho) is CurvatureSign.NEGATIVE:
        R = N / scale[:, None, None]
        perp = R[:, 1:, :].copy()
        perp[:, :, 1:] += np.eye(dim - 1)
        gauge = ALIGN_TOL * (1.0 + _norms(R))
        aligned, still = _norms(perp) <= gauge, _norms(R[:, :1, :]) <= gauge
        N[aligned, 1:, 0] = 0.0
        N[aligned, 1:, 1:] = -scale[aligned, None, None] * np.eye(dim - 1)
        N[still, 0, :] = 0.0
    return N, scale


def _lockstep_hmax(N, scale, sign: CurvatureSign, points, h_lo: float,
                   h_hi: float, tol_h: float) -> np.ndarray:
    """numerical_hmax at many points in one search, from the stacks N and
    scale of _sweep_stack at those points.

    The bracket takes λ_max of M(h) along the fixed sequence h_lo,
    min(max(1e-3, 2 h_lo) 2^k, h_hi) up to h_hi in two stacked calls:
    every row at the first SCAN_STEPS steps and at h_hi, then the rows
    expansive at h_hi but calm up to the cut at the rest.  Each such row
    takes its first expansive doubling step, the bracket of the
    sequential search; rows calm at h_hi are unconditional (inf).  The
    bisection is the lockstep one of the bound rules (bounds._bisect_rows)
    to relative width tol_h, from λ_max at the bracket ends, so every row
    ends on the step of the sequential search.
    """
    eye = np.eye(N.shape[-1])

    def worst(rows, h):
        """λ_max(M(h)) at each (row, step) pair of rows and h broadcast."""
        rows, h = np.broadcast_arrays(rows, h)
        M = variation_form(eye, h.ravel()[:, None, None] * N[rows.ravel()],
                           h.ravel() * scale[rows.ravel()], sign)
        return np.linalg.eigvalsh(M)[:, -1].reshape(h.shape)

    steps = [h_lo, min(max(1e-3, 2.0 * h_lo), h_hi)]
    while steps[-1] < h_hi:
        steps.append(min(2.0 * steps[-1], h_hi))
    steps, cut, n = np.array(steps), min(SCAN_STEPS, len(steps) - 1), len(N)
    lam = np.full((n, steps.size), math.nan)  # the steps end at h_hi
    cols = np.r_[:cut, steps.size - 1]
    lam[:, cols] = worst(np.arange(n)[:, None], steps[cols])
    for p, stable in zip(points, lam[:, 0] <= 0.0):
        if not stable:
            raise BracketError(f"step already expansive at h_lo = {h_lo:g} "
                               f"at {p!r}")
    calm = lam <= 0.0
    late = np.flatnonzero(~calm[:, -1] & calm[:, :cut].all(axis=1))
    if late.size:
        lam[late, cut:-1] = worst(late[:, None], steps[cut:-1])
    rows = np.flatnonzero(~calm[:, -1])
    first = np.argmin(lam[rows, 1:] <= 0.0, axis=1)
    out = np.full(n, math.inf)
    out[rows] = _bisect_rows(lambda r, h: worst(rows[r], h),
                             steps[first], steps[first + 1], tol_h,
                             lam[rows, first], lam[rows, first + 1])
    return out


def numerical_hmax(field: FieldModel, manifold: ManifoldModel, p: ChartPoint,
                   h_lo: float = DEFAULT_H_LO, h_hi: float = DEFAULT_H_CAP,
                   tol_h: float = DEFAULT_TOL_H) -> float:
    """Largest step whose worst-direction Δ stays nonpositive.

    Bisects (to relative width tol_h) between a non-expansive h_lo and
    an expansive step bracketed by doubling, and returns the
    nonpositive end of the final bracket, so the worst Δ changes sign
    within relative tol_h above it.  When even h_hi is not expansive
    the step is unconditionally stable up to h_hi and math.inf is
    returned.  This is figure_sweep's lockstep search on a one-row
    stack; a field that vanishes at p raises StationaryPointError.
    """
    if not (0.0 < h_lo < h_hi < math.inf):
        raise GeostabError("step search needs finite 0 < h_lo < h_hi")
    X = field.require_moving(p).comps
    g = manifold.metric(p)
    N, scale = _sweep_stack(manifold, [_g_norm(g, X)], [g],
                            [field.covariant_matrix(p)], [X])
    return float(_lockstep_hmax(N, scale, curvature_sign(manifold.rho), [p],
                                h_lo, h_hi, tol_h)[0])


def pair_ratios(field: FieldModel, p: ChartPoint, h: float,
                n_dirs: int = 64) -> np.ndarray:
    """One-step contraction ratios of the explicit step for point pairs.

    Places n_dirs neighbours at geodesic distance PAIR_DELTA from p
    (frame coefficients on the unit circle/sphere) and returns the array
    of d(step(p), step(q)) / d(p, q).
    """
    manifold = field.manifold
    X = field.require_moving(p)
    E = manifold.frame(p, X).matrix
    out = np.empty(n_dirs)
    for j, xi in enumerate(unit_directions(manifold.dim, n_dirs)):
        q = manifold.exp(p, manifold.tangent(p, PAIR_DELTA * (E @ xi)))
        out[j] = expansivity_ratio(field, p, q, h)
    return out


# -- theory side -------------------------------------------------------------


def _checked_constants(family: ExampleFamily, epsilons: list, points):
    """Yield (p, point_constants at p, |X|, g, A, X) for each of epsilons
    and each of the list points from one stacked pass, with the closed
    forms put in after a cross-check to relative 1e-8, so that a slip in
    either derivation cannot pass silently; |X| and the chart data feed
    _sweep_stack."""
    fields = [family.make_field(eps) for eps in epsilons]
    for i, row in enumerate(_constant_rows(fields, family.manifold, points)):
        p, consts = row[0], _aggregate([row], family.manifold.rho)
        exact = family.analytic(epsilons[i // len(points)], p.coords)
        for key, val in exact.items():
            num = getattr(consts, key)
            tol = CROSS_CHECK_RTOL * max(abs(val), abs(num))
            if math.isfinite(num) and abs(num - val) > tol:
                raise InconsistentConstantsError(
                    f"closed-form {key} = {val:.17g} disagrees with the "
                    f"numeric value {num:.17g} at {tuple(p.coords)}")
        yield (p, replace(consts, **exact), *row[5:])


def _family_rule(family: ExampleFamily, consts_seq) -> list:
    """The family's step rule at every constant set; the positive rule
    takes them all in one lockstep search."""
    if family.rule == "positive":
        return _positive_rows(consts_seq)
    if family.rule == "negative":
        return [bound_negative(c) for c in consts_seq]
    if family.rule == "singular":
        return [bound_singular(c, (c.sup_norm, c.sup_norm))
                for c in consts_seq]
    raise GeostabError(f"example {family.name!r} has no step rule")


def theory_bound(example: str, eps: float, p: ChartPoint) -> BoundResult:
    """Certified step of the example's rule at p from _checked_constants."""
    family = get_example(example)
    [(_, consts, *_)] = _checked_constants(family, [eps], [p])
    return _family_rule(family, [consts])[0]


# -- comparison sweeps -------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One base point of a theory/experiment comparison table.

    base2 is None for families swept in a single parameter and is left
    empty in the CSV form.
    """

    example: str
    epsilon: float
    base1: float
    base2: Optional[float]
    h_numeric: float
    h_theory: float
    kappa_at_h: float
    binding: str


def figure_sweep(example: str, epsilons=DEFAULT_EPSILONS,
                 base_grid=DEFAULT_GRID, tol_h=DEFAULT_TOL_H) -> list:
    """Empirical versus certified step over a grid of base points.

    base_grid is either a point count for the family's default grid or
    an explicit list of (base1, base2) pairs.  Rows are ordered by
    (epsilon, grid index), so repeated runs produce identical tables.
    The empirical steps of all rows come from one lockstep search, and
    so do the certified steps of a positive-curvature family.  Each grid
    point is built once, the constants of all rows come from one stacked
    pass, and the sweep kernels from one _sweep_stack call on its data.
    """
    family = get_example(example)
    manifold, epsilons = family.manifold, list(epsilons)
    base_grid = (family.default_grid(base_grid)
                 if isinstance(base_grid, int) else list(base_grid))
    # an exception is raised once the rows before it are out
    grid, failure = _drain(manifold.point(family.to_coords(b1, b2))
                           for b1, b2 in base_grid)
    rows, exc = _drain(_checked_constants(
        family, epsilons if failure is None else epsilons[:1], grid))
    failure = failure if exc is None else exc
    if rows:
        points, consts, *chart = zip(*rows)
        N, scale = _sweep_stack(manifold, *chart)
    if failure is not None:
        raise failure
    if not rows:
        return []
    bounds = _family_rule(family, consts)
    h_num = _lockstep_hmax(N, scale, curvature_sign(manifold.rho), points,
                           DEFAULT_H_LO, DEFAULT_H_CAP, tol_h)
    keys = [(eps, b1, b2) for eps in epsilons for b1, b2 in base_grid]
    return [SweepRow(example=family.name, epsilon=eps, base1=b1, base2=b2,
                     h_numeric=float(h), h_theory=res.h_max,
                     kappa_at_h=res.kappa_at_h, binding=res.binding)
            for (eps, b1, b2), res, h in zip(keys, bounds, h_num)]


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return format(float(x), ".17g")


def rows_to_csv(rows) -> str:
    """Render sweep rows as a CSV string (LF line endings, 17 significant
    digits, 'inf' for unbounded entries, empty base2 where unused)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.example, _fmt(r.epsilon), _fmt(r.base1),
            "" if r.base2 is None else _fmt(r.base2),
            _fmt(r.h_numeric), _fmt(r.h_theory), _fmt(r.kappa_at_h),
            r.binding]))
    return "\n".join(lines) + "\n"


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))


# -- variation-formula validation --------------------------------------------


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of comparing closed-form variation norms against the
    finite-difference variation of the actual step map."""

    example: str
    n_cases: int
    seed: int
    max_error: float
    rms_error: float
    elapsed: float


def jacobi_validation(example: str, n_cases: int,
                      seed: int = DEFAULT_SEED) -> ValidationResult:
    """Validate the closed-form variation norm on random cases.

    Draws random base points inside a chart-safe box, a random unit
    variation direction e and step size h in VALIDATION_H_RANGE per case,
    takes the field at VALIDATION_EPSILON, and compares the closed-form
    norm of the step variation at its endpoint (jacobi_norm, read from
    variation_form, the form numerical_hmax bisects) against a central
    difference through actual steps: the base point is moved to
    exp_p(±Δ e) with Δ = VALIDATION_DELTA, both neighbours are
    stepped, and the derivative is formed from the inverse exponential
    at the stepped center.
    """
    family = get_example(example)
    model = family.manifold
    field = family.make_field(VALIDATION_EPSILON)
    rng = np.random.default_rng(seed)
    t0 = time.monotonic()
    errs = np.zeros(n_cases)
    for i in range(n_cases):
        coords = tuple(float(rng.uniform(lo, hi))
                       for (lo, hi) in family.validation_box)
        p = model.point(coords)
        raw = rng.normal(size=model.dim)
        e = model.tangent(p, raw)
        e = model.tangent(p, e.comps / model.norm(e))
        h = float(rng.uniform(*VALIDATION_H_RANGE))
        closed = jacobi_norm(gee_jacobi_data(field, p, e, h), 1.0)
        center = gee_step(field, p, h)
        plus = gee_step(field, model.exp(
            p, model.tangent(p, VALIDATION_DELTA * e.comps)), h)
        minus = gee_step(field, model.exp(
            p, model.tangent(p, -VALIDATION_DELTA * e.comps)), h)
        diff = (model.log(center, plus).comps
                - model.log(center, minus).comps) / (2.0 * VALIDATION_DELTA)
        errs[i] = abs(closed - model.norm(model.tangent(center, diff)))
    elapsed = time.monotonic() - t0
    max_error = float(errs.max()) if n_cases else 0.0
    rms_error = float(np.sqrt(np.mean(errs ** 2))) if n_cases else 0.0
    return ValidationResult(example=example, n_cases=n_cases, seed=seed,
                            max_error=max_error, rms_error=rms_error,
                            elapsed=elapsed)
