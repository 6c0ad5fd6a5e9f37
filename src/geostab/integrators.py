"""Explicit and implicit geodesic Euler steps.

The explicit step follows the geodesic from the current point along the
field for arc parameter h.  The implicit step solves

    p = exp_q(-h * X|_q)

for the next point q = exp_p(v), with v in chart components at p.  The
fixed point of v = G(v), where G(v) moves h * X|_q from q back to p by
the endpoint parallel transport (``transport(w, p)``), is that solution.
Plain iteration of G converges only while h * |grad X| < 1, the explicit
step's own limit, so the step runs a simplified Newton iteration

    v <- v - (I - h * A_p)^{-1} (v - G(v)),

with A_p the covariant derivative matrix of X at p.  h * A_p is the
derivative of G at v = 0, and I - h * A_p is inverted once per step (the
frozen Jacobian of Hairer & Wanner, Solving ODEs II, IV.8).  Started at
v = 0, the first iterate is the linearly implicit Euler step
(I - h * A_p)^{-1} h X|_p, which stays in the half-plane chart where the
explicit step did not.  Convergence is measured by the defect
d(exp_q(-h*X|_q), p); the X|_q it evaluates also gives the next G(v).
"""

import numpy as np

from .errors import ChartExitError, GeostabError, NonconvergenceError
from .fields import FieldModel
from .manifolds import ChartPoint

GIE_TOL = 1e-12
GIE_MAX_ITER = 200


def gee_step(field: FieldModel, p: ChartPoint, h: float) -> ChartPoint:
    """One explicit geodesic Euler step of size h from p."""
    model = field.manifold
    X = field.eval(p)
    return model.exp(p, model.tangent(p, h * X.comps))


def _gie_defect(field, q, X, h, p) -> float:
    """d(exp_q(-h X), p), with X = X|_q already evaluated."""
    model = field.manifold
    back = model.exp(q, model.tangent(q, -h * X.comps))
    return model.distance(back, p)


def gie_step(field: FieldModel, p: ChartPoint, h: float) -> ChartPoint:
    """One implicit geodesic Euler step of size h from p.

    Simplified Newton iteration on the step v at p from v = 0, with the
    Jacobian I - h * A_p frozen at p: iteration 0 gives the linearly
    implicit step (I - h * A_p)^{-1} h X|_p.  X|_q is evaluated once per
    iterate q, for its defect and, moved to p by ``transport``, the next
    correction.  Raises NonconvergenceError with a defect: at once when
    I - h * A_p is singular (neither this nor plain fixed-point iteration
    can converge), with the defect d(exp_p(-h X|_p), p) of v = 0; when an
    iterate leaves the chart, with the ChartExitError as its cause and the
    last defect (nan in iteration 0); and with the final defect when
    iterations 0 to GIE_MAX_ITER do not reach GIE_TOL.
    """
    model = field.manifold
    it, defect = 0, float("nan")
    try:
        X = field.eval(p)
        try:
            inv = np.linalg.inv(np.eye(model.dim)
                                - h * field.covariant_matrix(p))
        except np.linalg.LinAlgError:
            defect = _gie_defect(field, p, X, h, p)
            raise NonconvergenceError(
                f"implicit step from {p!r} with h = {h:.6g}: I - h * grad X "
                f"is singular (defect {defect:.3e} at v = 0)",
                defect=defect) from None
        v = inv @ (h * X.comps)
        for it in range(GIE_MAX_ITER + 1):
            if it:
                moved = model.transport(model.tangent(q, h * X.comps), p)
                v = v - inv @ (v - moved.comps)
            q = model.exp(p, model.tangent(p, v))
            X = field.eval(q)
            defect = _gie_defect(field, q, X, h, p)
            if defect <= GIE_TOL:
                return q
    except ChartExitError as exc:
        raise NonconvergenceError(
            f"implicit step from {p!r} with h = {h:.6g} left the chart in "
            f"iteration {it} (last defect {defect:.3e})",
            defect=defect) from exc
    raise NonconvergenceError(
        f"implicit step from {p!r} with h = {h:.6g} did not converge in "
        f"{GIE_MAX_ITER} iterations (defect {defect:.3e} > tol "
        f"{GIE_TOL:.1e})",
        defect=defect)


def _stepper(method: str):
    """The step function named by method, looked up at each call so that
    wrappers installed on the module (perfbench's tracer) are called."""
    steppers = {"gee": gee_step, "gie": gie_step}
    if method not in steppers:
        raise GeostabError(f"unknown method {method!r}; use 'gee' or 'gie'")
    return steppers[method]


def integrate(field: FieldModel, p0: ChartPoint, h: float, n_steps: int,
              method: str = "gee") -> list:
    """Trajectory [p0, p1, ..., p_{n_steps}] of the chosen stepper."""
    stepper = _stepper(method)
    out = [p0]
    for _ in range(int(n_steps)):
        out.append(stepper(field, out[-1], h))
    return out


def expansivity_ratio(field: FieldModel, p: ChartPoint, q: ChartPoint,
                      h: float, method: str = "gee") -> float:
    """d(step(p), step(q)) / d(p, q) for one step of size h."""
    model = field.manifold
    d0 = model.distance(p, q)
    if d0 <= 0.0:
        raise GeostabError("points must be distinct")
    stepper = _stepper(method)
    return model.distance(stepper(field, p, h), stepper(field, q, h)) / d0
