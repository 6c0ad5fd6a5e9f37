"""Explicit and implicit geodesic Euler steps.

The explicit step follows the geodesic from the current point along the
field for arc parameter h.  The implicit step solves

    p = exp_q(-h * X|_q)

for the next point q = exp_p(v), with v in chart components at p.  The
fixed point of v = G(v), where G(v) moves h * X|_q from q back to p by
parallel transport along the connecting geodesic, is that solution.
Plain iteration of G converges only while h * |grad X| < 1, the explicit
step's own limit, so the step runs a simplified Newton iteration

    v <- v - (I - h * A_p)^{-1} (v - G(v)),

with A_p the covariant derivative matrix of X at p.  h * A_p is the
derivative of G at v = 0, and I - h * A_p is inverted once per step (the
frozen Jacobian of Hairer & Wanner, Solving ODEs II, IV.8).  Convergence
is measured by the defect d(exp_q(-h*X|_q), p).
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


def _gie_defect(field, q, h, p) -> float:
    model = field.manifold
    X = field.eval(q)
    back = model.exp(q, model.tangent(q, -h * X.comps))
    return model.distance(back, p)


def gie_step(field: FieldModel, p: ChartPoint, h: float,
             tol: float = GIE_TOL, max_iter: int = GIE_MAX_ITER
             ) -> ChartPoint:
    """One implicit geodesic Euler step of size h from p.

    Simplified Newton iteration on the step v at p, started from the
    explicit step v = h * X|_p, with the Jacobian I - h * A_p frozen at
    p.  Raises NonconvergenceError (carrying the final defect) when the
    defect does not reach tol within max_iter iterations, at once when
    I - h * A_p is singular, where neither this iteration nor plain
    fixed-point iteration can converge, and when an iterate leaves the
    chart (with the ChartExitError as its cause and the last defect
    computed before it).
    """
    model = field.manifold
    v = h * field.eval(p).comps
    q = model.exp(p, model.tangent(p, v))
    defect = _gie_defect(field, q, h, p)
    if defect <= tol:
        return q
    try:
        inv = np.linalg.inv(np.eye(model.dim) - h * field.covariant_matrix(p))
    except np.linalg.LinAlgError:
        raise NonconvergenceError(
            f"implicit step from {p!r} with h = {h:.6g}: I - h * grad X is "
            f"singular (defect {defect:.3e} after 0 iterations)",
            defect=defect) from None
    try:
        for it in range(1, max_iter + 1):
            X = field.eval(q)
            moved = model.transport(model.tangent(q, h * X.comps),
                                    model.log(q, p))
            v = v - inv @ (v - moved.comps)
            q = model.exp(p, model.tangent(p, v))
            defect = _gie_defect(field, q, h, p)
            if defect <= tol:
                return q
    except ChartExitError as exc:
        raise NonconvergenceError(
            f"implicit step from {p!r} with h = {h:.6g} left the chart in "
            f"iteration {it} (last defect {defect:.3e})",
            defect=defect) from exc
    raise NonconvergenceError(
        f"implicit step from {p!r} with h = {h:.6g} did not converge in "
        f"{max_iter} iterations (defect {defect:.3e} > tol {tol:.1e})",
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
