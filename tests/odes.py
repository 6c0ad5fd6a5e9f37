"""Reference flows by direct Runge-Kutta integration in chart coordinates.

These integrators know nothing about the closed-form geodesics; they step
the defining differential equations with classic RK4 and serve as an
independent check of the analytic formulas:

* the geodesic equation        x'' = -Gamma(x)(x', x'),
* parallel transport           z'  = -Gamma(x)(x', z) along a geodesic,
* the variation equation       (covariant) J'' = -rho (|v|^2 J - <J,v> v),

all integrated jointly and batched over many initial conditions at once.
The default step 1e-4 keeps the fourth-order local error far below the
1e-6 comparison tolerances used elsewhere.
"""

from dataclasses import dataclass

import numpy as np

from geostab.manifolds import ChartPoint, ManifoldModel, TangentVector

DEFAULT_STEP = 1e-4


@dataclass
class BatchVariationState:
    """Joint state of m geodesics with transported columns.

    coords : (m, d) chart coordinates
    vel    : (m, d) geodesic velocities
    cols   : (m, d, k) parallel columns (frames and/or vectors)
    jac    : (m, d) variation fields, or None
    jac_rate : (m, d) covariant rates of the variation fields, or None
    """

    coords: np.ndarray
    vel: np.ndarray
    cols: np.ndarray
    jac: np.ndarray = None
    jac_rate: np.ndarray = None


def _rhs(model: ManifoldModel, s: BatchVariationState) -> BatchVariationState:
    G = model.christoffel_batch(s.coords)
    # B[m, i, k] = Gamma^i_{jk} v^j contracts every transported object
    B = np.einsum("mijk,mj->mik", G, s.vel)
    dvel = -np.einsum("mik,mk->mi", B, s.vel)
    dcols = -np.einsum("mik,mkc->mic", B, s.cols)
    djac = dk = None
    if s.jac is not None:
        g = model.metric_batch(s.coords)
        gv = np.einsum("mij,mj->mi", g, s.vel)
        vv = np.einsum("mi,mi->m", s.vel, gv)
        jv = np.einsum("mi,mi->m", s.jac, gv)
        djac = s.jac_rate - np.einsum("mik,mk->mi", B, s.jac)
        dk = (-np.einsum("mik,mk->mi", B, s.jac_rate)
              - model.rho * (vv[:, None] * s.jac - jv[:, None] * s.vel))
    return BatchVariationState(s.vel, dvel, dcols, djac, dk)


def _axpy(s: BatchVariationState, h: float,
          d: BatchVariationState) -> BatchVariationState:
    jac = None if s.jac is None else s.jac + h * d.jac
    rate = None if s.jac_rate is None else s.jac_rate + h * d.jac_rate
    return BatchVariationState(s.coords + h * d.coords, s.vel + h * d.vel,
                               s.cols + h * d.cols, jac, rate)


def integrate_batch(model: ManifoldModel, state: BatchVariationState,
                    t: float, step: float = DEFAULT_STEP
                    ) -> BatchVariationState:
    """Advance the joint geodesic/transport/variation system to time t."""
    n = max(1, int(np.ceil(abs(t) / step)))
    h = t / n
    s = state
    for _ in range(n):
        k1 = _rhs(model, s)
        k2 = _rhs(model, _axpy(s, 0.5 * h, k1))
        k3 = _rhs(model, _axpy(s, 0.5 * h, k2))
        k4 = _rhs(model, _axpy(s, h, k3))
        s = BatchVariationState(
            s.coords + (h / 6.0) * (k1.coords + 2 * k2.coords
                                    + 2 * k3.coords + k4.coords),
            s.vel + (h / 6.0) * (k1.vel + 2 * k2.vel + 2 * k3.vel + k4.vel),
            s.cols + (h / 6.0) * (k1.cols + 2 * k2.cols + 2 * k3.cols
                                  + k4.cols),
            None if s.jac is None else
            s.jac + (h / 6.0) * (k1.jac + 2 * k2.jac + 2 * k3.jac + k4.jac),
            None if s.jac_rate is None else
            s.jac_rate + (h / 6.0) * (k1.jac_rate + 2 * k2.jac_rate
                                      + 2 * k3.jac_rate + k4.jac_rate))
    return s


def geodesic_flow(model: ManifoldModel, p: ChartPoint, v: TangentVector,
                  t: float = 1.0, step: float = DEFAULT_STEP):
    """Numerically integrated geodesic endpoint and velocity."""
    state = BatchVariationState(p.coords[None, :].copy(),
                                v.comps[None, :].copy(),
                                np.zeros((1, model.dim, 0)))
    out = integrate_batch(model, state, t, step)
    q = model.point(out.coords[0])
    return q, TangentVector(q, out.vel[0])


def transport_flow(model: ManifoldModel, v: TangentVector, u: TangentVector,
                   t: float = 1.0, step: float = DEFAULT_STEP
                   ) -> TangentVector:
    """Numerically transported vector along s -> exp(p, s*u)."""
    p = v.base
    state = BatchVariationState(p.coords[None, :].copy(),
                                u.comps[None, :].copy(),
                                v.comps[None, :, None].copy())
    out = integrate_batch(model, state, t, step)
    q = model.point(out.coords[0])
    return TangentVector(q, out.cols[0, :, 0])


def field_flow(field, p: ChartPoint, t: float,
               step: float = 1e-5) -> ChartPoint:
    """Flow of the vector field itself, x' = X(x), by RK4 in the chart."""
    model = field.manifold
    n = max(1, int(np.ceil(abs(t) / step)))
    h = t / n
    x = p.coords.copy()
    f = field.components
    for _ in range(n):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return model.point(x)
