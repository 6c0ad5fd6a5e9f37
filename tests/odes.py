"""Reference flows by direct Runge-Kutta integration in chart coordinates.

These integrators know nothing about the closed-form geodesics; they step
the defining differential equations with classic RK4 and serve as an
independent check of the analytic formulas:

* the geodesic equation        x'' = -Gamma(x)(x', x'),
* parallel transport           z'  = -Gamma(x)(x', z) along a geodesic,
* the variation equation       (covariant) J'' = -rho (|v|^2 J - <J,v> v),

all integrated jointly and batched over many initial conditions at once.
The default step 1e-4 keeps the fourth-order local error far below the
1e-6 comparison tolerances used elsewhere.  ``metric_batch`` and
``christoffel_batch`` evaluate the four models' metric and Christoffel
symbols at many raw chart coordinates at once.
"""

from dataclasses import dataclass

import numpy as np

from geostab.manifolds import (
    ChartPoint,
    Euclidean,
    HalfPlane,
    ManifoldModel,
    Sphere2,
    Sphere3,
    TangentVector,
)

DEFAULT_STEP = 1e-4


def metric_batch(model: ManifoldModel, coords: np.ndarray) -> np.ndarray:
    """Metric matrices, shape (m, d, d), at an (m, d) array of raw chart
    coordinates; no domain checks or angle wrapping are applied."""
    m = len(coords)
    if isinstance(model, Euclidean):
        return np.broadcast_to(np.eye(model.dim),
                               (m, model.dim, model.dim)).copy()
    g = np.zeros((m, model.dim, model.dim))
    if isinstance(model, Sphere2):
        g[:, 0, 0] = 1.0
        g[:, 1, 1] = np.cos(coords[:, 0]) ** 2
    elif isinstance(model, Sphere3):
        sp, st = np.sin(coords[:, 0]), np.sin(coords[:, 1])
        g[:, 0, 0] = 1.0
        g[:, 1, 1] = sp ** 2
        g[:, 2, 2] = (sp * st) ** 2
    elif isinstance(model, HalfPlane):
        g[:, 0, 0] = g[:, 1, 1] = 1.0 / coords[:, 1] ** 2
    else:
        raise TypeError(f"no batched metric for {model.name}")
    return g


def christoffel_batch(model: ManifoldModel, coords: np.ndarray) -> np.ndarray:
    """Christoffel symbols, shape (m, d, d, d), G[:, i, j, k] =
    Gamma^i_{jk}, at an (m, d) array of raw chart coordinates."""
    G = np.zeros((len(coords),) + (model.dim,) * 3)
    if isinstance(model, Euclidean):
        return G
    if isinstance(model, Sphere2):
        phi = coords[:, 0]
        G[:, 0, 1, 1] = np.sin(phi) * np.cos(phi)
        G[:, 1, 0, 1] = G[:, 1, 1, 0] = -np.tan(phi)
    elif isinstance(model, Sphere3):
        sp, cp = np.sin(coords[:, 0]), np.cos(coords[:, 0])
        st, ct = np.sin(coords[:, 1]), np.cos(coords[:, 1])
        G[:, 0, 1, 1] = -sp * cp
        G[:, 0, 2, 2] = -sp * cp * st ** 2
        G[:, 1, 0, 1] = G[:, 1, 1, 0] = cp / sp
        G[:, 1, 2, 2] = -st * ct
        G[:, 2, 0, 2] = G[:, 2, 2, 0] = cp / sp
        G[:, 2, 1, 2] = G[:, 2, 2, 1] = ct / st
    elif isinstance(model, HalfPlane):
        inv_y = 1.0 / coords[:, 1]
        G[:, 0, 0, 1] = G[:, 0, 1, 0] = -inv_y
        G[:, 1, 0, 0] = inv_y
        G[:, 1, 1, 1] = -inv_y
    else:
        raise TypeError(f"no batched Christoffel symbols for {model.name}")
    return G


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
    G = christoffel_batch(model, s.coords)
    # B[m, i, k] = Gamma^i_{jk} v^j contracts every transported object
    B = np.einsum("mijk,mj->mik", G, s.vel)
    dvel = -np.einsum("mik,mk->mi", B, s.vel)
    dcols = -np.einsum("mik,mkc->mic", B, s.cols)
    djac = dk = None
    if s.jac is not None:
        g = metric_batch(model, s.coords)
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
