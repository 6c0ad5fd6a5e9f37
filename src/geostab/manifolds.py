"""Model manifolds of constant sectional curvature in fixed charts.

Four models are provided, each with closed-form geodesics:

``Sphere2``
    Unit 2-sphere, curvature +1, chart (phi, theta) with elevation
    phi in (-pi/2, pi/2) and azimuth theta in [0, 2*pi).
``HalfPlane``
    Hyperbolic plane, curvature -1, upper half-plane chart (x, y), y > 0.
``Sphere3``
    Unit 3-sphere, curvature +1, hyperspherical chart (psi, theta, phi)
    with psi, theta in (0, pi) and phi in [0, 2*pi).
``Euclidean``
    Flat R^d, identity metric.

Angle coordinates are wrapped modulo 2*pi on point creation.  Geodesics on
the spheres are computed in the ambient embedding and re-charted, so great
circles may pass through a coordinate singularity; results that land
exactly on one are nudged by 1e-12 toward the chart interior (undefined
angles default to theta = pi/2 and phi = 0).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartDomainError,
    ChartExitError,
    DegenerateDirectionError,
    GeostabError,
)

TWO_PI = 2.0 * np.pi

# offset applied when a geodesic endpoint sits exactly on a chart singularity
POLE_NUDGE = 1e-12

# directions shorter than this cannot be normalized into a frame
DEGENERATE_NORM = 1e-14


def _freeze(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False, slots=True)
class ChartPoint:
    """A point of a model manifold, stored in chart coordinates."""

    model: "ManifoldModel"
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _freeze(self.coords))

    def __repr__(self):
        vals = ", ".join(format(c, ".6g") for c in self.coords)
        return f"{self.model.name}({vals})"


@dataclass(frozen=True, eq=False, slots=True)
class TangentVector:
    """A tangent vector given by chart components at a base point."""

    base: ChartPoint
    comps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "comps", _freeze(self.comps))
        if self.comps.shape != self.base.coords.shape:
            raise GeostabError("component/base dimension mismatch")

    def norm(self) -> float:
        return self.base.model.norm(self)

    def __repr__(self):
        vals = ", ".join(format(c, ".6g") for c in self.comps)
        return f"<{vals}> at {self.base!r}"


@dataclass(frozen=True, eq=False, slots=True)
class Frame:
    """A g-orthonormal basis at a point; column j of ``matrix`` holds the
    chart components of the j-th frame vector."""

    base: ChartPoint
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))


class ManifoldModel:
    """Common interface of the chart models.

    Subclasses provide the metric, Christoffel symbols and closed-form
    geodesic operations (exponential, logarithm, parallel transport).
    """

    name = "abstract"
    dim = 0
    rho = 0.0  # constant sectional curvature

    # -- points and tangents -------------------------------------------------

    def point(self, coords) -> ChartPoint:
        c = np.asarray(coords, dtype=float)
        if c.shape != (self.dim,):
            raise ChartDomainError(f"{self.name}: expected {self.dim} coordinates")
        if not np.all(np.isfinite(c)):
            raise ChartDomainError(f"{self.name}: non-finite coordinates {c}")
        c = self._canonical(c)
        self._check_domain(c)
        return ChartPoint(self, c)

    def tangent(self, p: ChartPoint, comps) -> TangentVector:
        return TangentVector(p, np.asarray(comps, dtype=float))

    def zero_vector(self, p: ChartPoint) -> TangentVector:
        return TangentVector(p, np.zeros(self.dim))

    def _canonical(self, c):
        return c

    def _check_domain(self, c):
        raise NotImplementedError

    # -- metric --------------------------------------------------------------

    def metric(self, p: ChartPoint) -> np.ndarray:
        """Metric matrix g_ij in chart coordinates at p: the one-row call
        of a subclass's metrics, which takes an (n, d) stack of unchecked
        coordinates to (n, d, d), or one point (d,) to (d, d).  They read
        the coordinates by axis, coords.T, which at one point are numpy
        scalars (faster than 0-d arrays)."""
        return self.metrics(p.coords)

    def christoffel(self, p: ChartPoint) -> np.ndarray:
        """Christoffel symbols, indexed G[i, j, k] = Gamma^i_{jk}: the
        one-row call of christoffels, as metric."""
        return self.christoffels(p.coords)

    def inner(self, v: TangentVector, w: TangentVector) -> float:
        g = self.metric(v.base)
        return float(v.comps @ g @ w.comps)

    def norm(self, v: TangentVector) -> float:
        return float(np.sqrt(max(self.inner(v, v), 0.0)))

    # -- geodesic operations -------------------------------------------------

    def exp(self, p: ChartPoint, v: TangentVector) -> ChartPoint:
        """Endpoint of the geodesic from p with initial velocity v."""
        raise NotImplementedError

    def log(self, p: ChartPoint, q: ChartPoint) -> TangentVector:
        """Initial velocity of the length-minimizing geodesic p -> q."""
        raise NotImplementedError

    def distance(self, p: ChartPoint, q: ChartPoint) -> float:
        raise NotImplementedError

    def transport(self, v: TangentVector, q: ChartPoint) -> TangentVector:
        """Parallel transport of v along the minimizing geodesic from
        v.base to q, based at q itself."""
        raise NotImplementedError

    # -- frames ----------------------------------------------------------------

    def frame(self, p: ChartPoint, first: TangentVector) -> Frame:
        """g-orthonormal frame whose first vector is first/|first|: the
        one-row call of _frames."""
        g = self.metric(p)
        return Frame(p, _frames(g[None], first.comps[None],
                                np.array([_g_norm(g, first.comps)]))[0])


def _diagonal(lead, d, *entries):
    """lead + (d, d) diagonal matrices with entry i at (i, i), else 0.  An
    entry is laid out as coords.T[i] (the lead axes reversed), a scalar
    at one point."""
    out = np.zeros(lead + (d, d))
    view = out.T
    for i, entry in enumerate(entries):
        view[i, i] = entry
    return out


def _sq(x):
    """x squared by pow, as numpy squares a scalar: on an array x ** 2
    multiplies, which differs in about one case in a thousand."""
    return x ** 2 if isinstance(x, float) else np.float_power(x, 2.0)


def _g_norm(g, x) -> float:
    """|x| in the metric g, with the bits of ManifoldModel.norm."""
    return float(np.sqrt(max(x @ g @ x, 0.0)))


def _quad(v, g, w):
    """v·g·w at each row of stacks v, g, w, each product with the bits of
    the one-point v @ g @ w."""
    return (v[:, None, :] @ g @ w[:, :, None])[:, 0, 0]


def _frames(g, X, x_norm) -> np.ndarray:
    """g-orthonormal frames (n, d, d), led by X/|X|, at the rows of the
    stacks of metrics g, vectors X and their g-norms x_norm.

    In dimension two the second vector is the g-rotation of the first
    by +90 degrees, which fixes the orientation deterministically; in
    higher dimension each row completes its basis by Gram-Schmidt over
    the chart directions, skipping a candidate whose g-norm falls below
    1e-10.  A row's frame has the bits of its one-row call.  Raises
    DegenerateDirectionError at the first row whose |X| is below
    DEGENERATE_NORM or whose basis stays incomplete.
    """
    n, dim = X.shape
    # cols[j] holds the rows' j-th vectors and cols[dim] their skipped
    # candidates; a column not filled yet is 0, and projecting a candidate
    # (whose entries are never -0.0) on it changes none of its bits
    cols, rows = np.zeros((dim + 1, n, dim)), np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate rows
        cols[0] = X / x_norm[:, None]
        if dim == 2:
            w = (g @ cols[0][:, :, None])[:, :, 0]
            e2 = np.column_stack([-w[:, 1], w[:, 0]])
            cols[1] = e2 / np.sqrt(_quad(e2, g, e2))[:, None]
        filled = np.full(n, 2 if dim == 2 else 1)
        for k in range(dim):
            if filled.min() == dim:
                break
            cand = np.zeros((n, dim))
            cand[:, k] = 1.0
            for e in cols[:k + 1]:
                cand = cand - _quad(cand, g, e)[:, None] * e
            nn = np.sqrt(np.maximum(_quad(cand, g, cand), 0.0))
            slot = np.where((filled < dim) & ~(nn < 1e-10), filled, dim)
            cols[slot, rows] = cand / nn[:, None]
            filled += slot < dim
    bad = (x_norm < DEGENERATE_NORM) | (filled < dim)
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateDirectionError(
            f"cannot normalize direction with norm {x_norm[i]:.3e}"
            if x_norm[i] < DEGENERATE_NORM else "failed to complete frame")
    return cols[:dim].transpose(1, 2, 0).copy()


# ---------------------------------------------------------------------------
# embedded spheres
# ---------------------------------------------------------------------------


class _EmbeddedSphere(ManifoldModel):
    """Shared geodesic machinery for the unit spheres, working in the
    ambient Euclidean embedding (a subclass's embed, embed_jacobian and
    unembed)."""

    rho = 1.0

    def push(self, p: ChartPoint, comps) -> np.ndarray:
        return self.embed_jacobian(p) @ np.asarray(comps, dtype=float)

    def pull(self, p: ChartPoint, w: np.ndarray) -> np.ndarray:
        J = self.embed_jacobian(p)
        return np.linalg.solve(self.metric(p), J.T @ w)

    def exp(self, p, v):
        s = self.norm(v)
        if s == 0.0:
            return p
        P = self.embed(p)
        U = self.push(p, v.comps) / s
        Q = np.cos(s) * P + np.sin(s) * U
        Q = Q / np.linalg.norm(Q)
        return self.point(self.unembed(Q))

    def distance(self, p, q):
        P, Q = self.embed(p), self.embed(q)
        chord = np.linalg.norm(Q - P)
        if chord <= np.sqrt(2.0):
            return float(2.0 * np.arcsin(min(chord / 2.0, 1.0)))
        anti = np.linalg.norm(Q + P)
        return float(np.pi - 2.0 * np.arcsin(min(anti / 2.0, 1.0)))

    def log(self, p, q):
        P, Q = self.embed(p), self.embed(q)
        d = self.distance(p, q)
        T = Q - (P @ Q) * P
        nT = np.linalg.norm(T)
        if nT < 1e-14:
            if d < 1e-7:
                return self.zero_vector(p)
            raise GeostabError("log undefined near the antipodal point")
        return self.tangent(p, self.pull(p, (d / nT) * T))

    def transport(self, v, q):
        """The rotation in the plane of the embedded points that takes
        v.base to q, applied to v."""
        p = v.base
        P, Q = self.embed(p), self.embed(q)
        W = self.push(p, v.comps)
        c = P @ Q
        T = Q - c * P
        nT = np.linalg.norm(T)
        if nT < 1e-14:
            if c < 0.0:
                raise GeostabError("transport undefined near the antipodal point")
            return TangentVector(q, self.pull(q, W))
        U = T / nT
        ang = math.atan2(nT, c)
        Wt = W + (W @ U) * ((math.cos(ang) - 1.0) * U - math.sin(ang) * P)
        return TangentVector(q, self.pull(q, Wt))


class Sphere2(_EmbeddedSphere):
    """Unit sphere in R^3; chart (phi, theta), metric diag(1, cos^2 phi).

    unembed recovers phi as arctan2(z, hypot(x, y)), which keeps full
    relative precision up to the poles (arcsin(z) resolves phi there only
    to about sqrt(2 * machine epsilon), too coarse for the implicit step).
    """

    name = "s2"
    dim = 2

    def _canonical(self, c):
        return np.array([c[0], c[1] % TWO_PI])

    def _check_domain(self, c):
        if not (-np.pi / 2 < c[0] < np.pi / 2):
            raise ChartDomainError(f"s2: elevation {c[0]} outside (-pi/2, pi/2)")

    def metrics(self, coords):
        c = np.asarray(coords, dtype=float).T
        g = np.zeros(c.shape[1:] + (2, 2))
        g.T[0, 0], g.T[1, 1] = 1.0, _sq(np.cos(c[0]))
        return g

    def christoffels(self, coords):
        c = np.asarray(coords, dtype=float).T
        G = np.zeros(c.shape[1:] + (2, 2, 2))
        G[..., 0, 1, 1] = np.sin(c[0]) * np.cos(c[0])
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = -np.tan(c[0])
        return G

    def embed(self, p):
        phi, th = p.coords
        cp = np.cos(phi)
        return np.array([cp * np.cos(th), cp * np.sin(th), np.sin(phi)])

    def embed_jacobian(self, p):
        phi, th = p.coords
        sp, cp = np.sin(phi), np.cos(phi)
        st, ct = np.sin(th), np.cos(th)
        return np.array([[-sp * ct, -cp * st],
                         [-sp * st, cp * ct],
                         [cp, 0.0]])

    def unembed(self, x):
        phi = np.arctan2(x[2], np.hypot(x[0], x[1]))
        if np.pi / 2 - abs(phi) < POLE_NUDGE:
            phi = np.sign(phi) * (np.pi / 2 - POLE_NUDGE)
        if abs(x[0]) == 0.0 and abs(x[1]) == 0.0:
            th = 0.0
        else:
            th = np.arctan2(x[1], x[0]) % TWO_PI
        return np.array([phi, th])


class Sphere3(_EmbeddedSphere):
    """Unit sphere in R^4; chart (psi, theta, phi), metric
    diag(1, sin^2 psi, sin^2 psi sin^2 theta)."""

    name = "s3"
    dim = 3

    def _canonical(self, c):
        return np.array([c[0], c[1], c[2] % TWO_PI])

    def _check_domain(self, c):
        if not (0.0 < c[0] < np.pi):
            raise ChartDomainError(f"s3: psi {c[0]} outside (0, pi)")
        if not (0.0 < c[1] < np.pi):
            raise ChartDomainError(f"s3: theta {c[1]} outside (0, pi)")

    def metrics(self, coords):
        c = np.asarray(coords, dtype=float).T
        sp, g = np.sin(c[0]), np.zeros(c.shape[1:] + (3, 3))
        g.T[0, 0], g.T[1, 1], g.T[2, 2] = 1.0, _sq(sp), _sq(sp * np.sin(c[1]))
        return g

    def christoffels(self, coords):
        c = np.asarray(coords, dtype=float).T
        sp, cp = np.sin(c[0]), np.cos(c[0])
        st, ct = np.sin(c[1]), np.cos(c[1])
        G = np.zeros(c.shape[1:] + (3, 3, 3))
        G[..., 0, 1, 1] = -sp * cp
        G[..., 0, 2, 2] = -sp * cp * _sq(st)
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = cp / sp
        G[..., 1, 2, 2] = -st * ct
        G[..., 2, 0, 2] = G[..., 2, 2, 0] = cp / sp
        G[..., 2, 1, 2] = G[..., 2, 2, 1] = ct / st
        return G

    def embed(self, p):
        psi, th, ph = p.coords
        sp, st = np.sin(psi), np.sin(th)
        return np.array([np.cos(psi),
                         sp * np.cos(th),
                         sp * st * np.cos(ph),
                         sp * st * np.sin(ph)])

    def embed_jacobian(self, p):
        psi, th, ph = p.coords
        sp, cp = np.sin(psi), np.cos(psi)
        st, ct = np.sin(th), np.cos(th)
        sf, cf = np.sin(ph), np.cos(ph)
        return np.array([
            [-sp, 0.0, 0.0],
            [cp * ct, -sp * st, 0.0],
            [cp * st * cf, sp * ct * cf, -sp * st * sf],
            [cp * st * sf, sp * ct * sf, sp * st * cf]])

    def unembed(self, x):
        s_psi = np.linalg.norm(x[1:])
        psi = np.arctan2(s_psi, x[0])
        if s_psi == 0.0:
            psi = POLE_NUDGE if x[0] > 0 else np.pi - POLE_NUDGE
            return np.array([psi, np.pi / 2, 0.0])
        psi = min(max(psi, POLE_NUDGE), np.pi - POLE_NUDGE)
        s_th = np.hypot(x[2], x[3])
        th = np.arctan2(s_th, x[1])
        if s_th == 0.0:
            th = POLE_NUDGE if x[1] > 0 else np.pi - POLE_NUDGE
            return np.array([psi, th, 0.0])
        th = min(max(th, POLE_NUDGE), np.pi - POLE_NUDGE)
        ph = np.arctan2(x[3], x[2]) % TWO_PI
        return np.array([psi, th, ph])


# ---------------------------------------------------------------------------
# hyperbolic half-plane
# ---------------------------------------------------------------------------


class HalfPlane(ManifoldModel):
    """Upper half-plane model of the hyperbolic plane, metric
    (dx^2 + dy^2)/y^2, curvature -1.

    Geodesics are evaluated through a Moebius map sending the vertical
    unit-speed geodesic t -> i*e^t through the requested point/direction;
    the resulting expressions stay stable for long arc lengths.
    """

    name = "h2"
    dim = 2
    rho = -1.0

    def _check_domain(self, c):
        if not c[1] > 0.0:
            raise ChartDomainError(f"h2: y = {c[1]} not positive")

    def metrics(self, coords):
        c = np.asarray(coords, dtype=float).T
        g = np.zeros(c.shape[1:] + (2, 2))
        g.T[0, 0] = g.T[1, 1] = 1.0 / _sq(c[1])
        return g

    def christoffels(self, coords):
        c = np.asarray(coords, dtype=float).T
        G = np.zeros(c.shape[1:] + (2, 2, 2))
        G[..., 0, 0, 1] = G[..., 0, 1, 0] = G[..., 1, 1, 1] = -1.0 / c[1]
        G[..., 1, 0, 0] = 1.0 / c[1]
        return G

    def _mobius(self, p, v):
        """Matrix (a, b; c, d), det 1, whose action on t -> i*e^t gives the
        unit-speed geodesic from p in direction v."""
        x0, y0 = p.coords
        half = 0.5 * (np.arctan2(v.comps[1], v.comps[0]) - np.pi / 2)
        co, si = np.cos(half), np.sin(half)
        ry = np.sqrt(y0)
        return (ry * co - x0 * si / ry,
                ry * si + x0 * co / ry,
                -si / ry,
                co / ry)

    def exp(self, p, v):
        s = self.norm(v)
        if s == 0.0:
            return p
        a, b, c, d = self._mobius(p, v)
        # non-finite once s exceeds the representable range
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e2 = np.exp(-2.0 * s)
            den = c * c + d * d * e2
            x = (a * c + b * d * e2) / den
            y = np.exp(-s) / den
        if not (np.isfinite(x) and np.isfinite(y) and y > 0.0):
            raise ChartExitError(
                f"h2: geodesic left the representable chart at arc length {s:.3e}",
                parameter=s)
        return self.point([x, y])

    def distance(self, p, q):
        x0, y0 = p.coords
        x1, y1 = q.coords
        # acosh(1 + |q - p|^2 / (2 y0 y1)) in a form that neither cancels
        # for near points nor overflows for far ones
        return 2.0 * math.asinh(math.hypot(x1 - x0, y1 - y0)
                                / (2.0 * math.sqrt(y0) * math.sqrt(y1)))

    def log(self, p, q):
        x0, y0 = p.coords
        x1, y1 = q.coords
        d = self.distance(p, q)
        if d == 0.0:
            return self.zero_vector(p)
        dx = x1 - x0
        if dx == 0.0:
            return self.tangent(p, [0.0, d * y0 * np.sign(y1 - y0)])
        # geodesic circle centered at (c, 0); stable form of x0 - c
        x0c = -(dx * dx + (y1 * y1 - y0 * y0)) / (2.0 * dx)
        r = np.hypot(x0c, y0)
        # the cross product of the radii to p and q is
        # -(y0 + y1)(dx^2 + (y1 - y0)^2) / (2 dx): the geodesic turns
        # clockwise exactly when q lies to the right of p
        unit = -np.sign(dx) * (y0 / r) * np.array([-y0, x0c])
        return self.tangent(p, d * unit)

    def transport(self, v, q):
        """v turned as the geodesic's tangent turns from v.base to q, and
        scaled by y_q / y_base (the metric is conformal).  The tangent turns
        as the radius from the geodesic's center does, by arg(b conj(a))
        for the radii a, b of the two ends, here taken times 2 dx."""
        x0, y0 = v.base.coords.tolist()
        x1, y1 = q.coords.tolist()
        # an isometric dilation to coordinates <= 1 keeps the squares finite
        s = max(abs(x1 - x0), y0, y1)
        dx, y0s, y1s = (x1 - x0) / s, y0 / s, y1 / s
        dx2, A = dx * dx, (y1s - y0s) * (y1s + y0s)
        dot = 4.0 * dx2 * y0s * y1s - (dx2 + A) * (dx2 - A)
        cross = -2.0 * dx * (dx2 * (y0s + y1s) + A * (y1s - y0s))
        r = math.hypot(dot, cross)
        if r == 0.0:
            return TangentVector(q, v.comps)
        k = y1 / y0 / r
        w0, w1 = v.comps
        return TangentVector(q, np.array([k * (dot * w0 - cross * w1),
                                          k * (cross * w0 + dot * w1)]))


# ---------------------------------------------------------------------------
# flat space
# ---------------------------------------------------------------------------


class Euclidean(ManifoldModel):
    """Flat R^d with the identity metric."""

    rho = 0.0

    def __init__(self, dim: int = 2):
        self.dim = int(dim)
        self.name = f"euclid{self.dim}"

    def _check_domain(self, c):
        pass

    def metrics(self, coords):
        return _diagonal(np.shape(coords)[:-1], self.dim, *[1.0] * self.dim)

    def christoffels(self, coords):
        return np.zeros(np.shape(coords) + (self.dim,) * 2)

    def exp(self, p, v):
        return self.point(p.coords + v.comps)

    def log(self, p, q):
        return self.tangent(p, q.coords - p.coords)

    def distance(self, p, q):
        return float(np.linalg.norm(q.coords - p.coords))

    def transport(self, v, q):
        return TangentVector(q, v.comps)


SPHERE2 = Sphere2()
SPHERE3 = Sphere3()
HALF_PLANE = HalfPlane()
