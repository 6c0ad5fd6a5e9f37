"""Vector fields on the model manifolds.

A field is given by its chart components; its covariant derivative matrix
in coordinates is

    (grad X)^i_j = dX^i/dx^j + Gamma^i_{jk} X^k,

assembled from the analytic jacobian when available and from central
finite differences otherwise.  Built-in fields cover the example systems
used throughout the experiments; ``generic_field`` wraps arbitrary
component functions.
"""

import numpy as np

from .errors import StationaryPointError
from .manifolds import (
    HALF_PLANE,
    SPHERE2,
    SPHERE3,
    ChartPoint,
    ManifoldModel,
    TangentVector,
)

FD_STEP = 1e-6  # central-difference step for generic jacobians

STATIONARY_NORM = 1e-14


class FieldModel:
    """A vector field on one manifold model.

    Parameters
    ----------
    manifold : ManifoldModel
    func : callable
        Chart components, coords (d,) -> comps (d,).
    jac : callable or None
        Analytic jacobian coords -> (d, d) with J[i, j] = dX^i/dx^j.
        When None, central finite differences with step 1e-6 are used.
    name : str
    """

    def __init__(self, manifold: ManifoldModel, func, jac=None, name="field"):
        self.manifold = manifold
        self._func = func
        self._jac = jac
        self.name = name

    def eval(self, p: ChartPoint) -> TangentVector:
        return TangentVector(p, self.components(p.coords))

    def components(self, coords) -> np.ndarray:
        """Raw component function at unchecked chart coordinates."""
        return np.asarray(self._func(np.asarray(coords, dtype=float)),
                          dtype=float)

    def norm_at(self, p: ChartPoint) -> float:
        return self.manifold.norm(self.eval(p))

    def jacobian(self, p: ChartPoint) -> np.ndarray:
        if self._jac is not None:
            return np.asarray(self._jac(p.coords), dtype=float)
        d = self.manifold.dim
        J = np.empty((d, d))
        for j in range(d):
            step = np.zeros(d)
            step[j] = FD_STEP
            hi = np.asarray(self._func(p.coords + step), dtype=float)
            lo = np.asarray(self._func(p.coords - step), dtype=float)
            J[:, j] = (hi - lo) / (2.0 * FD_STEP)
        return J

    def covariant_matrix(self, p: ChartPoint) -> np.ndarray:
        """(grad X)^i_j = dX^i/dx^j + Gamma^i_{jk} X^k at p, as a (d, d)
        array whose entry [i, j] is the i-th component of the derivative
        of X along the j-th chart direction."""
        G = self.manifold.christoffel(p)
        X = np.asarray(self._func(p.coords), dtype=float)
        return self.jacobian(p) + np.einsum("ijk,k->ij", G, X)

    def directional_covariant(self, v: TangentVector) -> TangentVector:
        A = self.covariant_matrix(v.base)
        return TangentVector(v.base, A @ v.comps)

    def require_moving(self, p: ChartPoint) -> TangentVector:
        """eval(p), raising when the field vanishes there."""
        X = self.eval(p)
        if self.manifold.norm(X) < STATIONARY_NORM:
            raise StationaryPointError(f"{self.name} vanishes at {p!r}")
        return X

    def __repr__(self):
        return f"FieldModel({self.name} on {self.manifold.name})"


def generic_field(manifold, func, jac=None, name="generic") -> FieldModel:
    """Field from user-supplied component functions."""
    return FieldModel(manifold, func, jac=jac, name=name)


def s2_field(eps: float) -> FieldModel:
    """Rotation field with meridional drift on the 2-sphere:
    components (eps*cos(phi), 1)."""

    def func(c):
        return np.array([eps * np.cos(c[0]), 1.0])

    def jac(c):
        return np.array([[-eps * np.sin(c[0]), 0.0], [0.0, 0.0]])

    return FieldModel(SPHERE2, func, jac, name=f"s2(eps={eps:g})")


def h2_field(eps: float) -> FieldModel:
    """Constant-component field on the half-plane: (1, eps)."""

    def func(c):
        return np.array([1.0, eps])

    def jac(c):
        return np.zeros((2, 2))

    return FieldModel(HALF_PLANE, func, jac, name=f"h2(eps={eps:g})")


def h2_singular_field() -> FieldModel:
    """Dilation field (0, y) on the half-plane; its covariant derivative
    has a one-dimensional kernel spanned by the field itself."""

    def func(c):
        return np.array([0.0, c[1]])

    def jac(c):
        return np.array([[0.0, 0.0], [0.0, 1.0]])

    return FieldModel(HALF_PLANE, func, jac, name="h2-singular")


def s3_field(eps: float) -> FieldModel:
    """Rotation field with polar drift on the 3-sphere:
    components (-eps*sin(psi), 0, 1)."""

    def func(c):
        return np.array([-eps * np.sin(c[0]), 0.0, 1.0])

    def jac(c):
        J = np.zeros((3, 3))
        J[0, 0] = -eps * np.cos(c[0])
        return J

    return FieldModel(SPHERE3, func, jac, name=f"s3(eps={eps:g})")


def linear_field(manifold, matrix, name="linear") -> FieldModel:
    """X(p) = matrix @ p on a Euclidean model."""
    M = np.array(matrix, dtype=float)

    def func(c):
        return M @ c

    def jac(c):
        return M

    return FieldModel(manifold, func, jac, name=name)
