"""Vector fields on the model manifolds.

A field is given by its chart components; its covariant derivative matrix
in coordinates is

    (grad X)^i_j = dX^i/dx^j + Gamma^i_{jk} X^k,

assembled from the analytic jacobian when available and from central
finite differences otherwise.  Built-in fields cover the example systems
used throughout the experiments; ``FieldModel`` wraps arbitrary
component functions.
"""

import numpy as np

from .errors import GeostabError, StationaryPointError
from .manifolds import (
    HALF_PLANE,
    SPHERE2,
    SPHERE3,
    ChartPoint,
    ManifoldModel,
    TangentVector,
    _diagonal,
)

FD_STEP = 1e-6  # central-difference step for generic jacobians

STATIONARY_NORM = 1e-14


class FieldModel:
    """A vector field on one manifold model.

    Parameters
    ----------
    manifold : ManifoldModel
    func : callable
        Chart components on coordinate stacks, coords (..., d) -> comps
        (..., d); one point has no leading axes.
    jac : callable or None
        Analytic jacobian coords (..., d) -> (..., d, d) with
        J[..., i, j] = dX^i/dx^j.  When None, central finite differences
        with step 1e-6 are used.  A value of another shape raises
        GeostabError.
    name : str
    """

    def __init__(self, manifold: ManifoldModel, func, jac=None, name="field"):
        self.manifold = manifold
        self._func = func
        self._jac = jac
        self.name = name

    def eval(self, p: ChartPoint) -> TangentVector:
        """X at p, func's one-row call (TangentVector checks its shape)."""
        return TangentVector(p, self._func(p.coords))

    def components(self, coords) -> np.ndarray:
        """func at unchecked chart coordinates (..., d)."""
        return self._checked(self._func, coords, ())

    def norm_at(self, p: ChartPoint) -> float:
        return self.manifold.norm(self.eval(p))

    def jacobians(self, coords) -> np.ndarray:
        """jac, or central differences of func, at coordinates (..., d)."""
        if self._jac is not None:
            return self._checked(self._jac, coords, np.shape(coords)[-1:])
        c = np.asarray(coords, dtype=float)
        return np.stack([self.components(c + e) - self.components(c - e)
                         for e in FD_STEP * np.eye(c.shape[-1])],
                        axis=-1) / (2.0 * FD_STEP)

    def covariant_matrix(self, p: ChartPoint) -> np.ndarray:
        """(grad X)^i_j = dX^i/dx^j + Gamma^i_{jk} X^k at p, as a (d, d)
        array whose entry [i, j] is the i-th component of the derivative
        of X along the j-th chart direction: the one-row call of
        covariant_matrices."""
        return self.covariant_matrices(p.coords)

    def covariant_matrices(self, coords) -> np.ndarray:
        """covariant_matrix at unchecked chart coordinates, an (n, d)
        stack or one point (d,), as the models' christoffels take."""
        c = np.asarray(coords, dtype=float)
        return self._covariant(c, self.components(c))

    def _covariant(self, c, X) -> np.ndarray:
        """covariant_matrices at coordinates c given X = components(c)."""
        return self.jacobians(c) + np.einsum(
            "...ijk,...k->...ij", self.manifold.christoffels(c), X)

    def _checked(self, fn, coords, tail) -> np.ndarray:
        c = np.asarray(coords, dtype=float)
        out = np.asarray(fn(c), dtype=float)
        if out.shape != c.shape + tail:
            raise GeostabError(f"{self.name}: {'jac' if tail else 'func'} "
                               f"gave shape {out.shape} at {c.shape}")
        return out

    def require_moving(self, p: ChartPoint) -> TangentVector:
        """eval(p), raising when the field vanishes there."""
        X = self.eval(p)
        if self.manifold.norm(X) < STATIONARY_NORM:
            raise StationaryPointError(f"{self.name} vanishes at {p!r}")
        return X

    def __repr__(self):
        return f"FieldModel({self.name} on {self.manifold.name})"


def s2_field(eps: float) -> FieldModel:
    """Rotation field with meridional drift on the 2-sphere:
    components (eps*cos(phi), 1)."""

    def func(c):
        X = np.zeros(c.shape)
        X.T[0], X.T[1] = eps * np.cos(c.T[0]), 1.0
        return X

    def jac(c):
        return _diagonal(c.shape[:-1], 2, -eps * np.sin(c.T[0]))

    return FieldModel(SPHERE2, func, jac, name=f"s2(eps={eps:g})")


def h2_field(eps: float) -> FieldModel:
    """Constant-component field on the half-plane: (1, eps)."""

    def func(c):
        X = np.zeros(c.shape)
        X.T[0], X.T[1] = 1.0, eps
        return X

    def jac(c):
        return _diagonal(c.shape[:-1], 2)

    return FieldModel(HALF_PLANE, func, jac, name=f"h2(eps={eps:g})")


def h2_singular_field() -> FieldModel:
    """Dilation field (0, y) on the half-plane; its covariant derivative
    has a one-dimensional kernel spanned by the field itself."""

    def func(c):
        X = np.zeros(c.shape)
        X.T[1] = c.T[1]
        return X

    def jac(c):
        return _diagonal(c.shape[:-1], 2, 0.0, 1.0)

    return FieldModel(HALF_PLANE, func, jac, name="h2-singular")


def s3_field(eps: float) -> FieldModel:
    """Rotation field with polar drift on the 3-sphere:
    components (-eps*sin(psi), 0, 1)."""

    def func(c):
        X = np.zeros(c.shape)
        X.T[0], X.T[2] = -eps * np.sin(c.T[0]), 1.0
        return X

    def jac(c):
        return _diagonal(c.shape[:-1], 3, -eps * np.cos(c.T[0]))

    return FieldModel(SPHERE3, func, jac, name=f"s3(eps={eps:g})")
