"""Vector fields: component formulas, jacobians, and the covariant
derivative matrix checked against a parallel-transport difference
quotient."""

import math

import numpy as np
import pytest

from conftest import linear_field, make_field, random_points, random_tangent
from oracles import directional_covariant

from geostab.errors import StationaryPointError
from geostab.fields import (
    FieldModel,
    h2_field,
    h2_singular_field,
    s2_field,
    s3_field,
)
from geostab.manifolds import HALF_PLANE, SPHERE2, SPHERE3, Euclidean

EUCLID2 = Euclidean(2)


# ---------------------------------------------------------------------------
# component formulas
# ---------------------------------------------------------------------------


def test_builtin_components():
    eps = 0.8
    phi, theta = 0.5, 1.2
    X = s2_field(eps).components([phi, theta])
    assert np.allclose(X, [eps * math.cos(phi), 1.0])

    X = h2_field(eps).components([0.3, 2.0])
    assert np.allclose(X, [1.0, eps])

    X = h2_singular_field().components([0.7, 3.5])
    assert np.allclose(X, [0.0, 3.5])

    psi = 0.9
    X = s3_field(eps).components([psi, 1.1, 0.2])
    assert np.allclose(X, [-eps * math.sin(psi), 0.0, 1.0])


def test_eval_returns_tangent_at_point():
    f = s2_field(1.0)
    p = SPHERE2.point([0.4, 0.9])
    v = f.eval(p)
    assert v.base is p
    assert np.allclose(v.comps, f.components(p.coords))


def test_norm_at_matches_metric_norm():
    f = h2_field(0.5)
    p = HALF_PLANE.point([0.1, 2.0])
    assert abs(f.norm_at(p) - HALF_PLANE.norm(f.eval(p))) < 1e-15


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------


def fd_jacobian(field, coords, step=1e-6):
    coords = np.asarray(coords, dtype=float)
    d = len(coords)
    J = np.empty((d, d))
    for j in range(d):
        delta = np.zeros(d)
        delta[j] = step
        J[:, j] = (field.components(coords + delta)
                   - field.components(coords - delta)) / (2.0 * step)
    return J


@pytest.mark.parametrize("name", ["s2", "h2", "s3", "h2-singular"])
def test_analytic_jacobian_matches_finite_differences(name, rng):
    field = make_field(name, eps=0.7)
    for p in random_points(field.manifold, rng, 4):
        J = field.jacobian(p)
        assert np.allclose(J, fd_jacobian(field, p.coords), atol=1e-7)


def test_generic_field_uses_finite_differences():
    f = FieldModel(EUCLID2, lambda c: np.array([c[0] ** 2, -c[1]]))
    p = EUCLID2.point([1.5, 0.25])
    J = f.jacobian(p)
    assert np.allclose(J, [[3.0, 0.0], [0.0, -1.0]], atol=1e-8)


def test_generic_field_prefers_analytic_jacobian():
    marker = np.full((2, 2), 7.0)
    f = FieldModel(EUCLID2, lambda c: c.copy(), jac=lambda c: marker)
    p = EUCLID2.point([0.0, 0.0])
    assert np.array_equal(f.jacobian(p), marker)


def test_linear_field_components_and_jacobian(rng):
    M = np.array([[-1.0, 0.5], [0.0, -2.0]])
    f = linear_field(EUCLID2, M)
    x = rng.standard_normal(2)
    assert np.allclose(f.components(x), M @ x)
    assert np.array_equal(f.jacobian(EUCLID2.point(x)), M)


# ---------------------------------------------------------------------------
# covariant derivative matrix
# ---------------------------------------------------------------------------


def covariant_fd(field, p, v, t=1e-5):
    """Transport-based difference quotient for the covariant derivative
    of the field along v: pull X(exp_p(+-t v)) back to p and difference."""
    m = field.manifold
    qp = m.exp(p, m.tangent(p, t * v.comps))
    qm = m.exp(p, m.tangent(p, -t * v.comps))
    back_p = m.transport(field.eval(qp), p)
    back_m = m.transport(field.eval(qm), p)
    return (back_p.comps - back_m.comps) / (2.0 * t)


@pytest.mark.parametrize("name", ["s2", "h2", "s3", "h2-singular"])
def test_covariant_matrix_matches_transport_quotient(name, rng):
    field = make_field(name, eps=1.3)
    for p in random_points(field.manifold, rng, 3):
        A = field.covariant_matrix(p)
        for _ in range(3):
            v = random_tangent(field.manifold, p, rng)
            assert np.allclose(A @ v.comps, covariant_fd(field, p, v),
                               atol=1e-6)


def test_singular_example_covariant_matrix_is_constant_diagonal(rng):
    """For the vertical field y d/dy on the half-plane the covariant
    matrix is diag(-1, 0) at every point: a rank-one kernel direction."""
    field = h2_singular_field()
    for p in random_points(HALF_PLANE, rng, 5):
        A = field.covariant_matrix(p)
        assert np.allclose(A, np.diag([-1.0, 0.0]), atol=1e-13)


def test_covariant_matrix_is_a_d_by_d_array():
    field = s3_field(1.0)
    p = SPHERE3.point([0.9, 1.2, 0.3])
    A = field.covariant_matrix(p)
    assert isinstance(A, np.ndarray)
    assert A.shape == (3, 3)


def test_directional_covariant_consistent(rng):
    field = s2_field(0.6)
    p = SPHERE2.point([0.2, 4.0])
    v = random_tangent(SPHERE2, p, rng)
    A = field.covariant_matrix(p)
    w = directional_covariant(field, v)
    assert np.allclose(w.comps, A @ v.comps)
    assert w.base is p


# ---------------------------------------------------------------------------
# stationary points
# ---------------------------------------------------------------------------


def test_require_moving_raises_at_zero():
    f = linear_field(EUCLID2, -np.eye(2))
    origin = EUCLID2.point([0.0, 0.0])
    with pytest.raises(StationaryPointError):
        f.require_moving(origin)
    p = EUCLID2.point([1.0, 0.0])
    X = f.require_moving(p)
    assert np.allclose(X.comps, [-1.0, 0.0])


def test_builtin_fields_never_stationary(rng):
    for name in ("s2", "h2", "s3", "h2-singular"):
        field = make_field(name, eps=0.5)
        for p in random_points(field.manifold, rng, 3):
            assert field.norm_at(p) > 0.0
