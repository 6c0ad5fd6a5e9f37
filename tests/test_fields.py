"""Vector fields: component formulas, jacobians, and the covariant
derivative matrix checked against a parallel-transport difference
quotient."""

import math

import numpy as np
import pytest

from conftest import linear_field, make_field, random_points, random_tangent
from oracles import directional_covariant

from geostab.errors import GeostabError, StationaryPointError
from geostab.experiments import EXAMPLES
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
        J = field.jacobians(p.coords)
        assert np.allclose(J, fd_jacobian(field, p.coords), atol=1e-7)


def squares(c):
    """(x², -y) on a stack of plane coordinates."""
    return np.stack([c[..., 0] ** 2, -c[..., 1]], axis=-1)


def test_generic_field_uses_finite_differences():
    f = FieldModel(EUCLID2, squares)
    p = EUCLID2.point([1.5, 0.25])
    J = f.jacobians(p.coords)
    assert np.allclose(J, [[3.0, 0.0], [0.0, -1.0]], atol=1e-8)


def test_generic_field_prefers_analytic_jacobian():
    marker = np.full((2, 2), 7.0)
    f = FieldModel(EUCLID2, lambda c: c.copy(),
                   jac=lambda c: np.broadcast_to(marker, c.shape + (2,)))
    p = EUCLID2.point([0.0, 0.0])
    assert np.array_equal(f.jacobians(p.coords), marker)
    assert np.array_equal(f.jacobians(np.zeros((4, 2))),
                          np.broadcast_to(marker, (4, 2, 2)))


def test_a_func_or_jac_off_the_stacked_contract_raises():
    """A component function or jacobian written for one point only gives
    the wrong shape on a stack, which raises GeostabError; the one-point
    calls still work."""
    stack = np.array([[1.5, 0.25], [0.5, 2.0], [1.0, 1.0]])
    one_point = FieldModel(EUCLID2, lambda c: np.array([c[0] ** 2, -c[1]]))
    p = EUCLID2.point(stack[0])
    assert np.array_equal(one_point.eval(p).comps, squares(stack[0]))
    for call in (one_point.components, one_point.covariant_matrices):
        with pytest.raises(GeostabError,
                           match=r"func gave shape \(2, 2\) at \(3, 2\)"):
            call(stack)
    fixed = FieldModel(EUCLID2, squares, jac=lambda c: np.eye(2))
    assert np.array_equal(fixed.jacobians(p.coords), np.eye(2))
    with pytest.raises(GeostabError,
                       match=r"jac gave shape \(2, 2\) at \(3, 2\)"):
        fixed.covariant_matrices(stack)
    flat = FieldModel(EUCLID2, lambda c: c.ravel())
    with pytest.raises(GeostabError):
        flat.components(stack)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def spiral(c):
    """A field with no analytic jacobian (finite differences)."""
    return np.stack([np.sin(c[..., 1]) * c[..., 0], np.cos(c[..., 0])],
                    axis=-1)


STACK_FIELDS = {
    "s2": lambda: s2_field(0.7),
    "h2": lambda: h2_field(0.7),
    "s3": lambda: s3_field(0.7),
    "h2-singular": h2_singular_field,
    "euclid3": lambda: linear_field(Euclidean(3), [[-1.0, 0.5, 0.0],
                                                   [0.2, -2.0, 0.3],
                                                   [0.0, 0.1, -0.5]]),
    "finite differences": lambda: FieldModel(SPHERE2, spiral),
}


@pytest.mark.parametrize("name", sorted(STACK_FIELDS))
def test_stacked_chart_data_equal_the_one_row_calls(name, rng):
    """The stacked g, Γ, X and ∇X of a table (the family's default grid,
    or random points) equal the one-point calls bit for bit, row by row,
    and so do the one-row stacks."""
    field = STACK_FIELDS[name]()
    m = field.manifold
    if name in EXAMPLES:
        family = EXAMPLES[name]
        pts = [m.point(family.to_coords(*b)) for b in family.default_grid(40)]
    else:
        pts = random_points(m, rng, 40)
    pts += random_points(m, rng, 20)
    coords = np.array([p.coords for p in pts])
    stacks = (m.metrics(coords), m.christoffels(coords),
              field.components(coords), field.covariant_matrices(coords))
    d = m.dim
    assert [s.shape for s in stacks] == [(60, d, d), (60, d, d, d), (60, d),
                                         (60, d, d)]
    for i, p in enumerate(pts):
        one = (m.metric(p), m.christoffel(p), field.eval(p).comps,
               field.covariant_matrix(p))
        one_row_stack = coords[i:i + 1]
        row = (m.metrics(one_row_stack)[0], m.christoffels(one_row_stack)[0],
               field.components(one_row_stack)[0],
               field.covariant_matrices(one_row_stack)[0])
        for stacked, single, one_row in zip(stacks, one, row):
            assert stacked[i].shape == single.shape
            assert bits(stacked[i]) == bits(single) == bits(one_row)
    # func and jac take any leading axes, here (3, 20)
    grid = coords.reshape(3, 20, d)
    assert bits(field.components(grid)) == bits(stacks[2].reshape(3, 20, d))
    assert bits(field.jacobians(grid)) == bits(
        field.jacobians(coords).reshape(3, 20, d, d))


def test_stacked_metrics_square_with_the_bits_of_scalar_pow(rng):
    """The stacked metrics square with the bits of numpy's scalar x ** 2
    (pow), where the array x ** 2 multiplies and differs about once in a
    thousand."""
    c = np.column_stack([rng.uniform(0.05, 3.0, 4000),
                         rng.uniform(0.05, 3.0, 4000),
                         rng.uniform(0.0, 6.0, 4000)])
    sp = np.sin(c[:, 0])
    for stacked, scalar in [
            (SPHERE2.metrics(c[:, :2])[:, 1, 1],
             [np.cos(x) ** 2 for x in c[:, 0]]),
            (SPHERE3.metrics(c)[:, 1, 1], [x ** 2 for x in sp]),
            (SPHERE3.metrics(c)[:, 2, 2],
             [x ** 2 for x in sp * np.sin(c[:, 1])]),
            (HALF_PLANE.metrics(c[:, :2])[:, 1, 1],
             [1.0 / y ** 2 for y in c[:, 1]])]:
        assert bits(stacked) == bits(scalar)


def test_linear_field_components_and_jacobian(rng):
    M = np.array([[-1.0, 0.5], [0.0, -2.0]])
    f = linear_field(EUCLID2, M)
    x = rng.standard_normal(2)
    assert np.allclose(f.components(x), M @ x)
    assert np.array_equal(f.jacobians(x), M)


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
