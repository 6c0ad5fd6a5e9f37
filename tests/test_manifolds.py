"""Chart models: domain checks, metric data, and closed-form geodesic
operations verified against direct ODE integration (and the half-plane
distance against mpmath)."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import random_points, random_tangent
from odes import (christoffel_batch, geodesic_flow, metric_batch,
                  transport_flow)

from geostab.errors import (
    ChartDomainError,
    ChartExitError,
    DegenerateDirectionError,
    GeostabError,
)
from geostab.manifolds import HALF_PLANE, SPHERE2, SPHERE3, Euclidean, TangentVector

EUCLID2 = Euclidean(2)
MODELS = [SPHERE2, HALF_PLANE, SPHERE3, EUCLID2]


# ---------------------------------------------------------------------------
# charts and validation
# ---------------------------------------------------------------------------


def test_point_rejects_wrong_shape():
    with pytest.raises(ChartDomainError):
        SPHERE2.point([0.1])
    with pytest.raises(ChartDomainError):
        SPHERE3.point([0.1, 0.2])


def test_point_rejects_non_finite():
    with pytest.raises(ChartDomainError):
        HALF_PLANE.point([0.0, np.nan])
    with pytest.raises(ChartDomainError):
        SPHERE2.point([np.inf, 0.0])


def test_point_rejects_out_of_domain():
    with pytest.raises(ChartDomainError):
        SPHERE2.point([math.pi / 2, 0.0])  # pole excluded
    with pytest.raises(ChartDomainError):
        HALF_PLANE.point([0.0, 0.0])  # boundary y = 0
    with pytest.raises(ChartDomainError):
        HALF_PLANE.point([0.0, -1.0])
    with pytest.raises(ChartDomainError):
        SPHERE3.point([0.0, 0.5, 0.0])  # psi = 0 excluded
    with pytest.raises(ChartDomainError):
        SPHERE3.point([0.5, math.pi, 0.0])


def test_azimuth_wraps_mod_two_pi():
    p = SPHERE2.point([0.4, 2.0 * math.pi + 0.3])
    assert abs(p.coords[1] - 0.3) < 1e-12
    q = SPHERE3.point([0.8, 0.9, -0.5])
    assert abs(q.coords[2] - (2.0 * math.pi - 0.5)) < 1e-12


def test_tangent_dimension_mismatch():
    p = SPHERE2.point([0.1, 0.2])
    with pytest.raises(GeostabError):
        TangentVector(p, np.zeros(3))


def test_coords_are_immutable():
    p = HALF_PLANE.point([0.0, 1.0])
    with pytest.raises(ValueError):
        p.coords[0] = 5.0


# ---------------------------------------------------------------------------
# metric data
# ---------------------------------------------------------------------------


def test_metric_values():
    phi = 0.7
    g = SPHERE2.metric(SPHERE2.point([phi, 1.1]))
    assert np.allclose(g, np.diag([1.0, math.cos(phi) ** 2]))

    y = 2.5
    g = HALF_PLANE.metric(HALF_PLANE.point([0.3, y]))
    assert np.allclose(g, np.eye(2) / y ** 2)

    psi, theta = 0.9, 1.3
    g = SPHERE3.metric(SPHERE3.point([psi, theta, 0.4]))
    expect = np.diag(
        [1.0, math.sin(psi) ** 2, (math.sin(psi) * math.sin(theta)) ** 2])
    assert np.allclose(g, expect)

    assert np.allclose(EUCLID2.metric(EUCLID2.point([1.0, 2.0])), np.eye(2))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_batch_matches_pointwise(model, rng):
    pts = random_points(model, rng, 6)
    coords = np.stack([p.coords for p in pts])
    gb = metric_batch(model, coords)
    cb = christoffel_batch(model, coords)
    for i, p in enumerate(pts):
        assert np.allclose(gb[i], model.metric(p), atol=1e-13)
        assert np.allclose(cb[i], model.christoffel(p), atol=1e-13)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_christoffel_symmetric_in_lower_indices(model, rng):
    for p in random_points(model, rng, 4):
        G = model.christoffel(p)
        assert np.allclose(G, np.swapaxes(G, 1, 2), atol=1e-13)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_christoffel_is_metric_compatible(model, rng):
    """Central differences of g must equal the compatibility identity
    dg_ij/dx^k = g_lj G^l_ik + g_il G^l_jk."""
    step = 1e-6
    for p in random_points(model, rng, 3):
        g = model.metric(p)
        G = model.christoffel(p)
        d = model.dim
        for k in range(d):
            delta = np.zeros(d)
            delta[k] = step
            hi = metric_batch(model, (p.coords + delta)[None])[0]
            lo = metric_batch(model, (p.coords - delta)[None])[0]
            fd = (hi - lo) / (2.0 * step)
            expect = np.einsum("lj,lik->ijk", g, G)[:, :, k] \
                + np.einsum("il,ljk->ijk", g, G)[:, :, k]
            assert np.allclose(fd, expect, atol=5e-6)


# ---------------------------------------------------------------------------
# exponential map against ODE integration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_exp_matches_geodesic_ode(model, rng):
    """RK4 in chart coordinates loses a couple of digits when a geodesic
    passes near a coordinate singularity, hence the 1e-6 tolerance."""
    for p in random_points(model, rng, 4):
        for scale in (0.3, 1.0):
            v = random_tangent(model, p, rng, scale=scale)
            q_closed = model.exp(p, v)
            q_ode, _ = geodesic_flow(model, p, v, t=1.0, step=1e-3)
            assert model.distance(q_closed, q_ode) < 1e-6


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_geodesic_constant_speed(model, rng):
    """The ODE velocity at t=1 must still have the initial g-norm."""
    p = random_points(model, rng, 1)[0]
    v = random_tangent(model, p, rng, scale=0.8)
    _, v_end = geodesic_flow(model, p, v, t=1.0, step=1e-3)
    assert abs(v_end.norm() - 0.8) < 1e-8


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_geodesic_helper_scales_velocity(model, rng):
    p = random_points(model, rng, 1)[0]
    v = random_tangent(model, p, rng, scale=0.7)
    t = 0.6
    q1 = model.geodesic(p, v, t)
    q2 = model.exp(p, model.tangent(p, t * v.comps))
    assert model.distance(q1, q2) < 1e-14


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_distance_along_geodesic_is_linear(model, rng):
    """d(p, exp_p(t v)) == t * |v|_g below the injectivity radius."""
    for p in random_points(model, rng, 3):
        v = random_tangent(model, p, rng, scale=1.0)
        for t in (1e-3, 0.1, 0.5, 1.0, 2.0):
            q = model.exp(p, model.tangent(p, t * v.comps))
            d = model.distance(p, q)
            assert abs(d - t) <= 1e-8 * t


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_exp_of_zero_vector_is_identity(model, rng):
    p = random_points(model, rng, 1)[0]
    q = model.exp(p, model.zero_vector(p))
    assert model.distance(p, q) == 0.0


# ---------------------------------------------------------------------------
# logarithm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_log_inverts_exp(model, rng):
    for p in random_points(model, rng, 4):
        for scale in (1e-3, 0.4, 1.7):
            v = random_tangent(model, p, rng, scale=scale)
            w = model.log(p, model.exp(p, v))
            assert np.allclose(w.comps, v.comps, rtol=1e-8, atol=1e-11)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_log_norm_equals_distance(model, rng):
    pts = random_points(model, rng, 6)
    for p, q in zip(pts[:3], pts[3:]):
        v = model.log(p, q)
        assert abs(v.norm() - model.distance(p, q)) < 1e-10


def test_log_of_same_point_is_zero():
    p = HALF_PLANE.point([0.5, 2.0])
    assert HALF_PLANE.log(p, p).norm() == 0.0


def test_half_plane_log_vertical_branch():
    p = HALF_PLANE.point([1.0, 1.0])
    q = HALF_PLANE.point([1.0, math.e])
    v = HALF_PLANE.log(p, q)
    # vertical line x=const is a geodesic; arc length log(y1/y0) = 1
    assert np.allclose(v.comps, [0.0, 1.0], atol=1e-12)


def test_sphere_log_rejects_antipode():
    p = SPHERE2.point([0.3, 1.0])
    q = SPHERE2.point([-0.3, 1.0 + math.pi])
    assert abs(SPHERE2.distance(p, q) - math.pi) < 1e-12
    with pytest.raises(GeostabError):
        SPHERE2.log(p, q)


def test_sphere_distance_against_embedding_dot_product(rng):
    """Independent check: great-circle distance from the arccos of the
    inner product of the unit embeddings."""
    pts = random_points(SPHERE2, rng, 8)
    for p, q in zip(pts[:4], pts[4:]):
        P = SPHERE2.embed(p)
        Q = SPHERE2.embed(q)
        expect = math.acos(min(1.0, max(-1.0, float(P @ Q))))
        assert abs(SPHERE2.distance(p, q) - expect) < 1e-10


def test_half_plane_distance_symmetry(rng):
    pts = random_points(HALF_PLANE, rng, 8)
    for p, q in zip(pts[:4], pts[4:]):
        assert abs(HALF_PLANE.distance(p, q)
                   - HALF_PLANE.distance(q, p)) < 1e-12


def test_half_plane_distance_against_mpmath(rng):
    """acosh(1 + |q - p|^2 / (2 y0 y1)) at 100 digits, for the far pair
    whose squared term used to overflow and for random pairs with y from
    1e-6 to 1e6 and separations from 1e-12 to 1e3 of y0: within 1e-15
    relative, and without a warning."""
    pairs = [((0.0, 1.0), (0.0, 1e-160))]
    for i in range(600):
        y0 = 10.0 ** rng.uniform(-6.0, 6.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        if i % 2:
            s = 10.0 ** rng.uniform(-12.0, 3.0)
            y1 = 10.0 ** rng.uniform(-6.0, 6.0)
        else:
            s = 10.0 ** rng.uniform(-12.0, -0.5)
            y1 = y0 * (1.0 + s * math.sin(ang))
        pairs.append(((0.3, y0), (0.3 + s * y0 * math.cos(ang), y1)))
    for a, b in pairs:
        p, q = HALF_PLANE.point(a), HALF_PLANE.point(b)
        with mp.workdps(100):
            x0, y0 = (mp.mpf(float(c)) for c in p.coords)
            x1, y1 = (mp.mpf(float(c)) for c in q.coords)
            want = mp.acosh(1 + ((x1 - x0) ** 2 + (y1 - y0) ** 2)
                            / (2 * y0 * y1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = HALF_PLANE.distance(p, q)
        assert abs(got - want) <= 1e-15 * want
    assert HALF_PLANE.distance(HALF_PLANE.point((0.0, 1.0)),
                               HALF_PLANE.point((0.0, 1e-160))) \
        == 368.4136148790473


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_transport_matches_ode(model, rng):
    for p in random_points(model, rng, 3):
        u = random_tangent(model, p, rng, scale=0.9)
        v = random_tangent(model, p, rng, scale=1.3)
        w_closed = model.transport(v, u)
        w_ode = transport_flow(model, v, u, t=1.0, step=1e-3)
        assert model.distance(w_closed.base, w_ode.base) < 1e-8
        assert np.allclose(w_closed.comps, w_ode.comps, atol=1e-7)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_transport_preserves_inner_products(model, rng):
    p = random_points(model, rng, 1)[0]
    u = random_tangent(model, p, rng, scale=1.1)
    v = random_tangent(model, p, rng, scale=0.8)
    w = random_tangent(model, p, rng, scale=1.5)
    before = model.inner(v, w)
    vt = model.transport(v, u)
    wt = model.transport(w, u)
    assert abs(model.inner(vt, wt) - before) < 1e-10


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_transport_base_point_and_partial_time(model, rng):
    p = random_points(model, rng, 1)[0]
    u = random_tangent(model, p, rng, scale=1.2)
    v = random_tangent(model, p, rng, scale=0.5)
    t = 0.37
    w = model.transport(v, u, t=t)
    q = model.exp(p, model.tangent(p, t * u.comps))
    assert model.distance(w.base, q) < 1e-10
    assert abs(w.norm() - 0.5) < 1e-10


def test_transport_along_zero_vector_is_identity():
    p = HALF_PLANE.point([0.2, 1.5])
    v = HALF_PLANE.tangent(p, [0.3, -0.4])
    w = HALF_PLANE.transport(v, HALF_PLANE.zero_vector(p))
    assert np.allclose(w.comps, v.comps)
    assert w.base is p or HALF_PLANE.distance(w.base, p) == 0.0


def test_sphere_transport_around_pole_rotates():
    """Transport around a closed spherical triangle produces holonomy,
    so transport must not be the chart identity."""
    p = SPHERE2.point([0.0, 0.0])
    u = SPHERE2.tangent(p, [0.0, 1.0])
    v = SPHERE2.tangent(p, [1.0, 0.0])
    w = SPHERE2.transport(v, u, t=1.0)
    assert abs(w.norm() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# chart exit on the half-plane
# ---------------------------------------------------------------------------


def test_half_plane_exp_chart_exit_has_parameter():
    p = HALF_PLANE.point([0.0, 1.0])
    v = HALF_PLANE.tangent(p, [0.0, 800.0])  # arc length 800 upward
    with pytest.raises(ChartExitError) as info:
        HALF_PLANE.exp(p, v)
    assert info.value.parameter is not None
    assert info.value.parameter > 700.0


def test_half_plane_transport_chart_exit():
    p = HALF_PLANE.point([0.0, 1.0])
    v = HALF_PLANE.tangent(p, [1.0, 0.0])
    u = HALF_PLANE.tangent(p, [0.0, -900.0])
    with pytest.raises(ChartExitError):
        HALF_PLANE.transport(v, u)


def test_half_plane_exp_stays_in_chart_for_moderate_steps(rng):
    for p in random_points(HALF_PLANE, rng, 5):
        v = random_tangent(HALF_PLANE, p, rng, scale=3.0)
        q = HALF_PLANE.exp(p, v)
        assert q.coords[1] > 0.0


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_frame_is_g_orthonormal(model, rng):
    p = random_points(model, rng, 1)[0]
    first = random_tangent(model, p, rng, scale=2.3)
    fr = model.frame(p, first)
    g = model.metric(p)
    gram = fr.matrix.T @ g @ fr.matrix
    assert np.allclose(gram, np.eye(model.dim), atol=1e-12)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_frame_first_vector_aligned(model, rng):
    p = random_points(model, rng, 1)[0]
    first = random_tangent(model, p, rng, scale=1.7)
    fr = model.frame(p, first)
    assert np.allclose(fr.matrix[:, 0] * 1.7, first.comps, atol=1e-12)


def test_frame_rejects_degenerate_direction():
    p = SPHERE2.point([0.2, 0.3])
    with pytest.raises(DegenerateDirectionError):
        SPHERE2.frame(p, SPHERE2.zero_vector(p))


def test_frame_two_dim_orientation_deterministic(rng):
    """In dimension two the completion is the +90 degree g-rotation, so
    the chart determinant of the frame matrix is positive."""
    for model in (SPHERE2, HALF_PLANE, EUCLID2):
        p = random_points(model, rng, 1)[0]
        first = random_tangent(model, p, rng, scale=1.0)
        fr = model.frame(p, first)
        assert np.linalg.det(fr.matrix) > 0.0


def test_frame_vectors_property():
    p = EUCLID2.point([0.0, 0.0])
    fr = EUCLID2.frame(p, EUCLID2.tangent(p, [2.0, 0.0]))
    vecs = fr.vectors
    assert len(vecs) == 2
    assert np.allclose(vecs[0].comps, [1.0, 0.0])
    assert np.allclose(vecs[1].comps, [0.0, 1.0])


# ---------------------------------------------------------------------------
# euclidean model
# ---------------------------------------------------------------------------


def test_euclidean_operations_are_affine():
    e3 = Euclidean(3)
    p = e3.point([1.0, -2.0, 0.5])
    v = e3.tangent(p, [0.25, 1.0, -1.5])
    q = e3.exp(p, v)
    assert np.allclose(q.coords, [1.25, -1.0, -1.0])
    assert np.allclose(e3.log(p, q).comps, v.comps)
    assert abs(e3.distance(p, q) - np.linalg.norm(v.comps)) < 1e-15
    moved = e3.transport(v, v, t=2.0)
    assert np.allclose(moved.comps, v.comps)
    assert np.allclose(moved.base.coords, p.coords + 2.0 * v.comps)
