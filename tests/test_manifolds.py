"""Chart models: domain checks, metric data, and closed-form geodesic
operations verified against direct ODE integration (and the half-plane
distance against mpmath)."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_points, random_tangent
from odes import (BatchVariationState, christoffel_batch, geodesic_flow,
                  integrate_batch, metric_batch, transport_flow)
from oracles import frame_vectors, geodesic, sequential_frame

from geostab.errors import (
    ChartDomainError,
    ChartExitError,
    DegenerateDirectionError,
    GeostabError,
)
from geostab.manifolds import (HALF_PLANE, POLE_NUDGE, SPHERE2, SPHERE3,
                               Euclidean, TangentVector, _frames, _g_norm)

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
    q1 = geodesic(model, p, v, t)
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


def test_half_plane_log_of_a_near_vertical_far_pair():
    """Here dx = 1.4e-15 and the arguments of the two radii round to the
    same angle, so their difference cannot give the direction; the log
    still has the length of the distance and exp returns to the other
    point, both ways."""
    p = HALF_PLANE.point([0.5687327993358328, 0.9815933955844378])
    q = HALF_PLANE.point([0.5687327993358342, 29.383358199859163])
    for a, b in ((p, q), (q, p)):
        v = HALF_PLANE.log(a, b)
        d = HALF_PLANE.distance(a, b)
        assert d > 3.39
        assert abs(v.norm() - d) <= 1e-14 * d
        assert HALF_PLANE.distance(HALF_PLANE.exp(a, v), b) < 1e-12


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


@pytest.mark.parametrize("pole", (1.0, -1.0))
@pytest.mark.parametrize("gap", [10.0 ** -k for k in range(3, 12)])
def test_sphere2_chart_round_trip_is_exact_near_the_poles(pole, gap):
    """embed -> unembed gives phi back to 4 ulp from 1e-3 down to 1e-11
    off either pole, where arcsin(z) resolved it only to about
    sqrt(2 * machine epsilon)."""
    phi = pole * (math.pi / 2 - gap)
    for theta in (0.0, 0.3, 2.0, 5.5):
        got = SPHERE2.unembed(SPHERE2.embed(SPHERE2.point([phi, theta])))
        assert abs(got[0] - phi) <= 4.0 * math.ulp(phi)
        assert abs(got[1] - theta) <= 1e-15


@pytest.mark.parametrize("pole", (1.0, -1.0))
def test_sphere2_unembed_nudges_the_pole_into_the_chart(pole):
    """The pole itself lands POLE_NUDGE inside the chart with theta = 0."""
    got = SPHERE2.unembed(np.array([0.0, 0.0, pole]))
    assert list(got) == [pole * (math.pi / 2 - POLE_NUDGE), 0.0]
    SPHERE2.point(got)


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
        w_closed = model.transport(v, model.exp(p, u))
        w_ode = transport_flow(model, v, u, t=1.0, step=1e-3)
        assert model.distance(w_closed.base, w_ode.base) < 1e-8
        assert np.allclose(w_closed.comps, w_ode.comps, atol=1e-7)


def _pole_gap(model, c):
    """Chart distance of coordinates c from the sphere chart's poles."""
    if model is SPHERE2:
        return math.pi / 2 - abs(c[0])
    if model is SPHERE3:
        return min(c[0], math.pi - c[0], c[1], math.pi - c[1])
    return math.inf


def _transport_pairs(model, rng):
    """Pairs (p, q) at distances up to 3, on geodesics that keep 0.2 from
    the sphere charts' poles (where the chart ODE is stiff), and on the
    half-plane also pairs with |dx| <= 1e-9, next to and on a vertical
    geodesic."""
    pairs = []
    for p in random_points(model, rng, 4):
        for scale in (0.05, 1.0, 2.0, 3.0):
            while True:
                u = random_tangent(model, p, rng, scale=scale)
                path = [model.exp(p, model.tangent(p, s * u.comps))
                        for s in np.linspace(0.0, 1.0, 61)]
                if min(_pole_gap(model, x.coords) for x in path) > 0.2:
                    break
            pairs.append((p, path[-1]))
    if model is HALF_PLANE:
        for dx, y1 in ((1e-9, 2.1), (-1e-9, 0.3), (1e-12, 0.7), (0.0, 4.0)):
            pairs.append((HALF_PLANE.point([0.3, 0.7]),
                          HALF_PLANE.point([0.3 + dx, y1])))
    return pairs


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_endpoint_transport_matches_ode_along_log(model, rng):
    """transport(v, q) equals v carried along s -> exp(p, s log(p, q))
    by the chart ODE, one batch of geodesics per model."""
    pairs = _transport_pairs(model, rng)
    vs = [random_tangent(model, p, rng, scale=1.2) for p, _ in pairs]
    state = BatchVariationState(
        np.array([p.coords for p, _ in pairs]),
        np.array([model.log(p, q).comps for p, q in pairs]),
        np.array([v.comps for v in vs])[:, :, None])
    out = integrate_batch(model, state, 1.0, step=1e-3)
    for (p, q), v, end, col in zip(pairs, vs, out.coords, out.cols[:, :, 0]):
        w = model.transport(v, q)
        assert w.base is q
        assert model.distance(q, model.point(end)) < 1e-8
        scale = q.coords[1] if model is HALF_PLANE else 1.0
        assert np.allclose(w.comps, col, rtol=0.0, atol=1e-7 * scale)


@pytest.mark.parametrize("model", [SPHERE2, SPHERE3], ids=lambda m: m.name)
def test_sphere_transport_to_the_antipode_raises(model):
    p = model.point([0.4, 1.1] if model is SPHERE2 else [0.4, 1.1, 0.2])
    P = model.embed(p)
    q = model.point(model.unembed(-P))
    assert model.distance(p, q) > math.pi - 1e-7
    v = model.tangent(p, np.ones(model.dim))
    with pytest.raises(GeostabError, match="antipodal"):
        model.transport(v, q)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_transport_preserves_inner_products(model, rng):
    p = random_points(model, rng, 1)[0]
    u = random_tangent(model, p, rng, scale=1.1)
    v = random_tangent(model, p, rng, scale=0.8)
    w = random_tangent(model, p, rng, scale=1.5)
    before = model.inner(v, w)
    q = model.exp(p, u)
    vt = model.transport(v, q)
    wt = model.transport(w, q)
    assert abs(model.inner(vt, wt) - before) < 1e-10


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_transport_base_point_and_partial_time(model, rng):
    p = random_points(model, rng, 1)[0]
    u = random_tangent(model, p, rng, scale=1.2)
    v = random_tangent(model, p, rng, scale=0.5)
    t = 0.37
    q = model.exp(p, model.tangent(p, t * u.comps))
    w = model.transport(v, q)
    assert model.distance(w.base, q) < 1e-10
    assert abs(w.norm() - 0.5) < 1e-10


def test_transport_along_zero_vector_is_identity():
    p = HALF_PLANE.point([0.2, 1.5])
    v = HALF_PLANE.tangent(p, [0.3, -0.4])
    w = HALF_PLANE.transport(v, HALF_PLANE.exp(p, HALF_PLANE.zero_vector(p)))
    assert np.allclose(w.comps, v.comps)
    assert w.base is p or HALF_PLANE.distance(w.base, p) == 0.0


def test_sphere_transport_around_pole_rotates():
    """Transport around a closed spherical triangle produces holonomy,
    so transport must not be the chart identity."""
    p = SPHERE2.point([0.0, 0.0])
    u = SPHERE2.tangent(p, [0.0, 1.0])
    v = SPHERE2.tangent(p, [1.0, 0.0])
    w = SPHERE2.transport(v, SPHERE2.exp(p, u))
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


def test_half_plane_transport_to_a_far_point():
    """The endpoint transport follows no geodesic flow, so it cannot leave
    the chart: from (0, 1) down to (0, 1e-300), about 690 away, it lands
    on q and keeps the g-norm, with no floating-point warning.  (g-norms
    are taken as |comps| / y, since the metric 1/y^2 overflows at q.)"""
    p = HALF_PLANE.point([0.0, 1.0])
    q = HALF_PLANE.point([0.0, 1e-300])
    v = HALF_PLANE.tangent(p, [1.0, -0.5])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        w = HALF_PLANE.transport(v, q)
        assert 690.0 < HALF_PLANE.distance(p, q) < 691.0
    assert w.base is q
    before = math.hypot(*v.comps) / p.coords[1]
    assert abs(math.hypot(*w.comps) / q.coords[1] - before) <= 1e-12 * before


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


FRAME_ROWS = ("random", "random", "axis", "near axis", "tiny", "zero")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), rows=st.lists(st.tuples(
    st.integers(0, 2 ** 32 - 1), st.sampled_from(FRAME_ROWS), st.booleans()),
    min_size=1, max_size=8))
def test_stacked_frames_equal_the_sequential_frame(dim, rows):
    """Each frame of a stack equals the per-point Gram-Schmidt bit for
    bit, on diagonal (chart-like) and tilted metrics, with vectors along
    a chart axis or within 1e-12 of one, whose first or second candidate
    is skipped, and a stack with a vector below DEGENERATE_NORM raises
    what the per-point frame raises at the first such row."""
    g, X = [], []
    for seed, kind, diagonal in rows:
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.05, 5.0, dim)
        Q = np.eye(dim) if diagonal else np.linalg.qr(
            rng.standard_normal((dim, dim)))[0]
        g.append((Q * w) @ Q.T)
        axis = np.eye(dim)[rng.integers(dim)] * rng.uniform(0.1, 3.0)
        X.append({"random": rng.standard_normal(dim), "axis": axis,
                  "near axis": axis + 1e-12 * rng.standard_normal(dim),
                  "tiny": 1e-15 * rng.standard_normal(dim),
                  "zero": np.zeros(dim)}[kind])
    g, X = np.array(g), np.array(X)
    x_norm = np.array([_g_norm(gi, xi) for gi, xi in zip(g, X)])
    want, message = [], None
    for gi, xi in zip(g, X):
        try:
            want.append(sequential_frame(gi, xi))
        except DegenerateDirectionError as exc:
            message = str(exc)
            break
    if message is None:
        got = _frames(g, X, x_norm)
        assert [E.tobytes() for E in got] == [E.tobytes() for E in want]
    else:
        with pytest.raises(DegenerateDirectionError) as info:
            _frames(g, X, x_norm)
        assert str(info.value) == message


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
    vecs = frame_vectors(fr)
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
    moved = e3.transport(v, e3.exp(p, e3.tangent(p, 2.0 * v.comps)))
    assert np.allclose(moved.comps, v.comps)
    assert np.allclose(moved.base.coords, p.coords + 2.0 * v.comps)
