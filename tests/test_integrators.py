"""Explicit and implicit geodesic Euler steps.

Oracles: geodesic arc-length identities, the defining implicit equation
re-evaluated from manifold primitives, the classical resolvent formula in
the euclidean chart, plain fixed-point iteration for the implicit step,
and a chart-coordinate RK4 flow for convergence order.
"""

import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from geostab import integrators
from geostab.errors import ChartExitError, GeostabError, NonconvergenceError
from geostab.experiments import get_example, theory_bound
from geostab.fields import (generic_field, h2_field, h2_singular_field,
                            linear_field, s2_field)
from geostab.integrators import (
    GIE_MAX_ITER,
    GIE_TOL,
    expansivity_ratio,
    gee_step,
    gie_step,
    integrate,
)
from geostab.manifolds import HALF_PLANE, Euclidean

from conftest import FIELD_FACTORIES, make_field, random_points
from odes import field_flow
from oracles import fixed_point_gie_step

EUCLID2 = Euclidean(2)

FIELD_NAMES = ("s2", "h2", "s3")


# ---------------------------------------------------------------------------
# explicit step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_gee_step_moves_arc_length_h_norm(name, rng):
    field = make_field(name, eps=0.8)
    m = field.manifold
    for p in random_points(m, rng, 6):
        for h in (1e-3, 0.05, 0.3):
            q = gee_step(field, p, h)
            assert abs(m.distance(p, q) - h * field.norm_at(p)) < 1e-10


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_gee_step_initial_direction_is_the_field(name, rng):
    field = make_field(name, eps=1.3)
    m = field.manifold
    for p in random_points(m, rng, 4):
        h = 0.12
        q = gee_step(field, p, h)
        u = m.log(p, q)
        assert np.allclose(u.comps, h * field.eval(p).comps, atol=1e-10)


def test_gee_step_zero_stepsize_is_identity(rng):
    field = make_field("s2", eps=1.0)
    p = random_points(field.manifold, rng, 1)[0]
    q = gee_step(field, p, 0.0)
    assert np.allclose(q.coords, p.coords, atol=1e-15)


# ---------------------------------------------------------------------------
# implicit step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_gie_step_satisfies_implicit_equation(name, rng):
    """The returned point q must solve p = exp_q(-h X|_q) to tolerance,
    re-checked here from manifold primitives."""
    field = make_field(name, eps=0.8)
    m = field.manifold
    for p in random_points(m, rng, 5):
        for h in (0.02, 0.2):
            q = gie_step(field, p, h)
            back = m.exp(q, m.tangent(q, -h * field.eval(q).comps))
            assert m.distance(back, p) <= GIE_TOL + 1e-15


def test_gie_step_euclidean_linear_is_resolvent(rng):
    """In the flat chart the implicit step is q = (I - h M)^{-1} p."""
    M = np.array([[-1.0, 0.7], [-0.4, -2.0]])
    field = linear_field(EUCLID2, M)
    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, size=2)
        p = EUCLID2.point(x)
        h = 0.37
        q = gie_step(field, p, h)
        want = np.linalg.solve(np.eye(2) - h * M, x)
        assert np.allclose(q.coords, want, atol=1e-11)


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_gie_step_inverts_explicit_step_of_reversed_field(name, rng):
    """gee with -X from q lands on p exactly when q solves the implicit
    equation from p."""
    field = make_field(name, eps=1.0)
    m = field.manifold
    reversed_field = generic_field(
        m, lambda c: -FIELD_FACTORIES[name](1.0).components(c))
    for p in random_points(m, rng, 4):
        q = gie_step(field, p, 0.15)
        back = gee_step(reversed_field, q, 0.15)
        assert m.distance(back, p) <= 10.0 * GIE_TOL


def test_gie_step_zero_stepsize_is_identity(rng):
    field = make_field("h2", eps=1.0)
    p = random_points(field.manifold, rng, 1)[0]
    q = gie_step(field, p, 0.0)
    assert np.allclose(q.coords, p.coords, atol=1e-15)


def test_gie_step_stiff_rotation_is_resolvent():
    """h times the spectral radius is 20, far past the range where plain
    fixed-point iteration converges; the Newton step solves the linear
    equation exactly."""
    M = np.array([[0.0, -40.0], [40.0, 0.0]])
    field = linear_field(EUCLID2, M)
    p = EUCLID2.point([1.0, 0.0])
    q = gie_step(field, p, 0.5)
    want = np.linalg.solve(np.eye(2) - 0.5 * M, p.coords)
    assert np.allclose(q.coords, want, rtol=0.0, atol=1e-11)


def test_gie_step_singular_jacobian_raises_nonconvergence():
    """I - h * grad X = diag(0, 1.5) is singular: no solution through p
    exists, and the step says so instead of leaking a LinAlgError."""
    field = linear_field(EUCLID2, np.diag([2.0, -1.0]))
    p = EUCLID2.point([1.0, 0.0])
    with pytest.raises(NonconvergenceError) as info:
        gie_step(field, p, 0.5)
    assert info.value.defect > GIE_TOL


def test_gie_step_nonconvergence_reports_defect():
    """1e-7 from the s2 chart pole the chart resolves the implicit
    equation only to about 1e-9, so the step stalls; the error carries
    the final defect and names the point, h and the iteration count."""
    field = s2_field(1.0)
    p = field.manifold.point([math.pi / 2 - 1e-7, 0.3])
    with pytest.raises(NonconvergenceError) as info:
        gie_step(field, p, 0.4)
    defect = info.value.defect
    assert math.isfinite(defect) and defect > GIE_TOL
    message = str(info.value)
    assert repr(p) in message and "h = 0.4" in message
    assert f"{GIE_MAX_ITER} iterations" in message


@pytest.mark.parametrize("eps, coords, h", [(0.5, (0.0, 1.0), 3.0),
                                             (1.0, (0.0, 0.3), 1.0)])
def test_gie_step_chart_exit_is_nonconvergence(eps, coords, h):
    """A Newton iterate that leaves the half-plane chart ends the step
    with NonconvergenceError, caused by the ChartExitError, naming the
    point, h and the iteration, and carrying the last finite defect."""
    field = h2_field(eps)
    p = HALF_PLANE.point(coords)
    with pytest.raises(NonconvergenceError) as info:
        gie_step(field, p, h)
    assert isinstance(info.value.__cause__, ChartExitError)
    assert math.isfinite(info.value.defect) and info.value.defect > GIE_TOL
    message = str(info.value)
    assert repr(p) in message and f"h = {h:.6g}" in message
    assert re.search(r"in iteration [1-9][0-9]* ", message)


def test_gie_step_converges_in_few_defect_evaluations(monkeypatch):
    """At each family's default base point, for every epsilon and every
    step up to the certified one, the step converges within 25 defect
    evaluations (plain fixed-point iteration fails 6 of these 27 and
    needs up to 165 on the others)."""
    calls = []
    defect = integrators._gie_defect

    def counted(*args):
        calls.append(None)
        return defect(*args)

    monkeypatch.setattr(integrators, "_gie_defect", counted)
    for name in FIELD_NAMES:
        family = get_example(name)
        p = family.manifold.point(family.to_coords(*family.default_base))
        for eps in (0.5, 1.0, 2.0):
            field = family.make_field(eps)
            h_cert = theory_bound(name, eps, p).h_max
            for fraction in (0.3, 0.5, 1.0):
                calls.clear()
                gie_step(field, p, fraction * h_cert)
                assert len(calls) <= 25, (name, eps, fraction, len(calls))


# chart boxes at least 1e-2 from every chart pole, on the side of the
# equator where the families' fields are cocoercive
GIE_BOXES = {
    "s2": ((0.3, math.pi / 2 - 1e-2), (0.0, 2.0 * math.pi)),
    "h2": ((-2.0, 2.0), (0.2, 5.0)),
    "s3": ((1e-2, 1.4), (1e-2, math.pi - 1e-2), (0.0, 2.0 * math.pi)),
}


@pytest.mark.parametrize("name", FIELD_NAMES)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), eps=st.floats(0.5, 2.0),
       fraction=st.floats(0.0, 1.0, exclude_min=True))
def test_gie_step_solves_up_to_certified_step(name, data, eps, fraction):
    """At random points, epsilon and steps up to the certified one, the
    step solves the implicit equation to GIE_TOL and, wherever plain
    fixed-point iteration converges, lands on its solution."""
    coords = tuple(data.draw(st.floats(lo, hi), label=f"coord{i}")
                   for i, (lo, hi) in enumerate(GIE_BOXES[name]))
    field = make_field(name, eps=eps)
    m = field.manifold
    p = m.point(coords)
    h = fraction * theory_bound(name, eps, p).h_max
    q = gie_step(field, p, h)
    back = m.exp(q, m.tangent(q, -h * field.eval(q).comps))
    assert m.distance(back, p) <= GIE_TOL + 1e-15
    try:
        reference = fixed_point_gie_step(field, p, h)
    except NonconvergenceError:
        return
    assert m.distance(q, reference) <= 1e-10


def test_gie_gee_gap_shrinks_quadratically(rng):
    field = make_field("s2", eps=1.0)
    m = field.manifold
    p = random_points(m, rng, 1)[0]
    gaps = []
    for h in (0.2, 0.1, 0.05):
        gaps.append(m.distance(gee_step(field, p, h), gie_step(field, p, h)))
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all(ratios > 3.2) and np.all(ratios < 4.8)


# ---------------------------------------------------------------------------
# trajectories and convergence order
# ---------------------------------------------------------------------------


def test_integrate_returns_inclusive_trajectory(rng):
    field = make_field("h2", eps=0.5)
    p = random_points(field.manifold, rng, 1)[0]
    traj = integrate(field, p, 0.05, 7)
    assert len(traj) == 8
    assert traj[0] is p
    assert np.allclose(traj[1].coords, gee_step(field, p, 0.05).coords)


def test_integrate_zero_steps(rng):
    field = make_field("s2", eps=1.0)
    p = random_points(field.manifold, rng, 1)[0]
    assert integrate(field, p, 0.1, 0) == [p]


def test_integrate_rejects_unknown_method(rng):
    field = make_field("s2", eps=1.0)
    p = random_points(field.manifold, rng, 1)[0]
    with pytest.raises(GeostabError, match="unknown method 'rk9'"):
        integrate(field, p, 0.1, 3, method="rk9")
    with pytest.raises(GeostabError, match="unknown method 'rk9'"):
        expansivity_ratio(field, p, gee_step(field, p, 0.1), 0.1,
                          method="rk9")


@pytest.mark.parametrize("name", FIELD_NAMES)
@pytest.mark.parametrize("method", ("gee", "gie"))
def test_first_order_convergence(name, method, rng):
    """Halving h halves the endpoint error against an accurate flow."""
    field = make_field(name, eps=1.0)
    m = field.manifold
    p = random_points(m, rng, 1)[0]
    T = 0.5
    ref = field_flow(field, p, T, step=1e-4)
    errs = []
    for n in (50, 100):
        end = integrate(field, p, T / n, n, method=method)[-1]
        errs.append(m.distance(end, ref))
    ratio = errs[0] / errs[1]
    assert abs(ratio - 2.0) < 0.1


# ---------------------------------------------------------------------------
# two-point expansivity
# ---------------------------------------------------------------------------


def test_expansivity_ratio_tends_to_one_with_h(rng):
    field = make_field("s2", eps=1.0)
    m = field.manifold
    p, q = random_points(m, rng, 2)
    r = expansivity_ratio(field, p, q, 1e-4)
    assert abs(r - 1.0) < 0.01


def test_expansivity_ratio_rejects_identical_points(rng):
    field = make_field("s2", eps=1.0)
    p = random_points(field.manifold, rng, 1)[0]
    with pytest.raises(GeostabError):
        expansivity_ratio(field, p, p, 0.1)


def test_singular_field_never_expands_any_step(rng):
    """The vertical half-plane field contracts the explicit step for
    every h, including very large ones."""
    field = h2_singular_field()
    m = HALF_PLANE
    pts = random_points(m, rng, 6)
    for h in (0.5, 5.0, 50.0):
        for p, q in zip(pts[::2], pts[1::2]):
            assert expansivity_ratio(field, p, q, h) <= 1.0 + 1e-9


def test_contracting_field_gie_ratio_below_one(rng):
    field = make_field("h2", eps=1.0)
    m = field.manifold
    p, q = random_points(m, rng, 2)
    assert expansivity_ratio(field, p, q, 0.2, method="gie") < 1.0
