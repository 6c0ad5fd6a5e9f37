"""Curvature kernels and variation fields.

Oracles: 50+ digit mpmath evaluation for the scalar kernels (with the
working precision raised with kappa so the reference itself never
cancels), and batched RK4 integration of the variation equation for the
norm formulas.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import linear_field, random_points, random_tangent, unit_tangent
from odes import BatchVariationState, integrate_batch, metric_batch
from oracles import (ck, coeff_jacobi_norm, jacobi_coeffs, jacobi_eval,
                     norm_diff, sk)

import geostab.jacobi as jacobi
from geostab.errors import DegenerateDirectionError, GeostabError
from geostab.fields import s2_field
from geostab.jacobi import (
    GROWTH_KAPPA_CAP,
    JacobiData,
    SERIES_KAPPA,
    SPLIT_KAPPA,
    CurvatureSign,
    _SINHC_SERIES,
    _one_minus_sinc,
    _series_or_direct,
    _sinhc_minus_one,
    curvature_penalty,
    curvature_sign,
    f_functions,
    gee_jacobi_data,
    jacobi_norm,
    variation_data,
    variation_form,
)
from geostab.manifolds import HALF_PLANE, SPHERE2, SPHERE3, Euclidean, Frame

POS = CurvatureSign.POSITIVE
NEG = CurvatureSign.NEGATIVE
ZERO = CurvatureSign.ZERO


def mp_f_raw(kappa, sign):
    """Reference f-functions in mpf arithmetic; precision grows with
    kappa so the direct differences stay exact."""
    mp.mp.dps = 60 + int(1.2 * float(kappa))
    k = mp.mpf(float(kappa))
    if k == 0:
        return mp.mpf(0), mp.mpf(0), mp.mpf(0)
    if sign is POS:
        c, s = mp.cos(k), mp.sin(k) / k
        return 1 - c * c, 1 - mp.sin(2 * k) / (2 * k), 1 - s * s
    c, s = mp.cosh(k), mp.sinh(k) / k
    return c * c - 1, mp.sinh(2 * k) / (2 * k) - 1, s * s - 1


def mp_f_functions(kappa, sign):
    return tuple(float(x) for x in mp_f_raw(kappa, sign))


def mp_penalty(kappa, sign):
    f1, f2, f3 = mp_f_raw(kappa, sign)
    return float(f2 - mp.sqrt(f1 * f3))


# ---------------------------------------------------------------------------
# signs and elementary kernels
# ---------------------------------------------------------------------------


def test_curvature_sign_mapping():
    assert curvature_sign(1.0) is POS
    assert curvature_sign(-1.0) is NEG
    assert curvature_sign(0.0) is ZERO


def test_ck_sk_elementary_values():
    assert abs(ck(2.0, 0.5, POS) - math.cos(1.0)) < 1e-15
    assert abs(sk(2.0, 0.5, POS) - math.sin(1.0) / 2.0) < 1e-15
    assert abs(ck(2.0, 0.5, NEG) - math.cosh(1.0)) < 1e-15
    assert abs(sk(2.0, 0.5, NEG) - math.sinh(1.0) / 2.0) < 1e-15
    assert ck(2.0, 0.5, ZERO) == 1.0
    assert sk(2.0, 0.5, ZERO) == 0.5


def test_sk_limit_at_zero_kappa():
    for sign in (POS, NEG, ZERO):
        assert abs(sk(1e-300, 0.7, sign) - 0.7) < 1e-15


# ---------------------------------------------------------------------------
# f-functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sign", [POS, NEG], ids=["positive", "negative"])
def test_f_functions_match_direct_forms(sign):
    """Above the cancellation region the defining combinations of the
    cosine/sine factors must agree with the stable forms."""
    for kappa in np.linspace(0.05, 6.0, 40):
        c = ck(kappa, 1.0, sign)
        s = sk(kappa, 1.0, sign)
        sgn = float(sign.value)
        f1, f2, f3 = f_functions(kappa, sign)
        assert abs(f1 - sgn * (1.0 - c * c)) <= 1e-10 * max(1.0, abs(f1))
        assert abs(f2 - sgn * (1.0 - c * s)) <= 1e-10 * max(1.0, abs(f2))
        assert abs(f3 - sgn * (1.0 - s * s)) <= 1e-10 * max(1.0, abs(f3))


@pytest.mark.parametrize("sign", [POS, NEG], ids=["positive", "negative"])
def test_f_functions_small_kappa_high_precision(sign):
    """The f-functions at small kappa against mpmath; the scalar kernels
    themselves are checked to 1e-14 in
    test_series_kernels_against_mpmath."""
    for kappa in (1e-8, 1e-6, 1e-5, 4e-5):
        got = f_functions(kappa, sign)
        want = mp_f_functions(kappa, sign)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * abs(w)
    for kappa in (9e-5, 1.5e-4, 1e-3, 1e-2):
        got = f_functions(kappa, sign)
        want = mp_f_functions(kappa, sign)
        for g, w in zip(got, want):
            assert abs(g - w) <= 2e-7 * abs(w)


def test_series_kernels_against_mpmath():
    """sinh(u)/u - 1 and 1 - sin(u)/u keep 1e-14 relative accuracy on a
    log grid of u in [1e-8, 2], across the series switch and just above
    1e-4, where the direct forms cancel to 1e-8, for arrays and for
    scalars alike."""
    us = np.concatenate([np.geomspace(1e-8, 2.0, 601),
                         [1.04e-4, 1e-3, SERIES_KAPPA * (1.0 - 1e-12),
                          SERIES_KAPPA]])
    mp.mp.dps = 40
    for u, sh, s in zip(us, _sinhc_minus_one(us), _one_minus_sinc(us)):
        m = mp.mpf(float(u))
        want_sh = float(mp.sinh(m) / m - 1)
        want_s = float(1 - mp.sin(m) / m)
        assert abs(sh - want_sh) <= 1e-14 * want_sh, u
        assert abs(s - want_s) <= 1e-14 * want_s, u
        # scalars take their own path; it must give the same values
        assert _sinhc_minus_one(u) == sh and _one_minus_sinc(u) == s, u


def test_direct_form_is_evaluated_only_where_it_serves(monkeypatch):
    """The direct sinh(u)/u - 1 sees only the elements at or above
    SERIES_KAPPA of a mixed array, and the series only those below it;
    neither is called for an array or a scalar wholly outside its range,
    and each element gives what it gives alone."""
    seen, series = [], []
    even_series = jacobi._even_series

    def direct(x):
        seen.append(np.array(x, ndmin=1))
        return np.sinh(x) / x - 1.0

    def counted_series(u2, coeffs):
        series.append(np.array(u2, ndmin=1))
        return even_series(u2, coeffs)

    monkeypatch.setattr(jacobi, "_even_series", counted_series)
    us = np.concatenate([np.linspace(0.0, 3.0, 31), [300.0, -2.0, -0.5]])
    got = _series_or_direct(us, _SINHC_SERIES, direct)
    assert np.array_equal(np.concatenate(seen), us[np.abs(us) >= 1.0])
    small = us[np.abs(us) < 1.0]
    assert np.array_equal(np.concatenate(series), small * small)
    for u, g in zip(us.tolist(), got.tolist()):
        assert _series_or_direct(u, _SINHC_SERIES, direct) == g
    seen.clear()
    _series_or_direct(np.linspace(0.0, 0.9, 7), _SINHC_SERIES, direct)
    _series_or_direct(0.5, _SINHC_SERIES, direct)
    assert not seen
    series.clear()
    _series_or_direct(np.linspace(1.0, 9.0, 7), _SINHC_SERIES, direct)
    _series_or_direct(1.0, _SINHC_SERIES, direct)
    _series_or_direct(-4.0, _SINHC_SERIES, direct)
    assert not series


@pytest.mark.parametrize("sign", [POS, NEG], ids=["positive", "negative"])
def test_f_functions_continuous_at_series_threshold(sign):
    lo = f_functions(SERIES_KAPPA * (1.0 - 1e-9), sign)
    hi = f_functions(SERIES_KAPPA * (1.0 + 1e-9), sign)
    for a, b in zip(lo, hi):
        assert abs(a - b) <= 1e-6 * abs(a)


def test_f_functions_nonnegative_and_zero_at_zero():
    grid = np.geomspace(1e-12, 10.0, 300)
    for sign in (POS, NEG):
        f1, f2, f3 = f_functions(grid, sign)
        assert np.all(f1 >= 0) and np.all(f2 >= 0) and np.all(f3 >= 0)
        assert f_functions(0.0, sign) == (0.0, 0.0, 0.0)


def test_f_functions_flat_sign_identically_zero():
    f1, f2, f3 = f_functions(np.linspace(0, 9, 10), ZERO)
    assert not f1.any() and not f2.any() and not f3.any()


def test_f_functions_scalar_and_vector_types():
    out = f_functions(0.3, POS)
    assert all(isinstance(x, float) for x in out)
    out = f_functions(np.array([0.3, 0.4]), NEG)
    assert all(isinstance(x, np.ndarray) and x.shape == (2,) for x in out)


def test_f_functions_reject_negative_kappa():
    with pytest.raises(GeostabError):
        f_functions(-0.1, POS)
    with pytest.raises(GeostabError):
        f_functions(np.array([0.2, -0.3]), NEG)


def test_damping_ratio_identity():
    """(1 + f2)/(1 + f3) telescopes to kappa*coth(kappa) on the
    negative branch."""
    grid = np.linspace(1e-3, 20.0, 2000)
    f1, f2, f3 = f_functions(grid, NEG)
    lhs = (1.0 + f2) / (1.0 + f3)
    rhs = grid * np.cosh(grid) / np.sinh(grid)
    assert np.all(np.abs(lhs - rhs) <= 1e-10 * rhs)


# ---------------------------------------------------------------------------
# curvature penalty
# ---------------------------------------------------------------------------


def test_penalty_matches_high_precision_reference():
    for kappa in np.geomspace(1e-6, 50.0, 30):
        got = curvature_penalty(float(kappa), NEG)
        want = mp_penalty(kappa, NEG)
        tol = 2e-7 if kappa < 1e-2 else 1e-11
        assert abs(got - want) <= tol * abs(want)
    for kappa in np.geomspace(1e-6, 40.0, 30):
        got = curvature_penalty(float(kappa), POS)
        want = mp_penalty(kappa, POS)
        tol = 2e-7 if kappa < 1e-2 else 1e-11
        assert abs(got - want) <= tol * max(abs(want), 1e-300)


def test_penalty_value_at_pi():
    assert abs(curvature_penalty(math.pi, POS) - 1.0) < 1e-14


def test_penalty_nonnegative_everywhere():
    grid = np.geomspace(1e-10, 1000.0, 5000)
    assert np.all(curvature_penalty(grid, NEG) >= 0.0)
    assert np.all(curvature_penalty(np.linspace(0, 30, 5000), POS) >= 0.0)
    assert curvature_penalty(0.0, POS) == 0.0
    assert curvature_penalty(0.0, NEG) == 0.0
    assert not curvature_penalty(np.linspace(0, 5, 50), ZERO).any()


def test_penalty_positive_nondecreasing_to_pi():
    grid = np.linspace(0.0, math.pi, 10000)
    vals = curvature_penalty(grid, POS)
    assert np.all(np.diff(vals) >= -1e-15)


def test_penalty_negative_linear_asymptote():
    got = curvature_penalty(20.0, NEG)
    assert abs(got - 9.0) <= 0.02 * 9.0
    # far out the asymptote kappa/2 + 1/(2 kappa) - 1 takes over exactly
    assert abs(curvature_penalty(500.0, NEG) - (250.0 + 0.001 - 1.0)) < 1e-9


def test_penalty_small_kappa_quadratic_coefficient():
    """G(kappa) = (2/3 - 1/sqrt(3)) kappa^2 + O(kappa^4) on both
    curved branches."""
    coef = 2.0 / 3.0 - 1.0 / math.sqrt(3.0)
    for sign in (POS, NEG):
        got = curvature_penalty(1e-3, sign) / 1e-6
        assert abs(got - coef) <= 1e-3 * coef


def test_penalty_rejects_negative_kappa():
    with pytest.raises(GeostabError):
        curvature_penalty(-1.0, NEG)


# ---------------------------------------------------------------------------
# variation data
# ---------------------------------------------------------------------------


def test_variation_data_coefficients_reconstruct(rng):
    p = SPHERE3.point([1.0, 1.2, 0.7])
    u = random_tangent(SPHERE3, p, rng, scale=1.4)
    v = random_tangent(SPHERE3, p, rng, scale=0.8)
    w = random_tangent(SPHERE3, p, rng, scale=0.6)
    data = variation_data(v, w, u)
    E = SPHERE3.frame(p, u).matrix
    assert np.allclose(E @ data.a, v.comps, atol=1e-12)
    assert np.allclose(E @ data.b, w.comps, atol=1e-12)
    assert abs(data.kappa - 1.4) < 1e-12  # sqrt(|rho|) = 1
    assert data.sign is POS


def test_variation_data_requires_shared_base(rng):
    p = SPHERE2.point([0.1, 0.2])
    q = SPHERE2.point([0.3, 0.2])
    v = SPHERE2.tangent(p, [1.0, 0.0])
    w = SPHERE2.tangent(q, [1.0, 0.0])
    with pytest.raises(GeostabError):
        variation_data(v, w, v)


def test_variation_data_rejects_degenerate_direction():
    p = HALF_PLANE.point([0.0, 1.0])
    v = HALF_PLANE.tangent(p, [1.0, 0.0])
    with pytest.raises(DegenerateDirectionError):
        variation_data(v, v, HALF_PLANE.zero_vector(p))


def test_jacobi_coeffs_first_component_linear():
    p = HALF_PLANE.point([0.0, 1.0])
    u = HALF_PLANE.tangent(p, [0.0, 2.0])
    v = HALF_PLANE.tangent(p, [0.5, 1.0])
    w = HALF_PLANE.tangent(p, [-0.25, 0.5])
    data = variation_data(v, w, u)
    for t in (0.0, 0.5, 1.0, 2.0):
        coeffs = jacobi_coeffs(data, t)
        assert abs(coeffs[0] - (data.a[0] + data.b[0] * t)) < 1e-14
    assert np.allclose(jacobi_coeffs(data, 0.0), data.a)


def test_jacobi_norm_at_zero_is_initial_norm(rng):
    p = SPHERE2.point([0.4, 1.0])
    u = random_tangent(SPHERE2, p, rng, scale=1.0)
    v = random_tangent(SPHERE2, p, rng, scale=1.3)
    w = random_tangent(SPHERE2, p, rng, scale=0.2)
    data = variation_data(v, w, u)
    assert abs(jacobi_norm(data, 0.0) - 1.3) < 1e-12


SIGNS = st.sampled_from([POS, NEG, ZERO])
COEFFS = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(sign=SIGNS, a=COEFFS, b=COEFFS, dim=st.sampled_from([2, 3]),
       t=st.floats(0.0, 1.0), kappa=st.floats(0.0, 340.0))
@example(sign=POS, a=[0.3, -1.2, 0.7], b=[1.1, 0.4, -2.0], dim=3, t=0.6,
         kappa=0.0)
@example(sign=NEG, a=[0.3, -1.2, 0.7], b=[1.1, 0.4, -2.0], dim=3, t=0.5,
         kappa=2.0)
@example(sign=NEG, a=[0.3, -1.2, 0.7], b=[1.1, 0.4, -2.0], dim=2, t=1.0,
         kappa=30.0)
@example(sign=POS, a=[0.3, -1.2, 0.7], b=[1.1, 0.4, -2.0], dim=3, t=0.25,
         kappa=120.0)
@example(sign=NEG, a=[0.0, 0.0, 0.0], b=[0.0, 7.3097273793824685e-177, 0.0],
         dim=2, t=1.0, kappa=38.0)
def test_jacobi_norm_matches_cosine_sine_coefficients(sign, a, b, dim, t,
                                                      kappa):
    """|J(t)| read from variation_form equals the norm of the frame
    coefficients a c(t) + b s(t) to 1e-11 relative, on every branch up
    to kappa*t = 340, across the series and split switches.  The form
    adds |J(0)|^2 = |a|^2 to a change that may nearly cancel it, so
    |J(t)|^2 is compared relative to |J(t)|^2 + |a|^2 + |t b|^2."""
    data = JacobiData(np.array(a[:dim]), np.array(b[:dim]), kappa, sign)
    want = coeff_jacobi_norm(data, t)
    got = jacobi_norm(data, t)
    scale = want ** 2 + data.a @ data.a + t * t * (data.b @ data.b)
    assert abs(got ** 2 - want ** 2) <= 1e-11 * scale


@pytest.mark.parametrize("sign", [POS, NEG, ZERO], ids=["pos", "neg", "zero"])
def test_jacobi_norm_exact_under_power_of_two_scaling(sign):
    """Scaling a and b by 2^k scales |J(t)| by 2^k exactly, also where
    the squares of the scaled coefficients leave the double range."""
    a, b = np.array([0.3, -1.2, 0.7]), np.array([1.1, 0.4, -2.0])
    base = jacobi_norm(JacobiData(a, b, 38.0, sign), 0.7)
    for k in (-900, -600, -40, 40, 600):
        data = JacobiData(np.ldexp(a, k), np.ldexp(b, k), 38.0, sign)
        assert jacobi_norm(data, 0.7) == math.ldexp(base, k), k


def test_jacobi_norm_rejects_the_rescaled_negative_form():
    """Past kappa*t = GROWTH_KAPPA_CAP variation_form is only a positive
    multiple of the negative-branch form, so no norm is read from it."""
    data = JacobiData(np.array([1.0, 0.5]), np.array([0.2, -0.3]), 702.0,
                      NEG)
    assert math.isfinite(jacobi_norm(data, 0.49))  # kappa*t = 343.98
    with pytest.raises(GeostabError):
        jacobi_norm(data, 0.5)  # kappa*t = 351
    with pytest.raises(GeostabError):
        jacobi_norm(JacobiData(data.a, data.b, 351.0, NEG), 1.0)
    assert math.isfinite(jacobi_norm(JacobiData(data.a, data.b, 351.0, POS),
                                     1.0))


def test_jacobi_eval_in_base_frame(rng):
    p = SPHERE2.point([-0.2, 2.0])
    u = random_tangent(SPHERE2, p, rng)
    v = random_tangent(SPHERE2, p, rng, scale=0.9)
    w = random_tangent(SPHERE2, p, rng, scale=0.4)
    data = variation_data(v, w, u)
    frame0 = SPHERE2.frame(p, u)
    assert np.allclose(jacobi_eval(data, frame0, 0.0).comps, v.comps,
                       atol=1e-12)


def test_norm_diff_invariant_under_rotated_completion(rng):
    """The cross-component sums only involve rotation-invariant
    quantities, so any orthonormal completion gives the same value."""
    p = SPHERE3.point([0.9, 1.4, 0.3])
    u = random_tangent(SPHERE3, p, rng, scale=1.2)
    v = random_tangent(SPHERE3, p, rng, scale=0.7)
    w = random_tangent(SPHERE3, p, rng, scale=1.1)
    value = norm_diff(v, w, u)

    g = SPHERE3.metric(p)
    E = SPHERE3.frame(p, u).matrix
    om = 1.234
    R = np.array([[1.0, 0.0, 0.0],
                  [0.0, math.cos(om), -math.sin(om)],
                  [0.0, math.sin(om), math.cos(om)]])
    Er = E @ R
    a = Er.T @ g @ v.comps
    b = Er.T @ g @ w.comps
    kappa = SPHERE3.norm(u)
    f1, f2, f3 = f_functions(kappa, POS)
    cross = a[1:] @ a[1:] * f1 + 2.0 * (a[1:] @ b[1:]) * f2 \
        + b[1:] @ b[1:] * f3
    rotated = float(b @ b + 2.0 * (a @ b) - cross)
    assert abs(rotated - value) <= 1e-12 * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# norm_diff against the integrated variation equation
# ---------------------------------------------------------------------------


def batch_ode_norm_diff(model, vs, ws, us, step=1e-3):
    """|J(1)|^2 - |J(0)|^2 for many cases at once by RK4."""
    p_coords = np.stack([v.base.coords for v in vs])
    state = BatchVariationState(
        p_coords,
        np.stack([u.comps for u in us]),
        np.zeros((len(vs), model.dim, 0)),
        np.stack([v.comps for v in vs]),
        np.stack([w.comps for w in ws]))
    out = integrate_batch(model, state, 1.0, step)
    g1 = metric_batch(model, out.coords)
    n1 = np.einsum("mi,mij,mj->m", out.jac, g1, out.jac)
    g0 = metric_batch(model, p_coords)
    v0 = np.stack([v.comps for v in vs])
    n0 = np.einsum("mi,mij,mj->m", v0, g0, v0)
    return n1 - n0


def sample_cases(model, rng, count):
    """Base points and geodesic speeds chosen so the comparison
    geodesics stay away from chart singularities, where the RK4 oracle
    itself would lose accuracy."""
    if model is SPHERE2:
        pts = [SPHERE2.point([a, b]) for a, b in zip(
            rng.uniform(-0.6, 0.6, count),
            rng.uniform(0.0, 2.0 * math.pi, count))]
        u_hi = 0.8
    elif model is HALF_PLANE:
        pts = [HALF_PLANE.point([a, b]) for a, b in zip(
            rng.uniform(-2.0, 2.0, count), rng.uniform(0.5, 3.0, count))]
        u_hi = 0.8
    else:
        pts = [SPHERE3.point([a, b, c]) for a, b, c in zip(
            rng.uniform(1.0, math.pi - 1.0, count),
            rng.uniform(1.0, math.pi - 1.0, count),
            rng.uniform(0.0, 2.0 * math.pi, count))]
        u_hi = 0.6
    us = [random_tangent(model, p, rng, scale=s)
          for p, s in zip(pts, rng.uniform(0.3, u_hi, count))]
    vs = [random_tangent(model, p, rng, scale=s)
          for p, s in zip(pts, rng.uniform(0.2, 1.2, count))]
    ws = [random_tangent(model, p, rng, scale=s)
          for p, s in zip(pts, rng.uniform(0.2, 1.2, count))]
    return vs, ws, us


@pytest.mark.parametrize("model,count", [(SPHERE2, 70), (HALF_PLANE, 70),
                                         (SPHERE3, 60)],
                         ids=["s2", "h2", "s3"])
def test_norm_diff_matches_variation_ode(model, count, rng):
    vs, ws, us = sample_cases(model, rng, count)
    want = batch_ode_norm_diff(model, vs, ws, us, step=3e-4)
    for i in range(count):
        got = norm_diff(vs[i], ws[i], us[i])
        scale = max(1.0, abs(want[i]))
        assert abs(got - want[i]) <= 1e-7 * scale


@pytest.mark.parametrize("kappa", [1e-8, 1e-4, 0.5, 1.0, 2.0, 40.0])
def test_variation_form_negative_branch_against_mpmath(kappa, rng):
    """Both sides of the kappa = 1 switch to the expm1 split stay
    accurate with rates b much larger than kappa * a, where the split
    alone would lose digits at small kappa."""
    mp.mp.dps = 60 + int(kappa)
    k = mp.mpf(kappa)
    c, s = mp.cosh(k), mp.sinh(k) / k
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        am, bm = [mp.mpf(float(x)) for x in a], [mp.mpf(float(x)) for x in b]
        want = float((am[0] + bm[0]) ** 2 - am[0] ** 2 + sum(
            (am[i] * c + bm[i] * s) ** 2 - am[i] ** 2 for i in (1, 2)))
        got = variation_form(a, b, kappa, NEG)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("sign", [POS, NEG, ZERO], ids=["pos", "neg", "zero"])
@pytest.mark.parametrize("kappa", [0.3, 5.0, 400.0])
def test_variation_form_matrix_matches_vectors(sign, kappa, rng):
    """With a = I and b = B the matrix form reproduces the change of
    every single variation (x, B x), including the rescaled form
    beyond kappa = 350."""
    B = rng.normal(size=(3, 3))
    M = variation_form(np.eye(3), B, kappa, sign)
    assert np.allclose(M, M.T, rtol=1e-15, atol=0.0)
    for x in rng.normal(size=(5, 3)):
        want = variation_form(x, B @ x, kappa, sign)
        assert abs(x @ M @ x - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("sign", [POS, NEG, ZERO], ids=["pos", "neg", "zero"])
def test_variation_form_stack_matches_scalar_calls(sign, rng):
    """A stack of kappas, below SPLIT_KAPPA, at and above it, and beyond
    GROWTH_KAPPA_CAP, gives each element's scalar matrix bit for bit,
    against a shared a = I and against stacked a.  (numpy's expm1 and
    exp differ from the math module's in the last bit for about one
    argument in ten, so many kappas are needed to see such a slip.)"""
    kappa = np.concatenate([[0.999, SPLIT_KAPPA, GROWTH_KAPPA_CAP],
                            np.geomspace(1e-5, 1e3, 150)])
    assert kappa.min() < SPLIT_KAPPA and kappa.max() > GROWTH_KAPPA_CAP
    for d, k in ((2, 2), (3, 3), (3, 2)):
        B = rng.normal(size=(kappa.size, d, k))
        A = rng.normal(size=(kappa.size, d, k))
        eye = np.eye(d)[:, :k]
        for a in (eye, A):
            stack = variation_form(a, B, kappa, sign)
            assert stack.shape == (kappa.size, k, k)
            for i, kap in enumerate(kappa.tolist()):
                one = variation_form(a if a.ndim == 2 else a[i], B[i], kap,
                                     sign)
                assert np.array_equal(stack[i], one)


def test_norm_diff_flat_case_exact(rng):
    e2 = Euclidean(2)
    p = e2.point([0.3, -0.8])
    u = e2.tangent(p, [1.0, 0.5])
    v = e2.tangent(p, [0.2, -0.4])
    w = e2.tangent(p, [-0.7, 0.1])
    got = norm_diff(v, w, u)
    j1 = v.comps + w.comps
    want = float(j1 @ j1 - v.comps @ v.comps)
    assert abs(got - want) < 1e-14


def test_jacobi_eval_matches_ode_endpoint(rng):
    """Realize J(1) in the transported frame and compare with the
    directly integrated variation field."""
    p = SPHERE2.point([0.25, 0.75])
    u = random_tangent(SPHERE2, p, rng, scale=1.1)
    v = random_tangent(SPHERE2, p, rng, scale=0.8)
    w = random_tangent(SPHERE2, p, rng, scale=0.5)
    data = variation_data(v, w, u)
    E = SPHERE2.frame(p, u).matrix
    state = BatchVariationState(
        p.coords[None].copy(), u.comps[None].copy(), E[None].copy(),
        v.comps[None].copy(), w.comps[None].copy())
    out = integrate_batch(SPHERE2, state, 1.0, 1e-3)
    q = SPHERE2.point(out.coords[0])
    frame1 = Frame(q, out.cols[0])
    got = jacobi_eval(data, frame1, 1.0)
    assert np.allclose(got.comps, out.jac[0], atol=1e-7)
    g1 = SPHERE2.metric(q)
    ode_norm = math.sqrt(float(out.jac[0] @ g1 @ out.jac[0]))
    assert abs(jacobi_norm(data, 1.0) - ode_norm) < 1e-8


# ---------------------------------------------------------------------------
# variation data of one explicit step
# ---------------------------------------------------------------------------


def test_gee_jacobi_data_contents(rng):
    field = s2_field(0.8)
    p = SPHERE2.point([0.5, 2.0])
    e = unit_tangent(SPHERE2, p, rng)
    h = 0.3
    data = gee_jacobi_data(field, p, e, h)
    E = SPHERE2.frame(p, SPHERE2.tangent(p, h * field.eval(p).comps)).matrix
    g = SPHERE2.metric(p)
    A = field.covariant_matrix(p)
    assert np.allclose(data.a, E.T @ g @ e.comps, atol=1e-13)
    assert np.allclose(data.b, E.T @ g @ (h * (A @ e.comps)), atol=1e-13)
    assert abs(data.kappa - h * field.norm_at(p)) < 1e-13
    assert data.sign is POS
    assert abs(jacobi_norm(data, 0.0) - 1.0) < 1e-12


def test_gee_jacobi_data_rejects_stationary_point(rng):
    from geostab.errors import StationaryPointError
    e2 = Euclidean(2)
    field = linear_field(e2, -np.eye(2))
    origin = e2.point([0.0, 0.0])
    e = e2.tangent(origin, [1.0, 0.0])
    with pytest.raises(StationaryPointError):
        gee_jacobi_data(field, origin, e, 0.1)
