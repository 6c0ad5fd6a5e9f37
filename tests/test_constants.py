"""Pointwise and regionwise stability constants.

Oracles: dense direction sampling of the defining variational problems,
and generalized symmetric eigenproblems solved by scipy.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    brute_alpha,
    brute_log_g_norm,
    brute_sigma,
    dense_directions,
    g_unit_directions_from_metric,
    make_field,
)

from geostab.constants import (
    RegionConstants,
    alpha_point,
    log_g_norm,
    mu_minus_point,
    mu_plus_point,
    point_constants,
    region_constants,
    sigma_point,
)
from geostab.errors import (
    GeostabError,
    NoFiniteAlphaError,
    NotCocoerciveError,
    SingularConnectionError,
    UnsupportedKernelError,
)
from geostab.fields import linear_field
from geostab.manifolds import HALF_PLANE, SPHERE2, Euclidean

EUCLID2 = Euclidean(2)


def s2_upper_points(rng, n):
    """Points with positive latitude, where the sphere example is
    cocoercive."""
    phi = rng.uniform(0.25, 1.3, size=n)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return [SPHERE2.point([a, b]) for a, b in zip(phi, theta)]


def random_spd(rng, d, lo=0.5, hi=3.0):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (Q * rng.uniform(lo, hi, d)) @ Q.T


def random_cocoercive(rng, d, g):
    """A whose whitened form is -lam*I - S + K with S psd and K skew:
    strictly one-sided contracting, hence a finite positive constant."""
    M = rng.standard_normal((d, d))
    S = M @ M.T / d
    K = rng.standard_normal((d, d))
    K = 0.5 * (K - K.T)
    B = -0.4 * np.eye(d) - S + K
    w, q = np.linalg.eigh(g)
    half = (q * np.sqrt(w)) @ q.T
    half_inv = (q / np.sqrt(w)) @ q.T
    return half_inv @ B @ half


# ---------------------------------------------------------------------------
# logarithmic norm
# ---------------------------------------------------------------------------


def test_log_g_norm_identity_metric():
    A = np.array([[-2.0, 1.0], [0.0, -1.0]])
    want = np.linalg.eigvalsh(0.5 * (A + A.T))[-1]
    assert abs(log_g_norm(A, np.eye(2)) - want) < 1e-14


def test_log_g_norm_matches_generalized_eigenproblem(rng):
    for d in (2, 3):
        for _ in range(6):
            g = random_spd(rng, d)
            A = rng.standard_normal((d, d))
            want = scipy.linalg.eigh(
                0.5 * (g @ A + A.T @ g), g, eigvals_only=True)[-1]
            assert abs(log_g_norm(A, g) - want) < 1e-11


def test_log_g_norm_matches_dense_sampling(rng):
    g = random_spd(rng, 2)
    A = rng.standard_normal((2, 2))
    got = log_g_norm(A, g)
    brute = brute_log_g_norm(A, g, n=20000)
    assert brute <= got + 1e-12
    assert brute >= got - 1e-5


def test_log_g_norm_sign_characterizes_contractivity(rng):
    """Nonpositive logarithmic norm exactly when the quadratic form
    <Av, v>_g is nonpositive in every direction."""
    g = random_spd(rng, 2)
    shrinking = random_cocoercive(rng, 2, g)
    growing = shrinking + 3.0 * np.linalg.inv(g)  # adds a positive form
    dirs = g_unit_directions_from_metric(2, g, 10000)
    for A in (shrinking, growing):
        forms = np.einsum("ij,jk,ik->i", dirs @ A.T, g, dirs)
        if log_g_norm(A, g) <= 0.0:
            assert np.all(forms <= 1e-10)
        else:
            assert np.any(forms > 1e-10)


# ---------------------------------------------------------------------------
# cocoercivity constant
# ---------------------------------------------------------------------------


def test_alpha_scalar_matrices():
    g = random_spd(np.random.default_rng(3), 2)
    assert abs(alpha_point(-np.eye(2), g) - 1.0) < 1e-12
    assert abs(alpha_point(-2.0 * np.eye(2), g) - 0.5) < 1e-12
    assert alpha_point(np.zeros((2, 2)), g) == math.inf


def test_alpha_expanding_matrix_is_negative():
    assert abs(alpha_point(np.eye(2), np.eye(2)) + 1.0) < 1e-12


def test_alpha_scaling_law(rng):
    g = random_spd(rng, 3)
    A = random_cocoercive(rng, 3, g)
    a = alpha_point(A, g)
    assert abs(alpha_point(2.5 * A, g) - a / 2.5) < 1e-12 * a


def test_alpha_orthogonal_kernel_allowed():
    assert abs(alpha_point(np.diag([-1.0, 0.0]), np.eye(2)) - 1.0) < 1e-12


def test_alpha_skew_kernel_rejected():
    A = np.array([[-1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NoFiniteAlphaError):
        alpha_point(A, np.eye(2))


def test_alpha_matches_dense_sampling(rng):
    for _ in range(5):
        g = random_spd(rng, 2)
        A = random_cocoercive(rng, 2, g)
        a = alpha_point(A, g)
        brute = brute_alpha(A, g, n=20000)
        assert brute >= a - 1e-12
        assert brute <= a + 1e-4 * (1.0 + abs(a))


def test_alpha_inequality_holds_in_bulk(rng):
    """The defining inequality sampled over 1e5 directions."""
    g = random_spd(rng, 3)
    A = random_cocoercive(rng, 3, g)
    a = alpha_point(A, g)
    dirs = dense_directions(3, 100000, rng)
    Av = dirs @ A.T
    lhs = np.einsum("ij,jk,ik->i", Av, g, dirs)
    sq = np.einsum("ij,jk,ik->i", Av, g, Av)
    assert np.all(lhs + a * sq <= 1e-9)


def test_alpha_is_attained(rng):
    """Optimality: some direction must come close to equality."""
    g = random_spd(rng, 2)
    A = random_cocoercive(rng, 2, g)
    a = alpha_point(A, g)
    dirs = dense_directions(2, 20000)
    Av = dirs @ A.T
    lhs = np.einsum("ij,jk,ik->i", Av, g, dirs)
    sq = np.einsum("ij,jk,ik->i", Av, g, Av)
    gap = -(lhs / sq) - a
    assert gap.min() >= -1e-12
    assert gap.min() <= 1e-6


def test_alpha_invariant_under_whitening(rng):
    g = random_spd(rng, 2)
    A = random_cocoercive(rng, 2, g)
    w, q = np.linalg.eigh(g)
    half = (q * np.sqrt(w)) @ q.T
    B = half @ A @ np.linalg.inv(half)
    assert abs(alpha_point(A, g) - alpha_point(B, np.eye(2))) < 1e-11


def test_cocoercive_implies_nonpositive_log_norm(rng):
    for _ in range(8):
        g = random_spd(rng, 3)
        A = random_cocoercive(rng, 3, g)
        if alpha_point(A, g) > 0.0:
            assert log_g_norm(A, g) <= 1e-12


def test_whitened_norm_bounded_by_inverse_alpha(rng):
    """|Av|_g <= |v|_g / alpha follows from the defining inequality by
    Cauchy-Schwarz; check the operator-norm version."""
    for _ in range(6):
        g = random_spd(rng, 3)
        A = random_cocoercive(rng, 3, g)
        a = alpha_point(A, g)
        w, q = np.linalg.eigh(g)
        half = (q * np.sqrt(w)) @ q.T
        B = half @ A @ ((q / np.sqrt(w)) @ q.T)
        smax = np.linalg.svd(B, compute_uv=False)[0]
        assert smax <= 1.0 / a + 1e-10


# ---------------------------------------------------------------------------
# projection constants
# ---------------------------------------------------------------------------


def test_mu_diagonal_example():
    A = np.diag([-0.5, -4.0])
    g = np.eye(2)
    X = np.array([1.0, 0.0])
    assert abs(mu_minus_point(A, g, X) - 2.0) < 1e-13
    assert abs(mu_plus_point(A, g, X) - 0.25) < 1e-13


def brute_mu(A, g, X, along_field, n=20000):
    gX = g @ X
    P = np.outer(X, gX) / float(X @ gX)
    Q = P if along_field else np.eye(len(X)) - P
    dirs = g_unit_directions_from_metric(len(X), g, n)
    vals = [-float(w @ g @ Q @ np.linalg.solve(A, w)) for w in dirs]
    return max(vals)


def test_mu_matches_dense_sampling(rng):
    for _ in range(4):
        g = random_spd(rng, 2)
        A = random_cocoercive(rng, 2, g)
        X = rng.standard_normal(2)
        for fn, along in ((mu_plus_point, False), (mu_minus_point, True)):
            got = fn(A, g, X)
            brute = brute_mu(A, g, X, along)
            assert brute <= got + 1e-12
            assert brute >= got - 1e-4 * (1.0 + abs(got))


def test_mu_raises_on_singular_matrix():
    A = np.diag([-1.0, 0.0])
    with pytest.raises(SingularConnectionError):
        mu_plus_point(A, np.eye(2), np.array([1.0, 0.0]))
    with pytest.raises(SingularConnectionError):
        mu_minus_point(A, np.eye(2), np.array([1.0, 0.0]))


def test_mu_plus_dominates_alpha_on_sphere_example(rng):
    """On the rotation-plus-gradient example the transverse projection
    constant is never below the cocoercivity constant."""
    field = make_field("s2", eps=1.0)
    for p in s2_upper_points(rng, 10):
        g = SPHERE2.metric(p)
        A = field.covariant_matrix(p)
        X = field.eval(p).comps
        assert mu_plus_point(A, g, X) >= alpha_point(A, g) - 1e-12


# ---------------------------------------------------------------------------
# inverse bound
# ---------------------------------------------------------------------------


def test_sigma_diagonal_example():
    A = np.diag([-2.0, -0.5])
    assert abs(sigma_point(A, np.eye(2)) - 2.0) < 1e-14


def test_sigma_matches_dense_sampling(rng):
    g = random_spd(rng, 2)
    A = random_cocoercive(rng, 2, g)
    got = sigma_point(A, g)
    brute = brute_sigma(A, g, n=20000)
    assert brute <= got + 1e-12
    assert brute >= got - 1e-4 * got


def test_sigma_singular_unrestricted_is_infinite():
    assert sigma_point(np.diag([-1.0, 0.0]), np.eye(2)) == math.inf
    assert sigma_point(np.zeros((2, 2)), np.eye(2)) == math.inf


def test_sigma_restricted_uses_smallest_nonzero():
    got = sigma_point(np.diag([-2.0, 0.0]), np.eye(2),
                      restrict_to_range=True)
    assert abs(got - 0.5) < 1e-14


def test_sigma_restricted_rejects_large_kernel():
    with pytest.raises(UnsupportedKernelError):
        sigma_point(np.diag([-2.0, 0.0, 0.0]), np.eye(3),
                    restrict_to_range=True)
    with pytest.raises(UnsupportedKernelError):
        sigma_point(np.zeros((2, 2)), np.eye(2), restrict_to_range=True)


def test_sigma_regular_matrix_ignores_restriction_flag(rng):
    g = random_spd(rng, 2)
    A = random_cocoercive(rng, 2, g)
    assert abs(sigma_point(A, g) - sigma_point(A, g, restrict_to_range=True)
               ) < 1e-14


# ---------------------------------------------------------------------------
# region aggregation
# ---------------------------------------------------------------------------


def test_region_aggregates_min_and_max(rng):
    field = make_field("s2", eps=1.0)
    pts = s2_upper_points(rng, 5)
    singles = [point_constants(field, SPHERE2, p) for p in pts]
    region = region_constants(field, SPHERE2, pts)
    assert region.alpha == min(s.alpha for s in singles)
    assert region.mu_plus == max(s.mu_plus for s in singles)
    assert region.mu_minus == max(s.mu_minus for s in singles)
    assert region.sigma == max(s.sigma for s in singles)
    assert region.sup_norm == max(s.sup_norm for s in singles)
    assert region.rho == 1.0
    assert region.n_points == 5


def test_region_empty_sampler_raises():
    field = make_field("h2", eps=0.5)
    with pytest.raises(GeostabError):
        region_constants(field, HALF_PLANE, [])


def test_region_not_cocoercive_lists_points():
    field = linear_field(EUCLID2, np.eye(2))
    pts = [EUCLID2.point([1.0, 0.0]), EUCLID2.point([0.0, 1.0])]
    with pytest.raises(NotCocoerciveError) as info:
        region_constants(field, EUCLID2, pts)
    assert len(info.value.points) == 2


def test_region_singular_example_falls_back():
    """Vertical field on the half-plane: projection constants are
    unavailable, the inverse bound restricts to the range."""
    field = make_field("h2-singular")
    pts = [HALF_PLANE.point([0.0, y]) for y in (0.5, 1.0, 4.0)]
    consts = region_constants(field, HALF_PLANE, pts)
    assert consts.alpha == pytest.approx(1.0, abs=1e-12)
    assert consts.mu_plus == math.inf
    assert consts.mu_minus == math.inf
    assert consts.sigma == pytest.approx(1.0, abs=1e-12)
    assert consts.sup_norm == pytest.approx(1.0, abs=1e-12)
    assert consts.rho == -1.0


def test_point_constants_matches_single_point_region(rng):
    field = make_field("s2", eps=2.0)
    p = s2_upper_points(rng, 1)[0]
    assert point_constants(field, SPHERE2, p) == region_constants(
        field, SPHERE2, [p])


def test_region_constants_is_frozen():
    c = RegionConstants(1.0, 2.0, 3.0, 4.0, 5.0, -1.0, 1)
    with pytest.raises(Exception):
        c.alpha = 2.0


def test_metric_must_be_positive_definite():
    with pytest.raises(GeostabError):
        log_g_norm(np.eye(2), np.diag([1.0, -1.0]))
