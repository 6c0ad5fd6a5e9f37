"""Pointwise and regionwise stability constants.

Oracles: dense direction sampling of the defining variational problems,
and generalized symmetric eigenproblems solved by scipy.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_alpha,
    brute_log_g_norm,
    brute_sigma,
    dense_directions,
    g_unit_directions_from_metric,
    linear_field,
    make_field,
)

from geostab.constants import (
    RegionConstants,
    _aggregate,
    _constant_rows,
    _full_rank_rows,
    _point_row,
    alpha_point,
    mu_minus_point,
    mu_plus_point,
    point_constants,
    region_constants,
    sigma_point,
)
from geostab.errors import (
    DegenerateDirectionError,
    GeostabError,
    NoFiniteAlphaError,
    NotCocoerciveError,
    SingularConnectionError,
    UnsupportedKernelError,
)
from geostab.experiments import get_example
from geostab.fields import FieldModel
from geostab.manifolds import HALF_PLANE, SPHERE2, Euclidean

from oracles import log_g_norm, sequential_region_constants

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


# ---------------------------------------------------------------------------
# the stacked pass
# ---------------------------------------------------------------------------


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def raised(exc):
    points = getattr(exc, "points", None)
    return (type(exc), str(exc),
            None if points is None else [bits(p.coords) for p in points])


def outcome(fn, *args):
    """What fn(*args) does: the bits of the constants it returns, or the
    type, message and point coordinates of what it raises."""
    try:
        c = fn(*args)
    except Exception as exc:  # compared as a value
        return raised(exc)
    return tuple(bits(getattr(c, key)) for key in (
        "alpha", "mu_plus", "mu_minus", "sigma", "sup_norm", "rho")) + (
            c.n_points,)


def each_point(field, manifold, make_points):
    """The per-point view of the stacked pass, as figure_sweep reads it:
    the outcome at each point, up to the first exception it raises."""
    out = []
    try:
        for row in _constant_rows(field, manifold, make_points()):
            out.append(outcome(_aggregate, [row], manifold.rho))
    except Exception as exc:  # compared as a value
        out.append(raised(exc))
    return out


def sequential_each_point(field, manifold, make_points):
    """point_constants at each point by the sequential loop, up to the
    first exception other than NotCocoerciveError."""
    out, points = [], make_points()
    while True:
        try:
            p = next(points)
        except StopIteration:
            return out
        except Exception as exc:  # compared as a value
            return out + [raised(exc)]
        out.append(outcome(sequential_region_constants, field, manifold,
                           [p]))
        if len(out[-1]) == 3 and out[-1][0] is not NotCocoerciveError:
            return out


def assert_same_as_sequential(field, manifold, make_points):
    assert outcome(region_constants, field, manifold, make_points()) == \
        outcome(sequential_region_constants, field, manifold, make_points())
    assert each_point(field, manifold, make_points) == \
        sequential_each_point(field, manifold, make_points)


# chart coordinates of each family from unit draws, reaching past the
# cocoercive region of s2 (phi < 0) and s3 (psi > pi/2)
FAMILY_BOXES = {
    "s2": lambda u: (-0.3 + 1.75 * u[0], 2.0 * math.pi * u[1]),
    "h2": lambda u: (-3.0 + 6.0 * u[0], 0.05 + 6.0 * u[1]),
    "s3": lambda u: (0.05 + 3.0 * u[0], 0.1 + 2.9 * u[1], 6.0 * u[2]),
    "h2-singular": lambda u: (-3.0 + 6.0 * u[0], 0.05 + 6.0 * u[1]),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(FAMILY_BOXES)), eps=st.floats(0.2, 3.0),
       draws=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1,
                      max_size=12))
def test_stacked_constants_equal_per_point_on_the_families(name, eps, draws):
    """On hypothesis draws over all four families, with non-cocoercive
    s2 and s3 points mixed in: every row on the full-rank path equals the
    per-point functions bit for bit, the rows that leave it are exactly
    the non-cocoercive and the singular ones, and region_constants and
    the per-point view give what the sequential loop gives."""
    family = get_example(name)
    manifold = family.manifold
    field = family.make_field(eps)
    pts = [manifold.point(FAMILY_BOXES[name](u)) for u in draws]
    g, A, X = (np.array([f(p) for p in pts]) for f in (
        manifold.metric, field.covariant_matrix,
        lambda p: field.eval(p).comps))
    vals, on_path = _full_rank_rows(g, A, X)
    for i, p in enumerate(pts):
        want = _point_row(g[i], A[i], X[i])
        assert on_path[i] == (name != "h2-singular" and want[0] > 0.0)
        if on_path[i]:
            assert bits(vals[i]) == bits(want)
    assert_same_as_sequential(field, manifold, lambda: iter(pts))


def random_cocoercive_at(seed, g):
    return random_cocoercive(np.random.default_rng(seed), 2, g)


TILTED = np.array([[2.0, 0.3], [0.3, 0.8]])
# (metric, covariant derivative, field) of each kind of point, at t in [0, 1]
PATCHES = [
    ("cocoercive", lambda t: TILTED * (1.0 + t),
     lambda t: random_cocoercive_at(1, TILTED) * (1.0 + t),
     lambda t: np.array([1.0, 0.5 - t])),
    ("rotation", lambda t: np.eye(2),
     lambda t: np.array([[-0.1, 3.0 + t], [-3.0 - t, -0.1]]),
     lambda t: np.array([t, 1.0])),
    ("expanding", lambda t: np.eye(2), lambda t: (1.0 + t) * np.eye(2),
     lambda t: np.array([1.0, t])),
    ("skew kernel", lambda t: np.eye(2),
     lambda t: np.array([[-1.0, 1.0 + t], [0.0, 0.0]]),
     lambda t: np.array([1.0, 0.0])),
    ("orthogonal kernel", lambda t: TILTED,
     lambda t: np.linalg.solve(TILTED, np.diag([-1.0 - t, 0.0])),
     lambda t: np.array([0.0, 1.0 + t])),
    ("zero", lambda t: np.eye(2), lambda t: np.zeros((2, 2)),
     lambda t: np.array([1.0, t])),
    ("still", lambda t: np.eye(2), lambda t: -(1.0 + t) * np.eye(2),
     lambda t: np.zeros(2)),
    ("indefinite metric", lambda t: np.diag([1.0, -1.0 - t]),
     lambda t: -np.eye(2), lambda t: np.array([1.0, 0.0])),
    ("no derivative", lambda t: np.eye(2), None,
     lambda t: np.array([1.0, 0.0])),
]


class Patchwork(Euclidean):
    """The plane with the metric of PATCHES[k] at the points (k, t)."""

    def metric(self, p):
        return PATCHES[int(p.coords[0])][1](p.coords[1])


def patchwork_field(manifold):
    def jac(c):
        make = PATCHES[int(c[0])][2]
        if make is None:
            raise GeostabError("no covariant derivative at this point")
        return make(c[1])

    return FieldModel(manifold, lambda c: PATCHES[int(c[0])][3](c[1]), jac,
                      name="patchwork")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kinds=st.lists(st.tuples(
    st.sampled_from([0, 0, 0, 1, 1, 1, 4, 4, 2, 3, 5, 6, 7, 8, -1]),
    st.floats(0.0, 1.0)), min_size=1, max_size=10))
def test_stacked_constants_raise_as_the_sequential_loop(kinds):
    """Boxes mixing cocoercive points with non-cocoercive ones, kernels
    orthogonal or not, a vanishing field, an indefinite metric, a failing
    covariant derivative and a point that cannot be built (kind -1): the
    stacked pass returns the same constants bit for bit, or raises the
    same exception at the same point, with the same
    NotCocoerciveError.points in the same order, both for a region and
    point by point."""
    manifold = Patchwork(2)
    field = patchwork_field(manifold)

    def make_points():
        return (manifold.point((math.nan if k < 0 else k, t))
                for k, t in kinds)

    assert_same_as_sequential(field, manifold, make_points)


def test_stacked_constants_keep_the_first_error_of_a_box():
    """The first point that raises decides, as in the sequential loop,
    also over non-cocoercive points before it and over a failing chart
    call after it, and a non-cocoercive box lists its points in order."""
    manifold = Patchwork(2)
    field = patchwork_field(manifold)
    cases = [([0, 2, 4, 2], NotCocoerciveError),
             ([0, 2, 3, 6], NoFiniteAlphaError),
             ([2, 6, 3], DegenerateDirectionError),
             ([0, 3, 8], NoFiniteAlphaError),
             ([1, 2, 8, 3], GeostabError),
             ([4, 5], UnsupportedKernelError),
             ([1, 7, 6], GeostabError)]
    for kinds, error in cases:
        pts = [manifold.point((k, 0.3)) for k in kinds]
        with pytest.raises(error) as info:
            region_constants(field, manifold, pts)
        assert type(info.value) is error
        if error is NotCocoerciveError:
            assert info.value.points == [pts[1], pts[3]]
        assert outcome(region_constants, field, manifold, pts) == outcome(
            sequential_region_constants, field, manifold, pts)


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_lapack_calls_give_the_bits_of_single_calls(d):
    """The premise of the stacked pass: on this numpy and BLAS, a stack of
    2x2 or 3x3 matrices gets from svd (with and without U and V), eigh,
    eigvalsh, solve and matmul (matrix, transposed and vector operands)
    the bits of one call per matrix."""
    rng = np.random.default_rng(d)
    M = rng.standard_normal((64, d, d))
    S = M + M.swapaxes(-1, -2)
    R = rng.standard_normal((64, d, d))
    v = rng.standard_normal((64, d))

    def same(stacked, single):
        want = [single(*[x[i] for x in args]) for i in range(64)]
        return all(bits(a) == bits(b) for a, b in zip(stacked, want))

    for args, stacked, single in [
            ((M,), np.linalg.svd(M)[0], lambda m: np.linalg.svd(m)[0]),
            ((M,), np.linalg.svd(M)[1], lambda m: np.linalg.svd(m)[1]),
            ((M,), np.linalg.svd(M)[2], lambda m: np.linalg.svd(m)[2]),
            ((M,), np.linalg.svd(M, compute_uv=False),
             lambda m: np.linalg.svd(m, compute_uv=False)),
            ((S,), np.linalg.eigh(S)[0], lambda m: np.linalg.eigh(m)[0]),
            ((S,), np.linalg.eigh(S)[1], lambda m: np.linalg.eigh(m)[1]),
            ((S,), np.linalg.eigvalsh(S), np.linalg.eigvalsh),
            ((M, R), np.linalg.solve(M, R), np.linalg.solve),
            ((M, R), M @ R, lambda a, b: a @ b),
            ((M, R), M.swapaxes(-1, -2) @ R.swapaxes(-1, -2),
             lambda a, b: a.T @ b.T),
            ((M, v), (M @ v[:, :, None])[:, :, 0], lambda a, b: a @ b),
            ((v, R), (v[:, None, :] @ R @ v[:, :, None])[:, 0, 0],
             lambda a, b: a @ b @ a)]:
        assert same(stacked, single)
