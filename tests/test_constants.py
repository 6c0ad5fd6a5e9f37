"""Pointwise and regionwise stability constants.

Oracles: dense direction sampling of the defining variational problems,
and generalized symmetric eigenproblems solved by scipy.
"""

import math
import re

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

from geostab.bounds import bound_singular
from geostab.constants import (
    RegionConstants,
    _aggregate,
    _constant_rows,
    _stacked_rows,
    point_constants,
    region_constants,
)
from geostab.errors import (
    BracketError,
    DegenerateDirectionError,
    GeostabError,
    NoFiniteAlphaError,
    NotCocoerciveError,
    UnsupportedKernelError,
)
from geostab.experiments import get_example, numerical_hmax
from geostab.fields import FieldModel
from geostab.manifolds import HALF_PLANE, SPHERE2, Euclidean

from oracles import (SingularConnectionError, _point_row, log_g_norm,
                     mu_minus_point, mu_plus_point,
                     sequential_region_constants, sigma_point)

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


def one_row(A, g, X=None):
    """The stacked pass on a one-row stack of A, g and X (default: the
    first chart direction): the row's (alpha, mu_plus, mu_minus, sigma)
    and its exception, None if it has none."""
    X = np.eye(len(A))[0] if X is None else X
    vals, errors = _stacked_rows(*(np.array([x], dtype=float)
                                   for x in (g, A, X)))
    return vals[0], errors.get(0)


def stacked_alpha(A, g):
    return one_row(A, g)[0][0]


def test_alpha_scalar_matrices():
    g = random_spd(np.random.default_rng(3), 2)
    assert abs(stacked_alpha(-np.eye(2), g) - 1.0) < 1e-12
    assert abs(stacked_alpha(-2.0 * np.eye(2), g) - 0.5) < 1e-12
    assert stacked_alpha(np.zeros((2, 2)), g) == math.inf


def test_alpha_expanding_matrix_is_negative():
    assert abs(stacked_alpha(np.eye(2), np.eye(2)) + 1.0) < 1e-12


def test_alpha_scaling_law(rng):
    g = random_spd(rng, 3)
    A = random_cocoercive(rng, 3, g)
    a = stacked_alpha(A, g)
    assert abs(stacked_alpha(2.5 * A, g) - a / 2.5) < 1e-12 * a


def test_alpha_orthogonal_kernel_allowed():
    assert abs(stacked_alpha(np.diag([-1.0, 0.0]), np.eye(2)) - 1.0) < 1e-12


def test_alpha_skew_kernel_rejected():
    A = np.array([[-1.0, 1.0], [0.0, 0.0]])
    assert isinstance(one_row(A, np.eye(2))[1], NoFiniteAlphaError)


def test_alpha_matches_dense_sampling(rng):
    for _ in range(5):
        g = random_spd(rng, 2)
        A = random_cocoercive(rng, 2, g)
        a = stacked_alpha(A, g)
        brute = brute_alpha(A, g, n=20000)
        assert brute >= a - 1e-12
        assert brute <= a + 1e-4 * (1.0 + abs(a))


def test_alpha_inequality_holds_in_bulk(rng):
    """The defining inequality sampled over 1e5 directions."""
    g = random_spd(rng, 3)
    A = random_cocoercive(rng, 3, g)
    a = stacked_alpha(A, g)
    dirs = dense_directions(3, 100000, rng)
    Av = dirs @ A.T
    lhs = np.einsum("ij,jk,ik->i", Av, g, dirs)
    sq = np.einsum("ij,jk,ik->i", Av, g, Av)
    assert np.all(lhs + a * sq <= 1e-9)


def test_alpha_is_attained(rng):
    """Optimality: some direction must come close to equality."""
    g = random_spd(rng, 2)
    A = random_cocoercive(rng, 2, g)
    a = stacked_alpha(A, g)
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
    assert abs(stacked_alpha(A, g) - stacked_alpha(B, np.eye(2))) < 1e-11


def test_cocoercive_implies_nonpositive_log_norm(rng):
    for _ in range(8):
        g = random_spd(rng, 3)
        A = random_cocoercive(rng, 3, g)
        if stacked_alpha(A, g) > 0.0:
            assert log_g_norm(A, g) <= 1e-12


def test_whitened_norm_bounded_by_inverse_alpha(rng):
    """|Av|_g <= |v|_g / alpha follows from the defining inequality by
    Cauchy-Schwarz; check the operator-norm version."""
    for _ in range(6):
        g = random_spd(rng, 3)
        A = random_cocoercive(rng, 3, g)
        a = stacked_alpha(A, g)
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
    assert abs(one_row(A, g, X)[0][2] - 2.0) < 1e-13
    assert abs(one_row(A, g, X)[0][1] - 0.25) < 1e-13


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
        for col, along in ((1, False), (2, True)):
            got = one_row(A, g, X)[0][col]
            brute = brute_mu(A, g, X, along)
            assert brute <= got + 1e-12
            assert brute >= got - 1e-4 * (1.0 + abs(got))


def test_mu_raises_on_singular_matrix():
    """The per-point oracle raises; the stacked pass reads the undefined
    projection constants as inf and raises nothing where the kernel lies
    along the field, and UnsupportedKernelError where it does not."""
    A = np.diag([-1.0, 0.0])
    with pytest.raises(SingularConnectionError):
        mu_plus_point(A, np.eye(2), np.array([1.0, 0.0]))
    with pytest.raises(SingularConnectionError):
        mu_minus_point(A, np.eye(2), np.array([1.0, 0.0]))
    vals, error = one_row(A, np.eye(2), np.array([0.0, 1.0]))
    assert vals[1] == vals[2] == math.inf and error is None
    assert type(one_row(A, np.eye(2), np.array([1.0, 0.0]))[1]) is \
        UnsupportedKernelError


def test_mu_plus_dominates_alpha_on_sphere_example(rng):
    """On the rotation-plus-gradient example the transverse projection
    constant is never below the cocoercivity constant."""
    field = make_field("s2", eps=1.0)
    for p in s2_upper_points(rng, 10):
        g = SPHERE2.metric(p)
        A = field.covariant_matrix(p)
        X = field.eval(p).comps
        assert one_row(A, g, X)[0][1] >= stacked_alpha(A, g) - 1e-12


# ---------------------------------------------------------------------------
# inverse bound
# ---------------------------------------------------------------------------


def test_sigma_diagonal_example():
    A = np.diag([-2.0, -0.5])
    assert abs(one_row(A, np.eye(2))[0][3] - 2.0) < 1e-14


def test_sigma_matches_dense_sampling(rng):
    g = random_spd(rng, 2)
    A = random_cocoercive(rng, 2, g)
    got = one_row(A, g)[0][3]
    brute = brute_sigma(A, g, n=20000)
    assert brute <= got + 1e-12
    assert brute >= got - 1e-4 * got


def test_sigma_singular_unrestricted_is_infinite():
    """The flag of the per-point oracle; the stacked pass restricts
    sigma to the range exactly where A is singular."""
    assert sigma_point(np.diag([-1.0, 0.0]), np.eye(2)) == math.inf
    assert sigma_point(np.zeros((2, 2)), np.eye(2)) == math.inf


def test_sigma_restricted_uses_smallest_nonzero():
    got = one_row(np.diag([-2.0, 0.0]), np.eye(2))[0][3]
    assert abs(got - 0.5) < 1e-14


def test_sigma_restricted_rejects_large_kernel():
    for A in (np.diag([-2.0, 0.0, 0.0]), np.zeros((2, 2))):
        assert isinstance(one_row(A, np.eye(len(A)))[1],
                          UnsupportedKernelError)


def test_sigma_regular_matrix_ignores_restriction_flag(rng):
    g = random_spd(rng, 2)
    A = random_cocoercive(rng, 2, g)
    assert abs(one_row(A, g)[0][3] - sigma_point(A, g, restrict_to_range=True)
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
        for row in _constant_rows([field], manifold, make_points()):
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


ROW_KINDS = ("family", "family", "singular", "orthogonal kernel", "zero",
             "expanding", "chart axis", "still")


def recast(kind, t, g, A, X):
    """(g, A, X) of a family point recast as a row of the given kind,
    with the draw t in [0, 1] as its seed: A with a kernel in a random
    direction (in general not orthogonal to its range), a rank-deficient
    A whose kernel is g-orthogonal to its range and whose whitened form
    is cocoercive on it, A = 0, -A, X along a chart axis, or X = 0."""
    rng = np.random.default_rng(int(1e6 * t))
    d = len(X)
    if kind == "singular":
        v = rng.standard_normal(d)
        return g, A - np.outer(A @ v, v) / (v @ v), X
    if kind == "orthogonal kernel":
        w, q = np.linalg.eigh(g)
        r = int(rng.integers(1, d))
        V = np.linalg.qr(rng.standard_normal((d, d)))[0][:, :r]
        K = rng.standard_normal((r, r))
        B = V @ (K - K.T - np.diag(1.0 + rng.random(r))) @ V.T
        return g, (q / np.sqrt(w)) @ q.T @ B @ (q * np.sqrt(w)) @ q.T, X
    if kind == "zero":
        return g, np.zeros_like(A), X
    if kind == "expanding":
        return g, -A, X
    if kind == "chart axis":
        return g, A, (0.1 + 2.0 * t) * np.eye(d)[int(rng.integers(d))]
    if kind == "still":
        return g, A, np.zeros(d)
    return g, A, X


def oracle_outcome(g, A, X):
    """The bits of _point_row at one point, or what it raises."""
    try:
        return bits(_point_row(g, A, X))
    except Exception as exc:  # compared as a value
        return raised(exc)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(FAMILY_BOXES)), eps=st.floats(0.2, 3.0),
       draws=st.lists(st.tuples(st.tuples(*[st.floats(0.0, 1.0)] * 3),
                                st.sampled_from(ROW_KINDS),
                                st.floats(0.0, 1.0)),
                      min_size=1, max_size=12))
def test_stacked_constants_equal_per_point_on_the_families(name, eps, draws):
    """On hypothesis draws over all four families, with non-cocoercive
    s2 and s3 points mixed in, and rows recast as singular,
    rank-deficient with an orthogonal kernel, zero, expanding, along a
    chart axis (s3's included) or still: every row of the stacked pass
    equals the per-point functions bit for bit, or raises what they
    raise, and region_constants and the per-point view of the family
    points give what the sequential loop gives."""
    family = get_example(name)
    manifold = family.manifold
    field = family.make_field(eps)
    pts = [manifold.point(FAMILY_BOXES[name](u)) for u, _, _ in draws]
    rows = [recast(kind, t, manifold.metric(p), field.covariant_matrix(p),
                   field.eval(p).comps)
            for p, (_, kind, t) in zip(pts, draws)]
    vals, errors = _stacked_rows(*(np.array(col) for col in zip(*rows)))
    for i, row in enumerate(rows):
        got = raised(errors[i]) if i in errors else bits(vals[i])
        assert got == oracle_outcome(*row)
    assert_same_as_sequential(field, manifold, lambda: iter(pts))


def test_stacked_constants_equal_per_point_in_one_dimension():
    """On a line: A = 0 (alpha and sigma inf, a one-dimensional kernel),
    contracting, expanding and still rows equal the per-point functions
    bit for bit, or raise what they raise."""
    rows = [(np.array([[0.5]]), np.array([[a]]), np.array([x]))
            for a in (0.0, -2.0, 3.0) for x in (1.5, 0.0)]
    vals, errors = _stacked_rows(*(np.array(col) for col in zip(*rows)))
    for i, row in enumerate(rows):
        got = raised(errors[i]) if i in errors else bits(vals[i])
        assert got == oracle_outcome(*row)
    assert bits(vals[0]) == bits([math.inf] * 4)


def test_non_finite_chart_data_raise_at_their_row():
    """A row whose metric, covariant derivative or field has a nan or an
    infinite entry raises GeostabError, and the other rows keep their
    bits."""
    clean = [np.array([TILTED] * 4),
             np.array([[[-1.0, 0.5], [0.0, -2.0]]] * 4),
             np.array([[1.0, 0.5]] * 4)]
    want, errors = _stacked_rows(*clean)
    assert not errors
    for which in range(3):
        for bad in (math.nan, math.inf, -math.inf):
            stacks = [x.copy() for x in clean]
            stacks[which][2].flat[-1] = bad
            vals, errors = _stacked_rows(*stacks)
            assert list(errors) == [2]
            assert type(errors[2]) is GeostabError
            assert "not finite" in str(errors[2])
            assert bits(vals[[0, 1, 3]]) == bits(want[[0, 1, 3]])


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


def patches(coords, which, shape):
    """The stack (..., *shape) of PATCHES[k][which](t) at the coordinate
    stack of points (k, t); a missing entry raises for the whole stack."""
    c = np.asarray(coords, dtype=float)
    makes = [PATCHES[int(k)][which] for k in c[..., 0].ravel()]
    if None in makes:
        raise GeostabError("no covariant derivative at this point")
    return np.array([make(t) for make, t in zip(makes, c[..., 1].ravel())]
                    ).reshape(c.shape[:-1] + shape)


class Patchwork(Euclidean):
    """The plane with the metric of PATCHES[k] at the points (k, t)."""

    def metrics(self, coords):
        return patches(coords, 1, (2, 2))


def patchwork_field(manifold):
    return FieldModel(manifold, lambda c: patches(c, 3, (2,)),
                      lambda c: patches(c, 2, (2, 2)), name="patchwork")


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


def affine_field(manifold, p, a, nabla):
    """The field a + J(x - p) with J = nabla - Γ(p)·a, on coordinate
    stacks: X(p) = a and ∇X(p) = nabla."""
    a, p = np.asarray(a, dtype=float), np.asarray(p, dtype=float)
    J = np.asarray(nabla, dtype=float) - np.einsum(
        "ijk,k->ij", manifold.christoffels(p), a)
    return FieldModel(manifold, lambda c: a + (J @ (c - p)[..., None])[..., 0],
                      lambda c: np.broadcast_to(J, c.shape + c.shape[-1:]),
                      name="affine")


KERNEL_OFF_FIELD = "restricted inverse bound needs the kernel along the field"


def test_singular_rule_rejects_a_kernel_off_the_field():
    """On HALF_PLANE at (0, 1), X = (1, 0) and ∇X = diag(-1, 0) have a
    one-dimensional kernel orthogonal to X.  The singular rule would
    certify every step (alpha = sigma = 1, mu = inf) though the step is
    expansive from h_lo on, so the point and any region holding it raise
    UnsupportedKernelError, at its row, naming the kernel direction."""
    p = HALF_PLANE.point((0.0, 1.0))
    field = affine_field(HALF_PLANE, p.coords, (1.0, 0.0),
                         np.diag([-1.0, 0.0]))
    assert bits(field.covariant_matrix(p)) == bits(np.diag([-1.0, 0.0]))
    with pytest.raises(BracketError):
        numerical_hmax(field, HALF_PLANE, p)
    with pytest.raises(UnsupportedKernelError, match=re.escape(
            KERNEL_OFF_FIELD + "; |B x| = 1.000e+00")):
        point_constants(field, HALF_PLANE, p)
    near = [HALF_PLANE.point(c) for c in ((0.1, 1.0), (0.0, 1.0), (0.0, 1.2))]
    rows = []
    with pytest.raises(UnsupportedKernelError, match=KERNEL_OFF_FIELD):
        for row in _constant_rows([field], HALF_PLANE, near):
            rows.append(row)
    assert [r[0] for r in rows] == near[:1]
    assert outcome(region_constants, field, HALF_PLANE, near) == outcome(
        sequential_region_constants, field, HALF_PLANE, near)


@pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("theta", [0.0, 1e-6, 1e-3, math.pi / 2])
def test_singular_rule_needs_the_kernel_along_the_field(theta, c):
    """X(p) = (0, 1) and ∇X(p) = -c(I - uuᵀ), u at angle θ from X: a
    kernel along X (θ = 0) keeps its exact certificate, and any tilt,
    down to θ = 1e-6 where the step stops being non-expansive near
    1e-4, raises UnsupportedKernelError; the oracle agrees."""
    p = HALF_PLANE.point((0.0, 1.0))
    u = np.array([math.sin(theta), math.cos(theta)])
    nabla = -c * (np.eye(2) - np.outer(u, u))
    field = affine_field(HALF_PLANE, p.coords, (0.0, 1.0), nabla)
    assert outcome(point_constants, field, HALF_PLANE, p) == outcome(
        sequential_region_constants, field, HALF_PLANE, [p])
    if theta > 0.0:
        with pytest.raises(UnsupportedKernelError, match=KERNEL_OFF_FIELD):
            point_constants(field, HALF_PLANE, p)
        return
    consts = point_constants(field, HALF_PLANE, p)
    h = bound_singular(consts, (consts.sup_norm, consts.sup_norm)).h_max
    assert h == pytest.approx({0.5: 1.0986123, 1.0: math.inf,
                               3.0: 0.6931472}[c], rel=1e-6)
    assert h <= numerical_hmax(field, HALF_PLANE, p) * (1.0 + 1e-6)


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
