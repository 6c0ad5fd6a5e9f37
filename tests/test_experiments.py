"""Direction sweeps, empirical step limits, comparison tables, CSV I/O.

Oracles: the parallelogram law for the quadratic variation form, the
refined sampled direction sweep, the sequential step search, scipy
maximisation of the closed-form variation norm over direction angles,
actual two-point contraction ratios of the stepper, and exact CSV
round-trips.
"""

import collections
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from geostab.errors import (BracketError, ChartDomainError,
                            DegenerateDirectionError, GeostabError,
                            InconsistentConstantsError, NotCocoerciveError,
                            StationaryPointError)
from geostab.experiments import (
    CSV_HEADER,
    EXAMPLES,
    SweepRow,
    _lockstep_hmax,
    _sweep_stack,
    figure_sweep,
    get_example,
    jacobi_validation,
    numerical_hmax,
    pair_ratios,
    rows_to_csv,
    spec_grid,
    theory_bound,
    unit_directions,
    write_csv,
)
from geostab import constants
from geostab.fields import FieldModel
from geostab.jacobi import gee_jacobi_data, jacobi_norm
from geostab.manifolds import Euclidean, ManifoldModel

from conftest import linear_field, make_field
from oracles import (direction_sweep_delta, point_kernel, refined_sweep,
                     rows_from_csv, sequential_hmax, stack_kernels,
                     sweep_deltas, sweep_kernel)


# ---------------------------------------------------------------------------
# registry and grids
# ---------------------------------------------------------------------------


def test_example_registry():
    assert set(EXAMPLES) == {"s2", "h2", "s3", "h2-singular"}
    assert get_example("s2").rule == "positive"
    assert get_example("h2").rule == "negative"
    assert get_example("h2-singular").rule == "singular"
    with pytest.raises(GeostabError):
        get_example("torus")


def test_spec_grid():
    grid = spec_grid("s2", 0.3, 1.4, 5)
    assert len(grid) == 5
    assert grid[0] == (0.3, None)
    assert grid[-1] == (1.4, None)
    grid3 = spec_grid("s3", 0.5, 1.0, 3)
    assert all(b2 == pytest.approx(np.pi / 2) for _, b2 in grid3)
    with pytest.raises(GeostabError):
        spec_grid("s2", 0.3, 1.4, 0)


def test_unit_directions():
    for dim, n in ((2, 16), (3, 64), (5, 32)):
        dirs = unit_directions(dim, n)
        assert dirs.shape == (n, dim)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(unit_directions(3, 256), unit_directions(3, 256))
    with pytest.raises(GeostabError):
        unit_directions(2, 7)


# ---------------------------------------------------------------------------
# sweep kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,h", [
    ("s2", 0.3), ("s2", 1.5), ("h2", 0.3), ("h2", 3.0), ("s3", 0.4),
    ("h2-singular", 2.0),
])
def test_sweep_delta_is_quadratic_form(name, h, rng):
    """Delta must satisfy the parallelogram law in the direction
    argument, whatever curvature branch evaluates it."""
    field = make_field(name, eps=1.0)
    m = field.manifold
    p = (m.point((0.85, 0.1)) if name == "s2"
         else m.point((0.85, 1.1, 0.2)) if name == "s3"
         else m.point((0.3, 1.4)))
    for _ in range(6):
        xi = rng.normal(size=m.dim)
        eta = rng.normal(size=m.dim)
        rows = np.vstack([xi + eta, xi - eta, xi, eta])
        d = sweep_deltas(field, m, p, h, rows)
        scale = np.max(np.abs(d)) + 1.0
        assert abs(d[0] + d[1] - 2.0 * d[2] - 2.0 * d[3]) < 1e-12 * scale


def test_sweep_delta_angle_symmetry(rng):
    """In dimension two the quadratic form obeys
    q(w) + q(-w) = 2 q(0) cos^2 w + 2 q(pi/2) sin^2 w."""
    field = make_field("s2", eps=1.0)
    m = field.manifold
    p = m.point((0.9, 0.0))
    h = 0.7
    for w in rng.uniform(0.0, 2.0 * np.pi, size=8):
        rows = np.array([[math.cos(w), math.sin(w)],
                         [math.cos(-w), math.sin(-w)],
                         [1.0, 0.0], [0.0, 1.0]])
        d = sweep_deltas(field, m, p, h, rows)
        want = 2.0 * d[2] * math.cos(w) ** 2 + 2.0 * d[3] * math.sin(w) ** 2
        assert abs(d[0] + d[1] - want) < 1e-12 * (abs(want) + 1.0)


def test_direction_sweep_delta_dominates_plain_grid():
    field = make_field("s2", eps=1.0)
    m = field.manifold
    p = m.point((0.9, 0.0))
    h = 1.1
    best = direction_sweep_delta(field, m, p, h)
    grid = sweep_deltas(field, m, p, h, unit_directions(2, 512))
    assert best >= np.max(grid) - 1e-15


def test_sweep_delta_negative_for_small_h():
    for name in ("s2", "h2", "s3"):
        field = make_field(name, eps=1.0)
        m = field.manifold
        p = (m.point((0.85, 0.1)) if name == "s2"
             else m.point((0.85, 1.1, 0.2)) if name == "s3"
             else m.point((0.3, 1.4)))
        assert direction_sweep_delta(field, m, p, 1e-3) < 0.0


STACK_FAMILIES = ("s2", "h2", "s3", "h2-singular", "euclid2", "euclid3")


def draw_stack_row(name, data, i):
    """(manifold, p, g, A, X) of one drawn row of a kernel stack; an s3
    row may put X along a chart axis, off the plain frame path."""
    if name.startswith("euclid"):
        m = Euclidean(int(name[-1]))
        M = np.array(data.draw(st.lists(st.floats(-1.0, 1.0),
                                        min_size=m.dim ** 2,
                                        max_size=m.dim ** 2),
                               label=f"matrix{i}")).reshape(m.dim, m.dim)
        field = linear_field(m, M - 2.0 * np.eye(m.dim))
        box = ((-2.0, 2.0),) * m.dim
    else:
        field = make_field(name, eps=data.draw(st.floats(0.5, 2.0),
                                               label=f"eps{i}"))
        m = field.manifold
        box = SAMPLE_BOXES["h2" if name == "h2-singular" else name]
    p = m.point(tuple(data.draw(st.floats(lo, hi), label=f"coord{i}.{k}")
                      for k, (lo, hi) in enumerate(box)))
    X = field.eval(p).comps
    assume(m.norm(field.eval(p)) > 1e-3)
    axis = data.draw(st.sampled_from([None, 0, 1, 2] if name == "s3"
                                     else [None]), label=f"axis{i}")
    if axis is not None:
        X = data.draw(st.floats(0.1, 2.0), label=f"along{i}") * np.eye(3)[axis]
    return m, p, m.metric(p), field.covariant_matrix(p), X


@pytest.mark.parametrize("name", STACK_FAMILIES)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_sweep_stack_rows_equal_the_point_kernel(name, data, n):
    """Every row of one _sweep_stack call equals the point kernel, bit for
    bit: on the spheres, on H² with its pinned rows (every h2-singular
    row), on an s3 field along a chart axis (a frame call at its point)
    and on Euclidean fields (ρ = 0, scale 0)."""
    rows = [draw_stack_row(name, data, i) for i in range(n)]
    m = rows[0][0]
    _, points, g, A, X = zip(*rows)
    x_norm = [m.norm(m.tangent(p, x)) for p, x in zip(points, X)]
    N, scale = _sweep_stack(m, x_norm, g, A, X)
    for i, row in enumerate(rows):
        want_N, want_scale = point_kernel(*row[:2], x_norm[i], *row[2:])
        assert N[i].tobytes() == want_N.tobytes()
        assert scale[i] == want_scale
    if name == "h2-singular":
        assert np.all(N[:, 0, :] == 0.0) and np.all(N[:, 1, 1] == -scale)


def test_sweep_stack_frames_chart_axis_rows_and_raises_at_a_vanishing_row(
        monkeypatch):
    """Rows whose field lies along a chart axis of s3 (the first or
    second axis makes a Gram–Schmidt candidate vanish) get the frame of
    ManifoldModel.frame at their point, without a frame call, and a
    vanishing field raises DegenerateDirectionError at its row: with two
    degenerate rows the message names the norm of the first."""
    field = make_field("s3", eps=1.0)
    m = field.manifold
    points = [m.point((0.9, 1.1, 0.3 * k)) for k in range(5)]
    X = [field.eval(p).comps for p in points]
    X[1], X[3], X[4] = np.eye(3)[0], 0.5 * np.eye(3)[1], 2.0 * np.eye(3)[2]
    g = [m.metric(p) for p in points]
    A = [field.covariant_matrix(p) for p in points]
    x_norm = [m.norm(m.tangent(p, x)) for p, x in zip(points, X)]
    frames = [m.frame(p, m.tangent(p, x)).matrix for p, x in zip(points, X)]
    monkeypatch.setattr(ManifoldModel, "frame", None)
    N, _ = _sweep_stack(m, x_norm, g, A, X)
    for i, p in enumerate(points):
        E = frames[i]
        assert N[i].tobytes() == (E.T @ g[i] @ A[i] @ E).tobytes()
        assert N[i].tobytes() == point_kernel(m, p, x_norm[i], g[i], A[i],
                                              X[i])[0].tobytes()
    X[2], x_norm[2] = np.zeros(3), 0.0
    X[4], x_norm[4] = 1e-16 * np.eye(3)[2], 1e-16
    for k, norm in ((0, "0.000e+00"), (3, "1.000e-16")):
        with pytest.raises(DegenerateDirectionError, match=re.escape(
                f"cannot normalize direction with norm {norm}")):
            _sweep_stack(m, x_norm[k:], g[k:], A[k:], X[k:])


# ---------------------------------------------------------------------------
# empirical step limit
# ---------------------------------------------------------------------------


def test_numerical_hmax_direction_count_stability():
    """Refined sampled sweeps of 512 and 1024 directions both place the
    step limit within relative 5e-6 of the exact one."""
    field = make_field("s2", eps=1.0)
    m = field.manifold
    p = m.point((0.9, 0.0))
    h = numerical_hmax(field, m, p)
    for n_dirs in (512, 1024):
        assert refined_sweep(field, m, p, h, n_dirs).max() <= 1e-12
        assert refined_sweep(field, m, p, h * (1.0 + 5e-6), n_dirs).max() > 0


def test_numerical_hmax_exact_to_tol_h():
    """At an s3 point where the sampled sweep overshot the limit by
    relative 7.5e-6, an independent maximisation of |J(1)|^2 - 1 over
    direction angles stays nonpositive at numerical_hmax and turns
    positive within twice the stated tol_h above it."""
    family = get_example("s3")
    m = family.manifold
    field = family.make_field(1.0)
    p = m.point(family.to_coords(0.4571428571428571, 0.3))
    E = m.frame(p, field.eval(p)).matrix
    tol_h = 1e-6

    def growth(angles, h):
        th, ph = angles
        xi = np.array([math.sin(th) * math.cos(ph),
                       math.sin(th) * math.sin(ph), math.cos(th)])
        data = gee_jacobi_data(field, p, m.tangent(p, E @ xi), h)
        return jacobi_norm(data, 1.0) ** 2 - 1.0

    def worst(h):
        # Δ(ξ) = Δ(-ξ): a half sphere of starting points suffices
        grid = [(th, ph) for th in np.linspace(0.0, math.pi, 33)
                for ph in np.linspace(0.0, math.pi, 32, endpoint=False)]
        start = max(grid, key=lambda a: growth(a, h))
        res = minimize(lambda a: -growth(a, h), start, method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-15,
                                "maxiter": 4000})
        return max(-res.fun, growth(start, h))

    h = numerical_hmax(field, m, p, tol_h=tol_h)
    assert worst(h) <= 1e-12
    assert worst(h * (1.0 + 2.0 * tol_h)) > 0.0


SAMPLE_BOXES = {
    "s2": ((0.25, 1.3), (0.0, 2.0 * np.pi)),
    "h2": ((-2.0, 2.0), (0.2, 5.0)),
    "s3": ((0.3, 1.4), (0.3, 1.4), (0.0, 2.0 * np.pi)),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_BOXES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), eps=st.floats(0.5, 2.0),
       kappa=st.floats(1e-3, 20.0))
def test_exact_worst_direction_bounds_refined_sweep(name, data, eps, kappa):
    """λ_max dominates every sampled Δ up to rounding and matches the
    refined sampled maximum to 1e-6 of the form's scale, at random
    points, ε and steps with curvature scale κ up to 20."""
    coords = tuple(data.draw(st.floats(lo, hi), label=f"coord{i}")
                   for i, (lo, hi) in enumerate(SAMPLE_BOXES[name]))
    field = make_field(name, eps=eps)
    m = field.manifold
    p = m.point(coords)
    h = kappa / (field.norm_at(p) * math.sqrt(abs(m.rho)))
    lam = direction_sweep_delta(field, m, p, h)
    sampled = refined_sweep(field, m, p, h)
    scale = float(np.max(np.abs(sampled)))
    assert math.isfinite(lam)
    assert lam >= sampled.max() - 1e-12 * scale
    assert lam - sampled.max() <= 1e-6 * scale


def test_numerical_hmax_is_boundary_of_nonexpansive_steps():
    field = make_field("h2", eps=1.0)
    m = field.manifold
    p = m.point((0.0, 1.0))
    h = numerical_hmax(field, m, p)
    assert direction_sweep_delta(field, m, p, h) <= 1e-12
    assert direction_sweep_delta(field, m, p, 1.01 * h) > 0.0


def test_numerical_hmax_matches_real_pairs(rng):
    """Just inside the empirical limit actual point pairs contract; the
    linearized sweep is honest about the nonlinear step."""
    field = make_field("s2", eps=1.0)
    m = field.manifold
    p = m.point((0.9, 0.0))
    h = numerical_hmax(field, m, p)
    ratios = pair_ratios(field, p, 0.9 * h, n_dirs=64)
    assert ratios.shape == (64,)
    assert np.all(ratios <= 1.0 + 1e-9)
    assert np.any(pair_ratios(field, p, 1.5 * h, n_dirs=64) > 1.0)


def test_numerical_hmax_unconditional_returns_inf():
    field = make_field("h2-singular")
    m = field.manifold
    assert numerical_hmax(field, m, m.point((0.0, 1.0))) == math.inf


def test_singular_family_immune_to_chart_rounding_dust():
    """The dilation field is non-expansive for every h at every point.
    Chart coordinates whose reciprocal is inexact leave ~1e-16 residue
    in the covariant matrix; the e^(2k) growth factor must not amplify
    that dust into a spurious finite step limit."""
    field = make_field("h2-singular")
    m = field.manifold
    for coords in ((1.5, 0.4), (0.77, 2.31), (-0.3, 0.123)):
        p = m.point(coords)
        for h in (100.0, 1e3):  # kappa = h here, beyond 350 at 1e3
            assert direction_sweep_delta(field, m, p, h) <= 0.0
        assert numerical_hmax(field, m, p) == math.inf


def test_direction_sweep_delta_beyond_growth_overflow():
    """At kappa > 350, where e^(2 kappa) leaves the double range, the
    expansive h2 field still reports a positive, finite worst Δ."""
    field = make_field("h2", eps=1.0)
    m = field.manifold
    p = m.point((0.0, 1.0))
    assert 1e3 * field.norm_at(p) > 350.0
    worst = direction_sweep_delta(field, m, p, 1e3)
    assert math.isfinite(worst) and worst > 0.0


def test_numerical_hmax_at_a_stationary_point_raises():
    """The field's vanishing is checked where numerical_hmax builds its
    kernel, before any frame is made."""
    m = Euclidean(2)
    field = linear_field(m, -np.eye(2))
    with pytest.raises(StationaryPointError):
        numerical_hmax(field, m, m.point((0.0, 0.0)))


def test_numerical_hmax_bad_bracket():
    field = make_field("s2", eps=1.0)
    m = field.manifold
    with pytest.raises(BracketError):
        numerical_hmax(field, m, m.point((0.9, 0.0)), h_lo=10.0)


@pytest.mark.parametrize("name", sorted(SAMPLE_BOXES))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_lockstep_hmax_matches_sequential_search(name, data, n):
    """Several random points with their own ε in [0.5, 2], searched in one
    lockstep call, give h_numeric equal to the sequential search bit for
    bit; so does numerical_hmax at each point alone."""
    kernels, points, want = [], [], []
    for i in range(n):
        coords = tuple(data.draw(st.floats(lo, hi), label=f"point{i}")
                       for lo, hi in SAMPLE_BOXES[name])
        field = make_field(name, eps=data.draw(st.floats(0.5, 2.0),
                                               label=f"eps{i}"))
        m = field.manifold
        p = m.point(coords)
        kernels.append(sweep_kernel(field, m, p))
        points.append(p)
        want.append(sequential_hmax(field, m, p))
        assert numerical_hmax(field, m, p) == want[-1]
    assert _lockstep_hmax(*stack_kernels(kernels), points, 1e-6, 1e3,
                          1e-6).tolist() == want


def test_lockstep_hmax_mixes_finite_and_unconditional_rows(rng):
    """40 rows, every fifth an h2-singular one and the rest h2, share one
    search, many rows per batch; the singular rows stay inf and the others
    match the sequential search, also at a coarse tol_h, at tol_h = 0
    (bisection to the last bit), at a low h_hi, and at an h_lo so high
    that one row's bracket ends at the first doubling step."""
    m = get_example("h2").manifold
    cases = [(make_field("h2-singular") if i % 5 == 1
              else make_field("h2", eps=float(rng.uniform(0.5, 2.0))),
              m.point((float(rng.uniform(-2.0, 2.0)),
                       float(rng.uniform(0.2, 5.0)))))
             for i in range(40)]
    stacks = stack_kernels([sweep_kernel(f, m, p) for f, p in cases])
    points = [p for _, p in cases]
    h_min = min(sequential_hmax(f, m, p) for f, p in cases)
    for h_lo, h_hi, tol_h in ((1e-6, 1e3, 1e-6), (1e-6, 1e3, 1e-2),
                              (1e-6, 1e3, 0.0), (1e-6, 0.4, 1e-6),
                              (0.75 * h_min, 1e3, 1e-6)):
        want = [sequential_hmax(f, m, p, h_lo, h_hi, tol_h)
                for f, p in cases]
        got = _lockstep_hmax(*stacks, points, h_lo, h_hi, tol_h).tolist()
        assert got == want
        assert all(h == math.inf for h in got[1::5])


def test_h2_singular_sweep_keeps_inf_rows():
    rows = figure_sweep("h2-singular", epsilons=(0.5, 2.0),
                        base_grid=[(0.2, None), (1.0, None), (5.0, None)])
    assert len(rows) == 6
    assert all(r.h_numeric == math.inf and r.h_theory == math.inf
               for r in rows)


def test_lockstep_bracket_error_names_its_point():
    """With h_lo above the step limit of one of three points, the search
    fails naming that point."""
    field = make_field("s2", eps=1.0)
    m = field.manifold
    points = [m.point((phi, 0.0)) for phi in (0.9, 0.4, 1.3)]
    limits = [numerical_hmax(field, m, p) for p in points]
    worst = int(np.argmin(limits))
    h_lo = 0.5 * (limits[worst] + sorted(limits)[1])
    stacks = stack_kernels([sweep_kernel(field, m, p) for p in points])
    with pytest.raises(BracketError) as info:
        _lockstep_hmax(*stacks, points, h_lo, 1e3, 1e-6)
    assert repr(points[worst]) in str(info.value)
    with pytest.raises(BracketError, match=re.escape(repr(points[worst]))):
        numerical_hmax(field, m, points[worst], h_lo=h_lo)


@pytest.mark.parametrize("h_lo,h_hi", [(1e-6, 1e-6), (1e-6, 0.0),
                                       (0.0, 1.0), (-1.0, 1.0),
                                       (1e-6, math.nan), (math.nan, 1.0),
                                       (1e-6, math.inf)])
def test_numerical_hmax_rejects_an_unusable_bracket(h_lo, h_hi):
    """Without finite 0 < h_lo < h_hi no step was shown stable, and an
    empty bracket used to read as unconditional stability."""
    field = make_field("s2", eps=1.0)
    m = field.manifold
    with pytest.raises(GeostabError, match="h_lo < h_hi"):
        numerical_hmax(field, m, m.point((0.9, 0.0)), h_lo=h_lo, h_hi=h_hi)


# ---------------------------------------------------------------------------
# theory side
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["s2", "h2", "s3", "h2-singular"])
def test_figure_rule_over_a_table_matches_theory_bound(name):
    """The rule over a whole table, one lockstep search for the positive
    families, gives each row what theory_bound gives it alone."""
    family = get_example(name)
    grid = family.default_grid(7)
    rows = figure_sweep(name, epsilons=(0.5, 2.0), base_grid=grid,
                        tol_h=1e-3)
    for row in rows:
        p = family.manifold.point(family.to_coords(row.base1, row.base2))
        want = theory_bound(name, row.epsilon, p)
        assert (row.h_theory, row.kappa_at_h, row.binding) == (
            want.h_max, want.kappa_at_h, want.binding)


def test_theory_bound_values():
    p = get_example("s2").manifold.point((0.9, 0.0))
    res = theory_bound("s2", 1.0, p)
    assert res.rule == "positive" and res.h_max > 0.0
    res = theory_bound("h2", 1.0, get_example("h2").manifold.point((0.0, 1.0)))
    assert res.rule == "negative" and res.h_max > 0.0
    res = theory_bound("h2-singular", 1.0,
                       get_example("h2").manifold.point((0.3, 2.0)))
    assert res.h_max == math.inf and res.binding == "unconditional"


def test_theory_bound_cross_check_catches_bad_closed_form(monkeypatch):
    import dataclasses
    family = get_example("s2")
    bad = dataclasses.replace(
        family, analytic=lambda eps, coords: {"alpha": 123.0})
    monkeypatch.setitem(EXAMPLES, "s2", bad)
    with pytest.raises(InconsistentConstantsError):
        theory_bound("s2", 1.0, family.manifold.point((0.9, 0.0)))


def test_theory_bound_sound_for_each_family():
    cases = [("s2", (0.9, 0.0)), ("h2", (0.0, 1.0)),
             ("s3", (0.9, 1.2, 0.3))]
    for name, coords in cases:
        family = get_example(name)
        p = family.manifold.point(coords)
        h_th = theory_bound(name, 1.0, p).h_max
        h_num = numerical_hmax(family.make_field(1.0), family.manifold, p)
        assert h_th <= h_num + 1e-9


# ---------------------------------------------------------------------------
# sweeps and CSV
# ---------------------------------------------------------------------------


def small_sweep():
    return figure_sweep("s2", epsilons=(0.5, 1.0),
                        base_grid=[(0.8, None), (1.2, None)], tol_h=1e-4)


def test_figure_sweep_rows_ordered_and_sound():
    rows = small_sweep()
    assert [(r.epsilon, r.base1) for r in rows] == [
        (0.5, 0.8), (0.5, 1.2), (1.0, 0.8), (1.0, 1.2)]
    for r in rows:
        assert r.example == "s2"
        assert r.h_theory <= r.h_numeric + 1e-9
        assert r.binding in ("flat", "kappa-cap", "curvature")


def test_figure_sweep_raises_a_bad_grid_point_after_the_rows_before_it():
    """A grid point outside the chart raises once the rows before it in
    (epsilon, grid index) order are out: those of the first epsilon
    only, so a later epsilon's non-cocoercive rows do not raise first."""
    grid = [(1.0, None), (-1.0, None)]
    with pytest.raises(ChartDomainError):
        figure_sweep("h2", epsilons=(1.0, -1.0), base_grid=grid)
    with pytest.raises(NotCocoerciveError):
        figure_sweep("h2", epsilons=(-1.0, 1.0), base_grid=grid)


def test_figure_sweep_reads_a_one_shot_grid_for_every_epsilon():
    """A grid given as an iterator serves every epsilon, as a list does."""
    grid = [(0.8, None), (1.2, None)]
    rows = figure_sweep("s2", epsilons=(0.5, 1.0), base_grid=iter(grid),
                        tol_h=1e-4)
    assert rows == small_sweep()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_figure_sweep_walks_the_chart_once_per_row(name, monkeypatch):
    """A table builds each grid point once and takes one stacked chart
    pass: one metric, covariant-matrix and component call per epsilon on
    the stack of all its grid points, and one constants pass for the
    rows of every epsilon.  No row makes a
    one-point eval, covariant_matrix, metric, christoffel or frame call;
    |X| and the frames come from the stacked metric."""
    calls, shapes = collections.Counter(), collections.defaultdict(list)

    def count(owner, method, shape_of=None):
        inner = getattr(owner, method)

        def counted(*args, **kwargs):
            calls[method] += 1
            if shape_of is not None:
                shapes[method].append(np.shape(args[shape_of]))
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, method, counted)

    manifold = type(get_example(name).manifold)
    d = get_example(name).manifold.dim
    for method in ("eval", "covariant_matrix"):
        count(FieldModel, method)
    count(FieldModel, "_covariant", 1)
    count(FieldModel, "components", 1)
    for method in ("christoffel", "metric"):
        count(manifold, method)
    count(manifold, "metrics", 1)
    count(ManifoldModel, "point")
    count(ManifoldModel, "frame")
    count(constants, "_stacked_rows", 2)
    n = len(figure_sweep(name, epsilons=(0.5, 2.0), base_grid=6))
    assert n == 12
    assert calls["point"] == 6
    assert shapes["metrics"] == [(6, d)] * 2
    assert shapes["_covariant"] == [(6, d)] * 2
    assert shapes["_stacked_rows"] == [(12, d)]
    # X is read once per epsilon, for the covariant matrices too
    assert shapes["components"] == [(6, d)] * 2
    for method in ("eval", "covariant_matrix", "christoffel", "metric",
                   "frame"):
        assert calls[method] == 0


def test_figure_sweep_grid_count_uses_family_default():
    rows = figure_sweep("h2", epsilons=(1.0,), base_grid=3, tol_h=1e-4)
    assert len(rows) == 3
    assert rows[0].base1 == pytest.approx(0.2)
    assert rows[-1].base1 == pytest.approx(5.0)


def test_csv_round_trip_exact():
    rows = small_sweep()
    rows.append(SweepRow(example="h2-singular", epsilon=1.0, base1=2.0,
                         base2=None, h_numeric=math.inf, h_theory=math.inf,
                         kappa_at_h=math.inf, binding="unconditional"))
    rows.append(SweepRow(example="s3", epsilon=0.5, base1=0.9,
                         base2=np.pi / 2, h_numeric=1.25, h_theory=1.125,
                         kappa_at_h=0.875, binding="curvature"))
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == CSV_HEADER
    assert rows_from_csv(text) == rows
    inf_line = text.splitlines()[5]
    assert inf_line.split(",")[4] == "inf"
    assert inf_line.split(",")[3] == ""


def test_csv_write_is_lf_only(tmp_path):
    rows = [SweepRow(example="s2", epsilon=1.0, base1=0.9, base2=None,
                     h_numeric=1.25, h_theory=1.0, kappa_at_h=0.5,
                     binding="curvature")]
    path = tmp_path / "table.csv"
    write_csv(rows, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == rows_to_csv(rows)


def test_csv_parse_rejects_garbage():
    with pytest.raises(GeostabError):
        rows_from_csv("nope\n")
    with pytest.raises(GeostabError):
        rows_from_csv(CSV_HEADER + "\ns2,1.0,0.9\n")


# ---------------------------------------------------------------------------
# variation validation
# ---------------------------------------------------------------------------


def test_jacobi_validation_small_runs():
    for name in ("s2", "h2-singular"):
        res = jacobi_validation(name, n_cases=5, seed=3)
        assert res.n_cases == 5
        assert res.max_error < 1e-6
        assert res.rms_error <= res.max_error


def test_jacobi_validation_zero_cases():
    res = jacobi_validation("s2", n_cases=0)
    assert res.max_error == 0.0 and res.rms_error == 0.0
