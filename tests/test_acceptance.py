"""End-to-end acceptance checks.

One test per shipped guarantee, each at its stated tolerance; together
they pin the closed-form variation norms, the constant formulas, both
flat limits, the soundness and tightness of the certified steps against
empirical sweeps, the unconditional case, the penalty asymptotics, the
convergence order of both steppers, and output determinism.
"""

import math
import time

import numpy as np
import pytest

from geostab.bounds import bound_negative, bound_positive
from geostab.constants import RegionConstants, log_g_norm, point_constants
from geostab.experiments import (
    direction_sweep_delta,
    figure_sweep,
    get_example,
    jacobi_validation,
    numerical_hmax,
    pair_ratios,
    rows_to_csv,
    theory_bound,
)
from geostab.integrators import integrate
from geostab.jacobi import CurvatureSign, curvature_penalty

from odes import field_flow

SEED = 20260814


def sample_point(name, rng):
    """Chart coordinates inside a box where the closed-form constants
    are finite and the chart is well conditioned."""
    if name == "s2":
        return (rng.uniform(0.25, 1.3), rng.uniform(0.0, 2.0 * np.pi))
    if name in ("h2", "h2-singular"):
        return (rng.uniform(-2.0, 2.0), rng.uniform(0.2, 5.0))
    if name == "s3":
        return (rng.uniform(0.3, 1.4), rng.uniform(0.3, 1.4),
                rng.uniform(0.0, 2.0 * np.pi))
    raise AssertionError(name)


def test_01_variation_norm_validation_within_1e6():
    """Closed-form variation norms match finite differences of the
    actual step map to 1e-6 on 200 random cases per family, in < 10 s."""
    t0 = time.monotonic()
    for name in ("s2", "h2", "s3"):
        res = jacobi_validation(name, n_cases=200, seed=SEED)
        assert res.max_error <= 1e-6, (name, res.max_error)
    assert time.monotonic() - t0 < 10.0


def test_02_constant_formulas_match_numeric_within_1e8():
    """Numeric pointwise constants agree with the closed-form family
    expressions to relative 1e-8 at 50 random points per family."""
    rng = np.random.default_rng(SEED)
    for name in ("s2", "h2", "s3", "h2-singular"):
        family = get_example(name)
        for _ in range(50):
            eps = float(rng.uniform(0.3, 2.5))
            coords = sample_point(name, rng)
            p = family.manifold.point(coords)
            consts = point_constants(family.make_field(eps),
                                     family.manifold, p)
            for key, want in family.analytic(eps, coords).items():
                got = getattr(consts, key)
                assert abs(got - want) <= 1e-8 * abs(want), (
                    name, key, got, want)


def test_03_log_g_norm_closed_forms_within_1e10():
    """Computed logarithmic g-norm of the covariant derivative equals
    -eps*sin(phi), -eps/y and -eps*cos(psi) on the three families to
    1e-10 at 50 random points each (the half-plane value carries the
    1/y factor of its connection matrix and reduces to -eps at y = 1)."""
    rng = np.random.default_rng(SEED + 1)

    def mu_g(name, eps, p):
        family = get_example(name)
        field = family.make_field(eps)
        return log_g_norm(field.covariant_matrix(p),
                          family.manifold.metric(p))

    closed = {
        "s2": lambda eps, c: -eps * math.sin(c[0]),
        "h2": lambda eps, c: -eps / c[1],
        "s3": lambda eps, c: -eps * math.cos(c[0]),
    }
    for name, form in closed.items():
        family = get_example(name)
        for _ in range(50):
            eps = float(rng.uniform(0.3, 2.5))
            coords = sample_point(name, rng)
            got = mu_g(name, eps, family.manifold.point(coords))
            assert abs(got - form(eps, coords)) <= 1e-10, (name, coords)
    for eps in (0.5, 1.0, 2.0):
        p = get_example("h2").manifold.point((0.7, 1.0))
        assert abs(mu_g("h2", eps, p) + eps) <= 1e-10


def test_04_flat_limit_recovers_two_alpha_within_1e6():
    """With curvature scale 1e-9 both curved rules return 2*alpha to
    relative 1e-6."""
    for alpha in (0.3, 0.9, 2.0):
        pos = bound_positive(RegionConstants(
            alpha=alpha, mu_plus=1.5, mu_minus=math.inf, sigma=math.inf,
            sup_norm=1e-9, rho=1.0))
        neg = bound_negative(RegionConstants(
            alpha=alpha, mu_plus=math.inf, mu_minus=1.5, sigma=1.0,
            sup_norm=1e-9, rho=-1.0))
        assert abs(pos.h_max - 2.0 * alpha) <= 1e-6 * 2.0 * alpha
        assert abs(neg.h_max - 2.0 * alpha) <= 1e-6 * 2.0 * alpha


def test_05_sweep_soundness_and_real_pair_contraction():
    """Full comparison sweeps (3 epsilons x 40 base points x 3 families):
    every certified step is below the empirical limit, and actual GEE
    pairs at distance 1e-5 along 64 directions never expand beyond
    relative 1e-9 at the certified step.  Runs in under 2 minutes."""
    t0 = time.monotonic()
    for name in ("s2", "h2", "s3"):
        family = get_example(name)
        rows = figure_sweep(name, epsilons=(0.5, 1.0, 2.0), base_grid=40)
        assert len(rows) == 120
        for row in rows:
            assert row.h_theory <= row.h_numeric + 1e-9, row
            field = family.make_field(row.epsilon)
            p = family.manifold.point(family.to_coords(row.base1, row.base2))
            ratios = pair_ratios(field, p, row.h_theory, n_dirs=64,
                                 delta=1e-5)
            assert np.all(ratios <= 1.0 + 1e-9), row
    assert time.monotonic() - t0 < 120.0


def test_06_certified_step_tightens_away_from_equator():
    """On the 2-sphere family with eps = 1 the relative gap between the
    empirical and certified steps shrinks from phi = 0.3 to phi = 1.4."""
    family = get_example("s2")
    field = family.make_field(1.0)

    def rel_gap(phi):
        p = family.manifold.point((phi, 0.0))
        h_num = numerical_hmax(field, family.manifold, p)
        h_th = theory_bound("s2", 1.0, p).h_max
        return (h_num - h_th) / h_num

    assert rel_gap(1.4) < rel_gap(0.3)


def test_07_singular_family_is_unconditionally_stable():
    """The dilation field on the half-plane never expands any sampled
    direction for h up to 100, and its certified step is unconditional."""
    family = get_example("h2-singular")
    field = family.make_field(1.0)
    for coords in ((0.0, 1.0), (1.5, 0.4), (-2.0, 3.0)):
        p = family.manifold.point(coords)
        for h in (0.1, 1.0, 10.0, 100.0):
            assert direction_sweep_delta(field, family.manifold, p, h) <= 1e-12
        res = theory_bound("h2-singular", 1.0, p)
        assert res.h_max == math.inf
        assert res.binding == "unconditional"


def test_08_penalty_asymptote_and_monotonicity():
    """The combined curvature penalty behaves as kappa/2 - 1 for large
    kappa on the negative branch (2% at kappa = 20) and is nondecreasing
    on [0, pi] on the positive branch (1e4-point grid)."""
    got = curvature_penalty(20.0, CurvatureSign.NEGATIVE)
    want = 20.0 / 2.0 - 1.0
    assert abs(got - want) <= 0.02 * want
    grid = np.linspace(0.0, np.pi, 10_000)
    vals = curvature_penalty(grid, CurvatureSign.POSITIVE)
    assert np.all(np.diff(vals) >= 0.0)


@pytest.mark.parametrize("method", ("gee", "gie"))
def test_09_both_steppers_have_order_one(method):
    """Halving the step halves the endpoint error (ratio 2 +- 0.1) at
    T = 1 against an accurate reference flow, on all three families."""
    for name in ("s2", "h2", "s3"):
        family = get_example(name)
        field = family.make_field(1.0)
        p = family.manifold.point(family.to_coords(*family.default_base))
        ref = field_flow(field, p, 1.0, step=1e-4)
        errs = []
        for n in (64, 128):
            end = integrate(field, p, 1.0 / n, n, method=method)[-1]
            errs.append(family.manifold.distance(end, ref))
        ratio = errs[0] / errs[1]
        assert abs(ratio - 2.0) <= 0.1, (name, method, ratio)


def test_10_figure_output_is_byte_identical_across_runs(tmp_path):
    """The same sweep configuration always produces the same CSV
    bytes."""
    def run():
        return rows_to_csv(figure_sweep(
            "s2", epsilons=(1.0,), base_grid=6, tol_h=1e-5))

    first = run()
    second = run()
    assert first == second
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(first)
    b.write_text(second)
    assert a.read_bytes() == b.read_bytes()
