"""Step-size rules.

Oracles: the certified-step equations re-solved by dense scanning with
independently coded right-hand sides (the scalar kernels themselves are
validated against high-precision references elsewhere).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geostab.bounds as bounds
from geostab.bounds import (
    BoundResult,
    _grid_min,
    _kappa_coth_minus_one,
    _negative_rhs,
    bound_negative,
    bound_positive,
    bound_singular,
    euclidean_bound,
)
from geostab.constants import RegionConstants
from geostab.errors import (
    GeostabError,
    InconsistentConstantsError,
    NoBoundError,
)
from geostab.jacobi import CurvatureSign, curvature_penalty, f_functions

POS = CurvatureSign.POSITIVE
NEG = CurvatureSign.NEGATIVE


def make_consts(alpha=1.0, mu_plus=1.0, mu_minus=1.0, sigma=1.0,
                sup_norm=1.0, rho=1.0):
    return RegionConstants(alpha=alpha, mu_plus=mu_plus, mu_minus=mu_minus,
                           sigma=sigma, sup_norm=sup_norm, rho=rho)


# ---------------------------------------------------------------------------
# euclidean rule
# ---------------------------------------------------------------------------


def test_euclidean_bound_value():
    out = euclidean_bound(0.75)
    assert out == BoundResult(1.5, "euclidean", "flat", 0.0)


def test_euclidean_bound_rejects_nonpositive_alpha():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(NoBoundError):
            euclidean_bound(bad)


# ---------------------------------------------------------------------------
# positive-curvature rule
# ---------------------------------------------------------------------------


def positive_scan(consts, n=2_000_001):
    """Independent dense scan for the largest admissible step."""
    scale = consts.sup_norm * math.sqrt(consts.rho)
    ceiling = min(2.0 * consts.alpha, math.pi / scale)
    hs = np.linspace(0.0, ceiling, n)
    F = hs - 2.0 * consts.alpha + 2.0 * consts.mu_plus * curvature_penalty(
        hs * scale, POS)
    ok = np.nonzero(F <= 0.0)[0]
    return float(hs[ok[-1]]), ceiling


@pytest.mark.parametrize("alpha,mu,C,rho", [
    (0.7, 0.9, 1.3, 1.0),
    (0.2, 2.0, 0.8, 2.0),
    (1.5, 0.3, 2.0, 0.5),
    (1.0, 1.0, 1.0, 1.0),
])
def test_positive_rule_matches_dense_scan(alpha, mu, C, rho):
    consts = make_consts(alpha=alpha, mu_plus=mu, sup_norm=C, rho=rho)
    out = bound_positive(consts)
    h_scan, ceiling = positive_scan(consts)
    assert abs(out.h_max - h_scan) <= 3.0 * ceiling / 2_000_000
    assert out.rule == "positive"
    assert abs(out.kappa_at_h - out.h_max * C * math.sqrt(rho)) < 1e-12


def test_positive_rule_curvature_binding_hits_root():
    consts = make_consts(alpha=1.0, mu_plus=2.0, sup_norm=1.0, rho=1.0)
    out = bound_positive(consts)
    assert out.binding == "curvature"
    scale = 1.0
    F = out.h_max - 2.0 + 4.0 * curvature_penalty(out.h_max * scale, POS)
    assert abs(F) < 1e-9
    assert out.h_max < 2.0


def test_positive_rule_kappa_cap_binding():
    consts = make_consts(alpha=100.0, mu_plus=1.0, sup_norm=1.0, rho=1.0)
    out = bound_positive(consts)
    assert out.binding == "kappa-cap"
    assert abs(out.h_max - math.pi) < 1e-15
    assert abs(out.kappa_at_h - math.pi) < 1e-15


def test_positive_rule_flat_binding_when_penalty_free():
    consts = make_consts(alpha=0.4, mu_plus=0.0, sup_norm=1.0, rho=1.0)
    out = bound_positive(consts)
    assert out.binding == "flat"
    assert out.h_max == 0.8


def test_positive_rule_flat_limit():
    """As the curvature scale goes to zero the rule collapses to the
    euclidean ceiling 2*alpha."""
    consts = make_consts(alpha=0.9, mu_plus=1.5, sup_norm=1e-9, rho=1.0)
    out = bound_positive(consts)
    assert abs(out.h_max - 1.8) <= 1e-6 * 1.8


def test_positive_rule_kappa_never_exceeds_pi():
    rng = np.random.default_rng(5)
    for _ in range(40):
        consts = make_consts(alpha=rng.uniform(0.05, 50.0),
                             mu_plus=rng.uniform(0.0, 5.0),
                             sup_norm=rng.uniform(0.1, 3.0),
                             rho=rng.uniform(0.1, 4.0))
        out = bound_positive(consts)
        assert out.kappa_at_h <= math.pi + 1e-12


def test_positive_rule_monotonicity():
    base = dict(alpha=0.8, mu_plus=1.0, sup_norm=1.0, rho=1.0)
    hs = [bound_positive(make_consts(**{**base, "alpha": a})).h_max
          for a in np.linspace(0.2, 3.0, 12)]
    assert np.all(np.diff(hs) >= -1e-12)
    hs = [bound_positive(make_consts(**{**base, "mu_plus": m})).h_max
          for m in np.linspace(0.1, 4.0, 12)]
    assert np.all(np.diff(hs) <= 1e-12)
    hs = [bound_positive(make_consts(**{**base, "sup_norm": c})).h_max
          for c in np.linspace(0.3, 3.0, 12)]
    assert np.all(np.diff(hs) <= 1e-12)


def test_positive_rule_input_validation():
    with pytest.raises(GeostabError):
        bound_positive(make_consts(rho=-1.0))
    with pytest.raises(GeostabError):
        bound_positive(make_consts(rho=0.0))
    with pytest.raises(NoBoundError):
        bound_positive(make_consts(alpha=0.0))
    with pytest.raises(NoBoundError):
        bound_positive(make_consts(alpha=-2.0))
    with pytest.raises(NoBoundError):
        bound_positive(make_consts(alpha=math.inf))
    with pytest.raises(NoBoundError):
        bound_positive(make_consts(sup_norm=0.0))
    with pytest.raises(NoBoundError):
        bound_positive(make_consts(mu_plus=math.inf))


# ---------------------------------------------------------------------------
# negative-curvature rule
# ---------------------------------------------------------------------------


def negative_rhs_oracle(kappas, alpha, mu, damping):
    kappas = np.asarray(kappas, dtype=float)
    with np.errstate(invalid="ignore"):
        coth_term = np.where(kappas == 0.0, 1.0,
                             kappas * np.cosh(kappas)
                             / np.where(kappas == 0.0, 1.0,
                                        np.sinh(kappas)))
    _, _, f3 = f_functions(kappas, NEG)
    damp = curvature_penalty(kappas, NEG) / (1.0 + f3)
    return (2.0 / (1.0 + damping)) * (alpha * coth_term - mu * damp)


def negative_scan(consts, n_inner=4001):
    """Bisection on an independently coded certificate equation."""
    scale = consts.sup_norm * math.sqrt(-consts.rho)
    damping = (consts.sigma * scale) ** 2
    flat = 2.0 * consts.alpha / (1.0 + damping)

    def F(h):
        ks = np.linspace(0.0, h * scale, n_inner)
        return h - float(np.min(negative_rhs_oracle(
            ks, consts.alpha, consts.mu_minus, damping)))

    if F(flat) <= 0.0:
        return flat
    lo, hi = 0.0, flat
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if F(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("alpha,mu,sigma,C,rho", [
    (0.5, 1.2, 0.8, 1.0, -1.0),
    (1.0, 0.25, 0.5, 2.0, -0.5),
    (0.3, 3.0, 1.5, 0.7, -2.0),
    (2.0, 1.0, 1.0, 1.0, -1.0),
])
def test_negative_rule_matches_dense_scan(alpha, mu, sigma, C, rho):
    consts = make_consts(alpha=alpha, mu_minus=mu, sigma=sigma, sup_norm=C,
                         rho=rho)
    out = bound_negative(consts)
    want = negative_scan(consts)
    assert abs(out.h_max - want) <= 1e-6 * max(1.0, want)
    assert out.rule == "negative"
    assert abs(out.kappa_at_h - out.h_max * C * math.sqrt(-rho)) < 1e-12


def test_negative_rule_flat_binding_without_penalty():
    consts = make_consts(alpha=0.6, mu_minus=0.0, sigma=0.5, sup_norm=2.0,
                         rho=-1.0)
    out = bound_negative(consts)
    damping = (0.5 * 2.0) ** 2
    assert out.binding == "flat"
    assert abs(out.h_max - 2.0 * 0.6 / (1.0 + damping)) < 1e-14


def test_negative_rule_flat_binding_is_not_decided_by_rounding():
    """rhs(0) equals the flat ceiling mathematically but may round one
    ulp below it; a minimum at kappa = 0 is still the flat binding."""
    consts = RegionConstants(alpha=0.6, mu_minus=0.5, sigma=1.3,
                             sup_norm=1.0, rho=-1.0, mu_plus=1.0)
    out = bound_negative(consts)
    assert out.binding == "flat"
    assert out.h_max == 2 * 0.6 / (1 + 1.3 ** 2) == 0.4460966542750929


def test_negative_rhs_does_not_round_below_the_flat_ceiling():
    """The excess over the flat ceiling grows like 0.0066*kappa^2 here.
    Summed apart from the ceiling it keeps its sign; the direct form
    2/(1+D) * (alpha*kappa*coth(kappa) - ...) rounds up to two ulps
    below the ceiling near kappa = 7e-8, where the narrowed grid finds
    it and would report a curvature binding."""
    alpha, mu, sigma, C, rho = (0.6889008566930749, 2.5204366790534394,
                                1.1760164187225068, 0.3267040900509468,
                                -0.4698007737456536)
    scale = C * math.sqrt(-rho)
    damping = (sigma * scale) ** 2
    flat = 2.0 * alpha / (1.0 + damping)
    ks = np.geomspace(1e-12, 1e-3, 2001)
    assert np.all(_negative_rhs(ks, alpha, mu, damping) >= flat)
    out = bound_negative(make_consts(alpha=alpha, mu_minus=mu, sigma=sigma,
                                     sup_norm=C, rho=rho))
    assert out.binding == "flat"
    assert out.h_max == flat


def test_kappa_coth_minus_one_against_mpmath():
    """Relative accuracy where the series branch runs (kappa < 1e-4),
    absolute accuracy at the scale of kappa*coth(kappa) elsewhere,
    across the kappa = 30 switch to the linear tail."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    ks = np.concatenate([np.geomspace(1e-12, 40.0, 801),
                         [9.99e-5, 1e-4, 1.0001e-4, 29.99, 30.0, 30.01]])
    got = _kappa_coth_minus_one(ks)
    for k, g in zip(ks, got):
        want = float(mpmath.mpf(k) * mpmath.coth(mpmath.mpf(k)) - 1)
        if k < 1e-4:
            assert abs(g - want) <= 1e-14 * want
        else:
            assert abs(g - want) <= 4e-16 * (1.0 + want)


def test_negative_rule_evaluates_rhs_on_whole_grids(monkeypatch):
    """Every rhs evaluation of the negative rule is one whole grid of
    the narrowed search, in the curvature and in the flat binding."""
    sizes = []
    real = bounds._negative_rhs

    def spy(kappa, *args):
        sizes.append(np.shape(kappa))
        return real(kappa, *args)

    monkeypatch.setattr(bounds, "_negative_rhs", spy)
    for consts, binding in [
            (make_consts(alpha=1.0, mu_minus=4.0, sigma=0.5, sup_norm=1.0,
                         rho=-1.0), "curvature"),
            (make_consts(alpha=0.6, mu_minus=0.5, sigma=1.3, sup_norm=1.0,
                         rho=-1.0), "flat")]:
        sizes.clear()
        assert bound_negative(consts).binding == binding
        assert sizes and set(sizes) == {(2001,)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.05, 3.0), mu=st.floats(0.0, 5.0),
       sigma=st.floats(0.05, 2.0), C=st.floats(0.05, 3.0),
       rho=st.floats(-4.0, -0.05))
def test_negative_rule_sound_and_tight_against_oracle(alpha, mu, sigma, C,
                                                      rho):
    """h_max is at most the oracle minimum of rhs on [0, h_max*s]; unless
    the flat ceiling binds, a step 1e-6 larger is not certified."""
    consts = make_consts(alpha=alpha, mu_minus=mu, sigma=sigma, sup_norm=C,
                         rho=rho)
    out = bound_negative(consts)
    scale = C * math.sqrt(-rho)
    damping = (sigma * scale) ** 2

    def oracle_min(h):
        ks = np.linspace(0.0, h * scale, 20001)
        return float(np.min(negative_rhs_oracle(ks, alpha, mu, damping)))

    assert out.h_max <= oracle_min(out.h_max) * (1.0 + 1e-12)
    if out.binding != "flat":
        h_up = out.h_max * (1.0 + 1e-6)
        assert h_up > oracle_min(h_up)


def test_negative_rule_curvature_binding_is_certified_boundary():
    consts = make_consts(alpha=1.0, mu_minus=4.0, sigma=0.5, sup_norm=1.0,
                         rho=-1.0)
    out = bound_negative(consts)
    assert out.binding == "curvature"
    scale = 1.0
    damping = 0.25
    ks = np.linspace(0.0, out.h_max * scale, 200001)
    worst = float(np.min(negative_rhs_oracle(ks, 1.0, 4.0, damping)))
    assert abs(out.h_max - worst) < 1e-6


def test_negative_rule_flat_limit():
    consts = make_consts(alpha=0.9, mu_minus=1.5, sigma=1.0, sup_norm=1e-9,
                         rho=-1.0)
    out = bound_negative(consts)
    assert abs(out.h_max - 1.8) <= 1e-6 * 1.8


def test_negative_rule_monotonicity():
    base = dict(alpha=0.8, mu_minus=1.0, sigma=0.7, sup_norm=1.0, rho=-1.0)
    hs = [bound_negative(make_consts(**{**base, "alpha": a})).h_max
          for a in np.linspace(0.2, 3.0, 10)]
    assert np.all(np.diff(hs) >= -1e-12)
    for key in ("mu_minus", "sigma", "sup_norm"):
        hs = [bound_negative(make_consts(**{**base, key: v})).h_max
              for v in np.linspace(0.2, 3.0, 10)]
        assert np.all(np.diff(hs) <= 1e-12)


def test_negative_rule_input_validation():
    with pytest.raises(GeostabError):
        bound_negative(make_consts(rho=1.0))
    with pytest.raises(GeostabError):
        bound_negative(make_consts(rho=0.0))
    with pytest.raises(NoBoundError):
        bound_negative(make_consts(alpha=0.0, rho=-1.0))
    with pytest.raises(NoBoundError):
        bound_negative(make_consts(alpha=math.inf, rho=-1.0))
    with pytest.raises(NoBoundError):
        bound_negative(make_consts(sup_norm=0.0, rho=-1.0))
    with pytest.raises(NoBoundError):
        bound_negative(make_consts(mu_minus=math.inf, rho=-1.0))
    with pytest.raises(NoBoundError):
        bound_negative(make_consts(sigma=math.inf, rho=-1.0))


# ---------------------------------------------------------------------------
# singular rule
# ---------------------------------------------------------------------------


def test_singular_rule_closed_form_value():
    """R = 2 at alpha = 1/2, sigma = 1, c = 1, |rho| = 1, and
    arccoth(2) = log(3)/2."""
    consts = make_consts(alpha=0.5, sigma=1.0, rho=-1.0)
    out = bound_singular(consts, (1.0, 1.0))
    want = 0.5 * math.log(3.0)
    assert abs(out.h_max - want) < 1e-14
    assert out.rule == "singular"
    assert out.binding == "curvature"
    assert abs(out.kappa_at_h - out.h_max) < 1e-14
    # self-check: coth of the step reproduces the certified ratio
    assert abs(1.0 / math.tanh(out.h_max) - 2.0) < 1e-12


@pytest.mark.parametrize("alpha,sigma,lo,hi", [
    (0.25, 1.0, 0.5, 2.0),
    (0.5, 2.0, 0.1, 1.5),
    (0.3, 0.8, 0.2, 5.0),
    (1.0, 3.0, 0.05, 0.2),
    (0.2, 0.5, 3.0, 10.0),
])
def test_singular_rule_worst_over_norm_range(alpha, sigma, lo, hi):
    """Dense scan over the norm range, which straddles the certified
    ratio's minimum at c = 1/sigma in the first three cases."""
    consts = make_consts(alpha=alpha, sigma=sigma, rho=-1.0)
    out = bound_singular(consts, (lo, hi))
    cs = np.linspace(lo, hi, 200001)
    R = (1.0 + (cs * sigma) ** 2) / (2.0 * alpha * cs)
    hs = 0.5 * np.log((R + 1.0) / (R - 1.0)) / cs
    assert abs(out.h_max - hs.min()) <= 1e-9 * hs.min()


def test_singular_rule_degenerate_range_matches_interior_point():
    consts = make_consts(alpha=0.25, sigma=1.0, rho=-1.0)
    a = bound_singular(consts, (0.7, 0.7)).h_max
    cs = 0.7
    R = (1.0 + cs ** 2) / (2.0 * 0.25 * cs)
    assert abs(a - 0.5 * math.log((R + 1.0) / (R - 1.0)) / cs) < 1e-14


def test_singular_rule_unconditional_at_unit_ratio():
    """sigma = alpha makes the certified ratio hit 1 at c = 1/sigma:
    every step is non-expansive."""
    consts = make_consts(alpha=1.0, sigma=1.0, rho=-1.0)
    out = bound_singular(consts, (1.0, 1.0))
    assert out.h_max == math.inf
    assert out.binding == "unconditional"
    assert out.kappa_at_h == math.inf


def test_singular_rule_inconsistent_constants():
    consts = make_consts(alpha=2.0, sigma=1.0, rho=-1.0)
    with pytest.raises(InconsistentConstantsError):
        bound_singular(consts, (1.0, 1.0))


def test_singular_rule_small_norm_limit_is_flat_ceiling():
    """As the field norm goes to zero the certified step approaches
    2*alpha, the flat ceiling, not infinity."""
    consts = make_consts(alpha=0.4, sigma=1.0, rho=-1.0)
    out = bound_singular(consts, (1e-9, 1e-9))
    assert abs(out.h_max - 0.8) <= 1e-6 * 0.8


def test_singular_rule_step_decreases_with_sigma():
    hs = []
    for sigma in np.linspace(1.1, 4.0, 8):
        consts = make_consts(alpha=1.0, sigma=sigma, rho=-1.0)
        hs.append(bound_singular(consts, (1.0, 1.0)).h_max)
    assert np.all(np.diff(hs) <= 1e-12)


def test_singular_rule_input_validation():
    with pytest.raises(GeostabError):
        bound_singular(make_consts(rho=1.0), (1.0, 1.0))
    with pytest.raises(NoBoundError):
        bound_singular(make_consts(alpha=0.0, rho=-1.0), (1.0, 1.0))
    with pytest.raises(NoBoundError):
        bound_singular(make_consts(sigma=math.inf, rho=-1.0), (1.0, 1.0))
    with pytest.raises(NoBoundError):
        bound_singular(make_consts(sigma=0.0, rho=-1.0), (1.0, 1.0))
    with pytest.raises(GeostabError):
        bound_singular(make_consts(rho=-1.0), (0.0, 1.0))
    with pytest.raises(GeostabError):
        bound_singular(make_consts(rho=-1.0), (2.0, 1.0))


# ---------------------------------------------------------------------------
# one-dimensional minimum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_grid", [512, 2001])
def test_grid_min_finds_a_kinked_minimum_to_a_few_ulp(n_grid):
    x0 = 1.0 / math.sqrt(2.0)
    value, arg = _grid_min(lambda x: 0.5 + np.abs(x - x0), 0.0, 1.0, n_grid)
    assert abs(arg - x0) <= 4 * np.spacing(x0)
    assert abs(value - 0.5) <= 4 * np.spacing(0.5)


def test_grid_min_reports_a_minimum_at_lo_exactly():
    """(x - 0.3)^2 vanishes against 1 within 1e-8 of lo, so the narrowed
    grids see ties there; the earlier point, lo itself, wins."""
    assert _grid_min(lambda x: 1.0 + (x - 0.3) ** 2, 0.3, 2.0,
                     2001) == (1.0, 0.3)


def test_grid_min_of_a_constant_is_at_lo():
    assert _grid_min(lambda x: np.full_like(x, 2.5), -1.0, 3.0,
                     512) == (2.5, -1.0)


def test_grid_min_on_a_single_point():
    assert _grid_min(lambda x: 2.0 * x, 0.7, 0.7, 512) == (1.4, 0.7)
