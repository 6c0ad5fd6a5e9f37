"""Step-size rules.

Oracles: the certified-step equations re-solved by dense scanning with
independently coded right-hand sides (the scalar kernels themselves are
validated against high-precision references elsewhere), and the exact
worst-direction step limit of random fields, which each rule's certified
step must not exceed.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import geostab.bounds as bounds
from geostab.bounds import (
    FLAT_RATIO,
    BoundResult,
    _damped_penalty,
    _grid_min,
    _kappa_coth_minus_one,
    _negative_rhs,
    _negative_terms,
    _positive_rows,
    bound_negative,
    bound_positive,
    bound_singular,
    euclidean_bound,
)
from geostab.constants import RegionConstants, point_constants
from geostab.errors import (
    GeostabError,
    InconsistentConstantsError,
    NoBoundError,
    UnsupportedKernelError,
)
from geostab.experiments import figure_sweep, numerical_hmax
from geostab.jacobi import CurvatureSign, curvature_penalty, f_functions
from geostab.manifolds import HALF_PLANE, SPHERE2, SPHERE3

from conftest import affine_field
from oracles import (kernel_worst, separate_curvature_penalty,
                     separate_damped_penalty, separate_f_functions,
                     separate_kappa_coth_minus_one, separate_negative_rhs,
                     plain_bisection, sequential_bound_positive,
                     sweep_kernel)

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


# one row of each kind: curvature binding, flat (mu_plus = 0), kappa-cap
# binding (2 alpha - pi/s >= 2 mu_plus, since G(pi) = 1) and a tiny C
# whose kappa stays on the series branch
CURVATURE_ROW = st.builds(make_consts, alpha=st.floats(0.05, 3.0),
                          mu_plus=st.floats(0.01, 5.0),
                          sup_norm=st.floats(0.05, 4.0),
                          rho=st.floats(0.05, 4.0))
FLAT_ROW = st.builds(make_consts, alpha=st.floats(0.05, 3.0),
                     mu_plus=st.just(0.0), sup_norm=st.floats(0.05, 4.0),
                     rho=st.floats(0.05, 4.0))
KAPPA_CAP_ROW = st.builds(make_consts, alpha=st.floats(5.0, 50.0),
                          mu_plus=st.floats(0.0, 1.0),
                          sup_norm=st.floats(0.5, 2.0), rho=st.just(1.0))
TINY_C_ROW = st.builds(make_consts, alpha=st.floats(0.05, 3.0),
                       mu_plus=st.floats(0.01, 5.0),
                       sup_norm=st.floats(1e-9, 1e-4),
                       rho=st.floats(0.05, 4.0))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.one_of(CURVATURE_ROW, FLAT_ROW, KAPPA_CAP_ROW,
                               TINY_C_ROW), min_size=1, max_size=12))
def test_positive_rows_equal_the_sequential_rule(rows):
    """The lockstep rule over a table gives every row exactly what the
    scalar bisection gives it, in one batch and one row at a time."""
    want = [sequential_bound_positive(c) for c in rows]
    assert _positive_rows(rows) == want
    assert [bound_positive(c) for c in rows] == want
    assert all(type(r.h_max) is float and type(r.kappa_at_h) is float
               for r in _positive_rows(rows))


def test_positive_rows_cover_every_binding():
    rows = [make_consts(alpha=1.0, mu_plus=2.0), make_consts(mu_plus=0.0),
            make_consts(alpha=100.0), make_consts(sup_norm=1e-9)]
    got = _positive_rows(rows)
    assert [r.binding for r in got] == ["curvature", "flat", "kappa-cap",
                                        "curvature"]
    assert got == [sequential_bound_positive(c) for c in rows]
    assert _positive_rows([]) == []


@pytest.mark.parametrize("alpha,mu,C,rho", [
    (0.9378601844351282, 2.5177256412211264, 3.8218288133526315,
     2.4680889188337045),
    (2.934421059255492, 4.6059073799937575, 0.7061184895008554,
     1.0203933492736459)])
def test_positive_rows_square_like_a_scalar(alpha, mu, C, rho):
    """numpy squares a scalar by pow and an array by multiplication; at
    these rows the two move F across zero in the last bisection steps,
    so a batch squaring by multiplication ends one ulp off."""
    rows = [make_consts(alpha=alpha, mu_plus=mu, sup_norm=C, rho=rho)]
    assert _positive_rows(rows * 3) == [sequential_bound_positive(rows[0])] * 3


def regula_falsi_guess(lo, hi, at_lo, at_hi):
    """The root guess of a few-row batch: regula falsi from the end
    values, or the midpoint when that is not strictly inside."""
    with np.errstate(all="ignore"):
        g = float(np.float64(lo) - at_lo * (hi - lo) / (np.float64(at_hi)
                                                          - at_lo))
    return g if lo < g < hi else 0.5 * (lo + hi)


@pytest.mark.parametrize("kind", ["monotone", "hash-sign", "smooth"])
@pytest.mark.parametrize("tol", [0.0, 1e-6])
@pytest.mark.parametrize("n", [1, 5, 10, 11, 32, 200])
def test_bisect_rows_matches_plain_bisection(n, tol, kind):
    """Every row ends where a plain scalar bisection of its bracket ends
    it, bit for bit, for excess values of +-1 from a monotone predicate
    and from one without any order (the parity of a hash), and for a
    smooth monotone excess.  Eleven or more live rows take one halving
    each per call, applied as arrays, until few rows are left; fewer
    rows put each row's whole predicted path into the first call."""
    rng = np.random.default_rng(n)
    lo = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.0, 2.0, n))
    hi = lo + rng.uniform(1e-3, 3.0, n)
    root = lo + rng.uniform(0.0, 1.0, n) * (hi - lo)

    def value(row, h):
        if kind == "smooth":
            return math.expm1(h - root[row]) * (1.0 + h * h)
        holds = (h <= root[row] if kind == "monotone"
                 else hash((row, h)) % 3 > 0)
        return -1.0 if holds else 1.0

    batches = []

    def excess(rows, h):
        batches.append((rows.tolist(), h.tolist()))
        return np.array([value(r, x) for r, x in zip(rows.tolist(),
                                                     h.tolist())])

    at_lo = [value(r, lo[r]) for r in range(n)]
    at_hi = [value(r, hi[r]) for r in range(n)]
    got = bounds._bisect_rows(excess, lo, hi, tol, at_lo, at_hi)
    want = [plain_bisection(lambda h: value(r, h) <= 0.0, float(lo[r]),
                            float(hi[r]), tol) for r in range(n)]
    assert got.tolist() == want
    if n >= 11:
        assert batches[0] == (list(range(n)), (0.5 * (lo + hi)).tolist())
    else:
        paths = []
        for r in range(n):
            guess = regula_falsi_guess(lo[r], hi[r], at_lo[r], at_hi[r])
            plain_bisection(lambda h: paths.append((r, h)) or h <= guess,
                            float(lo[r]), float(hi[r]), tol)
        assert list(zip(*batches[0])) == paths


def test_single_positive_rows_take_few_kernel_calls(monkeypatch):
    """500 seeded curvature-binding rows, one at a time, reach the plain
    bisection's bit (to tol = 0) in at most 6 kernel calls in the median
    and 16 at most, the ceiling test included; a bisection one level a
    call would take about 55."""
    calls = []
    penalty = bounds._penalty

    def counted(*args):
        calls.append(1)
        return penalty(*args)

    monkeypatch.setattr(bounds, "_penalty", counted)
    rng = np.random.default_rng(17)
    counts = []
    while len(counts) < 500:
        consts = make_consts(alpha=rng.uniform(0.05, 3.0),
                             mu_plus=rng.uniform(0.01, 5.0),
                             sup_norm=rng.uniform(0.05, 4.0),
                             rho=rng.uniform(0.05, 4.0))
        calls.clear()
        got = bound_positive(consts)
        if got.binding == "curvature":
            counts.append(len(calls))
            assert got == sequential_bound_positive(consts)
    assert np.median(counts) <= 6 and max(counts) <= 16


BAD_POSITIVE_ROWS = [make_consts(rho=-1.0), make_consts(rho=0.0),
                     make_consts(alpha=0.0), make_consts(alpha=math.inf),
                     make_consts(alpha=math.nan), make_consts(sup_norm=0.0),
                     make_consts(mu_plus=math.inf)]


@pytest.mark.parametrize("first", range(len(BAD_POSITIVE_ROWS)))
def test_positive_rows_raise_for_the_first_bad_row(first):
    """A batch raises what the sequential rule raises for its first bad
    row, whatever comes after it."""
    good = make_consts(alpha=1.0, mu_plus=2.0)
    bad = BAD_POSITIVE_ROWS[first]
    batch = [good, bad, good] + BAD_POSITIVE_ROWS[:first][::-1]
    with pytest.raises(GeostabError) as want:
        sequential_bound_positive(bad)
    with pytest.raises(GeostabError) as got:
        _positive_rows(batch)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


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
    """Relative accuracy below kappa = 1e-4, absolute accuracy at the
    scale of kappa*coth(kappa) elsewhere, across the kappa = 30 switch to
    the linear tail."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    ks = np.concatenate([np.geomspace(1e-12, 40.0, 801),
                         [9.99e-5, 1e-4, 1.0001e-4, 29.99, 30.0, 30.01]])
    got = _kappa_coth_minus_one(ks, _negative_terms(ks))
    for k, g in zip(ks, got):
        want = float(mpmath.mpf(k) * mpmath.coth(mpmath.mpf(k)) - 1)
        if k < 1e-4:
            assert abs(g - want) <= 1e-14 * want
        else:
            assert abs(g - want) <= 4e-16 * (1.0 + want)


KERNEL_KAPPAS = np.concatenate([
    [0.0], np.geomspace(1e-8, 500.0, 1500),
    *[[np.nextafter(k, 0.0), k, np.nextafter(k, math.inf)]
      for k in (1.0, 30.0, 300.0, 350.0)]])


def same_bits(got, want):
    return (type(got) is type(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@pytest.mark.parametrize("sign", [POS, NEG], ids=["positive", "negative"])
def test_curvature_kernels_equal_separate_evaluation(sign):
    """The shared curvature terms leave every kernel as it was with each
    series evaluated on its own: bit for bit, on arrays and scalars, on
    both sides of the switches at 1, 30, 300 and 350."""
    cases = [KERNEL_KAPPAS] + [float(k) for k in KERNEL_KAPPAS[::37]] + [
        float(k) for k in KERNEL_KAPPAS[-12:]]
    for kappa in cases:
        with np.errstate(over="ignore"):  # sinh(2 kappa) past 355
            got, want = (f_functions(kappa, sign),
                         separate_f_functions(kappa, sign))
        assert all(same_bits(g, w) for g, w in zip(got, want))
        assert same_bits(curvature_penalty(kappa, sign),
                         separate_curvature_penalty(kappa, sign))
        if sign is NEG:
            terms = _negative_terms(np.asarray(kappa))
            assert same_bits(_kappa_coth_minus_one(kappa, terms),
                             separate_kappa_coth_minus_one(kappa))
            assert same_bits(_damped_penalty(kappa, terms),
                             separate_damped_penalty(kappa))
            for alpha, mu, damping in [(0.3, 3.0, 0.9), (1.0, 0.0, 0.0),
                                       (2.0, 0.5, 4.0)]:
                assert same_bits(
                    _negative_rhs(kappa, alpha, mu, damping),
                    separate_negative_rhs(kappa, alpha, mu, damping))


def test_negative_rule_evaluates_rhs_on_whole_grids(monkeypatch):
    """Every rhs evaluation of the negative rule is one whole grid of
    the narrowed search in the curvature binding; the flat binding is
    certified in closed form and evaluates no rhs."""
    sizes = []
    real = bounds._negative_rhs

    def spy(kappa, *args):
        sizes.append(np.shape(kappa))
        return real(kappa, *args)

    monkeypatch.setattr(bounds, "_negative_rhs", spy)
    for consts, binding, grids in [
            (make_consts(alpha=1.0, mu_minus=4.0, sigma=0.5, sup_norm=1.0,
                         rho=-1.0), "curvature", {(2001,)}),
            (make_consts(alpha=0.6, mu_minus=0.5, sigma=1.3, sup_norm=1.0,
                         rho=-1.0), "flat", set())]:
        sizes.clear()
        assert bound_negative(consts).binding == binding
        assert set(sizes) == grids and bool(sizes) == bool(grids)


def test_flat_certificate_ratio_against_mpmath():
    """D <= (2 - sqrt(3)) kc with D the damped penalty and kc = kappa
    coth(kappa) - 1, at 40 digits: on a dense cover of [1e-6, 300] the
    ratio D/kc stays below 2 - sqrt(3) and never rises; below it the gap
    is the series term 0.0756 kappa^2, whose coefficient the gaps at
    kappa = 1e-2 ... 1e-8 pin down to 2e-5.  The rule's FLAT_RATIO lies
    above 2 - sqrt(3) by its margin."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    r = 2 - mpmath.sqrt(3)

    def ratio(k):
        k = mpmath.mpf(k)
        c, s = mpmath.cosh(k), mpmath.sinh(k) / k
        G = (c - s) ** 2 / (s * c - 1 + mpmath.sinh(k) * mpmath.sqrt(
            s * s - 1))
        return (G / s ** 2) / ((c - s) / s)

    prev = r
    for k in np.geomspace(1e-6, 300.0, 3001):
        now = ratio(float(k))
        assert now < r and now <= prev, k
        prev = now
    gaps = [(r - ratio(k)) / mpmath.mpf(k) ** 2
            for k in ("1e-2", "1e-4", "1e-6", "1e-8")]
    assert all(0.07559 < g < 0.07561 for g in gaps)
    assert r * (1 + 1e-13) <= FLAT_RATIO < r * (1 + 1e-11)  # the safe side


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.05, 3.0),
       ratio=st.one_of(st.floats(0.02, 0.95 * (2 - math.sqrt(3))),
                       st.floats(2 - math.sqrt(3), 3.0)),
       sigma=st.floats(0.05, 2.0), C=st.floats(0.05, 3.0),
       rho=st.floats(-4.0, -0.05))
def test_negative_rule_is_flat_exactly_above_the_certificate_ratio(
        alpha, ratio, sigma, C, rho):
    """The binding is flat iff alpha >= (2 - sqrt(3)) mu_minus, and the
    dense scan of an independently coded rhs agrees: below the ratio
    max(rhs, kappa/s) dips under the flat ceiling, above it never."""
    mu = alpha / ratio
    consts = make_consts(alpha=alpha, mu_minus=mu, sigma=sigma, sup_norm=C,
                         rho=rho)
    out = bound_negative(consts)
    flat_expected = alpha >= (2 - math.sqrt(3)) * mu
    assert out.binding == ("flat" if flat_expected else "curvature")
    scale = C * math.sqrt(-rho)
    damping = (sigma * scale) ** 2
    flat = 2.0 * alpha / (1.0 + damping)
    ks = np.concatenate([np.geomspace(1e-9, 1e-2, 2001) * flat * scale,
                         np.linspace(0.0, flat * scale, 20001)])
    phi = np.maximum(negative_rhs_oracle(ks, alpha, mu, damping),
                     ks / scale)
    assert (phi.min() >= flat * (1.0 - 1e-13)) == flat_expected
    if flat_expected:
        assert out.h_max == flat


def test_h2_table_certifies_every_row_in_closed_form(monkeypatch):
    """Every row of the default h2 table is flat by the certificate, so
    the table evaluates no rhs grid."""
    calls = []
    monkeypatch.setattr(bounds, "_grid_min",
                        lambda *args: calls.append(args))
    rows = figure_sweep("h2")
    assert len(rows) == 120 and not calls
    assert {row.binding for row in rows} == {"flat"}


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
# soundness on random fields
# ---------------------------------------------------------------------------

FIELD_BOXES = {
    "s2": ((-1.2, 1.2), (0.0, 2.0 * math.pi)),
    "s3": ((0.35, math.pi - 0.35),) * 2 + ((0.0, 2.0 * math.pi),),
    "h2": ((-2.0, 2.0), (0.2, 5.0)),
}
FIELD_TOL_H = 1e-6
FIELD_ROUNDING = 1e-12  # bound on λ_max(M(h_theory)) where a rule is exact


@st.composite
def random_fields(draw, manifold, tilt=None):
    """(field, p): the affine field with X(p) = a and ∇X(p) = g^-½ B g^½
    at a random point p, so that B is ∇X in a g-orthonormal basis.  The
    orthonormal components y = g^½ a have a random direction and a length
    in [0.2, 3].  B = -(L Lᵀ + δ I) + (K - Kᵀ)/2 gives a cocoercive field;
    with tilt, a strategy of angles on H², B = -c (I - u uᵀ) is singular
    with its kernel u at the drawn angle from y."""
    d = manifold.dim
    p = manifold.point([draw(st.floats(lo, hi))
                        for lo, hi in FIELD_BOXES[manifold.name]])
    w, q = np.linalg.eigh(manifold.metric(p))
    half, half_inv = (q * np.sqrt(w)) @ q.T, (q / np.sqrt(w)) @ q.T

    def matrix(n, bound):
        return np.array(draw(st.lists(st.floats(-bound, bound), min_size=n,
                                      max_size=n))).reshape(-1, d)

    y = matrix(d, 1.0)[0]
    assume(np.linalg.norm(y) > 0.1)
    y *= draw(st.floats(0.2, 3.0)) / np.linalg.norm(y)
    if tilt is None:
        L, K = matrix(d * d, 1.5), matrix(d * d, 2.0)
        B = -(L @ L.T + draw(st.floats(0.05, 1.0)) * np.eye(d)) + (K - K.T) / 2
    else:
        angle = math.atan2(y[1], y[0]) + draw(tilt)
        u = np.array([math.cos(angle), math.sin(angle)])
        B = -draw(st.floats(0.2, 5.0)) * (np.eye(2) - np.outer(u, u))
    return affine_field(manifold, p.coords, half_inv @ y,
                        half_inv @ B @ half), p


RULES = {
    "positive": (st.sampled_from([SPHERE2, SPHERE3]), None, bound_positive,
                 {"curvature"}),
    "negative": (st.just(HALF_PLANE), None, bound_negative,
                 {"flat", "curvature"}),
    "singular": (st.just(HALF_PLANE), st.just(0.0),
                 lambda c: bound_singular(c, (c.sup_norm, c.sup_norm)),
                 {"curvature", "unconditional"}),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rules_are_sound_on_random_fields(rule):
    """On random fields the certified step of each rule, at the constants
    of one point, stays within the empirical limit: h_theory <= h_numeric
    (1 + tol_h), since h_numeric is the low end of a bracket of relative
    width tol_h, or else λ_max(M(h_theory)) <= FIELD_ROUNDING, where an
    exact rule meets the limit inside that bracket.  The positive rule
    runs on s2 and s3, the negative and singular rules (kernel along X)
    on H²; the draws reach the listed bindings."""
    manifolds, tilt, bound, bindings = RULES[rule]
    seen = collections.Counter()

    @settings(max_examples=50, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def check(data):
        m = data.draw(manifolds)
        field, p = data.draw(random_fields(m, tilt))
        res = bound(point_constants(field, m, p))
        h_numeric = numerical_hmax(field, m, p, tol_h=FIELD_TOL_H)
        seen[res.binding] += 1
        if math.isinf(res.h_max):
            assert math.isinf(h_numeric)
        elif res.h_max > h_numeric * (1.0 + FIELD_TOL_H):
            kernel = sweep_kernel(field, m, p)
            assert kernel_worst(kernel, res.h_max) <= FIELD_ROUNDING

    check()
    assert bindings <= set(seen), seen


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=random_fields(HALF_PLANE, st.floats(1e-3, math.pi / 2)))
def test_singular_rule_refuses_random_kernels_off_the_field(case):
    """A singular ∇X whose kernel is not along X has no certified step:
    its constants raise UnsupportedKernelError."""
    field, p = case
    with pytest.raises(UnsupportedKernelError):
        point_constants(field, HALF_PLANE, p)


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
