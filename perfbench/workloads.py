"""The benchmark's three workloads: ``figure``, ``certify`` and ``steps``.

Each workload builds its inputs from the seed (outside every timed region),
runs one *pass* over those fixed inputs per ``run_pass`` call, and checks the
outputs of a pass in ``check``, untimed.  All calls into ``geostab`` go
through the module objects in ``api`` and look the function up at call
time, so a traced pass sees the wrappers that ``tracing`` installs.

``figure`` and ``certify`` draw their inputs from finite pools: the pool is
split into strata, and the seed picks one candidate per stratum.  Every seed
therefore has the same size and mix, and the outputs of every candidate are
stored in ``reference/`` (written by ``make_reference.py``), so every seed
is checked against a stored reference.  ``steps`` draws continuous inputs
and is checked by invariants of the outputs.
"""

import contextlib
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
FIGURE_REFERENCE = os.path.join(REFERENCE_DIR, "figure.csv")
CERTIFY_REFERENCE = os.path.join(REFERENCE_DIR, "certify.jsonl")

FAMILIES = ("s2", "h2", "s3")
EPSILONS = (0.5, 1.0, 2.0)  # the CLI's default --epsilon
FIGURE_ROWS = len(EPSILONS) * 40  # rows of one default figure table

# Reference tolerances.  h_numeric may move by up to 7.5e-6 relative when
# the sampled direction sweep is replaced by an exact worst direction, plus
# its own bisection tolerance of 1e-6; a rigorous bound rule may lower a
# certified step, so h_theory (and kappa_at_h = h_theory * scale) may drop
# by up to 1e-3 relative but rise by no more than H_RTOL.
H_RTOL = 5e-5
H_THEORY_DROP = 1e-3

SOUNDNESS_SLACK = 1e-9  # the CLI's own gate
VALIDATION_TOL = 1e-6
PAIR_RATIO_SLACK = 1e-9
GIE_DEFECT_TOL = 1e-10  # recomputed defect of a converged implicit step
GEE_LENGTH_TOL = 1e-9  # |d(p, next) - h |X(p)|| of an explicit step
# Near a sphere's chart pole the chart angle is recovered from an arcsin or
# arctan of a coordinate close to its extreme, which resolves it only to
# about sqrt(2 * machine epsilon); explicit steps that start there may miss
# their length by that much (the same loss of precision stalls GIE there).
POLE_RESOLUTION = math.sqrt(2.0 * 2.0 ** -52)
POLE_DISTANCE = 1e-3  # chart coordinate distance that counts as "at a pole"


@dataclass
class PassResult:
    """What one pass did; only ``wall_s`` and ``latencies`` are timed."""

    wall_s: float = 0.0
    latencies: list = field(default_factory=list)  # seconds per query
    attempted: int = 0
    completed: int = 0  # units counted by ops_per_s
    expected_failures: int = 0  # documented GeostabError outcomes
    failures: int = 0  # unexpected errors and failed checks
    problems: list = field(default_factory=list)
    regimes: Counter = field(default_factory=Counter)
    outputs: object = None


def within(got: float, ref: float, drop: float, rise: float) -> bool:
    """ref * (1 - drop) <= got <= ref * (1 + rise); inf matches inf."""
    if math.isinf(ref) or math.isinf(got):
        return got == ref
    return ref - drop * abs(ref) <= got <= ref + rise * abs(ref)


def binding_ok(binding: str, ref: str, rule: str) -> bool:
    """Same binding, except that the negative rule may report flat or
    curvature for the same step: at a flat ceiling its test is decided by
    the last bits of the constants, which BLAS kernels may change."""
    return binding == ref or (rule == "negative"
                              and {binding, ref} == {"flat", "curvature"})


def _cells(values, n_cells: int) -> list:
    values = [float(v) for v in values]
    k = len(values) // n_cells
    return [values[i * k:(i + 1) * k] for i in range(n_cells)]


# -- figure -------------------------------------------------------------------


def figure_pool(family: str):
    """Candidate base values per grid cell, as (base1 cells, base2 cells or
    None).  Cells follow the default grid of ``geostab figure``: 40 points
    of base1 (s2 elevation, h2 height on a geometric scale), or 8 psi by 5
    theta on s3."""
    if family == "s2":
        return _cells(np.linspace(0.3, 1.4, 40 * 3), 40), None
    if family == "h2":
        return _cells(np.geomspace(0.2, 5.0, 40 * 3), 40), None
    return (_cells(np.linspace(0.3, 1.4, 8 * 3), 8),
            _cells(np.linspace(0.3, 1.4, 5 * 2), 5))


def _product(b1: list, b2) -> list:
    if b2 is None:
        return [(b, None) for b in b1]
    return [(p, t) for p in b1 for t in b2]


def figure_grid(family: str, rng) -> list:
    """One seeded candidate per cell, in the default grid's order."""
    b1_cells, b2_cells = figure_pool(family)
    b1 = [c[rng.integers(len(c))] for c in b1_cells]
    b2 = (None if b2_cells is None
          else [c[rng.integers(len(c))] for c in b2_cells])
    return _product(b1, b2)


def figure_pool_grid(family: str) -> list:
    b1_cells, b2_cells = figure_pool(family)
    b2 = None if b2_cells is None else [v for c in b2_cells for v in c]
    return _product([v for c in b1_cells for v in c], b2)


def row_key(example, eps, b1, b2) -> tuple:
    return (example, float(eps), float(b1), None if b2 is None else
            float(b2))


def parse_rows(text: str) -> list:
    """CSV rows of ``geostab figure`` as (key, h_numeric, h_theory, kappa,
    binding); raises ValueError on a malformed table."""
    lines = text.split("\n")
    if lines[-1] != "" or not lines[0].startswith("example,epsilon,"):
        raise ValueError("not a figure table")
    rows = []
    for line in lines[1:-1]:
        f = line.split(",")
        if len(f) != 8:
            raise ValueError(f"malformed row {line!r}")
        rows.append((row_key(f[0], f[1], f[2], f[3] or None),
                     float(f[4]), float(f[5]), float(f[6]), f[7]))
    return rows


def load_figure_reference() -> dict:
    with open(FIGURE_REFERENCE, encoding="utf-8") as fh:
        return {r[0]: r[1:] for r in parse_rows(fh.read())}


class Figure:
    """``geostab figure`` for s2, h2 and s3 through the CLI entry points.

    Seed 0 runs exactly ``geostab figure --example F`` (3 epsilons x 40
    base points per family) through ``cli.main``.  Other seeds move each
    base point within its default-grid cell and run the same table
    through ``cli.run``, since the argument parser only takes uniform
    grids.  A query is one CLI call (one family's table).
    """

    name = "figure"

    @staticmethod
    def warm_up(api, tmp):
        ex = api.experiments
        for fam in FAMILIES:
            family = ex.get_example(fam)
            p = family.manifold.point(family.to_coords(*family.default_base))
            ex.theory_bound(fam, 1.0, p)
            ex.numerical_hmax(family.make_field(1.0), family.manifold, p)
        ex.write_csv([], os.path.join(tmp, "warm_up.csv"))
        api.cli.build_parser()

    def __init__(self, api, seed: int, tmp: str):
        self.api = api
        self.reference = load_figure_reference()
        rng = np.random.default_rng(seed)
        self.jobs = []
        for fam in FAMILIES:
            path = os.path.join(tmp, f"{fam}.csv")
            grid = None if seed == 0 else figure_grid(fam, rng)
            self.jobs.append((fam, grid, path))
        self.first_csv = {}

    def _call(self, fam, grid, path) -> int:
        cli = self.api.cli
        if grid is None:
            return cli.main(["figure", "--example", fam, "--out", path])
        return cli.run(cli.RunConfig(command="figure", example=fam,
                                     epsilons=EPSILONS, grid=grid, out=path))

    def run_pass(self) -> PassResult:
        res = PassResult(outputs=[])
        clock = time.perf_counter
        for fam, grid, path in self.jobs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                t0 = clock()
                rc = self._call(fam, grid, path)
                t1 = clock()
            res.latencies.append(t1 - t0)
            res.wall_s += t1 - t0
            res.outputs.append((fam, rc, out.getvalue(), err.getvalue()))
        return res

    def check(self, res: PassResult) -> None:
        for (fam, rc, out, err), (_, _, path) in zip(res.outputs, self.jobs):
            rows = []
            if rc == 0:
                with open(path, "rb") as fh:
                    data = fh.read()
                if self.first_csv.setdefault(fam, data) != data:
                    res.problems.append(f"figure {fam}: CSV bytes differ "
                                        f"between passes")
                try:
                    rows = parse_rows(data.decode("utf-8"))
                except ValueError as exc:
                    res.problems.append(f"figure {fam}: {exc}")
            if len(rows) != FIGURE_ROWS or \
                    out.strip() != f"wrote {path} ({FIGURE_ROWS} rows)":
                res.attempted += FIGURE_ROWS
                res.failures += FIGURE_ROWS
                res.problems.append(f"figure {fam}: exit status {rc}, "
                                    f"{len(rows)} rows, output "
                                    f"{out.strip()!r} {err.strip()[:300]!r}")
                continue
            for key, h_num, h_th, kappa, binding in rows:
                res.attempted += 1
                res.regimes[binding] += 1
                if self._row_ok(key, h_num, h_th, kappa, binding):
                    res.completed += 1
                else:
                    res.failures += 1
                    res.problems.append(f"figure row {key}: "
                                        f"{(h_num, h_th, kappa, binding)} "
                                        f"vs reference "
                                        f"{self.reference.get(key)}")

    def _row_ok(self, key, h_num, h_th, kappa, binding) -> bool:
        ref = self.reference.get(key)
        if ref is None:
            return False
        r_num, r_th, r_kappa, r_binding = ref
        rule = "negative" if key[0] == "h2" else "positive"
        return (binding_ok(binding, r_binding, rule)
                and h_th <= h_num + SOUNDNESS_SLACK
                and within(h_num, r_num, H_RTOL, H_RTOL)
                and within(h_th, r_th, H_THEORY_DROP, H_RTOL)
                and within(kappa, r_kappa, H_THEORY_DROP, H_RTOL))


# -- certify ------------------------------------------------------------------

# Per-pass mix of certification queries: (kind, class, count).  Each count
# is the number of strata; the pool holds CANDIDATES queries per stratum.
# The h2 region queries are split by the binding bound_negative reports
# (see make_reference.h2_region_pool): a curvature result bisects and is
# about 50 times slower than a flat one.  Fixing their share at 10 of 100
# puts query_p95_ms in the middle of that slow population.  By latency the
# fast queries order as singular (range and h2-singular points, under
# 1 ms), s2/s3 points, s2/s3 regions (about 9 ms), h2 points and h2 flat
# regions; the counts put query_p50_ms in the middle of the s2/s3 regions.
CERTIFY_MIX = (
    ("point", "s2", 6), ("point", "h2", 6), ("point", "s3", 6),
    ("point", "h2-singular", 6),
    ("region", "s2", 12), ("region", "s3", 12),
    ("region", "h2-flat", 22), ("region", "h2-curvature", 10),
    ("range", "singular", 20),
)
CANDIDATES = 3
HMAX_CHECKS = 6  # point queries per run also checked against numerical_hmax


def _box_points(manifold, lo, hi, n):
    axes = [np.linspace(a, b, n) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [manifold.point(c) for c in np.stack([m.ravel() for m in mesh],
                                                 axis=1)]


def prepare_query(api, q: dict):
    """(zero-argument callable running the stored query q, its base point
    for point queries or None)."""
    if q["kind"] == "point":
        family = api.experiments.get_example(q["family"])
        p = family.manifold.point(q["coords"])
        fam, eps = q["family"], q["eps"]
        return lambda: api.experiments.theory_bound(fam, eps, p), p
    if q["kind"] == "region":
        family = api.experiments.get_example(q["family"])
        fld = family.make_field(q["eps"])
        pts = _box_points(family.manifold, q["lo"], q["hi"], q["n"])
        rule = {"positive": "bound_positive",
                "negative": "bound_negative"}[family.rule]

        def region():
            consts = api.constants.region_constants(fld, family.manifold,
                                                    pts)
            return getattr(api.bounds, rule)(consts)

        return region, None
    consts = api.constants.RegionConstants(
        alpha=q["alpha"], mu_plus=math.inf, mu_minus=math.inf,
        sigma=q["sigma"], sup_norm=q["c_hi"], rho=-1.0)
    norms = (q["c_lo"], q["c_hi"])
    return lambda: api.bounds.bound_singular(consts, norms), None


def load_certify_reference() -> dict:
    pool = {}
    with open(CERTIFY_REFERENCE, encoding="utf-8") as fh:
        for line in fh:
            q = json.loads(line)
            pool.setdefault((q["kind"], q["class"], q["stratum"]),
                            []).append(q)
    return pool


def result_ok(res, q: dict) -> bool:
    return (res.rule == q["rule"]
            and binding_ok(res.binding, q["binding"], q["rule"])
            and within(res.h_max, q["h_max"], H_THEORY_DROP, H_RTOL)
            and within(res.kappa_at_h, q["kappa_at_h"], H_THEORY_DROP,
                       H_RTOL))


class Certify:
    """A seeded stream of certification queries over all four families:
    point queries through ``theory_bound``, region queries through
    ``region_constants`` and the family's rule on small boxes, and
    ``bound_singular`` over a norm range.  A query is one such call."""

    name = "certify"

    @staticmethod
    def warm_up(api, tmp):
        ex = api.experiments
        for fam in ("s2", "h2", "s3", "h2-singular"):
            family = ex.get_example(fam)
            p = family.manifold.point(family.to_coords(*family.default_base))
            ex.theory_bound(fam, 1.0, p)
        family = ex.get_example("s2")
        p = family.manifold.point((0.8, 0.0))
        consts = api.constants.region_constants(family.make_field(1.0),
                                                family.manifold, [p])
        api.bounds.bound_positive(consts)
        singular = api.constants.RegionConstants(
            alpha=1.0, mu_plus=math.inf, mu_minus=math.inf, sigma=2.0,
            sup_norm=1.0, rho=-1.0)
        api.bounds.bound_singular(singular, (0.5, 1.0))

    def __init__(self, api, seed: int, tmp: str):
        self.api = api
        pool = load_certify_reference()
        rng = np.random.default_rng(seed)
        self.queries = []
        for kind, cls, count in CERTIFY_MIX:
            for stratum in range(count):
                cands = pool[(kind, cls, stratum)]
                q = cands[rng.integers(len(cands))]
                fn, point = prepare_query(api, q)
                self.queries.append((q, fn, point))
        order = rng.permutation(len(self.queries))
        self.queries = [self.queries[i] for i in order]
        points = [i for i, (q, _, _) in enumerate(self.queries)
                  if q["kind"] == "point"]
        self.hmax_checked = sorted(rng.choice(points, HMAX_CHECKS,
                                              replace=False))
        self.last_outputs = None

    def run_pass(self) -> PassResult:
        res = PassResult(outputs=[])
        errors = self.api.errors.GeostabError
        clock = time.perf_counter
        t_start = clock()
        for q, fn, _ in self.queries:
            t0 = clock()
            try:
                out = fn()
            except errors as exc:
                out = exc
            res.latencies.append(clock() - t0)
            res.outputs.append(out)
        res.wall_s = clock() - t_start
        return res

    def check(self, res: PassResult) -> None:
        self.last_outputs = res.outputs
        for (q, _, _), out in zip(self.queries, res.outputs):
            res.attempted += 1
            if isinstance(out, Exception) or not result_ok(out, q):
                res.failures += 1
                res.problems.append(f"certify {q['kind']} {q['class']} "
                                    f"{q['stratum']}: {out!r}")
                continue
            res.completed += 1
            res.regimes[out.binding] += 1

    def final_check(self) -> list:
        """h_max <= numerical_hmax + 1e-9 on a seeded subset of point
        queries."""
        problems = []
        ex = self.api.experiments
        for i in self.hmax_checked:
            q, _, p = self.queries[i]
            out = self.last_outputs[i]
            family = ex.get_example(q["family"])
            h_num = ex.numerical_hmax(family.make_field(q["eps"]),
                                      family.manifold, p)
            if isinstance(out, Exception) or \
                    not out.h_max <= h_num + SOUNDNESS_SLACK:
                problems.append(f"certify point {q}: {out!r} above "
                                f"numerical_hmax {h_num!r}")
        return problems


# -- steps --------------------------------------------------------------------

STEP_STARTS = 12  # starts per family, one per cell of the base range
# explicit steps per trajectory: long enough for the starts in the upper
# cells of s2 and s3 to reach their chart pole, where about 6 % of all
# implicit steps stall, so query_p95_ms sits inside the stalled steps
STEP_LEN = 24
STEP_FRACTION = (0.3, 0.5)  # h / certified step
# Start k takes base cell k, epsilon EPSILONS[k % 3], and fixed cells of the
# step fraction and (on s3) of theta; a seed moves each value only within
# its cell, so every seed has the same spread of starts and step sizes.
FRACTION_CELL = [(5 * k) % STEP_STARTS for k in range(STEP_STARTS)]
THETA_CELL = [(7 * k + 3) % STEP_STARTS for k in range(STEP_STARTS)]
VALIDATION_CASES = 200  # as in `geostab validate`


@dataclass
class Start:
    family: str
    eps: float
    point: object
    field: object
    h: float


def _near_pole(family: str, coords) -> bool:
    if family == "s2":
        return math.pi / 2 - abs(coords[0]) < POLE_DISTANCE
    if family == "s3":
        return min(coords[0], math.pi - coords[0], coords[1],
                   math.pi - coords[1]) < POLE_DISTANCE
    return False


class Steps:
    """Explicit and implicit geodesic Euler steps on s2, h2 and s3.

    For each seeded start: one GEE trajectory, one ``gie_step`` from every
    point of it, and ``pair_ratios`` at the start; then ``jacobi_validation``
    for the three families (the ``geostab validate`` run).  Step sizes are a
    seeded fraction of the certified step, computed here, untimed.  The
    implicit step stalls near chart poles (s2 at phi -> pi/2, s3 at
    psi -> 0) and raises NonconvergenceError; those steps are kept and
    counted as failed operations in ok_ratio.  A query is one ``gie_step``.
    """

    name = "steps"

    @staticmethod
    def warm_up(api, tmp):
        ex, it = api.experiments, api.integrators
        family = ex.get_example("h2")
        p = family.manifold.point(family.to_coords(*family.default_base))
        fld = family.make_field(1.0)
        it.integrate(fld, p, 0.1, 1, "gee")
        it.gie_step(fld, p, 0.1)
        ex.pair_ratios(fld, p, 0.1, n_dirs=8)
        ex.jacobi_validation("h2", n_cases=1)

    def __init__(self, api, seed: int, tmp: str):
        self.api = api
        self.seed = seed
        ex = api.experiments
        rng = np.random.default_rng(seed)
        self.starts = []
        for fam in FAMILIES:
            family = ex.get_example(fam)
            for k in range(STEP_STARTS):
                u, v, w = (np.array([k, FRACTION_CELL[k], THETA_CELL[k]])
                           + rng.uniform(size=3)) / STEP_STARTS
                b1 = 0.2 * 25.0 ** u if fam == "h2" else 0.3 + 1.1 * u
                b2 = 0.3 + 1.1 * w if fam == "s3" else None
                eps = EPSILONS[k % len(EPSILONS)]
                p = family.manifold.point(family.to_coords(b1, b2))
                h_cert = ex.theory_bound(fam, eps, p).h_max
                h = (STEP_FRACTION[0]
                     + (STEP_FRACTION[1] - STEP_FRACTION[0]) * v) * h_cert
                self.starts.append(Start(fam, eps, p,
                                         family.make_field(eps), float(h)))
        self.first = None

    def run_pass(self) -> PassResult:
        api = self.api
        stall = api.errors.NonconvergenceError
        clock = time.perf_counter
        res = PassResult(outputs={"traj": [], "gie": [], "ratios": [],
                                  "validation": []})
        t_start = clock()
        for st in self.starts:
            traj = api.integrators.integrate(st.field, st.point, st.h,
                                             STEP_LEN, "gee")
            gie = []
            for q in traj:
                t0 = clock()
                try:
                    out = api.integrators.gie_step(st.field, q, st.h)
                except stall as exc:
                    out = exc
                res.latencies.append(clock() - t0)
                gie.append(out)
            ratios = api.experiments.pair_ratios(st.field, st.point, st.h)
            res.outputs["traj"].append(traj)
            res.outputs["gie"].append(gie)
            res.outputs["ratios"].append(ratios)
        for fam in FAMILIES:
            res.outputs["validation"].append(api.experiments.jacobi_validation(
                fam, n_cases=VALIDATION_CASES, seed=self.seed))
        res.wall_s = clock() - t_start
        return res

    def check(self, res: PassResult) -> None:
        out = res.outputs
        stall = self.api.errors.NonconvergenceError
        for st, traj, gie, ratios in zip(self.starts, out["traj"],
                                         out["gie"], out["ratios"]):
            model = st.field.manifold
            res.attempted += len(traj) - 1 + len(gie) + 1
            for a, b in zip(traj, traj[1:]):
                step = st.h * st.field.norm_at(a)
                tol = GEE_LENGTH_TOL * (1.0 + step) + (
                    POLE_RESOLUTION if _near_pole(st.family, a.coords)
                    else 0.0)
                if abs(model.distance(a, b) - step) <= tol:
                    res.completed += 1
                else:
                    res.failures += 1
                    res.problems.append(f"steps {st.family}: GEE step "
                                        f"length off at {a!r}")
            for q, nxt in zip(traj, gie):
                res.regimes["gie_near_pole"] += _near_pole(st.family,
                                                           q.coords)
                res.regimes["gie"] += 1
                if isinstance(nxt, stall):
                    res.expected_failures += 1
                    continue
                back = model.exp(nxt, model.tangent(
                    nxt, -st.h * st.field.eval(nxt).comps))
                if model.distance(back, q) <= GIE_DEFECT_TOL:
                    res.completed += 1
                else:
                    res.failures += 1
                    res.problems.append(f"steps {st.family}: GIE defect "
                                        f"above tolerance at {q!r}")
            if not float(np.max(ratios)) <= 1.0 + PAIR_RATIO_SLACK:
                res.failures += 1
                res.problems.append(f"steps {st.family}: pair ratio "
                                    f"{np.max(ratios)!r} at {st.point!r}")
        for v in out["validation"]:
            res.attempted += 1
            if not v.max_error <= VALIDATION_TOL:
                res.failures += 1
                res.problems.append(f"validate {v.example}: max deviation "
                                    f"{v.max_error!r}")
        summary = ([[q.coords.tobytes() for q in t] for t in out["traj"]],
                   [[repr(x) if isinstance(x, Exception)
                     else x.coords.tobytes() for x in g] for g in out["gie"]],
                   [r.tobytes() for r in out["ratios"]],
                   [(v.max_error, v.rms_error) for v in out["validation"]])
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            res.failures += 1
            res.problems.append("steps: outputs differ between passes")


WORKLOADS = {w.name: w for w in (Figure, Certify, Steps)}
