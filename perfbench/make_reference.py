"""Write the stored reference outputs of the ``figure`` and ``certify`` pools.

    python3 perfbench/make_reference.py [figure|certify ...]

Runs the ``geostab`` in ``src/`` over every candidate input of the pools
that the benchmark's seeds draw from, and writes ``reference/figure.csv``
and ``reference/certify.jsonl``.  The certify pool inputs come from a fixed
generator seed and are stored with their outputs.  Regenerate only when a
change to ``geostab`` is meant to change its outputs beyond the
benchmark's tolerances, and say so with the change.
"""

import json
import os
import sys

import numpy as np

import workloads as wl

POOL_SEED = 20250312


def _api():
    import run  # the benchmark's loader; pins threads as a run does
    return run.load_api()


def write_figure(api) -> None:
    ex = api.experiments
    rows = []
    for fam in wl.FAMILIES:
        rows += ex.figure_sweep(fam)  # seed 0: the CLI default table
        rows += ex.figure_sweep(fam, epsilons=wl.EPSILONS,
                                base_grid=wl.figure_pool_grid(fam))
    seen = set()
    lines = [ex.CSV_HEADER]
    for r in rows:
        key = wl.row_key(r.example, r.epsilon, r.base1, r.base2)
        if key in seen:
            continue
        seen.add(key)
        lines.append(",".join([
            r.example, repr(r.epsilon), repr(r.base1),
            "" if r.base2 is None else repr(r.base2),
            format(r.h_numeric, ".12g"), format(r.h_theory, ".12g"),
            format(r.kappa_at_h, ".12g"), r.binding]))
    with open(wl.FIGURE_REFERENCE, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {wl.FIGURE_REFERENCE} ({len(lines) - 1} rows)")


def _strata_u(rng, j: int, n: int) -> float:
    """Uniform draw inside the j-th of n equal parts of [0, 1)."""
    return (j + float(rng.uniform())) / n


def certify_inputs(kind: str, cls: str, j: int, count: int, rng) -> dict:
    """Inputs of one candidate of stratum j of a certify query class."""
    q = {"kind": kind, "class": cls, "stratum": j}
    if kind == "point":
        u = _strata_u(rng, j // 3, 2)
        q.update(family=cls, eps=wl.EPSILONS[j % 3])
        if cls == "s2":
            q["coords"] = [0.3 + 1.1 * u, float(rng.uniform(0, 2 * np.pi))]
        elif cls == "s3":
            q["coords"] = [0.3 + 1.1 * u, float(rng.uniform(0.3, 1.4)),
                           float(rng.uniform(0, 2 * np.pi))]
        else:
            q["coords"] = [float(rng.uniform(-1, 1)), 0.2 * 25.0 ** u]
        return q
    u = _strata_u(rng, j, count)
    w = float(rng.uniform(0.01, 0.04))
    if kind == "region":
        c = 0.35 + 1.0 * u
        q.update(family=cls, eps=wl.EPSILONS[j % 3], n=3 if cls == "s2"
                 else 2)
        a0 = float(rng.uniform(0, 6))
        if cls == "s2":
            q.update(lo=[c - w, a0], hi=[c + w, a0 + 2 * w])
        else:
            t = float(rng.uniform(0.35, 1.35))
            q.update(lo=[c - w, t - w, a0], hi=[c + w, t + w, a0 + 2 * w])
        return q
    alpha = 0.2 * 10.0 ** u
    sigma = alpha * float(rng.uniform(1.05, 3.0))
    q.update(alpha=alpha, sigma=sigma,
             c_lo=float(rng.uniform(0.3, 1.0)) / sigma,
             c_hi=float(rng.uniform(1.0, 3.0)) / sigma)
    return q


def h2_box(rng) -> dict:
    """A small h2 box at an epsilon drawn log-uniformly from [0.05, 2]."""
    y_lo = 0.3 * 10.0 ** float(rng.uniform())
    x0 = float(rng.uniform(-1, 1))
    return {"kind": "region", "family": "h2",
            "eps": 0.05 * 40.0 ** float(rng.uniform()), "n": 3,
            "lo": [x0, y_lo], "hi": [x0 + 0.2,
                                     y_lo * float(rng.uniform(1.05, 1.3))]}


def _with_result(api, q: dict) -> dict:
    fn, _ = wl.prepare_query(api, q)
    res = fn()
    q.update(rule=res.rule, binding=res.binding, h_max=res.h_max,
             kappa_at_h=res.kappa_at_h)
    return q


def h2_region_pool(api, rng, counts: dict) -> list:
    """h2 box queries split by the binding bound_negative reports.

    The binding is the class: boxes at epsilon below about 0.16 bind on
    the curvature term; at larger epsilon the minimum of the rule's
    right-hand side sits at kappa = 0, where it equals the flat ceiling
    up to rounding, so the reported binding there is flat or curvature
    depending on the last bits of the constants.  Drawing from one
    distribution and keeping a fixed number of each binding per pass
    keeps both kinds of curvature result and fixes their share.
    """
    need = {cls: n * wl.CANDIDATES for cls, n in counts.items()}
    found = {cls: [] for cls in counts}
    while any(len(found[c]) < need[c] for c in counts):
        q = _with_result(api, h2_box(rng))
        cls = "h2-" + q["binding"]
        if len(found[cls]) < need[cls]:
            found[cls].append(q)
    out = []
    for cls, qs in found.items():
        qs.sort(key=lambda q: q["eps"])
        for i, q in enumerate(qs):
            q.update({"class": cls, "stratum": i // wl.CANDIDATES})
            out.append(q)
    return out


def write_certify(api) -> None:
    rng = np.random.default_rng(POOL_SEED)
    queries = []
    h2_counts = {}
    for kind, cls, count in wl.CERTIFY_MIX:
        if cls.startswith("h2-") and kind == "region":
            h2_counts[cls] = count
            continue
        for j in range(count):
            for _ in range(wl.CANDIDATES):
                queries.append(_with_result(
                    api, certify_inputs(kind, cls, j, count, rng)))
    queries += h2_region_pool(api, rng, h2_counts)
    with open(wl.CERTIFY_REFERENCE, "w", encoding="utf-8",
              newline="") as fh:
        fh.write("".join(json.dumps(q) + "\n" for q in queries))
    print(f"wrote {wl.CERTIFY_REFERENCE} ({len(queries)} queries)")


def main(argv) -> int:
    api = _api()
    parts = argv or ["figure", "certify"]
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    if "certify" in parts:
        write_certify(api)
    if "figure" in parts:
        write_figure(api)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
