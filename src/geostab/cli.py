"""Command-line front end: certified bounds, empirical step searches,
comparison-table sweeps and variation-formula validation.

Exit status: 0 on success, 1 when a computed invariant fails (an
unsound sweep row or a validation deviation above tolerance), 2 for
unusable flags.
"""

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .bounds import euclidean_bound
from .errors import GeostabError
from .experiments import (DEFAULT_EPSILONS, DEFAULT_GRID, DEFAULT_H_LO,
                          _checked_constants, _family_rule, _fmt,
                          figure_sweep, get_example, jacobi_validation,
                          numerical_hmax, rows_to_csv, spec_grid, write_csv)

SOUNDNESS_SLACK = 1e-9
VALIDATION_TOL = 1e-6

EXAMPLE_NAMES = ("s2", "h2", "s3", "h2-singular", "euclid")
VALIDATE_DEFAULT = ("s2", "h2", "s3")


@dataclass(frozen=True)
class RunConfig:
    """One parsed CLI invocation."""

    command: str
    example: Optional[str] = None
    epsilons: tuple = (1.0,)
    alpha: Optional[float] = None
    base: Optional[tuple] = None  # (base1, base2 | None)
    grid: Optional[object] = None  # int or list of (base1, base2)
    tol_h: float = 1e-6
    h_hi: float = 1e3
    out: Optional[str] = None
    cases: int = 200
    seed: int = 0


def _parse_point(text: str) -> tuple:
    parts = [s for s in text.split(",") if s != ""]
    if len(parts) not in (1, 2):
        raise ValueError("expected base1 or base1,base2")
    b1 = float(parts[0])
    b2 = float(parts[1]) if len(parts) == 2 else None
    return (b1, b2)


def _parse_grid(text: str):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("expected start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be at least 1")
        return (start, stop, count)
    count = int(text)
    if count < 1:
        raise ValueError("grid count must be at least 1")
    return count


def _parse_epsilons(text: str) -> tuple:
    vals = tuple(float(s) for s in text.split(",") if s != "")
    if not vals:
        raise ValueError("expected a comma-separated list of numbers")
    return vals


def _base_point(family, base):
    b1, b2 = family.default_base if base is None else base
    return family.manifold.point(family.to_coords(b1, b2))


def _run_bound(config: RunConfig) -> int:
    if config.example == "euclid":
        res = euclidean_bound(config.alpha)
        print(f"example   euclid")
        print(f"alpha     {_fmt(config.alpha)}")
        print(f"rule      {res.rule}")
        print(f"binding   {res.binding}")
        print(f"h_max     {_fmt(res.h_max)}")
        return 0
    family = get_example(config.example)
    eps = config.epsilons[0]
    p = _base_point(family, config.base)
    consts = _checked_constants(family, eps, p)
    res = _family_rule(family, [consts])[0]
    print(f"example     {config.example}")
    print(f"epsilon     {_fmt(eps)}")
    print(f"point       {','.join(_fmt(c) for c in p.coords)}")
    for key in ("alpha", "mu_plus", "mu_minus", "sigma", "sup_norm", "rho"):
        print(f"{key:<12}{_fmt(getattr(consts, key))}")
    print(f"rule        {res.rule}")
    print(f"binding     {res.binding}")
    print(f"kappa_at_h  {_fmt(res.kappa_at_h)}")
    if math.isinf(res.h_max):
        print("h_max       unconditional (inf)")
    else:
        print(f"h_max       {_fmt(res.h_max)}")
    return 0


def _run_search(config: RunConfig) -> int:
    family = get_example(config.example)
    eps = config.epsilons[0]
    field = family.make_field(eps)
    p = _base_point(family, config.base)
    h = numerical_hmax(field, family.manifold, p, h_hi=config.h_hi,
                       tol_h=config.tol_h)
    if math.isinf(h):
        print("h_numeric   unconditional (inf)")
    else:
        print(f"h_numeric   {_fmt(h)}")
    return 0


def _run_figure(config: RunConfig) -> int:
    grid = config.grid if config.grid is not None else DEFAULT_GRID
    if isinstance(grid, tuple):
        grid = spec_grid(config.example, *grid)
    rows = figure_sweep(config.example, epsilons=config.epsilons,
                        base_grid=grid, tol_h=config.tol_h)
    for row in rows:
        if not (row.h_theory <= row.h_numeric + SOUNDNESS_SLACK):
            print("soundness violation (h_theory > h_numeric):",
                  file=sys.stderr)
            print(rows_to_csv([row]), end="", file=sys.stderr)
            return 1
    out = config.out if config.out else f"{config.example}.csv"
    write_csv(rows, out)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _run_validate(config: RunConfig) -> int:
    names = (config.example,) if config.example else VALIDATE_DEFAULT
    failed = False
    for name in names:
        r = jacobi_validation(name, n_cases=config.cases, seed=config.seed)
        ok = r.max_error <= VALIDATION_TOL
        failed = failed or not ok
        print(f"{name}: max deviation {r.max_error:.3e} over {r.n_cases} "
              f"cases (rms {r.rms_error:.3e}, {r.elapsed:.2f} s) -- "
              f"{'pass' if ok else 'FAIL'}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geostab",
        description="Step-size bounds and stability experiments for "
                    "geodesic Euler integrators on constant-curvature "
                    "models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_point):
        sp.add_argument("--epsilon", default="1",
                        help="field parameter(s), comma separated")
        if with_point:
            sp.add_argument("--point", default=None,
                            help="base parameters base1[,base2] "
                                 "(default: family midpoint)")

    sp = sub.add_parser("bound", help="print constants and certified step")
    sp.add_argument("--example", required=True, choices=EXAMPLE_NAMES)
    sp.add_argument("--alpha", type=float, default=None,
                    help="cocoercivity constant (euclid only)")
    add_common(sp, with_point=True)

    sp = sub.add_parser("search", help="print the empirical maximal step")
    sp.add_argument("--example", required=True,
                    choices=tuple(n for n in EXAMPLE_NAMES if n != "euclid"))
    add_common(sp, with_point=True)
    sp.add_argument("--tol-h", type=float, default=1e-6)
    sp.add_argument("--h-hi", type=float, default=1e3)

    sp = sub.add_parser("figure", help="write a theory/experiment CSV sweep")
    sp.add_argument("--example", required=True,
                    choices=tuple(n for n in EXAMPLE_NAMES if n != "euclid"))
    sp.add_argument("--epsilon", default=",".join(str(e) for e
                                                  in DEFAULT_EPSILONS),
                    help="field parameter(s), comma separated")
    sp.add_argument("--grid", default=None,
                    help="base1 grid as start:stop:count, or a point count "
                         "for the family default")
    sp.add_argument("--tol-h", type=float, default=1e-6)
    sp.add_argument("--out", default=None, help="output CSV path")

    sp = sub.add_parser("validate", help="run the variation-norm oracle")
    sp.add_argument("--example", default=None,
                    choices=tuple(n for n in EXAMPLE_NAMES if n != "euclid"))
    sp.add_argument("--cases", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(parser, args) -> RunConfig:
    try:
        epsilons = (_parse_epsilons(args.epsilon)
                    if hasattr(args, "epsilon") else (1.0,))
        base = (_parse_point(args.point)
                if getattr(args, "point", None) else None)
        grid = (_parse_grid(args.grid)
                if getattr(args, "grid", None) else None)
    except ValueError as exc:
        parser.error(str(exc))
    if not all(map(math.isfinite, epsilons)):
        parser.error("--epsilon values must be finite")
    tol_h = getattr(args, "tol_h", 1e-6)
    if not 0.0 < tol_h < math.inf:
        parser.error("tolerances must be positive and finite")
    if not DEFAULT_H_LO < getattr(args, "h_hi", 1e3) < math.inf:
        parser.error(f"--h-hi must be finite and above {DEFAULT_H_LO:g}")
    if getattr(args, "cases", 1) < 1:
        parser.error("--cases must be at least 1")
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be nonnegative")
    if args.command == "bound" and args.example == "euclid":
        if args.alpha is None or not math.isfinite(args.alpha):
            parser.error("a finite --alpha is required for the euclid "
                         "example")
    return RunConfig(command=args.command,
                     example=getattr(args, "example", None),
                     epsilons=epsilons,
                     alpha=getattr(args, "alpha", None),
                     base=base, grid=grid,
                     tol_h=tol_h,
                     h_hi=getattr(args, "h_hi", 1e3),
                     out=getattr(args, "out", None),
                     cases=getattr(args, "cases", 200),
                     seed=getattr(args, "seed", 0))


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    handlers = {"bound": _run_bound, "search": _run_search,
                "figure": _run_figure, "validate": _run_validate}
    try:
        return handlers[config.command](config)
    except GeostabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(_config_from_args(parser, args))


if __name__ == "__main__":
    sys.exit(main())
