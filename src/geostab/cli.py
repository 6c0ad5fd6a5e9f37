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
from .experiments import (DEFAULT_EPSILONS, DEFAULT_GRID, DEFAULT_H_CAP,
                          DEFAULT_H_LO, DEFAULT_SEED, DEFAULT_TOL_H, EXAMPLES,
                          _checked_constants, _family_rule, _fmt,
                          figure_sweep, get_example, jacobi_validation,
                          numerical_hmax, rows_to_csv, spec_grid, write_csv)

SOUNDNESS_SLACK = 1e-9
VALIDATION_TOL = 1e-6

EXAMPLE_NAMES = ("s2", "h2", "s3", "h2-singular", "euclid")
VALIDATE_DEFAULT = ("s2", "h2", "s3")


@dataclass(frozen=True)
class RunConfig:
    """One parsed CLI invocation; the defaults are the CLI's."""

    command: str
    example: Optional[str] = None
    epsilons: tuple = (1.0,)
    alpha: Optional[float] = None
    base: Optional[tuple] = None  # (base1,) or (base1, base2 | None)
    grid: object = DEFAULT_GRID  # count, (start, stop, count) or pairs
    tol_h: float = DEFAULT_TOL_H
    h_hi: float = DEFAULT_H_CAP
    out: Optional[str] = None
    cases: int = 200
    seed: int = DEFAULT_SEED


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _finites(text: str) -> tuple:
    return tuple(_finite(s) for s in text.split(",") if s != "")


def _grid(text: str):
    *span, count = text.split(":")
    if len(span) not in (0, 2) or int(count) < 1:
        raise ValueError(text)
    return (*map(_finite, span), int(count)) if span else int(count)


def _checked(convert, message, ok=lambda value: True):
    """An argparse type: convert(text), or a usage error with message
    when convert raises ValueError or ok rejects its value."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(message)
    return parse


def _base_point(family, base):
    b1, b2 = family.default_base if base is None else (base + (None,))[:2]
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
    [(_, consts, *_)] = _checked_constants(family, [eps], [p])
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
    grid = config.grid
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


def _usage_problem(args: dict) -> Optional[str]:
    """The clash between a command's parsed flags, if any."""
    if args.get("example") == "euclid":
        if not math.isfinite(args.get("alpha", math.nan)):
            return "a finite --alpha is required for the euclid example"
        for flag, dest in (("--point", "base"), ("--epsilon", "epsilons")):
            if dest in args:
                return f"argument {flag}: euclid reads --alpha only"
    elif "alpha" in args:
        return "argument --alpha: only the euclid example reads it"
    family = EXAMPLES.get(args.get("example"))
    if (family is not None and len(args.get("base", ())) == 2
            and family.default_base[1] is None):
        return f"argument --point: {family.name} takes base1 only"
    return None


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a clash between its flags is a usage error
    that prints this command's usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        problem = _usage_problem(vars(namespace))
        if problem:
            self.error(problem)
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """The parser; a flag given sets the RunConfig field named by its dest."""
    parser = argparse.ArgumentParser(
        prog="geostab",
        description="Step-size bounds and stability experiments for "
                    "geodesic Euler integrators on constant-curvature "
                    "models.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    families = tuple(n for n in EXAMPLE_NAMES if n != "euclid")
    epsilons = dict(
        type=_checked(_finites, "expected finite numbers, comma separated",
                      ok=bool),
        dest="epsilons", help="field parameters, comma separated")
    epsilon = dict(type=_checked(_finites, "expected one finite number",
                                 ok=lambda v: len(v) == 1),
                   dest="epsilons", help="field parameter")
    point = dict(type=_checked(_finites, "expected finite base1[,base2]",
                               ok=lambda v: len(v) in (1, 2)),
                 dest="base", help="base parameters base1[,base2] "
                                   "(default: family midpoint)")
    tol_h = dict(type=_checked(float, "tolerances must be positive and finite",
                               ok=lambda v: 0.0 < v < math.inf))

    sp = sub.add_parser("bound", help="print constants and certified step",
                        argument_default=argparse.SUPPRESS)
    sp.add_argument("--example", required=True, choices=EXAMPLE_NAMES)
    sp.add_argument("--alpha", type=float,
                    help="cocoercivity constant (euclid only)")
    sp.add_argument("--epsilon", **epsilon)
    sp.add_argument("--point", **point)

    sp = sub.add_parser("search", help="print the empirical maximal step",
                        argument_default=argparse.SUPPRESS)
    sp.add_argument("--example", required=True, choices=families)
    sp.add_argument("--epsilon", **epsilon)
    sp.add_argument("--point", **point)
    sp.add_argument("--tol-h", **tol_h)
    sp.add_argument("--h-hi", type=_checked(
        float, f"must be finite and above {DEFAULT_H_LO:g}",
        ok=lambda v: DEFAULT_H_LO < v < math.inf))

    sp = sub.add_parser("figure", help="write a theory/experiment CSV sweep",
                        argument_default=argparse.SUPPRESS)
    sp.add_argument("--example", required=True, choices=families)
    sp.add_argument("--epsilon", default=DEFAULT_EPSILONS, **epsilons)
    sp.add_argument("--grid", type=_checked(
        _grid, "expected start:stop:count with finite start and stop, or a "
               "count; the count must be at least 1"),
        help="base1 grid as start:stop:count, or a point count for the "
             "family default")
    sp.add_argument("--tol-h", **tol_h)
    sp.add_argument("--out", help="output CSV path")

    sp = sub.add_parser("validate", help="run the variation-norm oracle",
                        argument_default=argparse.SUPPRESS)
    sp.add_argument("--example", choices=families)
    sp.add_argument("--cases", type=_checked(int, "must be an integer >= 1",
                                             ok=lambda n: n >= 1))
    sp.add_argument("--seed", type=_checked(int, "must be an integer >= 0",
                                            ok=lambda n: n >= 0))
    return parser


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    handlers = {"bound": _run_bound, "search": _run_search,
                "figure": _run_figure, "validate": _run_validate}
    try:
        return handlers[config.command](config)
    except (GeostabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(RunConfig(**vars(build_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
