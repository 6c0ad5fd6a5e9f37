"""Span recording around the public calls of ``geostab``, from outside the
package.

``Tracer.install`` replaces each traced function with a wrapper in every
``geostab`` module namespace that holds it (so ``geostab.jacobi.f_functions``
and ``geostab.experiments.f_functions`` both record), and each traced method
on the classes that define it.  ``Tracer.uninstall`` puts the originals
back.  A span is (name, start, end, parent, tag); spans stay in flat arrays
in memory until the run ends and are reduced to per-layer metrics there.
Self time is a span's duration minus the durations of its direct children.
"""

import functools
import sys
import time
from array import array

import numpy as np

# layer name -> (module, attribute) of each traced module-level function
FUNCTIONS = {
    "experiments.numerical_hmax": ("geostab.experiments", "numerical_hmax"),
    "experiments.theory_bound": ("geostab.experiments", "theory_bound"),
    "experiments.pair_ratios": ("geostab.experiments", "pair_ratios"),
    "experiments.jacobi_validation": ("geostab.experiments",
                                      "jacobi_validation"),
    "experiments.figure_sweep": ("geostab.experiments", "figure_sweep"),
    "experiments.write_csv": ("geostab.experiments", "write_csv"),
    "jacobi.f_functions": ("geostab.jacobi", "f_functions"),
    "jacobi.curvature_penalty": ("geostab.jacobi", "curvature_penalty"),
    "jacobi.gee_jacobi_data": ("geostab.jacobi", "gee_jacobi_data"),
    "jacobi.jacobi_norm": ("geostab.jacobi", "jacobi_norm"),
    "bounds.bound_positive": ("geostab.bounds", "bound_positive"),
    "bounds.bound_negative": ("geostab.bounds", "bound_negative"),
    "bounds.bound_singular": ("geostab.bounds", "bound_singular"),
    "constants.point_constants": ("geostab.constants", "point_constants"),
    "constants.region_constants": ("geostab.constants", "region_constants"),
    "integrators.gee_step": ("geostab.integrators", "gee_step"),
    "integrators.gie_step": ("geostab.integrators", "gie_step"),
    "integrators.integrate": ("geostab.integrators", "integrate"),
    "integrators.expansivity_ratio": ("geostab.integrators",
                                      "expansivity_ratio"),
    "cli.main": ("geostab.cli", "main"),
    "cli.run": ("geostab.cli", "run"),
}

# layer prefix -> (module, base class, method names); every subclass found
# in the module that defines one of the names in its own body is wrapped
METHODS = {
    "fields": ("geostab.fields", "FieldModel", ("eval", "covariant_matrix")),
    "manifolds": ("geostab.manifolds", "ManifoldModel",
                  ("exp", "log", "distance", "transport", "frame", "metric",
                   "christoffel")),
}

BOUND_RULES = ("bounds.bound_positive", "bounds.bound_negative",
               "bounds.bound_singular")
BINDINGS = ("flat", "curvature", "kappa-cap", "unconditional")
RAISED = "raised"


def layer_names() -> list:
    names = list(FUNCTIONS)
    for prefix, (_, _, methods) in METHODS.items():
        names.extend(f"{prefix}.{m}" for m in methods)
    return names


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in report order."""
    out = []
    for layer in layer_names():
        out += [f"{layer}.calls", f"{layer}.self_s"]
    out += ["bounds.bound_negative.flat.self_s",
            "bounds.bound_negative.curvature.self_s",
            "bounds.penalty_evals_per_call", "bounds.curvature_share",
            "integrators.gie_step.iterations_per_call",
            "integrators.gie_step.failed", "trace.overhead_ratio"]
    return out


def _geostab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "geostab"
                                  or name.startswith("geostab."))]


def targets() -> list:
    """(owner, attribute, layer, original) for every place a traced
    callable is looked up; owner is a module or a class."""
    out = []
    originals = {}
    for layer, (mod, attr) in FUNCTIONS.items():
        originals[id(getattr(sys.modules[mod], attr))] = layer
    for module in _geostab_modules():
        for attr, value in vars(module).items():
            layer = originals.get(id(value))
            if layer is not None and callable(value):
                out.append((module, attr, layer, value))
    for prefix, (mod, base_name, methods) in METHODS.items():
        module = sys.modules[mod]
        base = getattr(module, base_name)
        for cls in vars(module).values():
            if not (isinstance(cls, type) and issubclass(cls, base)):
                continue
            for name in methods:
                if name in vars(cls):
                    out.append((cls, name, f"{prefix}.{name}",
                                vars(cls)[name]))
    return out


def check_unwrapped(snapshot) -> None:
    """Raise unless every traced place still holds its original."""
    for owner, attr, layer, original in snapshot:
        if vars(owner).get(attr) is not original:
            raise RuntimeError(f"{layer} is still wrapped at "
                               f"{getattr(owner, '__name__', owner)}.{attr}")


class Tracer:
    """Records nested spans of the wrapped calls of one thread."""

    def __init__(self):
        self.names = []
        self.tags = ["", RAISED] + list(BINDINGS)
        self.name_of = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.installed = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, layer: str, fn):
        nid = self._name_id(layer)
        tag_of = {t: i for i, t in enumerate(self.tags)}
        raised = tag_of[RAISED]
        name_of, parent, tag = self.name_of, self.parent, self.tag
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            tag.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                tag[idx] = raised
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            binding = getattr(result, "binding", None)
            if binding is not None:
                tag[idx] = tag_of.get(binding, 0)
            return result

        return traced

    def install(self, snapshot) -> None:
        for owner, attr, layer, original in snapshot:
            setattr(owner, attr, self._wrap(layer, original))
            self.installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    def mark(self) -> int:
        """Index of the next span; passes are slices between marks."""
        return len(self.name_of)

    def reduce(self, lo: int, hi: int, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded in [lo, hi), after
        checking that they nest and that self times fit in wall_s."""
        # slicing copies, so the arrays can still grow afterwards
        name = np.array(self.name_of[lo:hi])
        raw_par = np.array(self.parent[lo:hi])
        tag = np.array(self.tag[lo:hi])
        t0 = np.array(self.start[lo:hi])
        t1 = np.array(self.end[lo:hi])
        n = hi - lo
        child = raw_par >= 0
        par = np.where(child, raw_par - lo, -1)
        dur = t1 - t0
        if np.any(par[child] < 0) or np.any(par >= np.arange(n)):
            raise RuntimeError("span parent outside the pass")
        if np.any(dur < 0) or np.any(t0[child] < t0[par[child]]) or \
                np.any(t1[child] > t1[par[child]]):
            raise RuntimeError("traced spans do not nest")
        child_time = np.zeros(n)
        np.add.at(child_time, par[child], dur[child])
        self_s = dur - child_time
        if self_s.sum() > wall_s:
            raise RuntimeError(f"span self times sum to {self_s.sum():.6f}"
                               f" s > pass wall {wall_s:.6f} s")

        ids = {nm: i for i, nm in enumerate(self.names)}

        def sel(layer):
            return name == ids.get(layer, -1)

        out = {}
        for layer in layer_names():
            m = sel(layer)
            out[f"{layer}.calls"] = int(m.sum())
            out[f"{layer}.self_s"] = float(self_s[m].sum())
        neg = sel("bounds.bound_negative")
        for binding in ("flat", "curvature"):
            m = neg & (tag == self.tags.index(binding))
            out[f"bounds.bound_negative.{binding}.self_s"] = float(
                self_s[m].sum())

        # nearest enclosing span of a given layer, for every span
        rules = np.isin(name, [ids.get(r, -1) for r in BOUND_RULES])
        gie = sel("integrators.gie_step")
        rule_owner = _owner(rules, par)
        gie_owner = _owner(gie, par)
        n_rules = int(rules.sum())
        under_rule = sel("jacobi.curvature_penalty") & (rule_owner >= 0)
        out["bounds.penalty_evals_per_call"] = (
            int(under_rule.sum()) / n_rules if n_rules else 0.0)
        out["bounds.curvature_share"] = (
            int((rules & (tag == self.tags.index("curvature"))).sum())
            / n_rules if n_rules else 0.0)
        n_gie = int(gie.sum())
        under_gie = sel("manifolds.transport") & (gie_owner >= 0)
        out["integrators.gie_step.iterations_per_call"] = (
            int(under_gie.sum()) / n_gie if n_gie else 0.0)
        out["integrators.gie_step.failed"] = int(
            (gie & (tag == self.tags.index(RAISED))).sum())
        return out


def _owner(is_layer: np.ndarray, par: np.ndarray) -> np.ndarray:
    """Index of the nearest span (itself included) of the marked layer
    enclosing each span, or -1.  Parents precede children."""
    out = [-1] * len(par)
    for i, (flag, p) in enumerate(zip(is_layer.tolist(), par.tolist())):
        if flag:
            out[i] = i
        elif p >= 0:
            out[i] = out[p]
    return np.asarray(out, dtype=np.int64)
