"""Benchmark of the ``geostab`` package: one seeded workload per run.

    python3 perfbench/run.py --workload {figure,certify,steps} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``geostab`` from ``src/`` of
that checkout and refuses to run without it.  One process, one caller in a
closed loop, no extra threads: the BLAS thread pool is pinned to one thread
and ``GEOSTAB_THREADS`` is removed, so ``figure`` measures the serial path.

A run sets up ``geostab`` SETUPS times (import, then one warm-up call into
each layer the workload uses; ``setup_s`` is the median), builds the
workload's inputs from ``--seed``, and then repeats passes over those fixed
inputs for about ``--seconds`` seconds, at least MIN_PASSES of them.  Every
pass is checked, untimed, and any failed check makes ``correct`` false and
the exit status 1.

With ``--trace 0`` it reports the end-to-end metrics of the untraced passes.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``tracing.py``) together with
``trace.overhead_ratio``, the ratio of their median wall times.  The last
line of standard output is the JSON result; the lines before it give the
environment, each pass, the regime counts and every metric by name with
its unit.

Every run reports every end-to-end metric, so each is defined for each
workload:

  setup_s       median over SETUPS set-ups (import plus warm-up calls)
  wall_s        median wall time of one pass over the fixed input
  query_p50_ms  median latency of one query: one ``geostab figure`` CLI
  query_p95_ms  call (figure), one certification query (certify), one
                ``gie_step`` (steps); the sample count is printed
  ops_per_s     completed figure rows, certify queries, or GEE and GIE
                steps per second of pass time (median over passes)
  ok_ratio      1 - failed / attempted operations, where failed counts
                GeostabErrors (the GIE pole stall) and failed checks
  peak_rss_mb   peak resident set size of the process

``attempted`` and ``failed`` in the result count operations over all
passes; ``failed`` there counts only unexpected errors and failed checks,
not the documented GIE stall, which ``ok_ratio`` and
``integrators.gie_step.failed`` show.
"""

import os

# pin the BLAS pool before numpy loads it; the workloads only touch 2x2 to
# 4x4 matrices, so a second BLAS thread would only sit idle
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GEOSTAB_THREADS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(workloads.HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SUBMODULES = ("bounds", "cli", "constants", "errors", "experiments",
              "fields", "integrators", "jacobi", "manifolds")
SETUPS = 9
MIN_PASSES = 2
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}
REGIMES = ("flat", "curvature", "kappa-cap", "unconditional")
REGIME_METRICS = tuple(f"regime.{r.replace('-', '_')}" for r in REGIMES) + (
    "regime.gie_near_pole_share",)


def per_layer_units() -> dict:
    units = {}
    for name in tracing.metric_names() + list(REGIME_METRICS):
        if name.endswith(".self_s"):
            units[name] = "s"
        elif name.endswith((".calls", ".failed", "_per_call")) or \
                name.startswith("regime.") and not name.endswith("_share"):
            units[name] = "count"
        else:
            units[name] = "1"
    return units


def load_api() -> SimpleNamespace:
    """Import ``geostab`` from ``src/`` of this checkout."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"geostab.{name}")
            for name in SUBMODULES}
    package = importlib.import_module("geostab")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"geostab imported from {package.__file__}, "
                           f"not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload, tmp: str):
    """Fresh import of ``geostab`` plus the workload's warm-up calls;
    returns (seconds, api)."""
    for name in [m for m in sys.modules
                 if m == "geostab" or m.startswith("geostab.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    api = load_api()
    workload.warm_up(api, tmp)
    return time.perf_counter() - t0, api


def _blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower()})
        lib = ctypes.CDLL(libs[0])
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    except (OSError, IndexError):
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(load) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "loadavg_at_start": load,
        "GEOSTAB_THREADS": os.environ.get("GEOSTAB_THREADS"),
    }


def declared_metrics(trace: bool) -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(passes, setups) -> dict:
    walls = [r.wall_s for r in passes]
    lat_ms = np.concatenate([r.latencies for r in passes]) * 1e3
    p95 = float(np.percentile(lat_ms, 95))
    attempted = sum(r.attempted for r in passes)
    bad = sum(r.failures + r.expected_failures for r in passes)
    print(f"query samples {len(lat_ms)}, "
          f"{int(np.sum(lat_ms > p95))} beyond p95")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_p95_ms": p95,
        "ops_per_s": statistics.median(r.completed / r.wall_s
                                       for r in passes),
        "ok_ratio": 1.0 - bad / attempted,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def regime_metrics(res) -> dict:
    out = {f"regime.{r.replace('-', '_')}": res.regimes[r] for r in REGIMES}
    gie = res.regimes["gie"]
    out["regime.gie_near_pole_share"] = (
        float(res.regimes["gie_near_pole"]) / gie if gie else 0.0)
    return out


def per_layer(layer_passes, plain, traced_walls) -> dict:
    out = {name: statistics.median(m[name] for m in layer_passes)
           for name in layer_passes[0]}
    out["trace.overhead_ratio"] = (
        statistics.median(traced_walls)
        / statistics.median(r.wall_s for r in plain))
    out.update(regime_metrics(plain[0]))
    return out


def measure(args, tmp):
    """Set up, run passes and check them; returns (metrics, attempted,
    failed, problems)."""
    load = os.getloadavg()
    workload = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUPS):
        dt, api = set_up(workload, tmp)
        setups.append(dt)
    print("env " + json.dumps(environment(load), sort_keys=True))
    wl = workload(api, args.seed, tmp)
    snapshot = tracing.targets()
    tracer = tracing.Tracer()
    plain, layer_passes, traced_walls, problems = [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(plain) > len(traced_walls)
        if traced:
            tracer.install(snapshot)
            lo = tracer.mark()
        try:
            res = wl.run_pass()
        finally:
            tracer.uninstall()
        tracing.check_unwrapped(snapshot)
        if traced:
            traced_walls.append(res.wall_s)
            layer_passes.append(tracer.reduce(lo, tracer.mark(),
                                              res.wall_s))
        wl.check(res)
        attempted += res.attempted
        failed += res.failures
        problems += res.problems
        if not traced:
            plain.append(res)
        done = len(plain) + len(traced_walls)
        print(f"pass {done} {'traced' if traced else 'plain'} "
              f"wall_s {res.wall_s:.4f}")
        elapsed = time.perf_counter() - t_start
        if done >= MIN_PASSES and elapsed + 0.5 * res.wall_s > args.seconds:
            break
    if hasattr(wl, "final_check"):
        problems += wl.final_check()
    tracing.check_unwrapped(snapshot)
    regimes = regime_metrics(plain[0])
    print("regimes " + json.dumps(regimes, sort_keys=True))
    if args.trace:
        metrics = per_layer(layer_passes, plain, traced_walls)
    else:
        metrics = end_to_end(plain, setups)
    return metrics, attempted, failed, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geostab", "__init__.py")):
        print(f"error: no geostab sources under {SRC}", file=sys.stderr)
        return 2
    tmp = os.path.join(OUT_DIR, str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        metrics, attempted, failed, problems = measure(args, tmp)
    except Exception:  # a crash is not a measurement: no result line
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(OUT_DIR) and not os.listdir(OUT_DIR):
            os.rmdir(OUT_DIR)

    units = per_layer_units() if args.trace else END_TO_END
    declared = declared_metrics(bool(args.trace))
    if declared != {k: units[k] for k in metrics}:
        problems.append("emitted metrics differ from BENCHMARK.json: "
                        f"{sorted(set(declared) ^ set(metrics))}")
    problems += [f"bad metric name {k!r}" for k in metrics
                 if not NAME_RE.match(k)]
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for p in problems[:20]:
        print(f"FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
