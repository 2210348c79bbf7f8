"""Per-layer tracing from outside the program.

``install`` wraps the public functions of myproc's compute modules, the
experiment run functions, ``RngStream.generator`` and ``cli.main``, and
replaces every binding of each wrapped function: module attributes, names
imported with ``from ... import`` and values of module-level dicts such as
the experiment registry.  A wrapper records calls, total time and self time
(total minus the time of the wrapped calls it made), plus work units computed
from the call's arguments.  Spans are aggregated in memory by name and by
(caller, callee) edge and returned by ``Tracer.summary`` at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

COMPUTE_MODULES = ("paths", "matrixproc", "specialfn", "series", "trees", "stats")
MODULES = COMPUTE_MODULES + ("experiments", "cli")


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _noise_units(a):
    p, q, n = a["p"], a["q"], a["grid"].n_steps
    cplx = a["field"] == "complex"
    entries = n * p * (q - p)
    upper = p * (p - 1) // 2
    kappa = n * (2 * upper + p) if cplx else n * upper
    return {"entries": entries, "normals": entries * (2 if cplx else 1) + kappa}


def _indices(a, n_default: int) -> int:
    return n_default if a["indices"] is None else len(list(a["indices"]))


# span name -> work units of one call, from its bound arguments
UNITS = {
    "paths.exp_functional_samples":
        lambda a: {"path_steps": a["n_paths"] * round(list(a["times"])[-1] / a["dt"])},
    "paths.hyperbolic_radial":
        lambda a: {"dim_steps": 0 if a["zero_noise"] else (a["q"] - 1) * a["b_path"].grid.n_steps},
    "paths.my_drift": lambda a: {"points": _size(a["r"])},
    "matrixproc.su_solvable_from_increments": lambda a: {"steps": a["l_path"].grid.n_steps},
    "matrixproc.su_noise_increments": _noise_units,
    "matrixproc.triangular_from_increments": lambda a: {"steps": a["grid"].n_steps},
    "matrixproc.finite_q_radial": lambda a: {"indices": _indices(a, a["path"].grid.n_steps + 1)},
    "matrixproc.eta_matrix": lambda a: {"indices": _indices(a, a["lpath"].grid.n_steps)},
    "specialfn.macdonald_ratio": lambda a: {"points": _size(a["x"])},
    "trees.exact_distribution": lambda a: {"steps": a["n"]},
}


class Tracer:
    """Aggregated spans: per name [calls, total_s, self_s, units] and per edge [calls, total_s]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}
        self.edges = {}
        self._stack = []

    def wrap(self, name: str, fn):
        units_of = UNITS.get(name)
        signature = inspect.signature(fn) if units_of else None
        stack, clock, edges = self._stack, self.clock, self.edges
        agg = self.spans.setdefault(name, [0, 0.0, 0.0, {}])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                edge = edges.setdefault((parent[0] if parent else None, name), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
                if units_of is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for unit, count in units_of(bound.arguments).items():
                        agg[3][unit] = agg[3].get(unit, 0) + count

        return wrapper

    def summary(self) -> dict:
        return {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s, "units": u}
                      for n, (c, t, s, u) in self.spans.items()},
            "edges": [[p, c, k, t] for (p, c), (k, t) in self.edges.items()],
        }


def _targets():
    """(span name, owner, attribute, function) for everything the traced run wraps."""
    out = []
    for mod_name in COMPUTE_MODULES:
        mod = sys.modules[f"myproc.{mod_name}"]
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{mod_name}.{attr}", mod, attr, obj))
    exp = sys.modules["myproc.experiments"]
    for attr, obj in vars(exp).items():
        if attr.startswith("run_") and inspect.isfunction(obj) and obj.__module__ == exp.__name__:
            out.append((f"experiments.{attr}", exp, attr, obj))
    cli = sys.modules["myproc.cli"]
    out.append(("cli.main", cli, "main", cli.main))
    rng = sys.modules["myproc.paths"].RngStream
    out.append(("paths.RngStream.generator", rng, "generator", rng.generator))
    return out


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "myproc" or n.startswith("myproc.")]


def _bindings():
    """(label, namespace, key, value) for every module-level name and module-level dict entry."""
    for mod in _package_modules():
        ns = vars(mod)
        for key, val in list(ns.items()):
            yield mod.__name__, ns, key, val
            if isinstance(val, dict):
                for k, v in list(val.items()):
                    yield f"{mod.__name__}.{key}", val, k, v


def install(tracer: Tracer) -> list:
    """Wrap every target and rebind it everywhere; returns the bindings left unwrapped."""
    originals = {}
    for name, owner, attr, fn in _targets():
        wrapper = tracer.wrap(name, fn)
        originals[id(fn)] = (fn, wrapper)
        setattr(owner, attr, wrapper)
    for _label, ns, key, val in _bindings():
        hit = originals.get(id(val))
        if hit and val is hit[0]:
            ns[key] = hit[1]
    return [f"{label}[{key!r}]" for label, _ns, key, val in _bindings()
            if id(val) in originals and val is originals[id(val)][0]]


def per_call_overhead(n: int = 20000) -> float:
    """Seconds a wrapper adds to one call, timed on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - bare) / n)


# --------------------------------------------------------------------------
# per-layer metrics: name -> (unit, better); values are per pass

_RATE_BASE = {"ns_per_path_step": ("path_steps", 1e9), "ns_per_dim_step": ("dim_steps", 1e9),
              "ns_per_entry": ("entries", 1e9), "us_per_point": ("points", 1e6),
              "us_per_step": ("steps", 1e6), "us_per_index": ("indices", 1e6),
              "us_per_call": ("calls", 1e6)}

_SPAN_METRICS = [
    ("paths.exp_functional_samples", ("calls", "self_s", "path_steps", "ns_per_path_step")),
    ("paths.hyperbolic_radial", ("calls", "self_s", "dim_steps", "ns_per_dim_step")),
    ("paths.my_drift", ("points", "us_per_point")),
    ("paths.RngStream.generator", ("calls", "self_s")),
    ("paths.sample_bm", ("self_s",)),
    ("paths.log_eta", ("self_s",)),
    ("paths.eta_functional", ("self_s",)),
    ("matrixproc.expm_tri", ("calls", "self_s", "us_per_call")),
    ("matrixproc.su_solvable_from_increments", ("self_s", "steps", "us_per_step")),
    ("matrixproc.su_noise_increments", ("self_s", "entries", "ns_per_entry", "normals_per_generator")),
    ("matrixproc.triangular_from_increments", ("self_s", "us_per_step")),
    ("matrixproc.finite_q_radial", ("self_s", "us_per_index")),
    ("matrixproc.eta_matrix", ("self_s", "us_per_index")),
    ("matrixproc.singular_values", ("calls",)),
    ("specialfn.macdonald_ratio", ("points", "us_per_point")),
    ("specialfn.macdonald_k", ("calls", "self_s")),
    ("specialfn.gamma", ("calls", "self_s")),
    ("specialfn.ktilde_det", ("calls", "self_s")),
    *[(f"series.{fn}", ("self_s",)) for fn in (
        "toda_series", "cms_series", "eval_series", "g_q_error", "g_q_even_derivative",
        "finite_q_ktilde", "hoogenboom_det")],
    ("trees.exact_distribution", ("calls", "self_s", "steps")),
    ("trees.pitman_walk_distribution", ("self_s",)),
    ("trees.phi0_tree", ("calls",)),
    *[(f"stats.{fn}", ("self_s",)) for fn in (
        "generator_test", "markov_property_test", "conditional_law_test")],
    *[(f"experiments.{fn}", ("self_s",)) for fn in (
        "run_pitman_discrete", "run_tree_samelaw", "run_toda_identity", "run_spherical_limit",
        "run_my_convergence", "run_my_generator", "run_conditional_law", "run_supq_limit",
        "run_hoogenboom_det")],
]


def _unit(field: str) -> tuple:
    if field.startswith("ns_per_"):
        return "ns", "lower"
    if field.startswith("us_per_"):
        return "us", "lower"
    if field.endswith("_s"):
        return "s", "lower"
    if field == "normals_per_generator":
        return "ratio", "higher"
    return "count", "lower"


def per_layer_spec() -> dict:
    """Every per-layer metric the traced run reports, in BENCHMARK.json order."""
    spec = {f"{span}.{field}": _unit(field) for span, fields in _SPAN_METRICS for field in fields}
    for mod in MODULES:
        spec[f"{mod}.self_s"] = ("s", "lower")
        spec[f"{mod}.share"] = ("ratio", "lower")
    spec["cli.bytes_written"] = ("bytes", "lower")
    spec["run.cpu_s"] = ("s", "lower")
    spec["run.traced_wall_s"] = ("s", "lower")
    spec["run.span_share"] = ("ratio", "higher")
    spec["run.trace_overhead_est_s"] = ("s", "lower")
    spec["verdict.check_fail_frac"] = ("ratio", "lower")
    return spec


def layer_values(summary: dict, n_passes: int, traced_wall_s: float) -> tuple:
    """(values, absent): per-pass metric values, and the spans that were never called."""
    spans = summary["spans"]
    generators = {p: k for p, c, k, _t in summary["edges"] if c == "paths.RngStream.generator"}
    values, absent = {}, set()
    for span, fields in _SPAN_METRICS:
        s = spans.get(span, {"calls": 0, "self_s": 0.0, "units": {}})
        if not s["calls"]:
            absent.add(span)
        counts = dict(s["units"], calls=s["calls"])
        for field in fields:
            if field == "self_s":
                v = s["self_s"] / n_passes
            elif field in _RATE_BASE:
                base, scale = _RATE_BASE[field]
                v = s["self_s"] / counts[base] * scale if counts.get(base) else 0.0
            elif field == "normals_per_generator":
                gens = generators.get(span, 0)
                v = counts.get("normals", 0) / gens if gens else 0.0
            else:
                v = counts.get(field, 0) / n_passes
            values[f"{span}.{field}"] = v
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, s in spans.items():
        module_self[name.split(".", 1)[0]] += s["self_s"]
    for mod in MODULES:
        values[f"{mod}.self_s"] = module_self[mod] / n_passes
        values[f"{mod}.share"] = module_self[mod] / traced_wall_s
    values["run.traced_wall_s"] = traced_wall_s / n_passes
    values["run.span_share"] = sum(module_self.values()) / traced_wall_s
    return values, sorted(absent)
