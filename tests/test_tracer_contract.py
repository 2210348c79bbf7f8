"""The benchmark's tracer still reads its work units from the program's signatures.

``perfbench/spans.py`` computes the work units of a traced call from the names
of its bound arguments (``grid``, ``path``, ``indices``, ...).  A renamed or
dropped parameter would make a traced run fail, or silently count no work, so
each span with units makes one small real call here, through the tracer.  A
renamed or dropped function would strand its span, which then reads zero.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from myproc.matrixproc import sample_triangular_bm, simulate_su_solvable, triangular_increments
from myproc.paths import RngStream, TimeGrid
from myproc.trees import bessel3_kernel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# spans whose functions the program no longer has; the benchmark still names them
_STALE = {"paths.hyperbolic_radial", "matrixproc.su_noise_increments", "matrixproc.su_solvable_from_increments"}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_with_units_counts_work():
    spans = _load_spans()
    grid = TimeGrid(0.1, 10)
    lp = sample_triangular_bm(2, "complex", grid, [RngStream(1, 0)])
    calls = {
        "paths.exp_functional_samples": ({0.01: [0]}, 1e-3, 4, RngStream(1, 1)),
        "paths.my_drift": (np.array([0.0, 1.0]),),
        "matrixproc.triangular_from_increments":
            (grid, triangular_increments(2, "complex", grid, [RngStream(1, 2)])[0]),
        "matrixproc.finite_q_radial": (simulate_su_solvable((5,), [RngStream(1, 3)], lp), [5, 10]),
        "matrixproc.eta_matrix": (lp, [5, 10]),
        "specialfn.macdonald_ratio": (0.5, np.array([1.0, 2.0])),
        "trees.exact_distribution": (bessel3_kernel(), 0, 3),
    }
    for name in sorted(spans.UNITS):
        module_name, attr = name.split(".")
        module = importlib.import_module(f"myproc.{module_name}")
        if name in _STALE:
            assert not hasattr(module, attr), f"{name} exists again; drop it from _STALE"
            continue
        tracer = spans.Tracer()
        tracer.wrap(name, getattr(module, attr))(*calls[name])
        units = tracer.summary()["spans"][name]["units"]
        assert units and all(count > 0 for count in units.values()), (name, units)


def test_every_per_layer_span_is_traced():
    # a span of the per-layer table is <module>.<attribute chain>.<metric>; each one the
    # program still has must resolve, and be among the tracer's wrapped targets
    spans = _load_spans()
    for module in spans.MODULES:
        importlib.import_module(f"myproc.{module}")
    traced = {name for name, *_ in spans._targets()}
    named = {key.rsplit(".", 1)[0] for key in spans.per_layer_spec() if key.count(".") >= 2}
    assert "paths.RngStream.generator" in named and "specialfn.gamma" in named
    for name in sorted(named - _STALE):
        module, *chain = name.split(".")
        assert callable(functools.reduce(getattr, chain, importlib.import_module(f"myproc.{module}"))), name
        assert name in traced, name
