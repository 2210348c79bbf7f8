"""The benchmark's workloads: which experiments each runs, with which flags.

Every experiment runs at its default configuration except for the flags
listed here.  The outer seed counts and the pitman horizon are sized so that
one pass fits the run budget (see README.md); the seed floor of 10 lets the
">= 90% of seeds" rules absorb one non-monotone seed.
"""

from __future__ import annotations

DEFAULT_WORKLOAD_SEED = 20240801  # the experiments' own default seed

# name -> (why, [(experiment, extra flags), ...]).  The cheapest workload comes first,
# so warm-up runs of the first workload cost little.
WORKLOADS = {
    "exact": (
        "the only workload where trees, series and the scalar specialfn functions do the work; "
        "pitman horizon 48 so a pass lasts seconds",
        [("tree-samelaw", []), ("toda-identity", []), ("spherical-limit", []),
         ("hoogenboom-det", []), ("pitman-discrete", ["--q", "48"])],
    ),
    "radial": (
        "paths.hyperbolic_radial does most of the work at q = 1e4, one wide block per path; "
        "shows a change of the radial path engine",
        [("my-convergence", ["--seeds", "10"])],
    ),
    "functional": (
        "paths.exp_functional_samples streams 1e5 short vectors, the Macdonald quadrature does the rest; "
        "no hyperbolic_radial, no matrixproc",
        [("my-generator", []), ("conditional-law", [])],
    ),
    "matrix": (
        "matrixproc (expm_tri, Heun steps, transverse noise) does nearly all the work and every other layer is idle",
        [("supq-limit", ["--seeds", "10"])],
    ),
}


def experiment_argv(experiment: str, flags: list, workload_seed: int, out_dir: str) -> list:
    """The argument list handed to ``myproc.cli.main`` for one experiment."""
    return ["run", experiment, *flags, "--workers", "1", "--seed", str(workload_seed), "--out", out_dir]
