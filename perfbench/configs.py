"""Workload configs and their problems, built with pxkirchhoff's public
constructors.

Imports nothing but pxkirchhoff and numpy, so that ``setup_probe.py`` times
only what a batch user pays for.  The importer puts the checkout's ``src``
on ``sys.path``.
"""

import numpy as np

import pxkirchhoff as px

_COMMON = "a = 1\nb = 0.1\nlambda = 0\nq = const:4.5\ntheta = 3.2\n"

# Workload configs, without seed and out.  The "-tiny" variants keep each
# workload's command and check but finish in well under a second; only the
# self-test uses them.
WORKLOADS = {
    "mp1d": "command = solve\ndomain = interval:0,1,400\np = affine:2,0.2\n",
    "mp2d": "command = solve\ndomain = rect:0,0,1,1,32,32\np = const:2\n",
    # Five starts: the four eigenvector starts and one random multiple of
    # the first, so the work does not depend on the seed.  Starts 5-7 of
    # acceptance 8's eight are random mixtures whose cost varies by a third
    # between seeds, more than the few tasks of one run can average out.
    "mult1d": ("command = multiplicity\ndomain = interval:0,1,12\np = const:2\n"
               "n_starts = 5\nk_max = 4\n"),
    "eig2d": "command = rayleigh\ndomain = rect:0,0,1,1,48,48\np = affine:2,0.2\n",
    "mp1d-tiny": "command = solve\ndomain = interval:0,1,40\np = affine:2,0.2\n",
    "mp2d-tiny": "command = solve\ndomain = rect:0,0,1,1,6,6\np = const:2\n",
    "mult1d-tiny": ("command = multiplicity\ndomain = interval:0,1,12\np = const:2\n"
                    "n_starts = 2\nk_max = 2\n"),
    "eig2d-tiny": "command = rayleigh\ndomain = rect:0,0,1,1,8,8\np = affine:2,0.2\n",
}


def config_text(name: str, seed: int) -> str:
    return _COMMON + WORKLOADS[name] + f"seed = {seed}\n"


def _descriptor(desc: str, x: np.ndarray) -> np.ndarray:
    kind, _, rest = desc.partition(":")
    nums = [float(s) for s in rest.split(",")]
    if kind == "const":
        return np.full(len(x), nums[0])
    if kind == "affine":
        return nums[0] + nums[1] * x
    raise ValueError(f"benchmark configs use const or affine exponents, got {desc!r}")


def build_problem(config) -> px.KirchhoffProblem:
    """Mesh, exponent fields and problem for a parsed RunConfig."""
    d = config.domain
    if d[0] == "interval":
        mesh = px.build_interval_mesh(d[3], d[1], d[2])
    else:
        mesh = px.build_rect_mesh(d[5], d[6], ((d[1], d[2]), (d[3], d[4])))
    x = mesh.element_centroids[:, 0]
    p = px.build_exponent_field(_descriptor(config.p, x), mesh)
    q = px.build_exponent_field(_descriptor(config.q, x), mesh)
    spec = px.NonlinearitySpec(config.g_kind, q, coefficient=config.coefficient,
                               theta=config.theta, s_A=config.s_A)
    return px.KirchhoffProblem(config.a, config.b, config.lam, p, spec, mesh)
