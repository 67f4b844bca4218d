"""Benchmark of the analyze-once, factor-many sparse LUs.

    python3 benchmarks/analyze_once.py lu    [--reps N]
    python3 benchmarks/analyze_once.py pairs --parent DIR --workload W --pairs N --seed S
                                             [--seconds T]
    python3 benchmarks/analyze_once.py slow  --parent DIR [--reps N]
    python3 benchmarks/analyze_once.py counts --parent DIR --workload W --seed S
    python3 benchmarks/analyze_once.py rayleigh --parent DIR [--reps N]
    python3 benchmarks/analyze_once.py pencils [--reps N]
    python3 benchmarks/analyze_once.py outputs --parent DIR [--seeds N]
    python3 benchmarks/analyze_once.py fixed --parent DIR [--reps N]

Each command prints one JSON document; ``--out FILE --key KEY`` also
stores it under KEY in the JSON file FILE.  Every process runs with the
BLAS on one thread.

* ``lu``: milliseconds per factorization, the median over ``--reps``
  rounds that each call every variant once, in an order rotated round by
  round.  The matrices are the sparse part S of J'' at the solved
  mountain-pass point of a 1-D mesh with 399 interior vertices
  (p = 2 + 0.2x) and of 32², 48², 64² and 96² squares (p = 2), and the
  interior stiffness of the same squares; each row records the bandwidth
  kl and ``_BAND_MAX``, the widest band that is factored by LAPACK.  The
  variants on S: SuperLU's minimum-degree order with its default
  supernodes (``mmd_default``, the LU before the ordering was kept) and
  with ``_RELAX``/``_PANEL_SIZE`` (``mmd_small``); S renumbered by the kept
  order and factored in natural order, with the default supernodes
  (``reordered_default``), with relax = panel = 1 (``reordered_1_1``) and
  as ``Mesh.interior_pattern_splu`` does it (``reordered``, the data gather
  included); and LAPACK's band LU as ``Mesh.interior_pattern_lu`` makes it
  on a band mesh (``band_dgbtrf``, the scatter included), at every
  bandwidth.  On the stiffness: ``mmd_default``, ``mmd_small`` and
  LAPACK's band Cholesky as ``Mesh.interior_stiffness_lu`` makes it from
  the stiffness's pattern data (``band_dpbtrf``, the scatter included).
* ``pairs``: ``perfbench/run.py --workload W --trace 0`` from the checkout
  DIR (the parent) and from this checkout, alternated pair by pair, at
  seeds S, S+1, ...; each run's metrics and the medians, quartiles and
  wins of ``task_s``.
* ``slow``: the six slow mountain-pass cases of ROADMAP item 2 (a = 1,
  b = 0.1, q = 4.5, theta = 3.2, geometry seed 1000, solve only), each
  solved ``--reps`` times from DIR's sources and from this checkout,
  alternated; steps, Newton steps, energy, Morse index and the median
  solve time.
* ``counts``: one task of workload W at config seed S from DIR's sources
  and from this checkout, each in its own process: its mountain-pass
  solves (``cli``'s and ``solver``'s), Hessian assemblies
  (``_hessian_of_elements``), sparse LUs (``discretization._splu``),
  LAPACK band LUs and band Cholesky factors (``_band_lu``,
  ``_band_cholesky``), ``csc_matrix`` constructions, scipy's own included,
  ``eigsh`` calls with their ARPACK reverse-communication steps, operator
  applications and products with the pencil's B, in all and per call (k,
  ``which``, whether it got ``M`` or ``sigma``), and the pencil eigensolves
  of ``solver._lowest`` (sources without it count none): per call its k,
  whether it was ``reciprocal``, its route (dense or whitened, or
  generalized in sources that built a ``_PencilOperator`` without a factor
  on meshes wider than ``_BAND_MAX``) and the products
  of that operator, which on the whitened route are ARPACK's operator
  applications.
* ``rayleigh``: the first eigenvalue (``rayleigh_quotient_min``, default
  ``tol`` and ``max_iter``) on the cases of ``RAYLEIGH_CASES``, each seed
  solved on a fresh mesh ``--reps`` times from DIR's sources and from this
  checkout, alternated, one process per case, side and round.  Per seed:
  steps, ``newton_steps`` (None where the sources have none), the
  ``Mesh.interior_pattern_lu`` calls, lambda_p and the residual, or the
  error that ended the start; per case, the median solve time.  The
  command fails when a start of this checkout is not certified.
* ``pencils``: milliseconds per call of the dense and the ARPACK route of
  ``solver._morse`` and ``laplace_eigenbasis`` (k = 3), the routes that
  ``solver._DENSE_N`` chooses between in ``solver._lowest``, at the solved
  mountain-pass point of 1-D meshes with 49 to 169 interior vertices and
  of 12², 16², 24² and 64² squares (p = 2 + 0.2x); the 64² square
  (kl = 64) is wider than ``_BAND_MAX``, so its ARPACK route is whitened
  by a band Cholesky that no band LU of its Hessians goes with.  The Morse
  index of each route and the largest relative gap between the
  eigenvalues that ``solver._lowest`` gives on the two routes for the two
  lowest of the Morse pencil and the three lowest of the eigenbasis pencil
  (K, M), computed once per route.  The command fails when a gap exceeds
  ``PENCIL_GAP`` or the indices differ.
* ``outputs``: the four benchmark workloads of ``perfbench/configs.py``
  (mp1d, mp2d, mult1d, eig2d) at config seeds 1000, ..., 999 + N, each run
  by ``cli.run`` from DIR's sources and from this checkout, one process per
  side; every output file is compared byte for byte.  Each differing file
  is listed with the largest relative gap of each of its numeric fields
  (a report line's key; all numbers of a solution or CSV file as one
  field), or with the field whose text differs otherwise.  The command
  fails when any file differs or exists on one side only.
* ``fixed``: the fixed costs of each benchmark workload's mesh, from DIR's
  sources and from this checkout, one process per side, alternated over
  ``--reps`` rounds: milliseconds to build the mesh (``cli._build_mesh``)
  and then, on that fresh mesh and in this order, its centroids, hat
  gradients, interior pattern, interior bandwidth and stiffness factor,
  and the three sections of a solution dump (``cli.write_solution``) of
  a random grid function: vertices, elements and nodal values.  Each
  process times ``FIXED_PASSES`` fresh meshes after one warm-up; a row
  holds the median over all of them.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# the benchmark workloads of perfbench/configs.py
WORKLOADS = ["mp1d", "mp2d", "mult1d", "eig2d"]

SLOW_CASES = [
    ("2d32_p2+0.2x", "rect:0,0,1,1,32,32", "affine:2,0.2", 0.0),
    ("2d32_p1.8+0.2x", "rect:0,0,1,1,32,32", "affine:1.8,0.2", 0.0),
    ("2d64_p2+0.2x", "rect:0,0,1,1,64,64", "affine:2,0.2", 0.0),
    ("2d64_p1.8+0.2x", "rect:0,0,1,1,64,64", "affine:1.8,0.2", 0.0),
    ("1d401_p1.6_lambda2", "interval:0,1,401", "const:1.6", 2.0),
    ("1d401_p1.9_lambda2", "interval:0,1,401", "const:1.9", 2.0),
]

# the largest relative gap between the dense and the ARPACK route's
# eigenvalues that ``pencils`` accepts
PENCIL_GAP = 1e-10

# the fresh meshes that one ``fixed`` process times per workload, after one
# warm-up
FIXED_PASSES = 5

# (label, mesh, p = c0 + c1 x, seeds): the mesh is ("interval", n) on (0, 1)
# or ("rect", n), the n x n unit square
RAYLEIGH_CASES = [
    ("2d48_p2+0.2x", ("rect", 48), (2.0, 0.2), list(range(1000, 1010))),
    ("1d100_p2+x", ("interval", 100), (2.0, 1.0), list(range(5))),
    ("1d100_p1.3+x", ("interval", 100), (1.3, 1.0), list(range(5))),
    ("1d100_p1.2+0.2x", ("interval", 100), (1.2, 0.2), list(range(5))),
    ("1d20_p1.2+0.2x", ("interval", 20), (1.2, 0.2), list(range(5))),
    ("2d96_p2+0.2x", ("rect", 96), (2.0, 0.2), list(range(1000, 1003))),
    ("2d16_p2.5", ("rect", 16), (2.5, 0.0), list(range(5))),
]


def _config(domain: str, p: str, lam: float, out: str) -> str:
    return (f"command = solve\ndomain = {domain}\np = {p}\nq = const:4.5\n"
            f"a = 1\nb = 0.1\nlambda = {lam:g}\ntheta = 3.2\nseed = 1000\nout = {out}\n")


def _solved(cli, domain: str, p: str, lam: float = 0.0):
    """The problem of a solve config and the solution of its solve."""
    import pxkirchhoff.cli as cli_module

    captured = {}
    solve = cli_module.mountain_pass_solve

    def keep(prob, *args, **kwargs):
        captured["prob"] = prob
        captured["rep"] = solve(prob, *args, **kwargs)
        return captured["rep"]

    cli_module.mountain_pass_solve = keep
    try:
        out = ROOT / ".bench_work" / "analyze_once"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(cli.parse_config(_config(domain, p, lam, str(out))))
    finally:
        cli_module.mountain_pass_solve = solve
    return captured["prob"], captured["rep"]


def lu_table(reps: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy.sparse.linalg as sla
    from pxkirchhoff import cli, discretization
    from pxkirchhoff.discretization import _PANEL_SIZE, _RELAX, _PermutedLU, build_rect_mesh
    from pxkirchhoff.energy import hessian_J

    def mmd(S, **kw):
        return sla.splu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True), **kw)

    def band(mesh, data):
        """``Mesh.interior_pattern_lu``'s band route, at every bandwidth."""
        band_max, discretization._BAND_MAX = discretization._BAND_MAX, sys.maxsize
        try:
            return mesh.interior_pattern_lu(data)
        finally:
            discretization._BAND_MAX = band_max

    def cholesky(mesh):
        """``Mesh.interior_stiffness_lu``, made anew."""
        mesh.__dict__.pop("interior_stiffness_lu", None)
        return mesh.interior_stiffness_lu

    cases = []
    for label, domain, p in (("1d_hessian_n399", "interval:0,1,400", "affine:2,0.2"),
                             ("2d_hessian_32", "rect:0,0,1,1,32,32", "const:2"),
                             ("2d_hessian_48", "rect:0,0,1,1,48,48", "const:2"),
                             ("2d_hessian_64", "rect:0,0,1,1,64,64", "const:2"),
                             ("2d_hessian_96", "rect:0,0,1,1,96,96", "const:2")):
        prob, rep = _solved(cli, domain, p)
        S = hessian_J(rep.solution, prob)[0]
        mesh = prob.mesh
        mesh.interior_pattern_splu(S.data)  # the first SuperLU keeps the order
        order = mesh._pattern_order

        def natural(S=S, order=order, **kw):
            data_map, matrix = order.renumbered
            matrix.data = S.data[data_map]
            return sla.splu(matrix, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True), **kw)

        cases.append((label, S, mesh, {
            "mmd_default": lambda S=S: mmd(S),
            "mmd_small": lambda S=S: mmd(S, relax=_RELAX, panel_size=_PANEL_SIZE),
            "reordered_default": natural,
            "reordered_1_1": lambda natural=natural: natural(relax=1, panel_size=1),
            "reordered": lambda S=S, mesh=mesh: mesh.interior_pattern_splu(S.data),
            "band_dgbtrf": lambda S=S, mesh=mesh: band(mesh, S.data),
        }))
    for nx in (32, 48, 64, 96):
        mesh = build_rect_mesh(nx, nx, ((0.0, 0.0), (1.0, 1.0)))
        K = mesh.interior_stiffness
        cases.append((f"2d_stiffness_{nx}", K, mesh, {
            "mmd_default": lambda K=K: mmd(K),
            "mmd_small": lambda K=K: mmd(K, relax=_RELAX, panel_size=_PANEL_SIZE),
            "band_dpbtrf": lambda mesh=mesh: cholesky(mesh),
        }))

    rows, rng = [], np.random.default_rng(0)
    for label, S, mesh, variants in cases:
        names = list(variants)
        times = {name: [] for name in names}
        solves = {name: [] for name in names}
        b = rng.standard_normal(S.shape[0])
        for r in range(reps):
            for k in range(len(names)):
                name = names[(r + k) % len(names)]
                t0 = time.perf_counter()
                factor = variants[name]()
                t1 = time.perf_counter()
                factor.solve(b)
                times[name].append(t1 - t0)
                solves[name].append(time.perf_counter() - t1)
        row = {"matrix": label, "n": S.shape[0], "nnz": S.nnz, "kl": mesh.interior_bandwidth,
               "band_max": discretization._BAND_MAX}
        for name in names:
            factor = variants[name]()
            if isinstance(factor, _PermutedLU):
                factor = factor.lu
            row[name + "_ms"] = round(1e3 * statistics.median(times[name]), 4)
            row[name + "_solve_ms"] = round(1e3 * statistics.median(solves[name]), 4)
            # the entries SuperLU keeps, or the size of LAPACK's band array
            row[name + "_fill"] = int(factor.L.nnz + factor.U.nnz if hasattr(factor, "L")
                                      else factor[0].size)
        rows.append(row)
    return {"what": f"ms per factorization and per solve with one right-hand side, median "
                    f"of {reps} rounds; fill = nnz(L) + nnz(U) for SuperLU and the band "
                    "array's size for LAPACK",
            "rows": rows}


def pencils(reps: int) -> dict:
    """The dense and the ARPACK route of ``_morse`` and of
    ``laplace_eigenbasis`` (k = 3) at the solved mountain-pass point of 1-D
    meshes around ``solver._DENSE_N`` and of 2-D meshes above it,
    and the largest relative gap between the two routes' eigenvalues."""
    sys.path.insert(0, str(ROOT / "src"))
    from pxkirchhoff import cli, discretization, laplace_eigenbasis, solver
    from pxkirchhoff.energy import _point

    def lowest(prob, at):
        """The two lowest eigenvalues of the Morse pencil and the three lowest
        of the eigenbasis pencil, as ``solver._lowest`` gives them."""
        data, dA = solver._kirchhoff_hessian(prob, at)
        mesh = prob.mesh
        return [*solver._lowest(mesh, data, 2, (dA, prob.b)),
                *solver._lowest(mesh, mesh.interior_mass.data, 3, reciprocal=True)]

    dense_n, rows = solver._DENSE_N, []
    routes = [("arpack", 0), ("dense", sys.maxsize)]
    meshes = ([(f"interval:0,1,{n + 1}", "interval") for n in (49, 74, 99, 128, 149, 169)]
              + [(f"rect:0,0,1,1,{nx},{nx}", f"rect {nx}x{nx}") for nx in (12, 16, 24, 64)])
    for domain, label in meshes:
        prob, rep = _solved(cli, domain, "affine:2,0.2")
        at = _point(prob.mesh, rep.solution.nodal_values)
        calls = {"morse": lambda prob=prob, at=at: solver._morse(prob, at),
                 "eigenbasis_k3": lambda mesh=prob.mesh: laplace_eigenbasis(mesh, 3)}
        times, results, values = {}, {}, {}
        for r in range(reps + 1):  # the first round warms up
            for route, cutoff in routes if r % 2 else routes[::-1]:
                solver._DENSE_N = cutoff
                for name, call in calls.items():
                    t0 = time.perf_counter()
                    results[name, route] = call()
                    if r:
                        times.setdefault(f"{name}_{route}_ms", []).append(
                            time.perf_counter() - t0)
                if not r:
                    values[route] = lowest(prob, at)
        solver._DENSE_N = dense_n
        gap = max(abs(a - b) / abs(b) for a, b in zip(values["arpack"], values["dense"]))
        rows.append({"mesh": label, "interior_n": len(prob.mesh.interior),
                     "kl": prob.mesh.interior_bandwidth,
                     **{key: round(1e3 * statistics.median(values), 3)
                        for key, values in times.items()},
                     "morse_index": {route: results["morse", route][0] for route, _ in routes},
                     "max_rel_eigenvalue_gap": gap})
    result = {"what": f"ms per call, median of {reps} rounds after one warm-up, routes "
                      "alternated; 1-D mesh (interval 0..1, interior_n + 1 elements) or "
                      "nx x nx square, p = 2 + 0.2x, a = 1, b = 0.1, q = 4.5, theta = 3.2, "
                      "lambda = 0, geometry seed 1000; the ARPACK route by _DENSE_N = 0, the "
                      "dense route by an unbounded _DENSE_N; _morse includes the Hessian "
                      "assembly; max_rel_eigenvalue_gap over the eigenvalues of solver._lowest "
                      "on the two routes: the Morse pencil's two lowest and the eigenbasis "
                      "pencil's three",
              "band_max": discretization._BAND_MAX,
              "dense_n": dense_n, "rows": rows,
              "max_rel_eigenvalue_gap": max(row["max_rel_eigenvalue_gap"] for row in rows)}
    failed = [row["mesh"] + f" ({row['interior_n']})" for row in rows
              if row["max_rel_eigenvalue_gap"] > PENCIL_GAP
              or len(set(row["morse_index"].values())) > 1]
    if failed:
        print(json.dumps(result, indent=1))
        raise SystemExit(f"the routes differ by more than {PENCIL_GAP:g} or in the Morse "
                         "index on: " + ", ".join(failed))
    return result


_OUTPUTS_CHILD = r"""
import contextlib, io, json, sys
src, out, runs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [src, sys.argv[4]]
from configs import config_text
from pxkirchhoff import cli
for name, seed in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(cli.parse_config(config_text(name, seed) + f"out = {out}/{name}_{seed}\n"))
"""


def _fields(path: Path) -> dict:
    """The fields of an output file: a report line's key and its tokens,
    or all the tokens of any other file under one key."""
    text = path.read_text()
    if path.name != "report.txt":
        return {"values": text.replace(",", " ").split()}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields.setdefault(key, []).extend(value.split())
    return fields


def _gaps(before: Path, after: Path) -> dict:
    """Per field that differs: the largest relative gap of its numbers, or
    "differs" where its tokens are not numbers that pair up."""
    old, new = _fields(before), _fields(after)
    gaps = {}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        try:
            pairs = [(float(x), float(y)) for x, y in zip(a, b, strict=True)]
        except (TypeError, ValueError):
            gaps[key] = "differs"
            continue
        gaps[key] = max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y),
                        default=0.0)
    return gaps


def outputs(parent: Path, seeds: int) -> dict:
    runs = [(name, 1000 + k) for name in WORKLOADS for k in range(seeds)]
    work = ROOT / ".bench_work" / "analyze_once" / "outputs"
    shutil.rmtree(work, ignore_errors=True)  # no file of an earlier run survives
    dirs = {}
    for side, checkout in (("parent", parent), ("change", ROOT)):
        dirs[side] = work / side
        subprocess.run([sys.executable, "-c", _OUTPUTS_CHILD, str(checkout / "src"),
                        str(dirs[side]), json.dumps(runs), str(ROOT / "perfbench")],
                       check=True)
    files = sorted({path.relative_to(dirs[side]) for side in dirs
                    for name, seed in runs for path in (dirs[side] / f"{name}_{seed}").iterdir()})
    differing = {}
    for rel in files:
        before, after = dirs["parent"] / rel, dirs["change"] / rel
        if not (before.exists() and after.exists()):
            differing[str(rel)] = "only in " + ("change" if after.exists() else "parent")
        elif before.read_bytes() != after.read_bytes():
            differing[str(rel)] = _gaps(before, after)
    result = {"what": f"cli.run of {', '.join(WORKLOADS)} at config seeds 1000 to "
                      f"{999 + seeds}, parent against change, every output file compared "
                      "byte for byte; per differing file the largest relative gap of each "
                      "numeric field",
              "files": len(files), "identical": len(files) - len(differing),
              "differing": differing}
    if differing:
        print(json.dumps(result, indent=1))
        raise SystemExit(f"{len(differing)} of {len(files)} output files differ")
    return result


_FIXED_CHILD = r"""
import json, sys, time
src, passes = sys.argv[1], int(sys.argv[2])
sys.path[:0] = [src, sys.argv[3]]
import numpy as np
from configs import WORKLOADS, config_text
from pxkirchhoff import GridFunction, cli
# sources without a vertex formatter of their own format the vertices by _rows
vertex_rows = getattr(cli, "_vertex_rows", lambda vertices: cli._rows("%.17g", vertices))
steps = {
    "centroids": lambda mesh, u: mesh.element_centroids,
    "hat_gradients": lambda mesh, u: mesh.hat_gradients,
    "pattern": lambda mesh, u: mesh.interior_pattern,
    "bandwidth": lambda mesh, u: mesh.interior_bandwidth,
    "stiffness_factor": lambda mesh, u: mesh.interior_stiffness_lu,
    "dump_vertices": lambda mesh, u: vertex_rows(mesh.vertices),
    "dump_elements": lambda mesh, u: cli._rows("%d", mesh.elements),
    "dump_values": lambda mesh, u: cli._rows("%.17g", u.nodal_values[:, None]),
}
out = {}
for name in json.loads(sys.argv[4]):
    domain = cli.parse_config(config_text(name, 0)).domain
    out[name] = {key: [] for key in ["mesh_build", *steps]}
    for r in range(passes + 1):
        t0 = time.perf_counter()
        mesh = cli._build_mesh(domain)
        times = [time.perf_counter() - t0]
        u = GridFunction(mesh, np.random.default_rng(r).standard_normal(mesh.n_vertices))
        for call in steps.values():
            t0 = time.perf_counter()
            call(mesh, u)
            times.append(time.perf_counter() - t0)
        if r:  # the first pass warms up
            for key, t in zip(out[name], times):
                out[name][key].append(t)
print(json.dumps(out))
"""


def fixed(parent: Path, reps: int) -> dict:
    got = {"parent": [], "change": []}
    for r in range(reps):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            src = (parent if side == "parent" else ROOT) / "src"
            proc = subprocess.run([sys.executable, "-c", _FIXED_CHILD, str(src),
                                   str(FIXED_PASSES), str(ROOT / "perfbench"),
                                   json.dumps(WORKLOADS)],
                                  capture_output=True, text=True, check=True)
            got[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    rows = []
    for name in WORKLOADS:
        row = {"workload": name}
        for side, rounds in got.items():
            row[side] = {key + "_ms": round(1e3 * statistics.median(
                t for times in rounds for t in times[name][key]), 4)
                for key in rounds[0][name]}
        rows.append(row)
    return {"what": f"ms per step on a fresh mesh of each workload, median of {reps} "
                    f"round(s) of {FIXED_PASSES} meshes per side, sides alternated; steps in "
                    "the order listed, so each finds the earlier ones cached; the dump "
                    "sections of a random grid function",
            "rows": rows}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pairs(parent: Path, workload: str, n_pairs: int, seed: int, seconds: float,
          save=lambda result: None) -> dict:
    """Alternated parent/change runs; ``save`` gets the result so far after
    each pair."""
    names = [workload] if workload != "all" else WORKLOADS
    out = {"command": f"perfbench/run.py --workload {workload} --seconds {seconds:g} --trace 0",
           "runs": []}
    for k in range(n_pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed + k, "order": list(order)}
        for side in order:
            pair[side] = _run(parent if side == "parent" else ROOT, workload, seed + k, seconds)
        out["runs"].append(pair)
        save(out)
    if n_pairs >= 2:
        for name in names:
            key = f"{name}.task_s" if workload == "all" else "task_s"
            before = [r["parent"]["metrics"][key]["value"] for r in out["runs"]]
            after = [r["change"]["metrics"][key]["value"] for r in out["runs"]]
            out[f"{name}_task_s"] = {
                "parent": _summary(before), "change": _summary(after),
                "change_faster_pairs": sum(a < b for a, b in zip(after, before)),
                "pairs": n_pairs}
    return out


_SLOW_CHILD = r"""
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from pxkirchhoff import cli
import pxkirchhoff.cli as cli_module
solve, out = cli_module.mountain_pass_solve, {}
def timed(prob, *args, **kwargs):
    t0 = time.perf_counter()
    rep = solve(prob, *args, **kwargs)
    out.update(solve_s=time.perf_counter() - t0, steps=rep.iterations,
               newton_steps=rep.newton_steps, energy=rep.energy,
               residual=rep.residual_norm, morse_index=rep.morse_index)
    return rep
cli_module.mountain_pass_solve = timed
with contextlib.redirect_stdout(io.StringIO()):
    cli.run(cli.parse_config(sys.argv[2]))
print(json.dumps(out))
"""


def slow(parent: Path, reps: int) -> dict:
    rows = []
    for label, domain, p, lam in SLOW_CASES:
        text = _config(domain, p, lam, str(ROOT / ".bench_work" / "analyze_once"))
        got = {"parent": [], "change": []}
        for r in range(reps):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                src = (parent if side == "parent" else ROOT) / "src"
                proc = subprocess.run([sys.executable, "-c", _SLOW_CHILD, str(src), text],
                                      capture_output=True, text=True, check=True)
                got[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
        row = {"case": label, "domain": domain, "p": p, "lambda": lam}
        for side, results in got.items():
            row[side] = dict(results[0], solve_s=statistics.median(x["solve_s"] for x in results))
        rows.append(row)
    return {"what": f"solve only, median of {reps} solves per side, alternated", "rows": rows}


_COUNT_CHILD = r"""
import contextlib, importlib, io, json, sys
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import scipy.sparse, scipy.sparse.linalg
from configs import config_text
from pxkirchhoff import cli, discretization, energy, solver
counts = dict(mountain_pass_solves=0, hessian_assemblies=0, lus=0, band_lus=0,
              band_choleskys=0, csc_matrix_constructions=0, eigsh_calls=0,
              arpack_steps=0, arpack_operator_applications=0, arpack_b_products=0,
              eigsh=[], pencil_solves=[])
def counted(key, f):
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return f(*args, **kwargs)
    return wrapped
# cli calls its own binding, multiplicity_search the solver's
solver.mountain_pass_solve = cli.mountain_pass_solve = counted(
    "mountain_pass_solves", solver.mountain_pass_solve)
eigsh = scipy.sparse.linalg.eigsh
def counted_eigsh(A, k=6, M=None, sigma=None, **kwargs):
    counts["eigsh_calls"] += 1
    counts["eigsh"].append(dict(k=k, which=kwargs.get("which", "LM"), generalized=M is not None,
                                shift_invert=sigma is not None, steps=0, operator_applications=0,
                                b_products=0))
    return eigsh(A, k, M, sigma, **kwargs)
scipy.sparse.linalg.eigsh = counted_eigsh
# each ARPACK reverse-communication step is one iterate(); ido 1 and 5 ask
# for one application of the operator (with the inverse or shift-inverse in
# the generalized modes), ido 2 for one product with the B of the pencil
arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
iterate = arpack._SymmetricArpackParams.iterate
def counted_iterate(self):
    iterate(self)
    ido, call = self.arpack_dict["ido"], counts["eigsh"][-1]
    for key, n in (("steps", 1), ("operator_applications", ido in (1, 5)),
                   ("b_products", ido == 2)):
        call[key] += n
        counts["arpack_" + key] += n
arpack._SymmetricArpackParams.iterate = counted_iterate
# each pencil eigensolve: dense unless it builds a _PencilOperator, whitened
# when that operator has a factor U, and the operator's products
if hasattr(solver, "_lowest"):
    lowest, Operator = solver._lowest, solver._PencilOperator
    def counted_lowest(mesh, data, k, rank_one=None, **kwargs):
        counts["pencil_solves"].append(dict(k=k, reciprocal=kwargs.get("reciprocal", False),
                                            route="dense", operator_products=0))
        return lowest(mesh, data, k, rank_one, **kwargs)
    solver._lowest = counted_lowest
    init, matvec = Operator.__init__, Operator._matvec
    def counted_init(self, mesh, data, rank_one, U):
        counts["pencil_solves"][-1]["route"] = "generalized" if U is None else "whitened"
        init(self, mesh, data, rank_one, U)
    def counted_matvec(self, y):
        counts["pencil_solves"][-1]["operator_products"] += 1
        return matvec(self, y)
    Operator.__init__, Operator._matvec = counted_init, counted_matvec
energy._hessian_of_elements = solver._hessian_of_elements = counted(
    "hessian_assemblies", energy._hessian_of_elements)
discretization._splu = counted("lus", discretization._splu)
for key, factor in (("band_lus", "_band_lu"), ("band_choleskys", "_band_cholesky")):
    if hasattr(discretization, factor):  # sources without the band route count 0
        setattr(discretization, factor, counted(key, getattr(discretization, factor)))
scipy.sparse.csc_matrix.__init__ = counted("csc_matrix_constructions",
                                           scipy.sparse.csc_matrix.__init__)
out = sys.argv[4]
with contextlib.redirect_stdout(io.StringIO()):
    cli.run(cli.parse_config(config_text(name, seed) + f"out = {out}\n"))
print(json.dumps(counts))
"""


def counts(parent: Path, workload: str, seed: int) -> dict:
    out = {"what": f"counts in one {workload} task at config seed {seed}"}
    for side, checkout in (("parent", parent), ("change", ROOT)):
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_CHILD, str(checkout), workload, str(seed),
             str(ROOT / ".bench_work" / "analyze_once")],
            capture_output=True, text=True, check=True)
        out[side] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


_RAYLEIGH_CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
from pxkirchhoff import (build_exponent_field, build_interval_mesh, build_rect_mesh,
                         rayleigh_quotient_min)
from pxkirchhoff.discretization import Mesh
(kind, n), (c0, c1), seeds = json.loads(sys.argv[2])
lus = []
factor = Mesh.interior_pattern_lu
Mesh.interior_pattern_lu = lambda self, data: lus.append(1) or factor(self, data)
out = []
for seed in seeds:
    mesh = (build_interval_mesh(n, 0.0, 1.0) if kind == "interval"
            else build_rect_mesh(n, n, ((0.0, 0.0), (1.0, 1.0))))
    p = build_exponent_field(c0 + c1 * mesh.element_centroids[:, 0], mesh)
    lus.clear()
    t0 = time.perf_counter()
    try:
        ray = rayleigh_quotient_min(p, mesh, seed=seed)
    except Exception as exc:
        out.append(dict(seed=seed, error=f"{type(exc).__name__}: {exc}"))
        continue
    out.append(dict(seed=seed, solve_s=time.perf_counter() - t0, steps=ray.steps,
                    newton_steps=getattr(ray, "newton_steps", None), lus=len(lus),
                    lambda_p=ray.value, residual=ray.residual))
print(json.dumps(out))
"""


def rayleigh(parent: Path, reps: int) -> dict:
    rows = []
    for label, mesh, p, seeds in RAYLEIGH_CASES:
        args = json.dumps([mesh, p, seeds])
        got = {"parent": [], "change": []}
        for r in range(reps):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                src = (parent if side == "parent" else ROOT) / "src"
                proc = subprocess.run([sys.executable, "-c", _RAYLEIGH_CHILD, str(src), args],
                                      capture_output=True, text=True, check=True)
                got[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
        row = {"case": label, "mesh": list(mesh), "p": f"{p[0]:g}+{p[1]:g}x", "seeds": seeds}
        for side, rounds in got.items():
            first = rounds[0]
            times = [s["solve_s"] for solves in rounds for s in solves if "error" not in s]
            row[side] = {
                "certified": sum("error" not in s for s in first),
                **{key: [s.get(key) for s in first]
                   for key in ("steps", "newton_steps", "lus", "lambda_p", "residual")},
                "errors": sorted({s["error"] for s in first if "error" in s}),
                "solve_ms_median": (round(1e3 * statistics.median(times), 2)
                                    if times else None),
            }
        both = [(a["lambda_p"], b["lambda_p"]) for a, b in zip(got["parent"][0],
                                                               got["change"][0])
                if "error" not in a and "error" not in b]
        row["lambda_p_max_rel_diff"] = max((abs(a - b) / abs(a) for a, b in both),
                                           default=None)
        rows.append(row)
    result = {"what": f"rayleigh_quotient_min on a fresh mesh per seed, {reps} round(s) "
                      "per side, alternated; solve_ms_median over all seeds and rounds",
              "rows": rows}
    failed = [f"{row['case']}: {', '.join(row['change']['errors'])}" for row in rows
              if row["change"]["certified"] < len(row["seeds"])]
    if failed:
        print(json.dumps(result, indent=1))
        raise SystemExit("uncertified starts in this checkout: " + "; ".join(failed))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=["lu", "pairs", "slow", "counts", "rayleigh", "pencils",
                                        "outputs", "fixed"])
    ap.add_argument("--reps", type=int, default=40)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--workload", default="mp2d")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--key")
    args = ap.parse_args(argv)

    def save(result):
        if args.out is not None:
            doc = json.loads(args.out.read_text()) if args.out.exists() else {}
            doc[args.key or args.command] = result
            args.out.write_text(json.dumps(doc, indent=1) + "\n")

    if args.command == "lu":
        result = lu_table(args.reps)
    elif args.command == "pencils":
        result = pencils(args.reps)
    elif args.command == "pairs":
        result = pairs(args.parent.resolve(), args.workload, args.pairs, args.seed,
                       args.seconds, save)
    elif args.command == "counts":
        result = counts(args.parent.resolve(), args.workload, args.seed)
    elif args.command == "rayleigh":
        result = rayleigh(args.parent.resolve(), args.reps)
    elif args.command == "outputs":
        result = outputs(args.parent.resolve(), args.seeds)
    elif args.command == "fixed":
        result = fixed(args.parent.resolve(), args.reps)
    else:
        result = slow(args.parent.resolve(), args.reps)
    print(json.dumps(result, indent=1))
    save(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
