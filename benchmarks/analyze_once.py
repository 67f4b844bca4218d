"""Benchmarks of the solver's factorizations, eigensolves and workloads.

    python3 benchmarks/analyze_once.py lu    [--reps N]
    python3 benchmarks/analyze_once.py pairs --parent DIR --workload W --pairs N --seed S
                                             [--seconds T]
    python3 benchmarks/analyze_once.py slow  --parent DIR [--reps N]
    python3 benchmarks/analyze_once.py wide  --parent DIR [--reps N]
    python3 benchmarks/analyze_once.py counts --parent DIR --workload W --seed S
    python3 benchmarks/analyze_once.py rayleigh --parent DIR [--reps N]
    python3 benchmarks/analyze_once.py pencils [--reps N]
    python3 benchmarks/analyze_once.py outputs --parent DIR [--seeds N]
    python3 benchmarks/analyze_once.py fixed --parent DIR [--reps N]
    python3 benchmarks/analyze_once.py orbits --parent DIR [--seeds N]
    python3 benchmarks/analyze_once.py geometry --parent DIR [--reps N]

Each command prints one JSON document; ``--out FILE --key KEY`` also
stores it under KEY in the JSON file FILE.  A command that fails
(``pencils``, ``rayleigh``, ``outputs``, ``orbits``, ``geometry``) gives its reason
under ``failed``, is printed and stored all the same, and then exits with
status 1.  Every process runs with the BLAS on one thread.

``lu`` and ``pencils`` run in this process on this checkout's sources.
Every other command compares the checkout DIR (the parent) with this one
(the change): it runs one process per side and round, in that side's
checkout, the sides alternated round by round (``_alternated``), and reads
the JSON on each process's last line.  ``pairs`` runs each checkout's own
``perfbench/run.py``; the others run a child, a function ``_*_child`` of
this module, in a fresh interpreter with the side's ``src/`` and this
checkout's ``perfbench/`` first on ``sys.path`` (``_BOOTSTRAP``).

* ``lu``: milliseconds per factorization, the median over ``--reps``
  rounds that each call every variant once, in an order rotated round by
  round.  The matrices are the sparse part S of J'' at the solved
  mountain-pass point of a 1-D mesh with 399 interior vertices
  (p = 2 + 0.2x) and of 32², 48², 64² and 96² squares (p = 2), and the
  interior stiffness of the same squares; each row records the bandwidth
  kl.  The variants on S: SuperLU's minimum-degree order with its default
  supernodes (``mmd_default``) and with ``_RELAX``/``_PANEL_SIZE``
  (``mmd_small``, the LU of ``Mesh.interior_pattern_splu``, whose inertia
  the Morse count reads); and LAPACK's band LU as
  ``Mesh.interior_pattern_lu`` makes it (``band_dgbtrf``, the scatter
  included).  The stiffness has one variant, LAPACK's band Cholesky as
  ``Mesh.interior_stiffness_lu`` makes it from the stiffness's pattern
  data (``band_dpbtrf``, the scatter included); its ``nnz`` is the
  pattern's entry count, as the band holds the pattern's exact zeros too.
* ``pairs``: ``perfbench/run.py --workload W --trace 0`` from the checkout
  DIR and from this checkout, alternated pair by pair, at seeds S, S+1,
  ...; each run's metrics and the medians, quartiles and wins of
  ``task_s``.
* ``slow``: the six slow mountain-pass cases of ROADMAP item 2 (a = 1,
  b = 0.1, q = 4.5, theta = 3.2, geometry seed 1000, solve only), each
  solved ``--reps`` times per side; steps, Newton steps, energy, Morse
  index, the median solve time and the median peak RSS of the solving
  process.
* ``wide``: as ``slow``, on the wide squares of ``WIDE_CASES`` (96² and
  128², p = 2), whose Hessians have kl = 96 and 128.
* ``counts``: one task of workload W at config seed S per side: its
  mountain-pass solves (``cli``'s and ``solver``'s), Hessian assemblies
  (``_hessian_of_elements``), sparse LUs (``discretization._splu``, the
  Morse counts' inertia), LAPACK band LUs and band Cholesky factors
  (``_band_lu``, ``_band_cholesky``), LAPACK's dense LDL^T factors
  (``dsytrf``, the Morse counts on at most ``solver._DENSE_N`` interior
  vertices), ``csc_matrix`` constructions, scipy's own included, and
  ``eigsh`` calls, each with its k and ``which``; and the pencil
  eigensolves of ``solver._lowest``: per call its k, its route (dense, or
  whitened when it builds a ``_PencilOperator``) and the products of that
  operator, which are ARPACK's operator applications, summed over the
  calls in ``arpack_operator_applications``.
* ``rayleigh``: the first eigenvalue (``rayleigh_quotient_min``, default
  ``tol`` and ``max_iter``) on the cases of ``RAYLEIGH_CASES``, each seed
  solved on a fresh mesh ``--reps`` times per side, one process per case,
  side and round.  Per seed: steps, ``newton_steps``, the
  ``Mesh.interior_pattern_lu`` calls, lambda_p and the residual, or the
  error that ended the start; per case, the median solve time.  The
  command fails when a start of this checkout is not certified.
* ``pencils``: milliseconds per call of the two routes that
  ``solver._DENSE_N`` chooses between, at the solved mountain-pass point
  of 1-D meshes with 49 to 169 interior vertices and of 12², 16², 24² and
  64² squares (p = 2 + 0.2x): ``solver._morse``, whose two inertia counts
  come from the symmetric SuperLU or from LAPACK's dense LDL^T
  (``dsytrf``), and ``laplace_eigenbasis`` (k = 3), from ARPACK or from
  LAPACK's dense ``dsygvx``.  A solve makes one of each.  The dense routes
  are timed only on the rows near the break-even: on the 64² square
  (3,969 interior vertices, kl = 64) they run once, untimed.  Per route,
  the Morse counts at -delta and +delta, and the largest relative gap
  between the three lowest eigenvalues of the eigenbasis pencil (K, M)
  that ``solver._lowest`` gives on the two routes, computed once per
  route, in the first round.  The command fails when the gap exceeds
  ``PENCIL_GAP``, or the counts differ between the routes or at -delta
  and +delta.
* ``outputs``: the four benchmark workloads of ``perfbench/configs.py``
  (mp1d, mp2d, mult1d, eig2d) at config seeds 1000, ..., 999 + N, each run
  by ``cli.run``, one process per side; every output file is compared
  byte for byte.  Each differing file is listed with the largest relative
  gap of each of its numeric fields (a report line's key; all numbers of a
  solution or CSV file as one field), or with the field whose text differs
  otherwise.  The command fails when any file differs or exists on one
  side only.
* ``fixed``: the fixed costs of each benchmark workload's mesh, one
  process per side, alternated over ``--reps`` rounds: milliseconds to
  build the mesh (``cli._build_mesh``) and then, on that fresh mesh and in
  this order, its centroids, hat gradients, interior pattern, interior
  bandwidth and stiffness factor, and the three sections of a solution
  dump (``cli.write_solution``) of a random grid function: vertices,
  elements and nodal values.  Each process times ``FIXED_PASSES`` fresh
  meshes after one warm-up; a row holds the median over all of them.
* ``orbits``: the multiplicity grid of ROADMAP item 10 (``ORBIT_GRID``,
  1-D meshes on (0, 1), a = 1, b = 0.1, q = 4.5, theta = 3.2,
  ``n_starts = 8``, ``k_max = 4``) at config seeds 0, ..., N - 1, each run
  by ``cli.run``, one process per side.  Per config and side: the orbits'
  energies and Morse indices from ``report.txt``, or the type of the
  error that ended the run, and its seconds.  The command fails when an
  orbit of the parent has no orbit of this checkout with the same Morse
  index within ``ORBIT_RTOL`` relative in energy, or when the error types
  differ; the orbits that only this checkout finds are listed.
* ``geometry``: ``verify_mountain_geometry`` on the problems of the
  workloads that run it (``GEOMETRY_WORKLOADS``, mp1d and mp2d) at config
  seed ``GEOMETRY_SEED``, with the arguments ``cli.run`` passes, one
  process per side and round, alternated over ``--reps`` rounds.  Each
  process runs the workload's ``geometry`` command once, which warms the
  mesh's caches, then times ``GEOMETRY_PASSES`` calls, each with the
  ``laplace_eigenbasis`` call inside it, and one more call under
  ``tracemalloc`` for its peak.  Per workload and side: the median
  milliseconds of the call and of its eigenbasis, rho, ``repr(alpha)``,
  ``directions_tested`` and the peak.  The command fails when rho differs
  between the sides or alpha moves by more than ``GEOMETRY_ALPHA_RTOL``
  relative.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
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

# wider than any benchmark mesh: ``wide`` solves them as ``slow`` does
WIDE_CASES = [
    ("2d96_p2", "rect:0,0,1,1,96,96", "const:2", 0.0),
    ("2d128_p2", "rect:0,0,1,1,128,128", "const:2", 0.0),
]

# the largest relative gap between the dense and the ARPACK route's
# eigenbasis eigenvalues that ``pencils`` accepts
PENCIL_GAP = 1e-10

# the fresh meshes that one ``fixed`` process times per workload, after one
# warm-up
FIXED_PASSES = 5

# the workloads whose task samples the mountain-pass geometry, the config
# seed and the timed calls per process of ``geometry``, and the largest
# relative change of alpha that it accepts
GEOMETRY_WORKLOADS = ["mp1d", "mp2d"]
GEOMETRY_SEED = 1000
GEOMETRY_PASSES = 20
GEOMETRY_ALPHA_RTOL = 1e-13

# ROADMAP item 10's multiplicity grid, (n, p, lambda) on interval:0,1,n
ORBIT_GRID = [(n, p, lam) for n in (12, 25, 50, 100)
              for p in ("const:2", "affine:2,0.2", "affine:1.8,0.2") for lam in (0.0, 2.0, -3.0)]

# the largest relative energy gap at which ``orbits`` matches two orbits of
# the same Morse index
ORBIT_RTOL = 1e-10

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

# the program of every child process: sys.argv[1:4] (the side's src/, this
# checkout's perfbench/ and this directory) go first on sys.path, and the
# JSON of this module's function sys.argv[4], called on the JSON arguments
# sys.argv[5], is the last line printed
_BOOTSTRAP = ("import json, sys; sys.path[:0] = sys.argv[1:4]; import analyze_once; "
              "print(json.dumps(getattr(analyze_once, sys.argv[4])(*json.loads(sys.argv[5]))))")


def _alternated(parent: Path, rounds: int, argv):
    """Yields, for r = 0, ..., rounds - 1, one run of the command
    ``argv(checkout, r)`` per side, each a process in its side's checkout
    (``parent`` for the parent, this one for the change), the parent first
    in even rounds: the order the sides ran in and, per side, the JSON on
    the last line its process printed."""
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        run = {"order": list(order)}
        for side in order:
            checkout = parent if side == "parent" else ROOT
            proc = subprocess.run(argv(checkout, r), cwd=checkout, stdout=subprocess.PIPE,
                                  text=True, check=True)
            run[side] = json.loads(proc.stdout.strip().splitlines()[-1])
        yield run


def _child(name: str, *args):
    """The command of ``_alternated`` that calls this module's function
    ``name(*args)`` on a side's sources (``_BOOTSTRAP``)."""
    return lambda checkout, r: [sys.executable, "-c", _BOOTSTRAP, str(checkout / "src"),
                                str(ROOT / "perfbench"), str(ROOT / "benchmarks"), name,
                                json.dumps(args)]


def _config(domain: str, p: str, lam: float, out: str) -> str:
    return (f"command = solve\ndomain = {domain}\np = {p}\nq = const:4.5\n"
            f"a = 1\nb = 0.1\nlambda = {lam:g}\ntheta = 3.2\nseed = 1000\nout = {out}\n")


def _solved(domain: str, p: str, lam: float = 0.0):
    """The problem of a solve config, the solution of its solve and the
    seconds that ``mountain_pass_solve`` took."""
    from pxkirchhoff import cli

    captured = {}
    solve = cli.mountain_pass_solve

    def keep(prob, *args, **kwargs):
        t0 = time.perf_counter()
        captured["rep"] = solve(prob, *args, **kwargs)
        captured["seconds"] = time.perf_counter() - t0
        captured["prob"] = prob
        return captured["rep"]

    cli.mountain_pass_solve = keep
    try:
        out = ROOT / ".bench_work" / "analyze_once"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(cli.parse_config(_config(domain, p, lam, str(out))))
    finally:
        cli.mountain_pass_solve = solve
    return captured["prob"], captured["rep"], captured["seconds"]


def lu_table(reps: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy.sparse.linalg as sla
    from pxkirchhoff.discretization import _PANEL_SIZE, _RELAX, build_rect_mesh
    from pxkirchhoff.energy import hessian_J

    def mmd(S, **kw):
        return sla.splu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True), **kw)

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
        prob, rep, _ = _solved(domain, p)
        S, mesh = hessian_J(rep.solution, prob)[0], prob.mesh
        cases.append((label, S, mesh, {
            "mmd_default": lambda S=S: mmd(S),
            "mmd_small": lambda S=S: mmd(S, relax=_RELAX, panel_size=_PANEL_SIZE),
            "band_dgbtrf": lambda S=S, mesh=mesh: mesh.interior_pattern_lu(S.data),
        }))
    for nx in (32, 48, 64, 96):
        mesh = build_rect_mesh(nx, nx, ((0.0, 0.0), (1.0, 1.0)))
        K = mesh.interior_pattern_matrix(mesh.interior_stiffness_data)
        cases.append((f"2d_stiffness_{nx}", K, mesh,
                      {"band_dpbtrf": lambda mesh=mesh: cholesky(mesh)}))

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
        row = {"matrix": label, "n": S.shape[0], "nnz": S.nnz, "kl": mesh.interior_bandwidth}
        for name in names:
            factor = variants[name]()
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
    """The two routes of ``_morse`` (SuperLU against ``dsytrf``) and of
    ``laplace_eigenbasis`` (k = 3; ARPACK against LAPACK) at the solved
    mountain-pass point of 1-D meshes around ``solver._DENSE_N`` and of 2-D
    meshes above it: their times, the Morse counts at -delta and +delta of
    each route, and the largest relative gap between the eigenbasis
    routes' eigenvalues."""
    sys.path.insert(0, str(ROOT / "src"))
    from pxkirchhoff import laplace_eigenbasis, solver
    from pxkirchhoff.energy import _point

    dense_n, rows = solver._DENSE_N, []
    # (route of the Morse counts, route of the eigenbasis, cutoff)
    routes = [("superlu", "arpack", 0), ("dense", "dense", sys.maxsize)]
    # (domain, label, whether the dense route is timed): on the 64^2 square
    # it factors two dense matrices of order 3,969, so it runs once
    meshes = ([(f"interval:0,1,{n + 1}", "interval", True) for n in (49, 74, 99, 128, 149, 169)]
              + [(f"rect:0,0,1,1,{nx},{nx}", f"rect {nx}x{nx}", nx < 64)
                 for nx in (12, 16, 24, 64)])
    for domain, label, timed in meshes:
        prob, rep, _ = _solved(domain, "affine:2,0.2")
        mesh, at = prob.mesh, _point(prob.mesh, rep.solution.nodal_values)
        calls = {"morse": lambda prob=prob, at=at: solver._morse(prob, at),
                 "eigenbasis_k3": lambda mesh=mesh: laplace_eigenbasis(mesh, 3)}
        times, counts, values = {}, {}, {}
        for counted, solved, cutoff in routes:  # the answers, a warm-up round too
            solver._DENSE_N = cutoff
            counts[counted] = list(solver._morse(prob, at))
            values[solved] = solver._lowest(mesh, 3)[0]
        for r in range(reps):
            for counted, solved, cutoff in routes if r % 2 else routes[::-1]:
                if counted == "dense" and not timed:
                    continue
                solver._DENSE_N = cutoff
                for name, call in calls.items():
                    t0 = time.perf_counter()
                    call()
                    route = counted if name == "morse" else solved
                    times.setdefault(f"{name}_{route}_ms", []).append(time.perf_counter() - t0)
        solver._DENSE_N = dense_n
        gap = max(abs(a - b) / abs(b) for a, b in zip(values["arpack"], values["dense"]))
        rows.append({"mesh": label, "interior_n": len(mesh.interior),
                     "kl": mesh.interior_bandwidth,
                     **{key: round(1e3 * statistics.median(values), 3)
                        for key, values in times.items()},
                     "morse_counts": counts, "max_rel_eigenvalue_gap": gap})
    result = {"what": f"ms per call, median of {reps} rounds after the round that computes "
                      "the answers, routes alternated; the dense route is not timed on the 64^2 "
                      "square; 1-D mesh (interval 0..1, interior_n + 1 elements) or "
                      "nx x nx square, p = 2 + 0.2x, a = 1, b = 0.1, q = 4.5, theta = 3.2, "
                      "lambda = 0, geometry seed 1000; the SuperLU and ARPACK routes by "
                      "_DENSE_N = 0, the dense routes by an unbounded _DENSE_N; _morse includes "
                      "the Hessian assembly; morse_counts: per route, the counts of the Morse "
                      "pencil's eigenvalues below -delta and +delta; max_rel_eigenvalue_gap "
                      "over the three lowest eigenvalues of the eigenbasis pencil (K, M) that "
                      "solver._lowest gives on the two routes",
              "dense_n": dense_n, "rows": rows,
              "max_rel_eigenvalue_gap": max(row["max_rel_eigenvalue_gap"] for row in rows)}
    failed = [row["mesh"] + f" ({row['interior_n']})" for row in rows
              if row["max_rel_eigenvalue_gap"] > PENCIL_GAP
              or any(a != b for a, b in row["morse_counts"].values())
              or row["morse_counts"]["superlu"] != row["morse_counts"]["dense"]]
    if failed:
        result["failed"] = (f"the eigenbasis routes differ by more than {PENCIL_GAP:g}, or the "
                            "Morse counts differ between the routes or at -delta and +delta, "
                            "on: " + ", ".join(failed))
    return result


def _outputs_child(work: str, runs: list) -> str:
    """Runs each (workload, seed) of ``runs`` by ``cli.run`` into a fresh
    directory under ``work``, and returns that directory."""
    from configs import config_text
    from pxkirchhoff import cli

    out = tempfile.mkdtemp(dir=work)
    for name, seed in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(cli.parse_config(config_text(name, seed) + f"out = {out}/{name}_{seed}\n"))
    return out


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
    work.mkdir(parents=True)
    run = next(_alternated(parent, 1, _child("_outputs_child", str(work), runs)))
    dirs = {side: Path(run[side]) for side in ("parent", "change")}
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
        result["failed"] = f"{len(differing)} of {len(files)} output files differ"
    return result


def _orbits_child(work: str, configs: list) -> list:
    """Per (n, p, lambda, seed) of ``configs``: the [energy, Morse index] of
    each orbit that ``cli.run`` reports, or the type of the error that
    ended it, and its seconds."""
    from pxkirchhoff import cli

    out, rows = tempfile.mkdtemp(dir=work), []
    for n, p, lam, seed in configs:
        text = (f"command = multiplicity\ndomain = interval:0,1,{n}\np = {p}\nq = const:4.5\n"
                f"a = 1\nb = 0.1\nlambda = {lam:g}\ntheta = 3.2\nn_starts = 8\nk_max = 4\n"
                f"seed = {seed}\nout = {out}\n")
        t0, row = time.perf_counter(), {}
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run(cli.parse_config(text))
        except Exception as exc:  # recorded per config; the command judges it
            row["error"] = type(exc).__name__
        else:
            fields = _fields(Path(out, "report.txt"))
            row["orbits"] = [[float(e), None if k == "none" else int(k)]
                             for e, k in zip(fields["energy"], fields["morse_index"], strict=True)]
        row["seconds"] = round(time.perf_counter() - t0, 4)
        rows.append(row)
    return rows


def _unmatched(orbits: list, others: list) -> list:
    """The orbits with no orbit of ``others`` of the same Morse index within
    ``ORBIT_RTOL`` relative in energy."""
    return [[e, k] for e, k in orbits
            if not any(k == j and abs(e - f) <= ORBIT_RTOL * abs(e) for f, j in others)]


def orbits(parent: Path, seeds: int) -> dict:
    work = ROOT / ".bench_work" / "analyze_once" / "orbits"
    shutil.rmtree(work, ignore_errors=True)  # no file of an earlier run survives
    work.mkdir(parents=True)
    configs = [(n, p, lam, seed) for n, p, lam in ORBIT_GRID for seed in range(seeds)]
    run = next(_alternated(parent, 1, _child("_orbits_child", str(work), configs)))
    rows, lost, errors, extra = [], [], [], []
    for (n, p, lam, seed), before, after in zip(configs, run["parent"], run["change"],
                                                strict=True):
        label = f"n={n} p={p} lambda={lam:g} seed={seed}"
        rows.append({"config": label, "parent": before, "change": after})
        if before.get("error") != after.get("error"):
            errors.append(f"{label}: {before.get('error')} -> {after.get('error')}")
        elif "orbits" in before:
            lost += [f"{label}: {o}" for o in _unmatched(before["orbits"], after["orbits"])]
            extra += [f"{label}: {o}" for o in _unmatched(after["orbits"], before["orbits"])]
    result = {"what": f"cli.run of command = multiplicity on ORBIT_GRID at config seeds 0 to "
                      f"{seeds - 1}, parent against change, one process per side; orbits as "
                      f"[energy, Morse index], matched within {ORBIT_RTOL:g} relative in energy "
                      "at the same index; error: the type that ended the run",
              "configs": len(rows),
              **{f"{side}_orbits": sum(len(row[side].get("orbits", [])) for row in rows)
                 for side in ("parent", "change")},
              **{f"{side}_seconds": round(sum(row[side]["seconds"] for row in rows), 3)
                 for side in ("parent", "change")},
              "lost": lost, "error_changed": errors, "extra": extra, "rows": rows}
    if lost or errors:
        result["failed"] = (f"{len(lost)} orbit(s) of the parent not found and {len(errors)} "
                            "error type(s) changed")
    return result


def _fixed_child(passes: int, workloads: list) -> dict:
    """Per workload and step, the seconds of each of ``passes`` fresh
    meshes, timed after one warm-up mesh."""
    import numpy as np
    from configs import config_text
    from pxkirchhoff import GridFunction, cli

    steps = {
        "centroids": lambda mesh, u: mesh.element_centroids,
        "hat_gradients": lambda mesh, u: mesh.hat_gradients,
        "pattern": lambda mesh, u: mesh.interior_pattern,
        "bandwidth": lambda mesh, u: mesh.interior_bandwidth,
        "stiffness_factor": lambda mesh, u: mesh.interior_stiffness_lu,
        "dump_vertices": lambda mesh, u: cli._vertex_rows(mesh.vertices),
        "dump_elements": lambda mesh, u: cli._rows("%d", mesh.elements),
        "dump_values": lambda mesh, u: cli._rows("%.17g", u.nodal_values[:, None]),
    }
    out = {}
    for name in workloads:
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
    return out


def fixed(parent: Path, reps: int) -> dict:
    runs = list(_alternated(parent, reps, _child("_fixed_child", FIXED_PASSES, WORKLOADS)))
    rows = []
    for name in WORKLOADS:
        row = {"workload": name}
        for side in ("parent", "change"):
            row[side] = {key + "_ms": round(1e3 * statistics.median(
                t for run in runs for t in run[side][name][key]), 4)
                for key in runs[0][side][name]}
        rows.append(row)
    return {"what": f"ms per step on a fresh mesh of each workload, median of {reps} "
                    f"round(s) of {FIXED_PASSES} meshes per side, sides alternated; steps in "
                    "the order listed, so each finds the earlier ones cached; the dump "
                    "sections of a random grid function",
            "rows": rows}


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
    runs = _alternated(parent, n_pairs, lambda checkout, k: [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed + k),
        "--seconds", str(seconds), "--trace", "0"])
    for k, run in enumerate(runs):
        out["runs"].append({"seed": seed + k, **run})
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


def _slow_child(domain: str, p: str, lam: float) -> dict:
    """One solve's seconds, steps and certificate, and the process's peak
    RSS."""
    _, rep, seconds = _solved(domain, p, lam)
    return dict(solve_s=seconds, steps=rep.iterations, newton_steps=rep.newton_steps,
                energy=rep.energy, residual=rep.residual_norm, morse_index=rep.morse_index,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def slow(parent: Path, reps: int, cases=SLOW_CASES) -> dict:
    rows = []
    for label, domain, p, lam in cases:
        runs = list(_alternated(parent, reps, _child("_slow_child", domain, p, lam)))
        row = {"case": label, "domain": domain, "p": p, "lambda": lam}
        for side in ("parent", "change"):
            row[side] = dict(runs[0][side], **{key: statistics.median(run[side][key]
                                                                      for run in runs)
                                               for key in ("solve_s", "peak_rss_mb")})
        rows.append(row)
    return {"what": f"solve only, median of {reps} solves per side, alternated; peak RSS of "
                    "the whole process (cli.run: mesh, geometry, solve and output)",
            "rows": rows}


def _count_child(name: str, seed: int, out: str) -> dict:
    """The counts of one task of workload ``name`` at config seed ``seed``."""
    import scipy.linalg.lapack
    import scipy.sparse
    import scipy.sparse.linalg
    from configs import config_text
    from pxkirchhoff import cli, discretization, energy, solver

    counts = dict(mountain_pass_solves=0, hessian_assemblies=0, lus=0, band_lus=0,
                  band_choleskys=0, dense_ldlts=0, csc_matrix_constructions=0, eigsh_calls=0,
                  arpack_operator_applications=0, eigsh=[], pencil_solves=[])

    def counted(key, f):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return wrapped

    # cli calls its own binding, multiplicity_search the solver's
    solver.mountain_pass_solve = cli.mountain_pass_solve = counted(
        "mountain_pass_solves", solver.mountain_pass_solve)
    energy._hessian_of_elements = solver._hessian_of_elements = counted(
        "hessian_assemblies", energy._hessian_of_elements)
    discretization._splu = counted("lus", discretization._splu)
    discretization._band_lu = counted("band_lus", discretization._band_lu)
    discretization._band_cholesky = counted("band_choleskys", discretization._band_cholesky)
    scipy.linalg.lapack.dsytrf = counted("dense_ldlts", scipy.linalg.lapack.dsytrf)
    scipy.sparse.csc_matrix.__init__ = counted("csc_matrix_constructions",
                                               scipy.sparse.csc_matrix.__init__)
    eigsh = scipy.sparse.linalg.eigsh

    def counted_eigsh(A, k=6, *args, **kwargs):
        counts["eigsh_calls"] += 1
        counts["eigsh"].append(dict(k=k, which=kwargs.get("which", "LM")))
        return eigsh(A, k, *args, **kwargs)

    scipy.sparse.linalg.eigsh = counted_eigsh
    # each pencil eigensolve is dense unless it builds a _PencilOperator
    lowest, Operator = solver._lowest, solver._PencilOperator
    init, matvec = Operator.__init__, Operator._matvec

    def counted_lowest(mesh, *args, **kwargs):  # k is the last positional argument
        counts["pencil_solves"].append(dict(k=args[-1], route="dense", operator_products=0))
        return lowest(mesh, *args, **kwargs)

    def counted_init(self, *args):
        counts["pencil_solves"][-1]["route"] = "whitened"
        init(self, *args)

    def counted_matvec(self, y):
        counts["pencil_solves"][-1]["operator_products"] += 1
        return matvec(self, y)

    solver._lowest = counted_lowest
    Operator.__init__, Operator._matvec = counted_init, counted_matvec
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(cli.parse_config(config_text(name, seed) + f"out = {out}\n"))
    counts["arpack_operator_applications"] = sum(call["operator_products"]
                                                 for call in counts["pencil_solves"])
    return counts


def counts(parent: Path, workload: str, seed: int) -> dict:
    run = next(_alternated(parent, 1, _child("_count_child", workload, seed,
                                             str(ROOT / ".bench_work" / "analyze_once"))))
    return {"what": f"counts in one {workload} task at config seed {seed}",
            "parent": run["parent"], "change": run["change"]}


def _rayleigh_child(shape: list, p: list, seeds: list) -> list:
    """Per seed, the first eigenvalue's solve on a fresh mesh of ``shape``
    at p = c0 + c1 x, or the error that ended it."""
    from pxkirchhoff import (build_exponent_field, build_interval_mesh, build_rect_mesh,
                             rayleigh_quotient_min)
    from pxkirchhoff.discretization import Mesh

    (kind, n), (c0, c1) = shape, p
    lus = []
    factor = Mesh.interior_pattern_lu
    Mesh.interior_pattern_lu = lambda self, data: lus.append(1) or factor(self, data)
    out = []
    for seed in seeds:
        mesh = (build_interval_mesh(n, 0.0, 1.0) if kind == "interval"
                else build_rect_mesh(n, n, ((0.0, 0.0), (1.0, 1.0))))
        field = build_exponent_field(c0 + c1 * mesh.element_centroids[:, 0], mesh)
        lus.clear()
        t0 = time.perf_counter()
        try:
            ray = rayleigh_quotient_min(field, mesh, seed=seed)
        except Exception as exc:  # recorded per start; the command judges it
            out.append(dict(seed=seed, error=f"{type(exc).__name__}: {exc}"))
            continue
        out.append(dict(seed=seed, solve_s=time.perf_counter() - t0, steps=ray.steps,
                        newton_steps=ray.newton_steps, lus=len(lus),
                        lambda_p=ray.value, residual=ray.residual))
    return out


def rayleigh(parent: Path, reps: int) -> dict:
    rows = []
    for label, mesh, p, seeds in RAYLEIGH_CASES:
        runs = list(_alternated(parent, reps, _child("_rayleigh_child", mesh, p, seeds)))
        row = {"case": label, "mesh": list(mesh), "p": f"{p[0]:g}+{p[1]:g}x", "seeds": seeds}
        for side in ("parent", "change"):
            first = runs[0][side]
            times = [s["solve_s"] for run in runs for s in run[side] if "error" not in s]
            row[side] = {
                "certified": sum("error" not in s for s in first),
                **{key: [s.get(key) for s in first]
                   for key in ("steps", "newton_steps", "lus", "lambda_p", "residual")},
                "errors": sorted({s["error"] for s in first if "error" in s}),
                "solve_ms_median": (round(1e3 * statistics.median(times), 2)
                                    if times else None),
            }
        both = [(a["lambda_p"], b["lambda_p"]) for a, b in zip(runs[0]["parent"],
                                                               runs[0]["change"])
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
        result["failed"] = "uncertified starts in this checkout: " + "; ".join(failed)
    return result


def _geometry_child(workloads: list, seed: int, passes: int) -> dict:
    """Per workload: the problem and the geometry arguments of ``cli.run``
    at config seed ``seed`` (its geometry command, run once, warms the
    mesh's caches), then ``passes`` timed calls of
    ``verify_mountain_geometry``, with the seconds of the eigenbasis inside
    each, and one more call under ``tracemalloc`` for its peak."""
    import gc
    import tracemalloc

    from configs import config_text
    from pxkirchhoff import cli, solver

    captured = {}
    verify = cli.verify_mountain_geometry

    def keep(prob, *args):
        captured["call"] = (prob, *args)
        return verify(prob, *args)

    eigenbasis, spent = solver.laplace_eigenbasis, []

    def timed_eigenbasis(*args):
        t0 = time.perf_counter()
        basis = eigenbasis(*args)
        spent.append(time.perf_counter() - t0)
        return basis

    cli.verify_mountain_geometry = keep
    out = {}
    for name in workloads:
        text = config_text(name, seed).replace("command = solve", "command = geometry")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(cli.parse_config(text + f"out = {ROOT / '.bench_work' / 'analyze_once'}\n"))
        call = captured.pop("call")
        times = []
        solver.laplace_eigenbasis = timed_eigenbasis
        spent.clear()
        for _ in range(passes):
            t0 = time.perf_counter()
            geo = verify(*call)
            times.append(time.perf_counter() - t0)
        solver.laplace_eigenbasis = eigenbasis
        gc.collect()
        tracemalloc.start()
        try:
            verify(*call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[name] = dict(seconds=times, eigenbasis_seconds=list(spent), rho=geo.rho,
                         alpha=repr(geo.alpha), directions_tested=geo.directions_tested,
                         tracemalloc_peak_kb=peak / 1024)
    cli.verify_mountain_geometry = verify
    return out


def geometry(parent: Path, reps: int) -> dict:
    runs = list(_alternated(parent, reps, _child("_geometry_child", GEOMETRY_WORKLOADS,
                                                  GEOMETRY_SEED, GEOMETRY_PASSES)))
    rows, failed = [], []
    for name in GEOMETRY_WORKLOADS:
        row = {"workload": name}
        for side in ("parent", "change"):
            first = runs[0][side][name]
            row[side] = {
                "geometry_ms": round(1e3 * statistics.median(
                    t for run in runs for t in run[side][name]["seconds"]), 4),
                "eigenbasis_ms": round(1e3 * statistics.median(
                    t for run in runs for t in run[side][name]["eigenbasis_seconds"]), 4),
                **{key: first[key] for key in ("rho", "alpha", "directions_tested",
                                               "tracemalloc_peak_kb")}}
        before, after = float(row["parent"]["alpha"]), float(row["change"]["alpha"])
        row["alpha_rel_diff"] = abs(after - before) / abs(before)
        if (row["parent"]["rho"] != row["change"]["rho"]
                or row["alpha_rel_diff"] > GEOMETRY_ALPHA_RTOL):
            failed.append(name)
        rows.append(row)
    result = {"what": f"verify_mountain_geometry at config seed {GEOMETRY_SEED} on warm mesh "
                      f"caches, median of {reps} round(s) of {GEOMETRY_PASSES} calls per side, "
                      "sides alternated; eigenbasis_ms is the laplace_eigenbasis call inside "
                      "each, tracemalloc_peak_kb that of one more call",
              "rows": rows}
    if failed:
        result["failed"] = (f"rho differs, or alpha by more than {GEOMETRY_ALPHA_RTOL:g} "
                            "relative, on: " + ", ".join(failed))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=["lu", "pairs", "slow", "wide", "counts", "rayleigh",
                                        "pencils", "outputs", "fixed", "orbits", "geometry"])
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
    elif args.command == "orbits":
        result = orbits(args.parent.resolve(), args.seeds)
    elif args.command == "geometry":
        result = geometry(args.parent.resolve(), args.reps)
    elif args.command == "wide":
        result = slow(args.parent.resolve(), args.reps, WIDE_CASES)
    else:
        result = slow(args.parent.resolve(), args.reps)
    print(json.dumps(result, indent=1))
    save(result)
    if "failed" in result:  # recorded first, so a failed run is on file too
        raise SystemExit(result["failed"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
