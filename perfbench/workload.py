"""One workload process: time ``pxkirchhoff.cli.run`` tasks and check them.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1

``perfbench/run.py`` starts this in a fresh interpreter with the BLAS
thread count pinned.  It runs tasks until the next one would end after
``--seconds``, and times host-speed probes (``hostprobe.py``) for
``PROBE_SHARE`` of a task between tasks; each task carries the probes
timed right before and right after it.  One task parses the workload's
config and runs it through ``cli.run``, the way a batch user does.  Every
task is checked through a route independent of the solver, outside the
timed region.  Task i solves the config with seed
``TASK_SEEDS * seed + i`` (an untraced/traced pair shares one).  With
``--trace 1`` the tasks alternate between untraced and traced (see
``spans.py``).  The last stdout line is one JSON object.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pxkirchhoff as px  # noqa: E402
from pxkirchhoff import cli  # noqa: E402
import hostprobe  # noqa: E402
from configs import WORKLOADS, build_problem, config_text  # noqa: E402
from spans import Tracer  # noqa: E402

if Path(px.__file__).resolve().parent != ROOT / "src" / "pxkirchhoff":
    raise SystemExit(f"pxkirchhoff imported from {px.__file__}, not from the checkout")

TASK_SEEDS = 1000

# The host-speed probes between two tasks last this share of a task (of 1 s
# at least), so that long tasks are scaled by as many probes as short ones.
PROBE_SHARE = 0.1

# Relative energy gap allowed between a reported critical point and its
# Newton-polished oracle counterpart (the answer gate in ROADMAP.md).
ORACLE_REL_TOL = 1e-10

REFERENCES = Path(__file__).with_name("references.json")


# -- answer checks -----------------------------------------------------------------

def parse_report(text: str) -> list[dict]:
    """report.txt as key/value blocks: the header, then one per orbit."""
    blocks = [{}]
    for line in text.splitlines():
        if line.startswith("-- orbit"):
            blocks.append({})
            continue
        key, sep, value = line.partition(": ")
        if sep:
            blocks[-1][key] = value
    return blocks


def _certificate(fields: dict, tol: float, label: str) -> list[str]:
    problems = []
    if not float(fields["residual"]) <= tol:
        problems.append(f"{label}: residual {fields['residual']} > tol {tol:g}")
    if not float(fields["K"]) > 0.0:
        problems.append(f"{label}: K = {fields['K']} is not positive")
    if fields["below_ps_ceiling"] != "true":
        problems.append(f"{label}: level not below the ceiling a^2/(2b)")
    return problems


def _oracle_gap(prob, dump: Path, energy: float, label: str) -> list[str]:
    """Newton-polish the dumped point with the test-suite oracle and compare
    energies."""
    import oracles

    dim, _, _, values = cli.read_solution(dump)
    if dim != 1 or len(values) != prob.mesh.n_vertices:
        return [f"{label}: dump does not match the 1-D problem mesh"]
    x, converged = oracles.newton_1d(oracles.make_residual_1d(prob), values[1:-1])
    if not converged:
        return [f"{label}: oracle Newton polish did not converge"]
    polished = px.energy_J(px.GridFunction(prob.mesh, np.concatenate(([0.0], x, [0.0]))), prob)
    gap = abs(energy - polished) / abs(polished)
    if not gap <= ORACLE_REL_TOL:
        return [f"{label}: energy {energy!r} is {gap:.3g} (relative) from the "
                f"polished point {polished!r}"]
    return []


def _reference(name: str, fields: dict, references: dict) -> list[str]:
    refs = references.get(name)
    if not refs:
        return [f"no reference values recorded for {name}"]
    problems = []
    for key, ref in refs.items():
        got = float(fields[key])
        if not abs(got - ref["value"]) <= ref["rel_tol"] * abs(ref["value"]):
            problems.append(f"{key} = {got!r}, reference {ref['value']!r} "
                            f"(rel_tol {ref['rel_tol']:g})")
    return problems


def check(name: str, config, outdir: Path, references: dict) -> tuple[list[str], list[dict]]:
    """Problems found in one task's outputs (empty when it is correct)."""
    blocks = parse_report((outdir / "report.txt").read_text())
    kind = name.split("-")[0]
    if kind in ("mp1d", "mp2d"):
        problems = _certificate(blocks[0], config.tol, "solution")
        if kind == "mp1d":
            problems += _oracle_gap(build_problem(config), outdir / "solution.txt",
                                    float(blocks[0]["energy"]), "solution")
        else:
            problems += _reference(name, blocks[0], references)
    elif kind == "mult1d":
        orbits = blocks[1:]
        problems = [] if orbits else ["no orbit found"]
        for i, fields in enumerate(orbits):
            problems += _certificate(fields, config.tol, f"orbit {i}")
        if orbits:
            problems += _oracle_gap(build_problem(config), outdir / "solution_0.txt",
                                    float(orbits[0]["energy"]), "ground orbit")
    else:
        problems = _reference(name, blocks[0], references)
    return problems, blocks


# -- per-layer metrics -------------------------------------------------------------

def layer_metrics(tracer: Tracer, orbits: int, output_bytes: int) -> dict:
    """One traced task's per-layer numbers, from call-path totals."""
    sel = tracer.select
    m = {}

    def span(metric, row):
        m[metric + ".calls"] = row[0]
        m[metric + ".s"] = row[1]

    E = sel("energy_J")
    span("energy.energy_J", E)
    m["energy.energy_J.us_per_call"] = E[1] / E[0] * 1e6 if E[0] else 0.0
    span("energy.gradient_J", sel("gradient_J"))
    span("energy.kirchhoff_A", sel("kirchhoff_A"))
    m["discretization.GridFunction.calls"] = sel("GridFunction")[0]
    m["discretization.build_mesh.s"] = (sel("build_interval_mesh")[1]
                                        + sel("build_rect_mesh")[1])
    m["exponents.build_exponent_field.s"] = sel("build_exponent_field")[1]
    span("exponents.validate_problem_exponents", sel("validate_problem_exponents"))

    mps = ("mountain_pass_solve",)
    sweeps = sel("kirchhoff_A", parent="mountain_pass_solve")[0]
    m["solver.sweeps"] = sweeps
    m["solver.energy_calls_per_sweep"] = (
        sel("energy_J", under=mps)[0] / sweeps if sweeps else 0.0)
    m["solver.sweep.energy_calls"] = sel("energy_J", parent="mountain_pass_solve")[0]
    span("solver.segment_max", sel("minimize_scalar", under=mps))
    m["solver.segment_max.energy_calls"] = sel(
        "energy_J", under=mps, parent="minimize_scalar")[0]
    span("solver.laplace_eigenbasis", sel("laplace_eigenbasis"))
    m["solver.geometry.s"] = sel("verify_mountain_geometry")[1]
    m["solver.geometry.energy_calls"] = sel(
        "energy_J", under=("verify_mountain_geometry",))[0]
    m["solver.precond.factorizations"] = sel("factorized")[0]
    m["solver.precond.solves"] = sel("precond_solve")[0]

    solves = sel("mountain_pass_solve")
    span("solver.path_solve", solves)
    m["solver.path_solve.failed"] = solves[2]
    m["solver.path_solve.failed_s"] = solves[3]
    starts = sel("mountain_pass_solve", under=("multiplicity_search",))
    m["solver.multiplicity.starts"] = starts[0]
    m["solver.multiplicity.starts_failed"] = starts[2]
    m["solver.multiplicity.orbits"] = orbits
    m["solver.multiplicity.useful_ratio"] = orbits / starts[0] if starts[0] else 0.0

    m["solver.rayleigh.s"] = sel("rayleigh_quotient_min")[1]
    span("solver.ray_search", sel("minimize_scalar", under=("rayleigh_quotient_min",)))
    span("modular_spaces.sobolev_norm", sel("sobolev_norm"))
    span("modular_spaces.luxemburg_norm", sel("luxemburg_norm"))

    m["cli.parse_config.s"] = sel("parse_config")[1]
    m["cli.run.s"] = sel("run")[1]
    m["cli.write.s"] = sel("write_solution")[1]
    m["cli.output_bytes"] = output_bytes
    return m


# -- the run -----------------------------------------------------------------------

def environment() -> dict:
    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"

    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
    }


def run_task(name, text, outdir, tracer, references):
    """Run and check one task.  Returns (seconds or None, problems, extras)."""
    seconds = None
    if tracer is not None:
        tracer.install({k: v for k, v in sys.modules.items()
                        if k == "pxkirchhoff" or k.startswith("pxkirchhoff.")})
        tracer.open("task")
    try:
        config = cli.parse_config(text + f"out = {outdir}\n")
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            t0 = time.perf_counter()
            rc = cli.run(config)
            elapsed = time.perf_counter() - t0
        problems = [] if rc == 0 else [f"cli.run returned {rc}"]
    except Exception as exc:  # a failed operation, not a failed benchmark
        traceback.print_exc()
        problems = [f"{type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.close()
            tracer.uninstall()

    extras = {"orbits": 0, "output_bytes": 0}
    if not problems:
        seconds = elapsed
        try:
            problems, blocks = check(name, config, outdir, references)
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"answer check could not read the outputs: {exc!r}"]
            blocks = [{}]
        extras["orbits"] = int(blocks[0].get("orbits", 0))
        extras["output_bytes"] = len(stdout.getvalue()) + sum(
            f.stat().st_size for f in outdir.iterdir())
    return seconds, problems, extras


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    references = json.loads(REFERENCES.read_text())

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    tasks, layers, probes = [], [], []
    try:
        start = time.perf_counter()
        while True:
            done = [t["seconds"] for t in tasks if t["seconds"] is not None]
            est = statistics.median(done) if done else 0.0
            enough = len(tasks) >= 1 + args.trace
            burst = hostprobe.probes(PROBE_SHARE * max(est, 1.0))
            probes += burst
            if tasks:
                tasks[-1]["probes"] += burst
            if enough and time.perf_counter() - start + est > args.seconds:
                break
            traced = bool(args.trace) and len(tasks) % 2 == 1
            tracer = Tracer() if traced else None
            # A seed per task (per untraced/traced pair): the random starts
            # of eig2d and of the geometry probe then differ between tasks,
            # so a run's median covers several inputs, not one.
            text = config_text(args.workload, TASK_SEEDS * args.seed + len(tasks) // (1 + args.trace))
            outdir = workdir / f"task{len(tasks)}"
            seconds, problems, extras = run_task(
                args.workload, text, outdir, tracer, references)
            shutil.rmtree(outdir, ignore_errors=True)
            tasks.append({"traced": traced, "seconds": seconds, "problems": problems,
                          "probes": list(burst)})
            if traced and seconds is not None:
                layers.append(layer_metrics(tracer, extras["orbits"], extras["output_bytes"]))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "env": environment(),
        "host_probe_s": statistics.fmean(probes),
        "peak_rss_mb": peak_rss_mb,
        "tasks": tasks,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
