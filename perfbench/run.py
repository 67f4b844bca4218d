"""Benchmark of the pxkirchhoff batch runner: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json (``all`` runs each in turn).  Every
workload process is a fresh interpreter with the BLAS thread count pinned
to ``BLAS_THREADS``.

With ``--trace 0`` the run measures, with tracing off:

* ``setup_s``: median over ``SETUP_REPS`` fresh interpreters (after one
  discarded warm-up) of importing ``pxkirchhoff.cli``, parsing the config
  and building mesh, exponent fields and problem (``setup_probe.py``);
* ``task_s``: median wall time of one ``cli.run(config)`` over the tasks
  that fit in ``--seconds`` (``workload.py``);
* ``peak_rss_mb``: peak resident memory of the workload process.

Each set-up and each task time is first scaled to the reference host speed
by the host-speed probes timed next to it (``hostprobe.py``): right after a
set-up, right before and after a task.  The unscaled medians are printed
too.

With ``--trace 1`` it alternates untraced and traced tasks and reports the
per-layer metrics of BENCHMARK.json, each the median over traced tasks.

Each task's answer is checked; a failed check, an exception or a nonzero
return is one failed operation and makes the command exit with 1.  The last
stdout line is the JSON result; the lines before it are for people.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostprobe import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
SETUP_REPS = 5
# The whole command must end within 180 s; keep a margin for start-up.
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _python(script: str, args: list[str], deadline: float) -> dict:
    """Run a perfbench script in a fresh interpreter; return its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            capture_output=True, text=True, env=_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{script} ran past the {DEADLINE_S:g} s deadline") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return "no tail percentile (fewer than 11 samples)"
    return f"p{100.0 * (n - 10) / n:.0f} = {sorted(samples)[n - 11]:.4f} s"


def measure(name: str, seed: int, seconds: float, trace: int,
            spec: dict) -> tuple[dict, list[str]]:
    """One workload run: (result object, human-readable lines)."""
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "pxkirchhoff").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        raise SystemExit(f"{ROOT} holds no pxkirchhoff source tree to benchmark")

    setups, raw_setups = [], []
    if not trace:
        for i in range(SETUP_REPS + 1):
            out = _python("setup_probe.py", [name, str(seed)], deadline)
            if i:
                raw_setups.append(out["setup_s"])
                setups.append(scaled(out["setup_s"], out["probes"]))
    out = _python("workload.py", [
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace)], deadline)

    tasks = out["tasks"]
    failed = [t for t in tasks if t["problems"]]
    done = [t for t in tasks if t["seconds"] is not None]
    plain = [t["seconds"] for t in done if not t["traced"]]
    traced = [t["seconds"] for t in done if t["traced"]]
    lines = [f"{name} env: {json.dumps(out['env'])}",
             f"{name} bench.host_probe_s: {out['host_probe_s']:.5f} s (mean)",
             f"{name} operations: attempted {len(tasks)}, failed {len(failed)}"]
    for i, t in enumerate(tasks):
        lines += [f"{name} task {i} FAILED: {p}" for p in t["problems"]]

    values = {}
    if not trace:
        tasks_s = [scaled(t["seconds"], t["probes"]) for t in done if not t["traced"]]
        values["setup_s"] = statistics.median(setups)
        values["task_s"] = statistics.median(tasks_s) if tasks_s else 0.0
        values["peak_rss_mb"] = out["peak_rss_mb"]
        lines += [
            f"{name} setup_s: median {values['setup_s']:.4f} s over {len(setups)} "
            f"fresh interpreters (unscaled {statistics.median(raw_setups):.4f} s)",
            f"{name} task_s: median {values['task_s']:.4f} s over {len(tasks_s)} tasks "
            f"(unscaled {statistics.median(plain) if plain else 0.0:.4f} s); "
            + _tail(tasks_s),
            f"{name} peak_rss_mb: {values['peak_rss_mb']:.1f} MB",
        ]
        wanted = spec["end_to_end"]
    else:
        for layer in out["layers"]:
            for key, v in layer.items():
                values.setdefault(key, []).append(v)
        values = {k: statistics.median(v) for k, v in values.items()}
        values["bench.host_probe_s"] = out["host_probe_s"]
        values["bench.trace_overhead_s"] = (
            statistics.median(traced) - statistics.median(plain)
            if traced and plain else 0.0)
        lines.append(f"{name} traced tasks: {len(traced)}, untraced tasks: {len(plain)}")
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise SystemExit(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if trace:
            lines.append(f"{name} {m['name']}: {values[m['name']]:.6g} {m['unit']}")
    result = {"correct": not failed and len(tasks) > 0, "attempted": len(tasks),
              "failed": len(failed), "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        names = [args.workload]

    results = {}
    for name in names:
        result, lines = measure(name, args.seed, args.seconds, args.trace, spec)
        print("\n".join(lines), flush=True)
        results[name] = result

    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, r in results.items():
            print(f"{name} result: {json.dumps(r)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
