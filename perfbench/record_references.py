"""Record the reference answers that ``workload.py`` checks mp2d and eig2d
(and their tiny self-test variants) against.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_references.py

Runs each workload once per seed 0..9 and writes ``references.json``: the
median answer, and a relative tolerance of 100 times the spread over those
seeds, but at least 1e-10 (the answer gate of ROADMAP.md).  Rerun it only
when a change is meant to move these answers, and say so in the change.
"""

import contextlib
import io
import json
import shutil
import statistics
import tempfile
from pathlib import Path

import workload

CHECKED = {"mp2d": "energy", "eig2d": "lambda_p",
           "mp2d-tiny": "energy", "eig2d-tiny": "lambda_p"}
SEEDS = range(10)
MIN_REL_TOL = 1e-10


def answer(name: str, seed: int) -> float:
    outdir = Path(tempfile.mkdtemp(dir=workload.ROOT / ".bench_work"))
    try:
        config = workload.cli.parse_config(
            workload.config_text(name, seed) + f"out = {outdir}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            workload.cli.run(config)
        report = workload.parse_report((outdir / "report.txt").read_text())
        return float(report[0][CHECKED[name]])
    finally:
        shutil.rmtree(outdir)


def main():
    (workload.ROOT / ".bench_work").mkdir(exist_ok=True)
    refs = {}
    for name, key in CHECKED.items():
        values = [answer(name, seed) for seed in SEEDS]
        mid = statistics.median(values)
        spread = (max(values) - min(values)) / abs(mid)
        refs[name] = {key: {"value": mid, "rel_tol": max(MIN_REL_TOL, 100.0 * spread)}}
        print(name, key, mid, f"spread {spread:.3g}", flush=True)
    path = Path(__file__).with_name("references.json")
    path.write_text(json.dumps(refs, indent=2) + "\n")


if __name__ == "__main__":
    main()
