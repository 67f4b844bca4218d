"""Self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

* Runs the tiny variant of every workload, untraced and traced, and
  checks that each run is correct and prints every metric BENCHMARK.json
  names, with its unit and a finite value.
* Checks, in a copy of the checkout whose reference answer is
  deliberately wrong, that every operation fails, the result says
  ``correct: false`` and the exit code is 1.
* Checks that a copy holding only BENCHMARK.json and perfbench/ (no
  pxkirchhoff source) exits nonzero without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "1", *args],
        capture_output=True, text=True, cwd=root, timeout=180,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, last


def check_metrics(result, wanted, label):
    got = result["metrics"]
    names = [m["name"] for m in wanted]
    assert sorted(got) == sorted(names), f"{label}: metrics {sorted(set(names) ^ set(got))}"
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{label}: {m['name']} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), \
            f"{label}: {m['name']} = {entry['value']!r}"


def main():
    for w in SPEC["workloads"]:
        name = w["name"] + "-tiny"
        for trace, wanted in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            proc, last = bench("--workload", name, "--trace", trace)
            label = f"{name} --trace {trace}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
            result = json.loads(last)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                f"{label}: {last}"
            check_metrics(result, wanted, label)
            print(f"ok  {label}: {result['attempted']} operations", flush=True)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    try:
        wrong = scratch / "wrong"
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", wrong / "src", ignore=ignore)
        (wrong / "tests").mkdir()
        shutil.copy(ROOT / "tests" / "oracles.py", wrong / "tests")
        shutil.copytree(HERE, wrong / "perfbench", ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", wrong)
        refs_file = wrong / "perfbench" / "references.json"
        refs = json.loads(refs_file.read_text())
        ref = refs["eig2d-tiny"]["lambda_p"]
        ref["value"] *= 1.0 + 1e3 * ref["rel_tol"]
        refs_file.write_text(json.dumps(refs))
        proc, last = bench("--workload", "eig2d-tiny", "--trace", "0", root=wrong)
        result = json.loads(last)
        assert proc.returncode == 1, f"wrong reference: exit {proc.returncode}"
        assert not result["correct"] and result["failed"] == result["attempted"] >= 1, last
        print(f"ok  wrong reference caught: {result['failed']} of {result['attempted']} failed")

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, last = bench("--workload", SPEC["workloads"][0]["name"], "--trace", "0", root=bare)
        assert proc.returncode != 0 and not last.startswith("{"), \
            f"bare copy: exit {proc.returncode}, last line {last!r}"
        print(f"ok  bare copy refused with exit {proc.returncode}")
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    main()
