"""Set-up cost from a fresh interpreter, as a batch user pays it.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports ``pxkirchhoff.cli``, parses the workload's config and builds the
mesh, the exponent fields and the ``KirchhoffProblem`` with the public
constructors; prints the elapsed seconds as JSON, with 0.05 s of
host-speed probes (``hostprobe.py``) timed right after.  Only those steps
are timed: ``configs`` imports nothing beyond pxkirchhoff and numpy.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).parent)]

t0 = time.perf_counter()
from pxkirchhoff import cli  # noqa: E402

import configs  # noqa: E402

configs.build_problem(cli.parse_config(configs.config_text(sys.argv[1], int(sys.argv[2]))))
elapsed = time.perf_counter() - t0

import hostprobe  # noqa: E402

if Path(cli.__file__).resolve().parent != ROOT / "src" / "pxkirchhoff":
    raise SystemExit(f"pxkirchhoff imported from {cli.__file__}, not from the checkout")
print(json.dumps({"setup_s": elapsed, "probes": hostprobe.probes(0.05)}))
