"""Scaling ladder: in-process ``verify_all`` on domino instances of growing
size.

Run from anywhere, with the interpreter that runs the tests:

    python3 tools/ladder.py

For each N in 25, 50, 100, 200 and 400 it starts three fresh interpreters
one after another.  Each builds ``perfbench.inputs.domino_instance`` with N
points at seed 2026, times one ``monofloer.cli.verify_all`` on it, and
prints the seconds; a report that is not ``ok`` stops the ladder.  The last
line of output is one JSON object: the median seconds per size and the
slope log(t2 / t1) / log(N2 / N1) between neighbouring sizes.  The ladder
takes about a minute; it is not part of the test suite.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (25, 50, 100, 200, 400)
RUNS = 3
SEED = 2026

CHILD = """
import sys, time
from perfbench.inputs import domino_instance
from monofloer.cli import verify_all

size, seed = int(sys.argv[1]), int(sys.argv[2])
data = domino_instance(f"ladder-{size}", size, seed)
start = time.perf_counter()
report = verify_all(data)
elapsed = time.perf_counter() - start
if not report["ok"]:
    sys.exit(f"verify_all failed at N = {size}: {report['checks']}")
print(elapsed)
"""


def run_once(size: int) -> float:
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(size), str(SEED)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, check=False)
    if done.returncode != 0:
        sys.exit(done.stderr.strip() or f"child failed at N = {size}")
    return float(done.stdout)


def main() -> None:
    seconds = {}
    for size in SIZES:
        runs = [run_once(size) for _ in range(RUNS)]
        seconds[size] = statistics.median(runs)
        print(f"N = {size}: " + ", ".join(f"{t:.3f}" for t in runs) + " s",
              file=sys.stderr)
    slopes = {f"{a}-{b}": math.log(seconds[b] / seconds[a]) / math.log(b / a)
              for a, b in zip(SIZES, SIZES[1:])}
    print(json.dumps({"seed": SEED, "runs": RUNS,
                      "seconds": {str(n): round(t, 4)
                                  for n, t in seconds.items()},
                      "slopes": {k: round(v, 3) for k, v in slopes.items()}}))


if __name__ == "__main__":
    main()
