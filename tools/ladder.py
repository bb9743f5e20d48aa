"""Scaling ladders: in-process ``verify_all``, ``spectral_pages`` and the
certified reductions on domino instances of growing size.

Run from anywhere, with the interpreter that runs the tests:

    python3 tools/ladder.py

The ``verify_all`` ladder takes N = 25, 50, 100, 200 and 400, the
``spectral_pages`` ladder N = 50, 100 and 200 and the ``reductions``
ladder N = 50, 100, 200 and 400.  For each N it starts three fresh
interpreters one after another.  Each builds
``perfbench.inputs.domino_instance`` with N points at seed 2026, times one
``monofloer.cli.verify_all`` on it, one
``monofloer.spectral.spectral_pages`` of Plus pages 0-3, or the certified
``monofloer.complexes._reduction`` of Minus, Infinity and Plus (after
the data is validated, so the time is the reductions' own: kept positions,
templates, flows and certificates), and prints the seconds; a
``verify_all`` report that is not ``ok`` stops the ladder, as does a failed
page check or certificate.  The last line of output is one JSON object:
per ladder, the median seconds per size, the slope
log(t2 / t1) / log(N2 / N1) between neighbouring sizes and the work per
size: the range selections named (``named``), those whose entries were
cut (``cut``), the selections on index lists rather than ranges
(``index_selects``), the Smith factorizations (``factorizations``) and the
spectral cells presented (``live_cells``, the misses of
``monofloer.spectral._live_cell``), which are the same in every run of a
size.  A selection named but never cut was only compared or read for its
shape.  The three ladders take about two minutes; they are not part of
the test suite.
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
LADDERS = {"verify_all": (25, 50, 100, 200, 400),
           "spectral_pages": (50, 100, 200),
           "reductions": (50, 100, 200, 400)}
RUNS = 3
SEED = 2026

CHILD = """
import json, sys, time
from collections import Counter
from perfbench.inputs import domino_instance
import monofloer.intlinalg as intlinalg
import monofloer.spectral as spectral
from monofloer.cli import verify_all
from monofloer.complexes import REDUCED_FLAVORS, Flavor, _reduction, \
    require_valid
from monofloer.spectral import spectral_pages

work = Counter()

def counted(name, fn):
    def wrapper(*args):
        work[name] += 1
        return fn(*args)
    return wrapper

intlinalg._Selection.__init__ = counted(
    "named", intlinalg._Selection.__init__)
intlinalg._Selection._cut = counted("cut", intlinalg._Selection._cut)
intlinalg._Factorization.__init__ = counted(
    "factorizations", intlinalg._Factorization.__init__)
select = intlinalg.SparseIntMatrix.select

def indexed_select(mat, rows, cols):
    if not (isinstance(rows, range) and isinstance(cols, range)):
        work["index_selects"] += 1
    return select(mat, rows, cols)

intlinalg.SparseIntMatrix.select = indexed_select
ladder, size, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
data = domino_instance(f"ladder-{size}", size, seed)
if ladder == "reductions":
    require_valid(data)
start = time.perf_counter()
if ladder == "verify_all":
    report = verify_all(data)
    if not report["ok"]:
        sys.exit(f"verify_all failed at N = {size}: {report['checks']}")
elif ladder == "reductions":
    for flavor in REDUCED_FLAVORS:
        _reduction(data, flavor)
else:
    spectral_pages(data, Flavor.PLUS, 3)
seconds = time.perf_counter() - start
live_cells = sum(1 for key in data._memo
                 if key[0] is spectral._live_cell.__wrapped__)
print(json.dumps({"seconds": seconds, "named": work["named"],
                  "cut": work["cut"], "index_selects": work["index_selects"],
                  "factorizations": work["factorizations"],
                  "live_cells": live_cells}))
"""


def run_once(ladder: str, size: int) -> dict:
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, ladder, str(size), str(SEED)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, check=False)
    if done.returncode != 0:
        sys.exit(done.stderr.strip() or f"{ladder} failed at N = {size}")
    return json.loads(done.stdout)


def climb(ladder: str) -> dict:
    sizes = LADDERS[ladder]
    seconds, work = {}, {}
    for size in sizes:
        runs = [run_once(ladder, size) for _ in range(RUNS)]
        times = [run.pop("seconds") for run in runs]
        seconds[size], work[str(size)] = statistics.median(times), runs[0]
        print(f"{ladder} N = {size}: " + ", ".join(
            f"{t:.3f}" for t in times) + f" s, {runs[0]}", file=sys.stderr)
    slopes = {f"{a}-{b}": math.log(seconds[b] / seconds[a]) / math.log(b / a)
              for a, b in zip(sizes, sizes[1:])}
    return {"seconds": {str(n): round(t, 4) for n, t in seconds.items()},
            "slopes": {k: round(v, 3) for k, v in slopes.items()},
            "work": work}


def main() -> None:
    print(json.dumps({"seed": SEED, "runs": RUNS,
                      **{ladder: climb(ladder) for ladder in LADDERS}}))


if __name__ == "__main__":
    main()
