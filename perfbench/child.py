"""One timed process: set up, then run a workload's operations in order.

Usage: child.py PLAN RESULT SPAWNED_AT [SPANS]

PLAN is a JSON file ``{"inputs": [path, ...], "ops": [argv, ...]}``;
each argv is a complete ``monofloer`` command line.  SPAWNED_AT is the
parent's ``time.monotonic()`` just before it started this process, so set-up
time covers interpreter start, importing ``monofloer`` and reading, parsing
and validating every input.  With SPANS given, the run is traced and the
spans are written there after the last operation.

While it runs, the process probes its own speed: once at its start and end,
and every ``PROBE_PERIOD_S`` in between from a timer signal, it times a
fixed work unit that shares no code with ``monofloer`` (see ``speed.py``).
The result (the times at which set-up ended and each operation started and
ended, exit codes, the traceback of any operation that raised, the probes,
peak RSS and, when traced, the span summary) is written to RESULT as JSON.
All times are ``time.monotonic()`` readings.
"""

import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.speed import work_unit  # noqa: E402

PROBE_PERIOD_S = 0.05


class Probe:
    """Timer-signal handler that times one work unit per tick."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def __call__(self, signum, frame):
        started = time.monotonic()
        work_unit()
        self.at.append(started)
        self.took.append(time.monotonic() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv: list[str]) -> int:
    plan_path, result_path, spawned_at = argv[0], argv[1], float(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    probe = Probe()
    probe(None, None)
    probe.start()

    import json
    import resource
    import traceback

    import monofloer.cli
    import monofloer.data

    tracer = None
    if spans_path is not None:
        from perfbench.tracer import Tracer
        tracer = Tracer()
        tracer.install()

    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    for path in plan["inputs"]:
        with open(path, "rb") as handle:
            data = monofloer.data.parse(handle.read())
        if not monofloer.data.validate(data).ok:
            raise SystemExit(f"invalid input {path}")

    clock = time.monotonic
    setup_end = clock()
    starts, ends, codes, errors = [], [], [], []
    for index, op_argv in enumerate(plan["ops"]):
        if tracer is not None:
            tracer.current_op = index
        error = None
        starts.append(clock())
        try:
            code = monofloer.cli.run(op_argv)
        except Exception:
            code = None
            error = traceback.format_exc()
        ends.append(clock())
        codes.append(code)
        errors.append(error)
    probe.stop()
    probe(None, None)

    result = {
        "spawned_at": spawned_at,
        "setup_end": setup_end,
        "op_start": starts,
        "op_end": ends,
        "codes": codes,
        "errors": errors,
        "probe_at": probe.at,
        "probe_took": probe.took,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
