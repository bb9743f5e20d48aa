"""The monofloer benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify50 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --record-expected       # refresh expected.json

A run writes the workload's datasets (see ``inputs.py``), then starts fresh
child processes (``child.py``) one after another, each running the
workload's whole list of operations once, until ``--seconds`` have passed
and at least two children have run: a closed loop with one client and no
threads.  Every report is checked (``check_report``).  With ``--trace 1``
untraced and traced children alternate, and the traced ones give the
per-layer metrics.  Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything the run writes stays under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.speed import Speed  # noqa: E402
from perfbench.tracer import CHECKS, LAYERS  # noqa: E402

BENCH = ROOT / "perfbench"
EXPECTED = BENCH / "expected.json"
WORK = BENCH / ".work"
TRACES = BENCH / ".traces"
CHILD = BENCH / "child.py"

MIN_CHILDREN = 2
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10

# report fields that depend on the generators the engine happens to choose
GENERATOR_FIELDS = frozenset(("delta", "differentials", "witness"))

# per-layer call counters: metric name -> span name
NAMED_CALLS = {
    "intlinalg.lattice_contains": "intlinalg.lattice_contains",
    "intlinalg.first_column_outside": "intlinalg.first_column_outside",
    "intlinalg.subquotient_invariants": "intlinalg.subquotient_invariants",
    "intlinalg.column_space_basis": "intlinalg.column_space_basis",
    "intlinalg.preimage_lattice": "intlinalg.preimage_lattice",
    "intlinalg.kernel_basis": "intlinalg.kernel_basis",
    "intlinalg.QuotientPresentation": "intlinalg.QuotientPresentation",
    "intlinalg.coordinate_of": "intlinalg.QuotientPresentation.coordinate_of",
    "intlinalg.factorizations": "intlinalg._Factorization",
    "homology.presentation": "homology.presentation_at",
    "complexes.slice": "complexes._slice",
    "complexes.differential": "complexes._differential",
    "complexes.structural_map": "complexes.structural_map",
}
NAMED_SECONDS = {
    "spectral.spectral_pages": "spectral.spectral_pages",
    "spectral.structure_theorem": "spectral.structure_theorem",
}
DISTINCT = {
    "intlinalg.distinct_ratio": "intlinalg._Factorization",
    "complexes.differential.distinct_ratio": "complexes._differential",
    "homology.presentation.distinct_ratio": "homology.presentation_at",
}
MAXIMA = ("max_rows", "max_cols", "max_coeff_bits")


# ---------------------------------------------------------------------------
# checking reports
# ---------------------------------------------------------------------------

def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items()
                if k not in GENERATOR_FIELDS}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def invariant_digest(report: dict) -> str:
    """SHA-256 of the report without generator-dependent fields and without
    ``engine_version``, which a generator change must bump."""
    doc = _strip({k: v for k, v in report.items() if k != "engine_version"})
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _infinity_pattern(results: dict) -> bool:
    # H^infinity is Z in even degrees and 0 in odd ones on every valid dataset
    for degree, group in results["homology"]["groups"].items():
        free = 1 if int(degree) % 2 == 0 else 0
        if group != {"free_rank": free, "torsion": []}:
            return False
    return True


def check_report(argv: tuple[str, ...], code, out: Path,
                 expected: str | None) -> tuple[str | None, str | None, str]:
    """(error or None, digest of the raw report bytes, invariant digest).

    An operation passes when it exits 0, its report names its command and
    its input's SHA-256, the command's own verdict holds, and, where an
    expectation is recorded, the invariant digest matches it.
    """
    if code != 0:
        return f"exit code {code}", None, ""
    try:
        raw = out.read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as err:
        return f"unreadable report: {err}", None, ""
    digest = hashlib.sha256(raw).hexdigest()
    invariant = invariant_digest(report)
    source = hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest()
    results = report.get("results", {})
    if report.get("command") != argv[0]:
        error = "report names another command"
    elif report.get("dataset_hash") != source:
        error = "report names another dataset"
    elif argv[0] == "verify-all" and results.get("ok") is not True:
        error = "verify-all reports a failed check"
    elif (argv[0] == "homology" and results.get("flavor") == "infinity"
          and not _infinity_pattern(results)):
        error = "infinity homology is not Z/0 periodic"
    elif expected is not None and invariant != expected:
        error = "invariant digest differs from the recorded one"
    else:
        error = None
    return error, digest, invariant


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """Everything measured in one benchmark run of one workload."""

    workload: object
    plain: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    invariants: dict[str, str] = field(default_factory=dict)


def _spawn(plan_path: Path, result_path: Path, log_path: Path,
           spans_path: Path | None) -> dict:
    args = [sys.executable, str(CHILD), str(plan_path), str(result_path)]
    with open(log_path, "wb") as log:
        spawned_at = time.monotonic()
        args.append(repr(spawned_at))
        if spans_path is not None:
            args.append(str(spans_path))
        proc = subprocess.Popen(args, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"child exceeded {CHILD_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = log_path.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"child exited with {code}:\n{tail}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def _in_reference_seconds(result: dict) -> None:
    """Add the child's set-up, per-operation and whole-run seconds, at
    reference speed (see ``speed.py``), and its measured wall time."""
    probes = Speed(result["probe_at"], result["probe_took"])
    first, last = result["op_start"][0], result["op_end"][-1]
    result["setup_s"] = probes.seconds(result["spawned_at"],
                                       result["setup_end"])
    result["op_s"] = [probes.seconds(start, end) for start, end
                      in zip(result["op_start"], result["op_end"])]
    result["wall_s"] = probes.seconds(first, last)
    result["speed"] = probes.factor(first, last)
    result["measured_wall_s"] = last - first


def _child(run: Run, work: Path, index: int, traced: bool,
           expected: dict[str, str] | None) -> None:
    workload = run.workload
    rep = work / f"child-{index:03d}"
    rep.mkdir()
    outs = [rep / f"op-{i:03d}.json" for i in range(len(workload.ops))]
    plan = {"inputs": [str(p) for p in workload.inputs],
            "ops": [[*op.argv, "--out", str(out)]
                    for op, out in zip(workload.ops, outs)]}
    plan_path = rep / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    spans = rep / "spans.json" if traced else None
    result = _spawn(plan_path, rep / "result.json", rep / "log.txt", spans)
    _in_reference_seconds(result)
    for op, out, code, raised in zip(workload.ops, outs, result["codes"],
                                     result["errors"]):
        run.attempted += 1
        want = None if expected is None else expected.get(op.label, "")
        error, digest, invariant = check_report(op.argv, code, out, want)
        if raised is not None:
            error = raised.strip().splitlines()[-1]
        if digest is not None:
            first = run.digests.setdefault(op.label, digest)
            if error is None and digest != first:
                error = ("report differs from an earlier one"
                         + (" (traced vs untraced)" if traced else ""))
        if error is None:
            run.invariants.setdefault(op.label, invariant)
        else:
            run.failures.append(f"{op.label}: {error}")
    if traced:
        spans.replace(work / f"{workload.name}.spans.json")
        run.traced.append(result)
    else:
        run.plain.append(result)
    shutil.rmtree(rep)


def measure(workload, seconds: float, trace: bool,
            expected: dict[str, str] | None, work: Path) -> Run:
    """Run children until ``seconds`` have passed and at least
    ``MIN_CHILDREN`` plain ones (and, tracing, as many traced ones) ran.
    The spans of the last traced child are left in ``work``."""
    run = Run(workload)
    started = time.monotonic()
    index = 0
    while True:
        _child(run, work, index, False, expected)
        index += 1
        if trace:
            _child(run, work, index, True, expected)
            index += 1
        if (len(run.plain) >= MIN_CHILDREN
                and time.monotonic() - started >= seconds):
            break
    if trace:
        counts = [_call_counts(r["trace"]) for r in run.traced]
        if any(c != counts[0] for c in counts):
            run.problems.append("call counts differ between traced children")
    return run


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _call_counts(summary: dict) -> dict:
    return {name: entry["calls"] for name, entry in summary["names"].items()}


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least
    ``TAIL_BEYOND`` samples above it, or None with too few samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """metric -> (value, unit, sample count), from the untraced children."""
    ops = [s for r in run.plain for s in r["op_s"]]
    children = len(run.plain)

    def med(key):
        return statistics.median(r[key] for r in run.plain)

    return {
        "wall_s": (med("wall_s"), "s", children),
        "op_p50_s": (statistics.median(ops), "s", len(ops)),
        "setup_s": (med("setup_s"), "s", children),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                          for r in run.plain),
                        "MB", children),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str, int]]:
    """metric -> (value, unit, sample count), from the traced children;
    seconds are medians over them, counts are exact."""
    first = run.traced[0]["trace"]
    n = len(run.traced)

    def seconds(get):
        return (statistics.median(get(r["trace"]) * r["speed"]
                                  for r in run.traced), "s", n)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (first["layers"][layer]["calls"], "count", n)
        out[f"{layer}.self_s"] = seconds(
            lambda s: s["layers"][layer]["self_s"])
    for metric, name in NAMED_CALLS.items():
        out[f"{metric}.calls"] = (
            first["names"].get(name, {}).get("calls", 0), "count", n)
    for metric, name in NAMED_SECONDS.items():
        out[f"{metric}.s"] = seconds(
            lambda s: s["names"].get(name, {}).get("total_s", 0.0))
    for check in CHECKS.values():
        out[f"cli.check.{check}.s"] = seconds(lambda s: s["checks"][check])
    for metric, scope in DISTINCT.items():
        out[metric] = (first["distinct_ratio"][scope], "ratio", n)
    for key in MAXIMA:
        out[f"intlinalg.{key}"] = (
            first[key], "bits" if key.endswith("bits") else "count", n)
    traced = statistics.median(r["wall_s"] for r in run.traced)
    plain = statistics.median(r["wall_s"] for r in run.plain)
    out["trace.overhead_ratio"] = (traced / plain, "ratio", n)
    return out


def _lines(run: Run, metrics: dict) -> list[str]:
    name = run.workload.name
    measured = statistics.median(r["measured_wall_s"] for r in run.plain)
    speed = statistics.median(r["speed"] for r in run.plain)
    lines = [f"[{name}] seed {run.workload.seed}: {len(run.workload.ops)} "
             f"operations per child, {len(run.plain)} plain and "
             f"{len(run.traced)} traced children",
             f"[{name}] measured wall time = {measured:.6g} s at a median "
             f"speed of {speed:.4g} reference seconds per second "
             f"(n={len(run.plain)})"]
    for metric, (value, unit, count) in metrics.items():
        lines.append(f"[{name}] {metric} = {value:.6g} {unit} (n={count})")
    ops = [s for r in run.plain for s in r["op_s"]]
    found = tail(ops)
    if found is not None:
        pct, value = found
        lines.append(f"[{name}] op_tail_s = {value:.6g} s at p{pct:.1f} "
                     f"(n={len(ops)})")
    else:
        lines.append(f"[{name}] op_tail_s not reported: {len(ops)} "
                     f"operations, fewer than {TAIL_BEYOND + 1}")
    lines.append(f"[{name}] failed_ratio = "
                 f"{len(run.failures) / run.attempted:.4g} "
                 f"({len(run.failures)} of {run.attempted})")
    lines += [f"[{name}] FAILED {text}" for text in run.failures[:20]]
    lines += [f"[{name}] PROBLEM {text}" for text in run.problems]
    return lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_expected(name: str) -> dict[str, str]:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)[name]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="verify50, corpus, window, spectral or all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json from the default seed")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "monofloer" / "cli.py").is_file():
        sys.stderr.write(f"error: no monofloer sources under {ROOT / 'src'}\n")
        return 2
    from perfbench import inputs

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in inputs.WORKLOADS for name in names):
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    if args.record_expected and seed != inputs.DEFAULT_SEED:
        sys.stderr.write("error: expectations are recorded for the "
                         "default seed only\n")
        return 2

    work = WORK / f"{os.getpid()}"
    runs, metrics = [], {}
    try:
        for name in names:
            workload = inputs.build(name, seed, work / name)
            expected = (_load_expected(name)
                        if seed == inputs.DEFAULT_SEED
                        and not args.record_expected else None)
            run = measure(workload, args.seconds, bool(args.trace),
                          expected, work)
            if args.trace:
                TRACES.mkdir(exist_ok=True)
                spans = f"{name}.spans.json"
                (work / spans).replace(TRACES / spans)
            found = per_layer(run) if args.trace else end_to_end(run)
            for line in _lines(run, found):
                print(line, flush=True)
            runs.append(run)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + metric: {"value": value, "unit": unit}
                            for metric, (value, unit, _) in found.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(len(run.failures) for run in runs)
    correct = failed == 0 and not any(run.problems for run in runs)
    if args.record_expected:
        if not correct:
            sys.stderr.write("error: not recording a failing run\n")
            return 1
        EXPECTED.write_text(json.dumps(
            {run.workload.name: run.invariants for run in runs},
            indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct,
                      "attempted": sum(run.attempted for run in runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
