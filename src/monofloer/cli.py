"""Command-line front end.

Loads datasets, runs any single computation or the full verification suite,
and emits a canonical JSON report on standard output with a human summary on
standard error.  Exit codes: 0 all checks passed, 1 a mathematical check
failed, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import __version__
from .actions import _U_FLAVORS, verify_u_homotopy
from .complexes import Flavor, check_d_squared, checked_window, \
    default_window
from .data import (
    CheckFailed,
    InvalidInput,
    MonopoleData,
    ParseError,
    SchemaError,
    generate_instances,
    parse,
    reverse_orientation,
    serialize,
    validate,
)
from .duality import duality_check
from .homology import GradedAbelianGroup, graded_homology
from .intlinalg import AbelianGroupInvariants, SparseIntMatrix
from .sequences import check_les_hat, check_les_main, hf_red
from .spectral import max_page, spectral_pages, structure_theorem

__all__ = ["main", "run", "verify_all"]


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def _invariants_doc(g: AbelianGroupInvariants) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _groups_doc(groups: dict[int, AbelianGroupInvariants]) -> dict:
    return {str(n): g for n, g in groups.items()}


def _tail_doc(tail) -> dict | None:
    if tail is None:
        return None
    # every tail is established; "verified" stays so report bytes do not move
    return {"even": tail.even, "odd": tail.odd, "verified": True}


def _graded_doc(graded: GradedAbelianGroup) -> dict:
    return {"window": list(graded.window),
            "groups": _groups_doc(graded.groups),
            "tail_above": _tail_doc(graded.tail_above),
            "tail_below": _tail_doc(graded.tail_below)}


def _matrix_doc(mat: SparseIntMatrix) -> dict:
    return {"rows": mat.rows, "cols": mat.cols, "dense": mat.to_dense()}


def _exactness_doc(report) -> dict:
    return {
        "window": list(report.window),
        "all_exact": report.all_exact(),
        "nodes": [{
            "degree": node.degree,
            "node": node.node,
            "exact": node.exact,
            "image": node.image,
            "kernel": node.kernel,
            "witness": (None if node.witness is None
                        else {"reason": node.witness[0],
                              "vector": list(node.witness[1])}),
        } for node in report.nodes],
    }


def _failure_doc(err: CheckFailed) -> dict:
    return {"degree": err.degree, **err.values}


def _dataset_hash(data: MonopoleData) -> str:
    return hashlib.sha256(serialize(data)).hexdigest()


# ---------------------------------------------------------------------------
# the verification suite
# ---------------------------------------------------------------------------

def _infinity_pattern_ok(graded: GradedAbelianGroup) -> bool:
    # Z in even degrees, 0 in odd ones, and both tails established
    pattern = AbelianGroupInvariants(1), AbelianGroupInvariants(0)
    return all(g == pattern[n % 2] for n, g in graded.groups.items()) and all(
        tail is not None and (tail.even, tail.odd) == pattern
        for tail in (graded.tail_above, graded.tail_below))


def _hat_ok(report) -> bool:
    return report.all_exact() and report.biconditional_holds


def verify_all(data: MonopoleData,
               window: tuple[int, int] | None = None) -> dict:
    """Run the whole checklist on one valid dataset.

    Squared differentials for all five flavors, the periodic pattern of the
    infinity flavor, both long exact sequences, the reduced-group
    comparison, the periodicity homotopy, the structure theorem, and the
    duality package.  Returns a dict with one entry per check and an
    aggregate verdict; raises InvalidInput on invalid data.
    """
    window = checked_window(data, window)
    # each check is called from this frame or a lambda in it, where the
    # perfbench tracer attributes its time to verify_all
    suite = (
        ("d-squared", lambda: all(check_d_squared(data, flavor, window)
                                  for flavor in Flavor)),
        ("infinity-pattern", lambda: _infinity_pattern_ok(
            graded_homology(data, Flavor.INFINITY, window))),
        ("les-main", lambda: check_les_main(data, window).all_exact()),
        # hf_red returns the groups, or raises CheckFailed on a mismatch
        ("reduced-comparison", lambda: hf_red(data, window) is not None),
        ("u-homotopy", lambda: all(verify_u_homotopy(data, flavor, window)
                                   for flavor in _U_FLAVORS)),
        ("les-hat", lambda: _hat_ok(check_les_hat(data, window))),
        ("structure", lambda: structure_theorem(data, window).matches),
        ("duality", lambda: duality_check(data, window).ok),
    )
    checks: list[dict] = []
    for name, check in suite:
        try:
            checks.append({"name": name, "ok": check()})
        except CheckFailed as err:
            checks.append({"name": name, "ok": False, "degree": err.degree})
    return {"window": list(window), "checks": checks,
            "ok": all(check["ok"] for check in checks)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(data, args):
    report = validate(data)
    results = {"ok": report.ok,
               "violations": [{"rule": rule, "pair": list(pair), "value": v}
                              for (rule, pair, v) in report.violations]}
    return results, report.ok


def _cmd_homology(data, args):
    graded = graded_homology(data, Flavor(args.flavor), args.window)
    results = {"flavor": args.flavor, "homology": _graded_doc(graded)}
    return results, True


def _cmd_les(data, args):
    if args.sequence == "main":
        report = check_les_main(data, args.window)
        results = {"sequence": "main", "exactness": _exactness_doc(report)}
        ok = report.all_exact()
        try:
            results["reduced"] = _graded_doc(hf_red(data, args.window))
        except CheckFailed as err:
            results["reduced_mismatch"] = _failure_doc(err)
            ok = False
        return results, ok
    report = check_les_hat(data, args.window)
    results = {"sequence": "hat", "exactness": _exactness_doc(report),
               "hat_nonzero": report.hat_nonzero,
               "plus_nonzero": report.plus_nonzero,
               "biconditional_holds": report.biconditional_holds}
    return results, _hat_ok(report)


def _cmd_spectral(data, args):
    pages = args.pages if args.pages is not None else min(3, max_page(data))
    results = {"flavor": "plus", "pages": []}
    for page in spectral_pages(data, Flavor.PLUS, pages):
        cells = [{"p": p, "q": q, "group": g}
                 for (p, q), g in sorted(page.cells.items())]
        diffs = [{"p": p, "q": q, **_matrix_doc(mat)}
                 for (p, q), mat in sorted(page.differentials.items())
                 if not mat.is_zero()]
        results["pages"].append(
            {"r": page.r, "cells": cells, "differentials": diffs})
    return results, True


def _cmd_structure(data, args):
    try:
        result = structure_theorem(data)
    except CheckFailed as err:
        return {"matches": False, **_failure_doc(err)}, False
    results = {
        "matches": result.matches,
        "window": list(result.window),
        "predicted": _groups_doc(result.predicted),
        "actual": _groups_doc(result.actual),
        "delta": {str(n): _matrix_doc(result.delta[n])
                  for n in sorted(result.delta)},
        "t_terms": {str(k): result.t_terms[k]
                    for k in sorted(result.t_terms)},
    }
    return results, result.matches


def _cmd_duality(data, args):
    report = duality_check(data, args.window)
    results = {"ok": report.ok,
               "adjoint": report.adjoint,
               "pairings_perfect": report.pairings_perfect,
               "double_reversal": report.double_reversal,
               "plus_vs_minus": _groups_doc(report.plus_vs_minus),
               "minus_vs_plus": _groups_doc(report.minus_vs_plus),
               "hat_vs_hat": _groups_doc(report.hat_vs_hat)}
    return results, report.ok


def _cmd_reverse(data, args):
    reversed_doc = json.loads(serialize(reverse_orientation(data)))
    return {"dataset": reversed_doc}, True


def _cmd_verify_all(data, args):
    results = verify_all(data, args.window)
    return results, results["ok"]


def _cmd_generate(args):
    attempts = max(50, 20 * args.count)
    instances = generate_instances(args.seed, args.size, attempts)[:args.count]
    docs = [json.loads(serialize(d)) for d in instances]
    digest = hashlib.sha256(
        b"".join(serialize(d) for d in instances)).hexdigest()
    results = {"requested": args.count, "count": len(docs),
               "datasets": docs}
    return results, digest


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _window_type(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"window must look like lo:hi, got {text!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window bounds must be integers, got {text!r}")
    return lo, hi


_MAX_COUNT = 1000


def _count_type(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"count must be an integer, got {text!r}")
    if count < 0:
        raise argparse.ArgumentTypeError(f"count {count} is negative")
    if count > _MAX_COUNT:
        raise argparse.ArgumentTypeError(
            f"count {count} exceeds {_MAX_COUNT}")
    return count


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and kept: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="monofloer",
        description="exact equivariant monopole Floer homology engine")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSON report to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    def add_file(cmd):
        cmd.add_argument("file", help="dataset JSON file")

    def add_window(cmd):
        cmd.add_argument("--window", type=_window_type, default=None,
                         metavar="LO:HI")

    add_file(command("validate", help="check the coefficient identities"))

    cmd = command("homology", help="graded homology of one flavor")
    cmd.add_argument("--flavor", required=True,
                     choices=[f.value for f in Flavor])
    add_window(cmd)
    add_file(cmd)

    cmd = command("les", help="long exact sequence checks")
    cmd.add_argument("sequence", choices=["main", "hat"])
    add_window(cmd)
    add_file(cmd)

    cmd = command("spectral", help="filtration spectral sequence")
    cmd.add_argument("--pages", type=int, default=None, metavar="R")
    add_file(cmd)

    add_file(command("structure", help="structure theorem comparison"))

    cmd = command("duality", help="orientation-reversal duality")
    add_window(cmd)
    add_file(cmd)

    add_file(command("reverse", help="emit the reversed dataset"))

    cmd = command("verify-all", help="run the whole checklist")
    add_window(cmd)
    add_file(cmd)

    cmd = command("generate", help="emit a seeded dataset corpus")
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("--size", type=int, required=True)
    cmd.add_argument("--count", type=_count_type, required=True)

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "homology": _cmd_homology,
    "les": _cmd_les,
    "spectral": _cmd_spectral,
    "structure": _cmd_structure,
    "duality": _cmd_duality,
    "reverse": _cmd_reverse,
    "verify-all": _cmd_verify_all,
}


def _load(path: str) -> MonopoleData:
    with open(path, "rb") as handle:
        return parse(handle.read())


_STRING = json.encoder.encode_basestring_ascii


def _dumps(report: dict) -> str:
    """json.dumps(report, indent=2, default=_invariants_doc), byte for
    byte, for the types a report holds: dicts with str keys, lists, str,
    int, bool, None and AbelianGroupInvariants.  Anything else raises
    TypeError.  A report repeats a few groups over many degrees or cells,
    so each group is rendered once per value and indentation; json's
    indented encoder is pure Python and would render every repeat."""
    groups: dict[tuple[int, tuple[int, ...], str], str] = {}

    def render(obj, pad: str) -> str:
        kind = type(obj)
        if kind is dict:
            # _STRING raises TypeError on a key that is not a str
            inner = pad + "  "
            return "{" + inner + ("," + inner).join(
                [_STRING(name) + ": " + render(value, inner)
                 for name, value in obj.items()]) + pad + "}" \
                if obj else "{}"
        if kind is AbelianGroupInvariants:
            key = obj.free_rank, obj.torsion, pad
            text = groups.get(key)
            if text is None:
                text = groups[key] = render(_invariants_doc(obj), pad)
            return text
        if kind is int:
            return int.__repr__(obj)
        if kind is str:
            return _STRING(obj)
        if kind is list:
            inner = pad + "  "
            return "[" + inner + ("," + inner).join(
                [render(value, inner) for value in obj]) + pad + "]" \
                if obj else "[]"
        if kind is bool:
            return "true" if obj else "false"
        if obj is None:
            return "null"
        raise TypeError(f"a report holds no {kind.__name__}")

    return render(report, "\n")


def _emit(report: dict, out_path: str | None) -> None:
    text = _dumps(report) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _glue_window(argv: list[str]) -> list[str]:
    # "--window -8:8" has a value starting with a dash, which argparse would
    # read as an option; fold it into the "--window=-8:8" form
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--window":
            value = next(tokens, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"--window={value}")
        else:
            out.append(token)
    return out


def run(argv: list[str]) -> int:
    """Execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_window(argv))
    except SystemExit as err:
        return 0 if err.code in (0, None) else 2

    started = time.perf_counter()
    try:
        if args.command == "generate":
            results, digest = _cmd_generate(args)
            name = f"corpus-seed-{args.seed}"
            window = None
            ok = True
        else:
            data = _load(args.file)
            try:
                results, ok = _HANDLERS[args.command](data, args)
            except CheckFailed as err:
                results, ok = {"ok": False, **_failure_doc(err)}, False
            name = data.name
            digest = _dataset_hash(data)
            window = (None if args.command == "reverse"
                      else getattr(args, "window", None)
                      or default_window(data))
        report = {
            "command": args.command,
            "engine_version": __version__,
            "dataset_name": name,
            "dataset_hash": digest,
            "window": list(window) if window is not None else None,
            "results": results,
        }
        _emit(report, args.out)
    except (ParseError, SchemaError, InvalidInput, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2

    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    sys.stderr.write(
        f"{args.command} {name}: {verdict} ({elapsed:.3f} s)\n")
    if args.command == "verify-all":
        for check in results["checks"]:
            state = "ok" if check["ok"] else "FAILED"
            sys.stderr.write(f"  {check['name']}: {state}\n")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
