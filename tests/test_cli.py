"""Command-line front end: subcommands, report shape, exit codes,
byte-determinism."""

from __future__ import annotations

import ast
import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import monofloer
from monofloer import cli
from monofloer.cli import _dumps, _invariants_doc, main, verify_all
from monofloer.complexes import _band, default_window
from monofloer.data import CheckFailed, MonopoleData, THETA, \
    curated_instances, invalid_instance, serialize
from monofloer.intlinalg import AbelianGroupInvariants
from test_reports import CASES

# the directory that holds the package this process imported, so a child
# interpreter runs the code under test, a mutated copy included
SRC = os.path.dirname(os.path.dirname(os.path.abspath(monofloer.__file__)))

REPORT_KEYS = ["command", "engine_version", "dataset_name", "dataset_hash",
               "window", "results"]


def by_name(label):
    return next(d for d in curated_instances() if d.name == label)


def write_dataset(tmp_path, data, filename="data.json"):
    path = tmp_path / filename
    path.write_bytes(serialize(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    doc = json.loads(out)
    assert list(doc) == REPORT_KEYS
    return doc


# -- validate ---------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("theta-coupled-pair"))
    code, out, err = run(capsys, ["validate", path])
    assert code == 0
    doc = report_of(out)
    assert doc["command"] == "validate"
    assert doc["dataset_name"] == "theta-coupled-pair"
    assert len(doc["dataset_hash"]) == 64
    assert doc["results"] == {"ok": True, "violations": []}
    assert err


def test_validate_broken_identity(tmp_path, capsys):
    path = write_dataset(tmp_path, invalid_instance())
    code, out, _ = run(capsys, ["validate", path])
    assert code == 1
    results = report_of(out)["results"]
    assert results["ok"] is False
    assert results["violations"][0]["rule"] == "identity-Bprime"
    assert results["violations"][0]["value"] == 1


def test_validate_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 2
    assert out == ""
    assert err


def test_validate_unparseable_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("text", [
    "[" * 200000 + "]" * 200000,
    '{"name": "x", "points": [{"id": "a", "gr": %s}], "n": [], "m": []}'
    % ("9" * 5000)], ids=["deeply-nested", "long-integer"])
def test_validate_unreadable_json(tmp_path, text):
    """JSON nested deeper than the decoder recurses, or holding an integer
    longer than int() converts, is malformed input: exit 2 with one error
    line, not a traceback with exit 1."""
    path = tmp_path / "unreadable.json"
    path.write_text(text)
    done = subprocess.run(
        [sys.executable, "-m", "monofloer.cli", "validate", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1


# -- homology ---------------------------------------------------------------

def test_homology_windowed_plus(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("theta-coupled-pair"))
    code, out, _ = run(capsys, [
        "homology", "--flavor", "plus", "--window", "-8:8", path])
    assert code == 0
    doc = report_of(out)
    assert doc["window"] == [-8, 8]
    groups = doc["results"]["homology"]["groups"]
    for n in range(-8, 9):
        expected = ({"free_rank": 1, "torsion": []}
                    if n in (-2, 2, 4) or (n > 4 and n % 2 == 0)
                    else {"free_rank": 0, "torsion": []})
        assert groups[str(n)] == expected, n


def test_homology_default_window_every_flavor(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("two-step"))
    for flavor in ("infinity", "minus", "plus", "hat", "noneq"):
        code, out, _ = run(capsys, ["homology", "--flavor", flavor, path])
        assert code == 0
        assert report_of(out)["results"]["flavor"] == flavor


def test_homology_torsion_reported(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("two-step"))
    code, out, _ = run(capsys, ["homology", "--flavor", "plus", path])
    groups = report_of(out)["results"]["homology"]["groups"]
    assert groups["0"] == {"free_rank": 1, "torsion": [2]}


def test_homology_one_degree_window_past_the_band(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("tail-chain"))
    for flavor, window, side in (("plus", "7:7", "tail_above"),
                                 ("minus", "-6:-6", "tail_below")):
        code, out, err = run(capsys, [
            "homology", "--flavor", flavor, "--window", window, path])
        assert code == 0, (flavor, window)
        assert "Traceback" not in err
        assert report_of(out)["results"]["homology"][side] == {
            "even": {"free_rank": 1, "torsion": []},
            "odd": {"free_rank": 0, "torsion": []},
            "verified": True}, (flavor, window)


def test_homology_usage_errors(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("empty"))
    chain = write_dataset(tmp_path, by_name("tail-chain"), "chain.json")
    for argv in (["homology", "--flavor", "sideways", path],
                 ["homology", "--flavor", "plus", "--window", "abc", path],
                 ["homology", path],
                 ["homology", "--flavor", "plus", "--window", "5:-5", chain],
                 ["les", "main", "--window", "5:-5", chain],
                 ["les", "hat", "--window", "5:-5", chain],
                 ["duality", "--window", "5:-5", chain],
                 ["verify-all", "--window", "5:-5", chain],
                 ["generate", "--seed", "1", "--size", "3", "--count", "-2"],
                 ["generate", "--seed", "1", "--size", "3", "--count", "1001"],
                 ["generate", "--seed", "1", "--size", "3", "--count", "x"],
                 ["homology", "--flavor", "plus", "--window", "a:b", path],
                 ["homology", "--flavor", "plus", "--window", "-1000:1001",
                  path],
                 ["verify-all", "--window", "0:2001", chain],
                 ["homology", "--flavor", "plus", "--out", str(tmp_path),
                  path],
                 ["homology", "--flavor", "plus", "--out",
                  str(tmp_path / "absent" / "report.json"), path]):
        code, out, _ = run(capsys, argv)
        assert code == 2, argv


# -- les / spectral / structure / duality ----------------------------------

def test_les_main(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("theta-coupled-pair"))
    code, out, _ = run(capsys, ["les", "main", path])
    assert code == 0
    results = report_of(out)["results"]
    assert results["exactness"]["all_exact"] is True
    assert results["reduced"]["groups"]["-2"] == {"free_rank": 1,
                                                  "torsion": []}


def test_les_main_reports_a_reduced_mismatch(tmp_path, capsys, monkeypatch):
    from monofloer.intlinalg import AbelianGroupInvariants

    def failing(data, window):
        raise CheckFailed(-2, "the cokernel differs from the kernel",
                          cokernel=AbelianGroupInvariants(1),
                          kernel=AbelianGroupInvariants(0))

    monkeypatch.setattr(cli, "hf_red", failing)
    path = write_dataset(tmp_path, by_name("theta-coupled-pair"))
    code, out, err = run(capsys, ["les", "main", path])
    assert code == 1
    results = report_of(out)["results"]
    # the sequence is still exact; only the reduced group is refused
    assert results["exactness"]["all_exact"] is True
    assert "reduced" not in results
    assert results["reduced_mismatch"] == {
        "degree": -2, "cokernel": {"free_rank": 1, "torsion": []},
        "kernel": {"free_rank": 0, "torsion": []}}
    assert "FAIL" in err and "Traceback" not in err


def test_les_hat(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("empty"))
    code, out, _ = run(capsys, ["les", "hat", path])
    assert code == 0
    results = report_of(out)["results"]
    assert results["exactness"]["all_exact"] is True
    assert results["biconditional_holds"] is True


def test_spectral(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("two-step"))
    code, out, _ = run(capsys, ["spectral", "--pages", "2", path])
    assert code == 0
    pages = report_of(out)["results"]["pages"]
    assert [page["r"] for page in pages] == [0, 1, 2]
    final = {(c["p"], c["q"]): c["group"] for c in pages[2]["cells"]}
    assert final[(0, 0)] == {"free_rank": 1, "torsion": [2]}


def test_structure(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("tail-chain"))
    code, out, _ = run(capsys, ["structure", path])
    assert code == 0
    results = report_of(out)["results"]
    assert results["matches"] is True
    assert results["predicted"]["2"] == {"free_rank": 0, "torsion": [6]}
    assert results["t_terms"]["1"] == {"free_rank": 0, "torsion": [6]}


def test_structure_mismatch_exits_one(tmp_path, capsys):
    clash = MonopoleData.build(
        "torsion-theta-clash", [("a", 1), ("b", 0)],
        n=[("a", "b", 2), ("a", THETA, 1)])
    path = write_dataset(tmp_path, clash)
    code, out, _ = run(capsys, ["structure", path])
    assert code == 1
    results = report_of(out)["results"]
    assert results["matches"] is False
    assert results["degree"] == 0


def test_les_hat_reports_a_failed_check(tmp_path, capsys, monkeypatch):
    import monofloer.sequences as sequences

    def failing(data, flavor, window):
        raise CheckFailed(0, "induced u differs from induced omega-inverse")

    monkeypatch.setattr(sequences, "u_module_structure", failing)
    path = write_dataset(tmp_path, by_name("two-step"))
    code, out, err = run(capsys, ["les", "hat", path])
    assert code == 1
    assert report_of(out)["results"] == {"ok": False, "degree": 0}
    assert "FAIL" in err and "Traceback" not in err


def test_spectral_reports_a_failed_check(tmp_path, capsys, monkeypatch):
    import monofloer.spectral as spectral
    from monofloer.complexes import Flavor
    from test_spectral import move_every_map

    # every map between two cells with generators gets an entry, so the
    # d-squared check forms composites
    move_every_map(monkeypatch)
    monkeypatch.setattr(spectral, "_composite_vanishes",
                        lambda second, first, orders: False)
    data = by_name("two-step")
    path = write_dataset(tmp_path, data)
    code, out, err = run(capsys, ["spectral", "--pages", "3", path])
    assert code == 1
    # the first composite fails: page 0's, at the first key in grid order
    # whose cell, its target and its target's target hold generators
    lo, hi = default_window(data)
    degree = next(n for p in spectral._filtration_levels(data)
                  for n in range(lo, hi + 1)
                  if all(p in spectral._generators_at(data, Flavor.PLUS, 0,
                                                      n - k)
                         for k in range(3)))
    assert report_of(out)["results"] == {"ok": False, "degree": degree}
    assert "FAIL" in err and "Traceback" not in err


def test_spectral_reports_a_prediction_outside_its_cell(tmp_path, capsys,
                                                        monkeypatch):
    import monofloer.spectral as spectral
    from monofloer.intlinalg import ContainmentError, QuotientPresentation

    data = by_name("tail-chain")
    real_check = spectral._check_d3_formula
    real_coordinate_of = QuotientPresentation.coordinate_of

    def check_with_prediction_outside(data, flavor, p, n):
        # the page-3 formula's prediction lies outside its target cell:
        # the cell refuses it, and nothing else the check reads, since the
        # differential it compares with is built before the cell refuses
        spectral._dr_matrix(data, flavor, 3, p, n)
        target = spectral._cell(data, flavor, 3, 0, n - 1)

        def coordinate_of(cell, vec):
            if cell is target:
                raise ContainmentError("vector is not in the cycle lattice")
            return real_coordinate_of(cell, vec)

        with monkeypatch.context() as patch:
            patch.setattr(QuotientPresentation, "coordinate_of",
                          coordinate_of)
            real_check(data, flavor, p, n)

    monkeypatch.setattr(spectral, "_check_d3_formula",
                        check_with_prediction_outside)
    path = write_dataset(tmp_path, data)
    code, out, err = run(capsys, ["spectral", "--pages", "3", path])
    assert code == 1
    # degree 3 is the first the page-3 formula is checked in
    assert report_of(out)["results"] == {"ok": False, "degree": 3}
    assert "FAIL" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["f", "g"])
def test_spectral_reports_a_reduction_that_raises_filtration(
        tmp_path, capsys, monkeypatch, field):
    from test_spectral import patch_reduction, raising_reduction

    data = by_name("tail-chain")
    n, broken = raising_reduction(data, field)
    patch_reduction(monkeypatch, broken)
    path = write_dataset(tmp_path, data)
    code, out, err = run(capsys, ["spectral", "--pages", "3", path])
    assert code == 1
    assert report_of(out)["results"] == {"ok": False, "degree": n}
    assert "FAIL" in err and "Traceback" not in err


def test_duality(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("theta-coupled-pair"))
    code, out, _ = run(capsys, ["duality", path])
    assert code == 0
    results = report_of(out)["results"]
    assert results["ok"] is True
    assert results["adjoint"] is True
    assert results["double_reversal"] is True


# -- reverse / generate -----------------------------------------------------

def test_reverse_round_trip(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("theta-coupled-pair"))
    code, out, _ = run(capsys, ["reverse", path])
    assert code == 0
    doc = report_of(out)["results"]["dataset"]
    assert doc["name"] == "-theta-coupled-pair"

    again = tmp_path / "reversed.json"
    again.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["validate", str(again)])
    assert code == 0

    code, out, _ = run(capsys, ["reverse", str(again)])
    back = report_of(out)["results"]["dataset"]
    original = json.loads(serialize(by_name("theta-coupled-pair")))
    assert back == original


def test_generate_deterministic(capsys):
    argv = ["generate", "--seed", "7", "--size", "6", "--count", "8"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    code, second, _ = run(capsys, argv)
    assert first == second
    results = report_of(first)["results"]
    assert len(results["datasets"]) == 8
    assert results["requested"] == 8


# -- verify-all -------------------------------------------------------------

def test_verify_all_passes(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("theta-coupled-pair"))
    code, first, err = run(capsys, ["verify-all", path])
    assert code == 0
    results = report_of(first)["results"]
    assert results["ok"] is True
    names = [check["name"] for check in results["checks"]]
    assert names == ["d-squared", "infinity-pattern", "les-main",
                     "reduced-comparison", "u-homotopy", "les-hat",
                     "structure", "duality"]
    assert all(check["ok"] for check in results["checks"])

    code, second, _ = run(capsys, ["verify-all", path])
    assert first == second


def test_verify_all_rejects_invalid_input(tmp_path, capsys):
    path = write_dataset(tmp_path, invalid_instance())
    code, out, err = run(capsys, ["verify-all", path])
    assert code == 2
    assert out == ""
    assert "identity-Bprime" in err


def test_verify_all_function(tmp_path):
    summary = verify_all(by_name("euler-pair"))
    assert summary["ok"] is True
    assert all(check["ok"] for check in summary["checks"])
    # so does every one-degree window around the band
    for data in curated_instances():
        band_lo, band_hi = _band(data)
        for n in range(band_lo - 2, band_hi + 3):
            assert verify_all(data, (n, n))["ok"], (data.name, n)


def test_verify_all_passes_its_window_to_structure(monkeypatch):
    import monofloer.cli as cli
    seen = []
    real = cli.structure_theorem

    def recording(data, window=None):
        seen.append(window)
        return real(data, window)

    monkeypatch.setattr(cli, "structure_theorem", recording)
    verify_all(by_name("euler-pair"), (0, 3))
    assert seen == [(0, 3)]


def test_verify_all_reports_a_failed_check_and_runs_the_rest(monkeypatch):
    import monofloer.cli as cli

    def failing(data, window=None):
        raise CheckFailed(2, "induced maps differ")

    monkeypatch.setattr(cli, "check_les_hat", failing)
    summary = verify_all(by_name("euler-pair"))
    assert summary["ok"] is False
    assert [check["name"] for check in summary["checks"]] == [
        "d-squared", "infinity-pattern", "les-main", "reduced-comparison",
        "u-homotopy", "les-hat", "structure", "duality"]
    for check in summary["checks"]:
        if check["name"] == "les-hat":
            assert check == {"name": "les-hat", "ok": False, "degree": 2}
        else:
            assert check["ok"] is True, check


# -- plumbing ---------------------------------------------------------------

def test_out_redirects_json(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("empty"))
    target = tmp_path / "report.json"
    code, out, err = run(capsys, [
        "homology", "--flavor", "plus", "--out", str(target), path])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert list(doc) == REPORT_KEYS


# -- the report emitter ------------------------------------------------------

_TEXT = st.text() | st.text(st.sampled_from(
    'a"\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600'))
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(-2 ** 200, 2 ** 200) | _TEXT)

_TREES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(_TEXT, inner, max_size=4),
                      max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(tree=_TREES, shared=_TREES.map(lambda tree: {"s": tree}))
def test_the_emitter_writes_what_json_dumps_writes(tree, shared):
    # the shared dict sits at two depths, and twice at one of them
    report = {"tree": tree, "shared": shared,
              "deeper": [shared, {"again": shared, "": {}}, []]}
    assert _dumps(report) == json.dumps(report, indent=2)


_GROUPS = st.builds(AbelianGroupInvariants, st.integers(0, 3),
                    st.sampled_from([(), (2,), (3,), (2, 4), (6, 12)]))
_GROUP_TREES = st.recursive(
    _SCALARS | _GROUPS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4), max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(tree=_GROUP_TREES, group=_GROUPS, other=_GROUPS)
def test_the_emitter_writes_a_group_as_its_doc(tree, group, other):
    # group sits at two depths, and twice at one of them, beside a group
    # of its rank with other torsion
    twin = AbelianGroupInvariants(group.free_rank, other.torsion)
    report = {"tree": tree, "group": group,
              "cells": [{"group": group}, {"twin": twin, "again": group},
                        [other, group, {}]]}
    assert _dumps(report) == json.dumps(report, indent=2,
                                        default=_invariants_doc)


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1: "a"}, {"a": [{"b": {None: 0}}]}, [float("nan")]])
def test_the_emitter_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        _dumps({"results": value})


def test_every_pinned_report_is_what_json_dumps_writes(tmp_path,
                                                       monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "_dumps", lambda report: reports.append(
        report) or _dumps(report))
    for key, data, command in CASES:
        reports.clear()
        path = write_dataset(tmp_path, data)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            main([*command, path])
        assert len(reports) == 1, key
        assert _dumps(reports[0]) == json.dumps(
            reports[0], indent=2, default=_invariants_doc), key


def test_no_arguments_is_usage_error(capsys):
    code, out, _ = run(capsys, [])
    assert code == 2


def test_exit_codes_never_leave_contract(tmp_path, capsys):
    incantations = [
        ["validate", write_dataset(tmp_path, by_name("empty"), "a.json")],
        ["validate", write_dataset(tmp_path, invalid_instance(), "b.json")],
        ["validate", str(tmp_path / "missing.json")],
        ["les", "nonsense", str(tmp_path / "a.json")],
        ["spectral", "--pages", "999", str(tmp_path / "a.json")],
    ]
    for argv in incantations:
        code, _, _ = run(capsys, argv)
        assert code in (0, 1, 2), argv


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "monofloer.cli", *argv],
                              capture_output=True, env=env, timeout=60)

    missing = module_run("validate", str(tmp_path / "missing.json"))
    assert missing.returncode == 2
    assert missing.stdout == b""

    done = module_run("homology", "--flavor", "plus",
                      write_dataset(tmp_path, by_name("two-step")))
    assert done.returncode == 0
    doc = report_of(done.stdout)
    assert doc["dataset_name"] == "two-step"


# valid data whose gradings span three million degrees
WIDE = MonopoleData.build("wide", [("a", 0), ("b", 3000000)])


@pytest.mark.parametrize("argv, code", [
    (["homology", "--flavor", "plus", "--window=0:5"], 2),
    (["les", "main", "--window=0:2"], 2),
    (["les", "hat", "--window=0:2"], 2),
    (["duality", "--window=0:2"], 2),
    (["verify-all", "--window=0:0"], 2),
    (["spectral", "--pages", "1"], 2),
    (["structure"], 2),
    (["validate"], 0),
    (["reverse"], 0),
])
def test_a_wide_grading_span_is_refused_at_once(tmp_path, argv, code):
    # in a subprocess with a timeout, so a command that walks the band
    # fails this test instead of hanging the suite
    done = subprocess.run(
        [sys.executable, "-m", "monofloer.cli", *argv,
         write_dataset(tmp_path, WIDE)],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 2:
        assert done.stdout == ""
        assert "gradings span" in done.stderr


# valid data whose default window, -1104:1106, is just past the limit
SPREAD = MonopoleData.build("spread", [("a", -1100), ("b", 1100)])


@pytest.mark.parametrize("argv", [
    ["verify-all"], ["verify-all", "--window=0:2"],
    ["homology", "--flavor", "plus"], ["spectral"], ["structure"],
    ["les", "main"], ["duality"]])
def test_a_grading_span_just_past_the_limit_is_refused(tmp_path, capsys,
                                                      argv):
    code, out, err = run(capsys, [*argv, write_dataset(tmp_path, SPREAD)])
    assert code == 2
    assert out == ""
    assert "gradings span its default window -1104:1106" in err


def test_a_window_flag_without_its_value_is_a_usage_error(tmp_path, capsys):
    path = write_dataset(tmp_path, by_name("empty"))
    argv = ["homology", "--flavor", "plus", path, "--window"]
    assert cli._glue_window(argv) == argv
    code, out, _ = run(capsys, argv)
    assert code == 2
    assert out == ""


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one
    package = pathlib.Path(monofloer.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    for module in modules:
        tree = ast.parse(module.read_text(), filename=str(module))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, (module.name, lines)
