"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "tests")]

from monofloer.data import parse, serialize, validate  # noqa: E402
from perfbench import inputs, run  # noqa: E402
from perfbench.speed import REFERENCE_PROBE_S, Speed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind: str) -> set[str]:
    return {metric["name"] for metric in BENCHMARK[kind]}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


@pytest.fixture(scope="module")
def tiny_runs(work):
    return {name: run.measure(inputs.build(name, 7, work / name, tiny=True),
                              0, True, None, work)
            for name in inputs.WORKLOADS}


def test_smoke_run_prints_every_metric(tiny_runs, work):
    for name, measured in tiny_runs.items():
        assert measured.failures == [] and measured.problems == [], name
        assert measured.attempted == 4 * len(measured.workload.ops)
        found = {**run.end_to_end(measured), **run.per_layer(measured)}
        assert set(found) == _names("end_to_end") | _names("per_layer")
        for metric, (value, unit, count) in found.items():
            assert math.isfinite(value) and count >= 2, (name, metric)
        text = "\n".join(run._lines(measured, found))
        for metric in (*found, "op_tail_s", "failed_ratio"):
            assert f"] {metric} " in text, (name, metric)
        assert (work / f"{name}.spans.json").is_file(), name


def test_traced_children_repeat_their_counts(tiny_runs):
    measured = tiny_runs["verify50"]
    first, second = (child["trace"] for child in measured.traced)
    assert run._call_counts(first) == run._call_counts(second)
    found = run.per_layer(measured)
    assert found["cli.calls"][0] == 1
    assert found["cli.check.les-main.s"][0] > 0
    assert found["intlinalg.factorizations.calls"][0] > 0


def test_corrupted_expected_digest_fails_every_operation(tmp_path):
    workload = inputs.build("spectral", inputs.DEFAULT_SEED, tmp_path / "in",
                            tiny=True)
    expected = {op.label: "0" * 64 for op in workload.ops}
    measured = run.measure(workload, 0, False, expected, tmp_path)
    assert measured.attempted > 0
    assert len(measured.failures) == measured.attempted
    assert "invariant digest" in measured.failures[0]


def test_default_verify50_input_is_the_criterion_10_instance(tmp_path):
    from test_acceptance import performance_instance
    workload = inputs.build("verify50", inputs.DEFAULT_SEED, tmp_path)
    assert workload.inputs[0].read_bytes() == serialize(
        performance_instance())


def test_other_seeds_give_other_valid_inputs(tmp_path):
    for name in inputs.WORKLOADS:
        default = inputs.build(name, inputs.DEFAULT_SEED,
                               tmp_path / "a" / name)
        other = inputs.build(name, 1, tmp_path / "b" / name)
        assert [op.label for op in default.ops] == \
            [op.label for op in other.ops], name
        texts = [path.read_bytes() for path in other.inputs]
        assert texts != [path.read_bytes() for path in default.inputs], name
        assert all(validate(parse(text)).ok for text in texts), name


def test_expectations_cover_every_default_operation(tmp_path):
    expected = json.loads(run.EXPECTED.read_text())
    for name in inputs.WORKLOADS:
        workload = inputs.build(name, inputs.DEFAULT_SEED, tmp_path / name)
        assert set(expected[name]) == {op.label for op in workload.ops}


def test_reference_seconds_remove_a_uniform_slowdown():
    at = [i * 0.05 for i in range(41)]
    fast = Speed(at, [REFERENCE_PROBE_S] * len(at))
    slow = Speed(at, [2 * REFERENCE_PROBE_S] * len(at))
    measured = 1.0 - 20 * REFERENCE_PROBE_S
    assert fast.seconds(0.0, 1.0) == pytest.approx(measured)
    assert slow.seconds(0.0, 1.0) == pytest.approx(
        (1.0 - 40 * REFERENCE_PROBE_S) / 2)
    # an interval between two probes takes the speed of the nearer one
    assert slow.seconds(0.051, 0.052) == pytest.approx(0.0005)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail(list(range(1, 101)))
    assert value == 90 and pct == pytest.approx(90.0)
