"""Property tests: the engine against the dense oracle, under gauges.

Datasets are drawn from the seeded corpus (the curated instances plus
rejection-sampled ones) and moved by a seeded gauge that permutes the point
ids and flips the sign of each point.  A gauge is an isomorphism of
complexes, so it must change no invariant and no verdict.  Examples are
derandomized and no example database is written, so every run is the same.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import oracle
from monofloer.cli import verify_all
from monofloer.complexes import Flavor, default_window
from monofloer.data import THETA, MonopoleData, generate_instances, \
    reverse_orientation, validate
from monofloer.duality import duality_check
from monofloer.homology import homology_at
from test_complexes import compare_with_oracle, oracle_dataset

POOL = generate_instances(2026, 6, 60)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


def regauge(data: MonopoleData, seed: int) -> MonopoleData:
    """An isomorphic copy: ids permuted, each point's sign flipped at
    random; every coefficient picks up the signs of both endpoints."""
    rng = random.Random(seed)
    ids = [p.id for p in data.points]
    rename = dict(zip(ids, rng.sample(ids, len(ids))))
    rename[THETA] = THETA
    sign = {pid: rng.choice((1, -1)) for pid in ids}
    sign[THETA] = 1

    def move(coeffs):
        return [(rename[s], rename[d], v * sign[s] * sign[d])
                for (s, d, v) in coeffs]

    moved = MonopoleData.build(
        data.name, [(rename[p.id], p.grading) for p in data.points],
        n=move(data.n_coeffs), m=move(data.m_coeffs))
    assert validate(moved).ok, data.name
    return moved


gauged = st.tuples(st.sampled_from(POOL), st.integers(0, 2 ** 32 - 1)).map(
    lambda pair: (pair[0], regauge(*pair)))


@SETTINGS
@given(gauged)
def test_differentials_match_the_oracle(pair):
    _, data = pair
    blob = oracle_dataset(data)
    lo, hi = default_window(data)
    for flavor in Flavor:
        for n in range(lo, hi + 1):
            compare_with_oracle(data, blob, flavor, n)


@SETTINGS
@given(gauged)
def test_homology_matches_the_oracle_and_ignores_the_gauge(pair):
    original, data = pair
    blob = oracle_dataset(data)
    lo, hi = default_window(data)
    assert default_window(original) == (lo, hi)
    for flavor in Flavor:
        for n in range(lo, hi + 1):
            got = homology_at(data, flavor, n)
            free, torsion = oracle.oracle_homology_at(blob, flavor.value, n)
            assert (got.free_rank, list(got.torsion)) == (free, torsion), (
                data.name, flavor, n)
            assert got == homology_at(original, flavor, n), (
                data.name, flavor, n)
    assert verify_all(data)["checks"] == verify_all(original)["checks"]


@SETTINGS
@given(gauged)
def test_reversal_is_an_involution_and_duality_holds_both_ways(pair):
    _, data = pair
    rev = reverse_orientation(data)
    double = reverse_orientation(rev)
    assert (double.name, double.points, double.n_coeffs, double.m_coeffs) == (
        data.name, data.points, data.n_coeffs, data.m_coeffs)
    assert duality_check(data).ok
    assert duality_check(rev).ok
