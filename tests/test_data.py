"""Data model: construction, validation identities, orientation reversal,
serialization, and instance generation."""

from __future__ import annotations

import gc
import weakref

import pytest

from monofloer import duality, homology, spectral
from monofloer.cli import main, verify_all
from monofloer.complexes import _band, _differential, _kept, default_window
from monofloer.data import (
    CheckFailed,
    CriticalPoint,
    InvalidInput,
    MonopoleData,
    ParseError,
    SchemaError,
    THETA,
    _structure_compatible,
    curated_instances,
    generate_instances,
    invalid_instance,
    parse,
    reverse_orientation,
    serialize,
    validate,
)
from monofloer.intlinalg import AbelianGroupInvariants


def build(name, points, n=(), m=()):
    return MonopoleData.build(name, points, n, m)


def by_name(label):
    return next(d for d in curated_instances() if d.name == label)


# -- construction -----------------------------------------------------------

def test_build_canonicalizes_order_and_drops_zeros():
    d = build("x", [("b", 0), ("a", 1)], n=[("a", "b", 2), ("a", THETA, 0)])
    assert [p.id for p in d.points] == ["a", "b"]
    assert d.n_coeffs == (("a", "b", 2),)
    assert d.m_coeffs == ()
    assert d.n_value("a", "b") == 2
    assert d.n_value("a", THETA) == 0
    assert d.grading_of(THETA) == 0
    assert d.grading_of("b") == 0


def test_build_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        build("x", [("a", 0), ("a", 1)])


def test_build_rejects_reserved_and_empty_ids():
    with pytest.raises(ValueError):
        build("x", [(THETA, 0)])
    with pytest.raises(ValueError):
        build("x", [("", 0)])


def test_build_rejects_misplaced_coefficients():
    with pytest.raises(ValueError):
        build("x", [("a", 2), ("b", 0)], n=[("a", "b", 1)])
    with pytest.raises(ValueError):
        build("x", [("a", 1), ("b", 0)], m=[("a", "b", 1)])
    with pytest.raises(ValueError):
        build("x", [("a", 2)], n=[("a", THETA, 1)])
    with pytest.raises(ValueError):
        build("x", [("a", 0)], n=[(THETA, "a", 1)])
    with pytest.raises(ValueError):
        build("x", [("a", 2)], m=[("a", THETA, 1)])
    with pytest.raises(ValueError):
        build("x", [("a", 1)], n=[("a", "ghost", 1)])


def test_build_errors_are_schema_errors_naming_the_field():
    for points, n, m, field in (([("a", 0), ("a", 1)], (), (), "id"),
                                ([(THETA, 0)], (), (), "id"),
                                ([("a", 2), ("b", 0)], [("a", "b", 1)], (),
                                 "n"),
                                ([("a", 1), ("b", 0)], (), [("a", "b", 1)],
                                 "m")):
        with pytest.raises(SchemaError) as e:
            build("x", points, n, m)
        assert e.value.field == field


def test_points_are_hashable_and_data_is_hashable():
    d = by_name("theta-coupled-pair")
    assert hash(d) == hash(by_name("theta-coupled-pair"))
    assert CriticalPoint("a", 1) == CriticalPoint("a", 1)


# -- validation -------------------------------------------------------------

def test_curated_instances_validate_ok():
    for d in curated_instances():
        report = validate(d)
        assert report.ok, (d.name, report.violations)
        assert report.violations == ()


def test_invalid_instance_fails_bprime_with_value_one():
    report = validate(invalid_instance())
    assert not report.ok
    assert report.violations == (("identity-Bprime", ("a", "d"), 1),)


def test_identity_a_violation_irreducible_chain():
    d = build("bad", [("a", 2), ("b", 1), ("c", 0)],
              n=[("a", "b", 1), ("b", "c", 1)])
    report = validate(d)
    assert report.violations == (("identity-A", ("a", "c"), 1),)


def test_identity_a_violation_theta_target():
    d = build("bad", [("a", 2), ("b", 1)], n=[("a", "b", 1), ("b", THETA, 1)])
    report = validate(d)
    assert report.violations == (("identity-A", ("a", THETA), 1),)


def test_identity_a_violation_theta_source():
    d = build("bad", [("d", -2), ("e", -3)],
              n=[(THETA, "d", 1), ("d", "e", 1)])
    report = validate(d)
    assert report.violations == (("identity-A", (THETA, "e"), 1),)


def test_identity_b_violation():
    d = build("bad", [("w", 2), ("x", 1), ("y", 0), ("z", -1)],
              n=[("w", "x", 2), ("y", "z", 1)],
              m=[("x", "z", 3), ("w", "y", 5)])
    report = validate(d)
    assert report.violations == (("identity-B", ("w", "z"), 1),)


def test_violations_are_sorted():
    d = build("bad", [("a", 2), ("b", 1), ("c", 0)],
              n=[("a", "b", 1), ("b", "c", 1), ("b", THETA, 1)])
    report = validate(d)
    # (a, c) pair value 1, (a, theta) pair value 1, sorted by involved ids
    assert [v[1] for v in report.violations] == [("a", "c"), ("a", THETA)]


# -- orientation reversal ---------------------------------------------------

def test_reverse_empty_is_fixed_point_up_to_name():
    d = by_name("empty")
    r = reverse_orientation(d)
    assert r.points == ()
    assert reverse_orientation(r) == d


def test_reverse_theta_pair_frozen():
    r = reverse_orientation(by_name("theta-coupled-pair"))
    assert {(p.id, p.grading) for p in r.points} == {("a-", -2), ("d-", 1)}
    assert r.n_coeffs == ((THETA, "a-", 1),)
    assert r.m_coeffs == ()


def test_reverse_two_step_frozen():
    r = reverse_orientation(by_name("two-step"))
    assert {(p.id, p.grading) for p in r.points} == {("a-", -2), ("b-", -1)}
    assert r.n_coeffs == (("b-", "a-", -2),)


def test_reverse_euler_pair_frozen():
    r = reverse_orientation(by_name("euler-pair"))
    assert {(p.id, p.grading) for p in r.points} == {("a-", -3), ("c-", -1)}
    assert r.m_coeffs == (("c-", "a-", 3),)


def test_reverse_tail_chain_frozen():
    r = reverse_orientation(by_name("tail-chain"))
    assert {(p.id, p.grading) for p in r.points} == {
        ("p-", -4), ("q-", -2), ("d-", 1)}
    assert r.n_coeffs == ((THETA, "q-", 3),)
    assert r.m_coeffs == (("q-", "p-", 2),)


def test_reverse_gradings_and_double_reverse():
    for d in curated_instances():
        r = reverse_orientation(d)
        assert validate(r).ok, d.name
        gr = {p.id: p.grading for p in d.points}
        for p in r.points:
            original = p.id[:-1]
            assert p.grading == -gr[original] - 1
        assert reverse_orientation(r) == d


def test_toggle_id_is_an_involution_on_dashed_ids():
    from monofloer.data import _toggle_id

    for stem in ("a", THETA, ""):
        for dashes in range(6):
            pid = stem + "-" * dashes
            if pid in ("", THETA):
                continue  # not legal point ids
            toggled = _toggle_id(pid)
            assert toggled not in ("", THETA), pid
            assert toggled != pid, pid
            assert _toggle_id(toggled) == pid, pid


def test_memo_lives_and_dies_with_its_dataset():
    data = by_name("gap-three-chain")
    assert reverse_orientation(data) is reverse_orientation(data)
    ref = weakref.ref(data)
    assert verify_all(data)["ok"]
    del data
    gc.collect()
    assert ref() is None


# every per-dataset memo keyed by (flavor, degree)
BAND_DEGREE_MEMOS = (_kept, _differential, homology.presentation_at,
                     duality._cohomology_at, spectral._filtrations,
                     spectral._critical_filtrations)


def test_far_windows_leave_the_memo_as_it_was():
    """A memo keyed by degree stores band degrees only, onto which every
    other degree folds, so windows far past the band add no entry."""
    from test_acceptance import performance_instance

    data = performance_instance()
    assert verify_all(data)["ok"]
    size = len(data._memo)
    lo, hi = default_window(data)
    for start in (10 ** 6, 2 * 10 ** 6, 3 * 10 ** 6):
        assert verify_all(data, (start, start + hi - lo))["ok"]
        assert len(data._memo) == size, start
    band_lo, band_hi = _band(data)
    folded = {fn.__wrapped__ for fn in BAND_DEGREE_MEMOS}
    keys = [key for key in data._memo if key[0] in folded]
    assert keys
    for fn, flavor, n in keys:
        assert band_lo <= n <= band_hi, (fn.__name__, flavor, n)


def test_reverse_requires_valid_input():
    with pytest.raises(InvalidInput):
        reverse_orientation(invalid_instance())


# -- serialization ----------------------------------------------------------

CANONICAL_THETA_PAIR = (
    b'{"name": "theta-coupled-pair", '
    b'"points": [{"id": "a", "gr": 1}, {"id": "d", "gr": -2}], '
    b'"n": [{"from": "a", "to": "theta", "value": 1}], '
    b'"m": []}'
)


def test_serialize_frozen_bytes():
    assert serialize(by_name("theta-coupled-pair")) == CANONICAL_THETA_PAIR


def test_parse_round_trip():
    for d in curated_instances():
        blob = serialize(d)
        assert parse(blob) == d
        assert serialize(parse(blob)) == blob


def test_parse_accepts_str_input():
    assert parse(CANONICAL_THETA_PAIR.decode()) == by_name("theta-coupled-pair")


def test_parse_rejects_unknown_fields():
    with pytest.raises(SchemaError) as e:
        parse(b'{"name": "x", "points": [], "n": [], "m": [], "extra": 1}')
    assert "extra" in str(e.value)
    with pytest.raises(SchemaError) as e:
        parse(b'{"name": "x", "points": [{"id": "a", "gr": 0, "spin": 1}], '
              b'"n": [], "m": []}')
    assert "spin" in str(e.value)


def test_parse_rejects_missing_fields():
    with pytest.raises(SchemaError) as e:
        parse(b'{"name": "x", "points": []}')
    assert "n" in str(e.value)


def test_parse_rejects_duplicate_point_ids():
    with pytest.raises(SchemaError):
        parse(b'{"name": "x", "points": [{"id": "a", "gr": 0}, '
              b'{"id": "a", "gr": 1}], "n": [], "m": []}')


def test_parse_rejects_placement_violation():
    with pytest.raises(SchemaError):
        parse(b'{"name": "x", "points": [{"id": "a", "gr": 2}, '
              b'{"id": "b", "gr": 0}], '
              b'"n": [{"from": "a", "to": "b", "value": 1}], "m": []}')


def test_parse_rejects_zero_value_and_bad_types():
    with pytest.raises(SchemaError):
        parse(b'{"name": "x", "points": [{"id": "a", "gr": 1}], '
              b'"n": [{"from": "a", "to": "theta", "value": 0}], "m": []}')
    with pytest.raises(SchemaError):
        parse(b'{"name": "x", "points": [{"id": "a", "gr": true}], '
              b'"n": [], "m": []}')
    with pytest.raises(SchemaError):
        parse(b'{"name": 7, "points": [], "n": [], "m": []}')


_POINT = b'{"id": "a", "gr": 1}'
_TO_THETA = b'{"from": "a", "to": "theta", "value": %d}'


@pytest.mark.parametrize("doc, field", [
    (b'[]', "$"),
    (b'{"name": "x", "points": {}, "n": [], "m": []}', "points"),
    (b'{"name": "x", "points": [], "n": {}, "m": []}', "n"),
    (b'{"name": "x", "points": [], "n": [], "m": "m"}', "m"),
    (b'{"name": "x", "points": [1], "n": [], "m": []}', "points"),
    (b'{"name": "x", "points": [], "n": [[]], "m": []}', "n"),
    (b'{"name": "x", "points": [], "n": [], "m": [null]}', "m"),
    # parse passes a duplicated coefficient on; MonopoleData refuses it
    (b'{"name": "x", "points": [' + _POINT + b'], "n": ['
     + _TO_THETA % 1 + b', ' + _TO_THETA % 2 + b'], "m": []}', "n"),
])
def test_parse_refuses_a_misshapen_document_naming_the_field(
        tmp_path, capsys, doc, field):
    with pytest.raises(SchemaError) as e:
        parse(doc)
    assert e.value.field == field
    path = tmp_path / "data.json"
    path.write_bytes(doc)
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("points, n, field", [
    ((CriticalPoint("b", 0), CriticalPoint("a", 0)), (), "id"),
    ((CriticalPoint("a", 1),), (("a", THETA, 0),), "n"),
    ((CriticalPoint("a", 1), CriticalPoint("b", 1)),
     (("b", THETA, 1), ("a", THETA, 1)), "n"),
])
def test_data_built_directly_must_be_canonical(points, n, field):
    # unsorted points, a stored zero, unsorted coefficients
    with pytest.raises(SchemaError) as e:
        MonopoleData("x", points, n)
    assert e.value.field == field


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse(b'{"name": "x",\n  broken')
    assert e.value.line == 2
    assert e.value.position >= 1
    with pytest.raises(ParseError):
        parse(b"\xff\xfe")


# -- failures ---------------------------------------------------------------

def test_check_failed_fields():
    z, zero = AbelianGroupInvariants(1), AbelianGroupInvariants(0)
    err = CheckFailed(3, "the two sides differ", cokernel=z, kernel=zero)
    assert err.degree == 3
    assert list(err.values.items()) == [("cokernel", z), ("kernel", zero)]
    assert str(err) == "degree 3: the two sides differ"


# -- generation -------------------------------------------------------------

def test_generate_is_deterministic_and_valid():
    a = generate_instances(seed=7, size=6, attempts=120)
    b = generate_instances(seed=7, size=6, attempts=120)
    assert a == b
    assert a[: len(curated_instances())] == list(curated_instances())
    for d in a:
        assert validate(d).ok
        assert len(d.points) <= 6


def test_generate_finds_noncurated_instances():
    out = generate_instances(seed=3, size=5, attempts=300)
    extra = out[len(curated_instances()):]
    assert extra
    assert any(d.n_coeffs or d.m_coeffs for d in extra)


def test_generate_drops_data_the_structure_theorem_rejects():
    """Valid data can fail the orbit-complex comparison, here at degree 0
    (prediction Z + Z/2, direct Z); the corpus leaves such data out."""
    data = MonopoleData.build("structure-fails", [("g0", 1), ("g1", 0)],
                              n=[("g0", "g1", 2), ("g0", THETA, -1)])
    assert validate(data).ok
    assert not _structure_compatible(data)
    with pytest.raises(CheckFailed) as info:
        spectral.structure_theorem(data)
    assert info.value.degree == 0


def test_generate_rejects_oversized_request():
    with pytest.raises(InvalidInput):
        generate_instances(seed=0, size=13, attempts=1)
